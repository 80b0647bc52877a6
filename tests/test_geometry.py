"""The frame pieces of kacsim.geometry, and the laws of the collision rule
they build, checked on the code that runs it: the python reference steppers
``system.step_kac``/``system.step_coupled`` and the engine's advance
functions (C loop, or the python fallback where it cannot be built)."""

import numpy as np
import pytest
from scipy import stats

from kacsim import _engine, geometry as geo, system


def unit(rng, d):
    g = rng.standard_normal(d)
    return g / np.linalg.norm(g)


def test_orthonormal_to_well_conditioned():
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = unit(rng, 3)
        m = geo.orthonormal_to(n)
        assert abs(m @ n) < 1e-12
        assert abs(np.linalg.norm(m) - 1.0) < 1e-12
    # near-axis input stays stable
    n = np.array([1.0, 1e-9, 0.0])
    n /= np.linalg.norm(n)
    m = geo.orthonormal_to(n)
    assert abs(m @ n) < 1e-12


def test_complement_unit_annihilation():
    n = np.array([1.0, 0.0, 0.0])
    m = np.array([0.0, 1.0, 0.0])
    with pytest.raises(geo.GeometryError):
        geo.complement_unit(n + 2.0 * m, (n, m))


def test_sample_azimuth_cos_moments():
    """cos(phi) = 1 - 2B with B ~ Beta((d-2)/2, (d-2)/2): mean 0, second
    moment 1/(d-1)."""
    rng = np.random.default_rng(16)
    for d in (3, 4, 8):
        c = geo.sample_azimuth_cos(d, rng, size=200_000)
        assert abs(np.mean(c)) < 4.0 / np.sqrt(c.size / (d - 1.0))
        se = np.std(c * c, ddof=1) / np.sqrt(c.size)
        assert abs(np.mean(c * c) - 1.0 / (d - 1)) < 4 * se
    with pytest.raises(geo.GeometryError):
        geo.sample_azimuth_cos(2, rng)


def test_transport_frames_exact_relations():
    """The frame relations hold at random angles, at angles down to 1e-12
    from 0 and from pi, and where n_u + n_v is rounding noise 2e-6 from
    n_u - n_v (a second projection), none of which completes the plane."""
    rng = np.random.default_rng(19)
    ulp = np.spacing(0.6)
    noise = [(np.array([0.6, 0.8, 0.0]),
              np.array([-0.6 - 3 * k * ulp, -0.8 - 4 * k * ulp, 1e-21]))
             for k in (1, 5)]
    for d in (3, 6):
        pairs = [(unit(rng, d), unit(rng, d)) for _ in range(300)]
        pairs += noise if d == 3 else []
        for eps in (1e-12, 1e-8, 1e-4):
            for sign in (1.0, -1.0):
                n = unit(rng, d)
                p = geo.complement_unit(rng.standard_normal(d), (n,))
                n_v = sign * np.cos(eps) * n + np.sin(eps) * p
                pairs.append((n, n_v / np.linalg.norm(n_v)))
        for n_u, n_v in pairs:
            m_u, m_v, completed = geo.transport_frames(n_u, n_v)
            c = n_u @ n_v
            assert not completed
            assert abs(np.linalg.norm(m_u) - 1.0) < 1e-12
            assert abs(np.linalg.norm(m_v) - 1.0) < 1e-12
            assert abs(m_u @ n_u) < 1e-12
            assert abs(m_v @ n_v) < 1e-12
            assert abs(m_u @ m_v - c) < 1e-12
            assert abs(n_u @ m_v + m_u @ n_v) < 1e-12
            # m_u points from n_u toward n_v
            assert m_u @ n_v >= 0.0


def test_transport_frames_parallel_and_antipodal():
    n = np.array([0.0, 0.0, 1.0])
    m_u, m_v, completed = geo.transport_frames(n, n.copy())
    np.testing.assert_array_equal(m_u, m_v)
    np.testing.assert_array_equal(m_u, geo.orthonormal_to(n))
    assert not completed

    with pytest.raises(geo.GeometryError):
        geo.transport_frames(n, -n)  # needs a tie-break vector
    sigma = np.array([0.3, 0.4, 0.5])
    m_u, m_v, completed = geo.transport_frames(n, -n, sigma)
    np.testing.assert_allclose(m_v, -m_u)
    assert abs(m_u @ n) < 1e-12
    assert completed


def _directions(x):
    """Unit relative directions of the particle pairs (2k, 2k+1)."""
    diff = x[0::2] - x[1::2]
    return diff / np.linalg.norm(diff, axis=1, keepdims=True)


def _collide_pairs(thetas, rng, *axes):
    """One engine batch over one copy, or two coupled copies: event k
    collides the disjoint pair (2k, 2k+1), whose relative velocity in each
    copy is the unit vector axes[c][k].  Returns each copy's outgoing
    relative velocities, unit vectors as long as the rule keeps the
    relative speed."""
    size, d = axes[0].shape
    states = []
    for a in axes:
        x = np.zeros((2 * size, d))
        x[0::2] = a
        states.append(x)
    batch = dict(thetas=thetas, cphis=geo.sample_azimuth_cos(d, rng, size),
                 exps=np.ones(size), pi=np.arange(0, 2 * size, 2),
                 pj=np.arange(1, 2 * size, 2),
                 gl=rng.standard_normal((size, d)))
    if len(axes) == 2:
        batch["gs"] = rng.standard_normal((size, d))
        advance = _engine.advance_coupled
    else:
        advance = _engine.advance_kac
    acc = np.zeros(8)
    *_, status = advance(*states, 0.0, 0.0, np.inf, 1.0, np.inf, **batch,
                         cursor=0, proj_ctr=0, proj_every=10 ** 9, acc=acc)
    assert status == 1 and acc[4] == size
    return [x[0::2] - x[1::2] for x in states]


def _random_axes(rng, size, d):
    a = rng.standard_normal((size, d))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def test_post_collision_conserves_pair():
    """One step_kac event keeps the pair sum, the relative speed and hence
    the pair energy."""
    rng = np.random.default_rng(11)
    for d in (3, 5):
        v = rng.standard_normal((2, d))
        before = v.copy()
        system.step_kac(v, None, rate=1.0,
                        draws=(1.0, 0, 0, 1.3, 0.2, rng.standard_normal(d)))
        np.testing.assert_allclose(v.sum(axis=0), before.sum(axis=0),
                                   atol=1e-12)
        assert abs(np.linalg.norm(v[0] - v[1])
                   - np.linalg.norm(before[0] - before[1])) < 1e-12
        assert abs(np.sum(v * v) - np.sum(before * before)) < 1e-12


def test_post_collision_coincident_pair():
    """A pair at rest relative to each other maps to itself bit for bit,
    whatever the drawn angles."""
    v = np.array([[0.3, -0.2, 0.9], [0.3, -0.2, 0.9], [-0.6, 0.4, -1.8]])
    before = v.copy()
    system.step_kac(v, None, rate=1.0,
                    draws=(1.0, 0, 0, 1.1, 0.3, np.array([0.5, 0.1, -0.7])))
    np.testing.assert_array_equal(v, before)


def test_step_kac_direction_angle():
    """The outgoing direction makes angle theta with the incoming axis n and
    has azimuth cos(phi) toward the reference vector orthonormal_to(n)."""
    rng = np.random.default_rng(13)
    v = rng.standard_normal((2, 5))
    r = np.linalg.norm(v[0] - v[1])
    n = (v[0] - v[1]) / r
    m = geo.orthonormal_to(n)
    theta, phi = 0.7, 2.1
    system.step_kac(v, None, rate=1.0, draws=(1.0, 0, 0, theta, np.cos(phi),
                                              rng.standard_normal(5)))
    out = (v[0] - v[1]) / r
    assert abs(out @ out - 1.0) < 1e-12
    assert abs(out @ n - np.cos(theta)) < 1e-12
    assert abs(out @ m - np.sin(theta) * np.cos(phi)) < 1e-12


def test_kac_direction_deflection():
    """5000 single-copy engine events at theta = 1.234 each leave their own
    axis at exactly that angle, with unit outgoing direction."""
    rng = np.random.default_rng(17)
    theta = 1.234
    axes = _random_axes(rng, 5000, 4)
    (out,) = _collide_pairs(np.full(5000, theta), rng, axes)
    np.testing.assert_allclose(np.einsum("id,id->i", out, axes),
                               np.cos(theta), atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_kac_direction_marginal_uniform():
    """The off-axis part must be uniform on the (d-2)-sphere of the
    orthogonal complement: any fixed tangent coordinate of 10^5 engine
    events on one axis is indistinguishable from the azimuth construction
    at the 1% level."""
    rng = np.random.default_rng(18)
    size, d, theta = 100_000, 3, 0.9
    axes = np.zeros((size, d))
    axes[:, 0] = 1.0
    (out,) = _collide_pairs(np.full(size, theta), rng, axes)
    w = out[:, 1] / np.sin(theta)  # tangent coordinate, should be cos(uniform angle)
    u = np.arctan2(out[:, 2], out[:, 1])
    assert stats.kstest(w, lambda x: np.arccos(np.clip(-x, -1, 1)) / np.pi).pvalue > 0.01
    assert stats.kstest(u, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf).pvalue > 0.01


def _coupled_step(rng, d, theta, cphi):
    """One step_coupled event on two random two-particle copies; returns the
    axes and outgoing directions (n_u, n_v, out_u, out_v)."""
    u, v = rng.standard_normal((2, d)), rng.standard_normal((2, d))
    n_u, n_v = _directions(u)[0], _directions(v)[0]
    system.step_coupled(u, v, None, rate=1.0,
                        draws=(1.0, 0, 0, theta, cphi, rng.standard_normal(d),
                               rng.standard_normal(d)))
    return n_u, n_v, _directions(u)[0], _directions(v)[0]


def test_coupled_identity_balance():
    """<n'_u, n'_v> - c = -sin^2(theta) sin^2(phi) (c - 1) for generic pairs,
    within 1e-10."""
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(2000):
        d = int(rng.integers(3, 7))
        theta = float(rng.uniform(0.0, np.pi))
        cphi = float(geo.sample_azimuth_cos(d, rng))
        n_u, n_v, out_u, out_v = _coupled_step(rng, d, theta, cphi)
        c = n_u @ n_v
        lhs = out_u @ out_v - c
        s2 = 1.0 - cphi * cphi
        worst = max(worst, abs(lhs + np.sin(theta) ** 2 * s2 * (c - 1.0)))
    assert worst < 1e-10


def test_parallel_transport_fixes_complement():
    """The coupled outputs differ only inside span(n_u, n_v): the rotation
    carrying one frame onto the other fixes the complement, where both
    outputs hold the same sin(theta) sin(phi) l."""
    rng = np.random.default_rng(21)
    for _ in range(100):
        n_u, n_v, out_u, out_v = _coupled_step(rng, 5, 1.0, 0.2)
        m_u, _, _ = geo.transport_frames(n_u, n_v)
        gap = out_u - out_v
        gap -= (gap @ n_u) * n_u + (gap @ m_u) * m_u
        assert np.linalg.norm(gap) < 1e-12


def test_coupled_marginals_match_single_system():
    """Each copy of one coupled engine batch has the single-system law at
    the same deflection angle (two-sample tests at the 1% level against
    independent single-copy events, 2 * 10^4 events)."""
    rng = np.random.default_rng(24)
    size, d, theta = 20_000, 3, 1.1
    thetas = np.full(size, theta)
    n_u, n_v = _random_axes(rng, size, d), _random_axes(rng, size, d)
    out_u, out_v = _collide_pairs(thetas, rng, n_u, n_v)
    # independent axes and draws: a reference built from the coupled
    # run's own draws would be correlated with it and weaken the test
    (ref,) = _collide_pairs(thetas, rng, _random_axes(rng, size, d))

    np.testing.assert_allclose(np.einsum("id,id->i", out_u, n_u),
                               np.cos(theta), atol=1e-10)
    np.testing.assert_allclose(np.einsum("id,id->i", out_v, n_v),
                               np.cos(theta), atol=1e-10)
    # with uniformly random axes every coordinate of the outgoing direction
    # must match the single-system law
    assert stats.ks_2samp(out_u[:, 0], ref[:, 0]).pvalue > 0.01
    assert stats.ks_2samp(out_v[:, 1], ref[:, 1]).pvalue > 0.01
