import numpy as np
import pytest
from scipy import stats

from kacsim import geometry as geo


def unit(rng, d):
    g = rng.standard_normal(d)
    return g / np.linalg.norm(g)


def test_post_collision_conserves_pair():
    rng = np.random.default_rng(11)
    for d in (3, 5):
        v = rng.standard_normal(d)
        vs = rng.standard_normal(d)
        n_p = unit(rng, d)
        a, b = geo.post_collision_velocities(v, vs, n_p)
        np.testing.assert_allclose(a + b, v + vs, atol=1e-12)
        assert abs(np.linalg.norm(a - b) - np.linalg.norm(v - vs)) < 1e-12
        # energy follows from the two conservation laws
        assert abs(a @ a + b @ b - v @ v - vs @ vs) < 1e-12


def test_post_collision_coincident_pair():
    v = np.array([0.3, -0.2, 0.9])
    a, b = geo.post_collision_velocities(v, v, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(a, v)
    np.testing.assert_array_equal(b, v)


def test_post_collision_broadcasts():
    rng = np.random.default_rng(12)
    v = rng.standard_normal((7, 4))
    vs = rng.standard_normal((7, 4))
    n_p = rng.standard_normal((7, 4))
    n_p /= np.linalg.norm(n_p, axis=1, keepdims=True)
    a, b = geo.post_collision_velocities(v, vs, n_p)
    assert a.shape == (7, 4)
    np.testing.assert_allclose(a + b, v + vs, atol=1e-12)


def test_check_unit_rejects():
    with pytest.raises(geo.GeometryError):
        geo.check_unit(np.array([1.0, 0.0]))  # d = 2
    with pytest.raises(geo.GeometryError):
        geo.check_unit(np.array([1.0, 1.0, 0.0]))


def test_build_direction_angle():
    rng = np.random.default_rng(13)
    n = unit(rng, 5)
    m = geo.orthonormal_to(n)
    l = geo.complement_unit(rng.standard_normal(5), (n, m))
    theta, phi = 0.7, 2.1
    out = geo.build_direction(n, m, l, theta, phi)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    assert abs(out @ n - np.cos(theta)) < 1e-12
    assert abs(out @ m - np.sin(theta) * np.cos(phi)) < 1e-12


def test_collision_frame_validates():
    rng = np.random.default_rng(14)
    n = unit(rng, 3)
    m = geo.orthonormal_to(n)
    l = geo.complement_unit(rng.standard_normal(3), (n, m))
    frame = geo.CollisionFrame(n=n, m=m, l=l, theta=1.0, phi=0.5)
    np.testing.assert_allclose(frame.direction(),
                               geo.build_direction(n, m, l, 1.0, 0.5))
    with pytest.raises(geo.GeometryError):
        geo.CollisionFrame(n=n, m=n, l=l, theta=1.0, phi=0.5)


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


def test_sample_post_direction_deflection():
    rng = np.random.default_rng(17)
    n = unit(rng, 4)
    theta = 1.234
    out = geo.sample_post_direction(np.tile(n, (5000, 1)), theta, rng)
    np.testing.assert_allclose(out @ n, np.cos(theta), atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_sample_post_direction_marginal_uniform():
    """The off-axis part must be uniform on the (d-2)-sphere of the
    orthogonal complement: any fixed tangent coordinate of 10^5 draws is
    indistinguishable from the azimuth construction at the 1% level."""
    rng = np.random.default_rng(18)
    d = 3
    n = np.zeros(d)
    n[0] = 1.0
    out = geo.sample_post_direction(np.tile(n, (100_000, 1)), 0.9, rng)
    w = out[:, 1] / np.sin(0.9)  # tangent coordinate, should be cos(uniform angle)
    u = np.arctan2(out[:, 2], out[:, 1])
    assert stats.kstest(w, lambda x: np.arccos(np.clip(-x, -1, 1)) / np.pi).pvalue > 0.01
    assert stats.kstest(u, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf).pvalue > 0.01


def test_transport_frames_exact_relations():
    rng = np.random.default_rng(19)
    for d in (3, 6):
        for _ in range(300):
            n_u, n_v = unit(rng, d), unit(rng, d)
            m_u, m_v, c = geo.transport_frames(n_u, n_v)
            assert abs(m_u @ n_u) < 1e-12
            assert abs(m_v @ n_v) < 1e-12
            assert abs(m_u @ m_v - c) < 1e-12
            assert abs(n_u @ m_v + m_u @ n_v) < 1e-12


def test_transport_frames_parallel_and_antipodal():
    n = np.array([0.0, 0.0, 1.0])
    m_u, m_v, c = geo.transport_frames(n, n.copy())
    np.testing.assert_array_equal(m_u, m_v)
    assert c == 1.0

    with pytest.raises(geo.GeometryError):
        geo.transport_frames(n, -n)  # needs a tie-break vector
    sigma = np.array([0.3, 0.4, 0.5])
    m_u, m_v, c = geo.transport_frames(n, -n, sigma)
    np.testing.assert_allclose(m_v, -m_u)
    assert abs(m_u @ n) < 1e-12
    assert c == -1.0


def test_parallel_transport_map_moves_and_inverts():
    rng = np.random.default_rng(20)
    for _ in range(100):
        n_u, n_v = unit(rng, 4), unit(rng, 4)
        rot = geo.parallel_transport_map(n_u, n_v)
        np.testing.assert_allclose(rot.apply(n_u), n_v, atol=1e-10)
        # swapping arguments gives the inverse map
        back = geo.parallel_transport_map(n_v, n_u)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(back.apply(rot.apply(x)), x, atol=1e-10)
        np.testing.assert_allclose(rot.inverse().apply(rot.apply(x)), x,
                                   atol=1e-10)


def test_parallel_transport_fixes_complement():
    rng = np.random.default_rng(21)
    n_u, n_v = unit(rng, 5), unit(rng, 5)
    rot = geo.parallel_transport_map(n_u, n_v)
    w = geo.complement_unit(rng.standard_normal(5), (rot.e1, rot.e2))
    np.testing.assert_allclose(rot.apply(w), w, atol=1e-12)


def test_coupled_identity_balance():
    """<n'_u, n'_v> - c = -sin^2(theta) sin^2(phi) (c - 1) for generic pairs,
    within 1e-10."""
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(2000):
        d = int(rng.integers(3, 7))
        n_u, n_v = unit(rng, d), unit(rng, d)
        theta = float(rng.uniform(0.0, np.pi))
        out_u, out_v = geo.coupled_post_directions(n_u, n_v, theta, rng)
        c = n_u @ n_v
        # recover sin^2(phi) from the out-of-plane component of out_u
        m_u, m_v, _ = geo.transport_frames(n_u, n_v)
        sin_phi_l = out_u - np.cos(theta) * n_u - (out_u @ m_u) * m_u
        s2 = (sin_phi_l @ sin_phi_l) / max(np.sin(theta) ** 2, 1e-300)
        lhs = out_u @ out_v - c
        worst = max(worst, abs(lhs + np.sin(theta) ** 2 * s2 * (c - 1.0)))
    assert worst < 1e-10


def test_coupled_same_inputs_coincide():
    rng = np.random.default_rng(23)
    n = unit(rng, 3)
    out_u, out_v = geo.coupled_post_directions(n, n.copy(), 0.8, rng)
    np.testing.assert_array_equal(out_u, out_v)


def test_coupled_marginals_match_single_system():
    """Each output of the coupled sampler has the single-system law at the
    same deflection angle (two-sample tests at the 1% level, 2 * 10^4
    draws)."""
    rng = np.random.default_rng(24)
    size, d, theta = 20_000, 3, 1.1
    n_u = rng.standard_normal((size, d))
    n_u /= np.linalg.norm(n_u, axis=1, keepdims=True)
    n_v = rng.standard_normal((size, d))
    n_v /= np.linalg.norm(n_v, axis=1, keepdims=True)
    out_u, out_v = np.array([geo.coupled_post_directions(a, b, theta, rng)
                             for a, b in zip(n_u, n_v)]).transpose(1, 0, 2)
    ref = geo.sample_post_direction(n_u, theta, rng)

    np.testing.assert_allclose(np.einsum("id,id->i", out_u, n_u),
                               np.cos(theta), atol=1e-10)
    np.testing.assert_allclose(np.einsum("id,id->i", out_v, n_v),
                               np.cos(theta), atol=1e-10)
    # with uniformly random axes every coordinate of the outgoing direction
    # must match the single-system law
    assert stats.ks_2samp(out_u[:, 0], ref[:, 0]).pvalue > 0.01
    assert stats.ks_2samp(out_v[:, 1], ref[:, 1]).pvalue > 0.01


def test_coupled_antipodal_outputs_share_the_angle():
    rng = np.random.default_rng(25)
    n = unit(rng, 3)
    out_u, out_v = geo.coupled_post_directions(n, -n, 0.6, rng)
    # the plane is completed at random, yet both outputs are unit vectors
    # at the deflection angle from their own axis
    for out, axis in ((out_u, n), (out_v, -n)):
        assert abs(out @ out - 1.0) < 1e-12
        assert abs(out @ axis - np.cos(0.6)) < 1e-12
