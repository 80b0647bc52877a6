"""The C event loop against the python reference steppers.

The coupled frame is driven on purpose with constructed one-event batches:
generic, nearly parallel, nearly and exactly antipodal directions, and
zero relative speed in one copy are compared with ``system.step_coupled``,
and a sweep of angles near 0 and pi checks the per-event identities on
both backends.  A single copy (generic pair, pair at rest) is compared
with ``system.step_kac``; the python fallback is forced and compared with
the C loop on multi-batch runs with reprojection.  The python stepper
rounds as the C loop does, so every comparison is exact.  The pair pass
``pair_sums`` is checked against closed forms here and against the numpy
pair matrices in test_analysis, at every vector width the CPU runs.
"""

import ctypes
import re
import shutil
import subprocess
import types
from pathlib import Path

import numpy as np
import pytest

from kacsim import _engine, geometry, kernels, system

UNIFORM = kernels.make_kernel("uniform", theta_min=0.0)
ATOL = 1e-12

needs_c = pytest.mark.skipif(_engine.BACKEND != "c",
                             reason="the C event loop is not loaded")


def _unit(x):
    return x / np.sqrt(x @ x)


def _one_event_batch(i, j, theta, cphi, gl, gs=None):
    d = gl.shape[0]
    return dict(thetas=np.array([theta]), cphis=np.array([cphi]),
                exps=np.array([0.25]), pi=np.array([i], dtype=np.int64),
                pj=np.array([j], dtype=np.int64), gl=gl.reshape(1, d),
                **({} if gs is None else {"gs": gs.reshape(1, d)}))


def _engine_coupled_event(u, v, i, j, theta, cphi, gl, gs):
    """One coupled event through the engine; returns (u, v, acc).

    acc starts the signed-increment slots at -inf so that after one event
    they hold that event's increment, whatever its sign.
    """
    u, v = u.copy(), v.copy()
    acc = np.array([0.0, -np.inf, 0.0, 0.0, 0.0, -np.inf, 0.0, 0.0])
    out = _engine.advance_coupled(
        u, v, 0.0, 0.5, np.inf, 1.0, 1.0,
        cursor=0, proj_ctr=0, proj_every=10 ** 9, acc=acc,
        **_one_event_batch(i, j, theta, cphi, gl, gs))
    assert out == (0.5, 0.75, 1, 1, 2)
    return u, v, acc


def _reference_coupled_event(u, v, i, j, theta, cphi, gl, gs):
    u, v = u.copy(), v.copy()
    j0 = j - 1 if j > i else j
    t, _, delta, resid, completed = system.step_coupled(
        u, v, None, t=0.5, rate=1.0, draws=(0.25, i, j0, theta, cphi, gl, gs))
    assert t == 0.75
    return u, v, delta, resid, completed


def _branch_states(branch, d, rng):
    """Two 4-particle copies whose pair (0, 1) falls in ``branch``."""
    u = rng.standard_normal((4, d))
    v = rng.standard_normal((4, d))
    du = u[0] - u[1]
    p = geometry.complement_unit(rng.standard_normal(d), (_unit(du),))
    r = np.sqrt(du @ du)
    if branch == "parallel":
        # directions 1e-8 apart: 1 - cos ~ 5e-17, yet not identical
        v[0] = v[1] + 1.7 * (du + 1e-8 * r * p)
    elif branch == "antipodal":
        # 1 + cos ~ 5e-13, yet not antipodal
        v[0] = v[1] - 1.3 * (du + 1e-6 * r * p)
    elif branch == "antipodal_exact":
        # swapped rows: dv = -du exactly
        v[:2] = u[1::-1]
    elif branch == "v_at_rest":
        v[0] = v[1]
    elif branch == "u_at_rest":
        u[0] = u[1]
    return u, v


BRANCHES = ["generic", "parallel", "antipodal", "v_at_rest", "u_at_rest",
            "antipodal_exact"]


def _assert_deflected(theta, starts, outs):
    """In each copy whose pair (0, 1) moves, the outgoing relative velocity
    has the incoming speed and makes the angle theta with the incoming one,
    within ATOL."""
    for start, out in zip(starts, outs):
        axis, new = start[0] - start[1], out[0] - out[1]
        r = np.sqrt(axis @ axis)
        if r == 0.0:
            continue
        assert abs(np.sqrt(new @ new) / r - 1.0) <= ATOL
        assert abs(new @ axis / r ** 2 - np.cos(theta)) <= ATOL


@needs_c
@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("branch", BRANCHES)
def test_c_matches_reference_on_each_branch(branch, d):
    """C and the reference agree bit for bit, and every case obeys the
    per-event identity (residual, increment and conservation within ATOL,
    each copy deflected by theta); only the exactly antipodal one completes
    its plane with g_sigma."""
    rng = np.random.default_rng([d, BRANCHES.index(branch)])
    u, v = _branch_states(branch, d, rng)
    theta, cphi = 1.1, 0.3
    gl, gs = rng.standard_normal(d), rng.standard_normal(d)
    uc, vc, acc = _engine_coupled_event(u, v, 0, 1, theta, cphi, gl, gs)
    ur, vr, delta, resid, completed = _reference_coupled_event(
        u, v, 0, 1, theta, cphi, gl, gs)

    np.testing.assert_array_equal(uc, ur)
    np.testing.assert_array_equal(vc, vr)
    assert acc[4] == 1.0
    assert acc[2] <= ATOL
    assert isinstance(resid, float)
    assert acc[0] == abs(resid) <= ATOL
    assert acc[1] == delta <= ATOL
    _assert_deflected(theta, (u, v, u, v), (uc, vc, ur, vr))
    if branch == "antipodal_exact":
        assert completed and acc[3] == 1.0
        assert acc[5] == delta
    else:
        assert not completed and acc[3] == 0.0

    # the event really took its branch
    if branch in ("v_at_rest", "u_at_rest"):
        still, moved = (vc, uc) if branch == "v_at_rest" else (uc, vc)
        start_still, start_moved = (v, u) if branch == "v_at_rest" else (u, v)
        np.testing.assert_array_equal(still, start_still)
        assert np.max(np.abs(moved - start_moved)) > 1e-3


@needs_c
@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("branch", ["generic", "at_rest"])
def test_c_matches_reference_on_single_copy(branch, d):
    """One copy takes the frame of identical directions, bit for bit as
    the reference does; a pair at rest comes back unchanged."""
    rng = np.random.default_rng([d, 7, len(branch)])
    v = rng.standard_normal((4, d))
    if branch == "at_rest":
        v[0] = v[1]
    theta, cphi, gl = 1.1, 0.3, rng.standard_normal(d)
    vc, acc = v.copy(), np.zeros(8)
    out = _engine.advance_kac(vc, 0.0, 0.5, np.inf, 1.0, 1.0, cursor=0,
                              proj_ctr=0, proj_every=10 ** 9, acc=acc,
                              **_one_event_batch(0, 1, theta, cphi, gl))
    assert out == (0.5, 0.75, 1, 1, 2)
    vr = v.copy()
    t, _ = system.step_kac(vr, None, t=0.5, rate=1.0,
                           draws=(0.25, 0, 0, theta, cphi, gl))
    assert t == 0.75

    np.testing.assert_array_equal(vc, vr)
    assert acc[4] == 1.0 and acc[2] <= ATOL
    np.testing.assert_array_equal(acc[[0, 1, 3, 5, 6, 7]], 0.0)
    if branch == "at_rest":
        np.testing.assert_array_equal(vc, v)
    else:
        np.testing.assert_array_equal(vc[2:], v[2:])
        assert np.max(np.abs(vc - v)) > 1e-3


def test_c_thresholds_equal_geometry_constants():
    """The shared thresholds agree, and the angle cutoffs the half-angle
    frame replaced stay gone from both languages."""
    source = _engine._SOURCE.read_text()
    defines = dict(re.findall(r"^#define (\w+) (\S+)$", source,
                              re.MULTILINE))
    assert float(defines["REORTHO_RATIO"]) == geometry.REORTHO_RATIO
    assert float(defines["ANNIHILATION_SQ"]) == geometry.ANNIHILATION_SQ
    python_source = Path(geometry.__file__).read_text()
    for name in ("PARALLEL_EPS", "ANTIPODAL_EPS"):
        assert name not in defines and not hasattr(geometry, name)
        assert name not in source and name not in python_source


@pytest.fixture(params=["c", "python"])
def backend(request, monkeypatch):
    """Run a test on the C loop and on the forced python fallback."""
    if request.param == "c" and _engine.BACKEND != "c":
        pytest.skip("the C event loop is not loaded")
    if request.param == "python":
        monkeypatch.setattr(_engine, "_LIB", None)
        monkeypatch.setattr(_engine, "BACKEND", "python")
    return request.param


@pytest.mark.parametrize("i, j", [(0, 4), (-1, 1), (0, -1)],
                         ids=["j_past_end", "i_negative", "j_negative"])
def test_rejects_out_of_range_pair_index(backend, i, j):
    """An index outside [0, n) raises naming the slot, also a negative one
    that numpy would wrap to the last particle; the states stay unchanged."""
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    start, acc = (u.copy(), v.copy()), np.zeros(8)
    with pytest.raises(IndexError, match="batch slot 0"):
        _engine.advance_coupled(
            u, v, 0.0, 0.5, np.inf, 1.0, 1.0, cursor=0, proj_ctr=0,
            proj_every=10 ** 9, acc=acc,
            **_one_event_batch(i, j, 1.0, 0.0, rng.standard_normal(3),
                               rng.standard_normal(3)))
    assert acc[4] == 0.0
    np.testing.assert_array_equal(u, start[0])
    np.testing.assert_array_equal(v, start[1])


def test_kac_rejects_gaussian_along_the_axis(backend):
    """A g_l along n_hat leaves nothing after the projection: the event
    raises and its pair keeps its velocities."""
    rng = np.random.default_rng(41)
    v = system.sample_equilibrium(4, 3, rng)
    start, acc = v.copy(), np.zeros(8)
    g = 2.0 * _unit(v[0] - v[1])
    with pytest.raises(geometry.GeometryError, match="batch slot 0"):
        _engine.advance_kac(v, 0.0, 0.5, np.inf, 1.0, 1.0, cursor=0,
                            proj_ctr=0, proj_every=10 ** 9, acc=acc,
                            **_one_event_batch(0, 1, 1.2, 0.1, g))
    np.testing.assert_array_equal(v, start)
    assert acc[4] == 0.0


@pytest.mark.parametrize("scale, raises", [(0.9, True), (1.1, False)])
def test_kac_annihilation_threshold(backend, scale, raises):
    """Both backends refuse a g_l whose projection off span(n, m) has a
    squared length below geometry.ANNIHILATION_SQ and take one just above
    it."""
    rng = np.random.default_rng(44)
    v = system.sample_equilibrium(4, 3, rng)
    n_hat = _unit(v[0] - v[1])
    m_hat = geometry.orthonormal_to(n_hat)
    l_hat = geometry.complement_unit(rng.standard_normal(3), (n_hat, m_hat))
    g = 2.0 * n_hat + scale * np.sqrt(geometry.ANNIHILATION_SQ) * l_hat
    start, acc = v.copy(), np.zeros(8)
    batch = _one_event_batch(0, 1, 1.2, 0.1, g)
    args = (v, 0.0, 0.5, np.inf, 1.0, 1.0)
    kwargs = dict(cursor=0, proj_ctr=0, proj_every=10 ** 9, acc=acc, **batch)
    if raises:
        with pytest.raises(geometry.GeometryError, match="batch slot 0"):
            _engine.advance_kac(*args, **kwargs)
        np.testing.assert_array_equal(v, start)
    else:
        _engine.advance_kac(*args, **kwargs)
        assert acc[4] == 1.0 and acc[2] <= ATOL


@pytest.mark.parametrize("d", [3, 5])
def test_coupled_rejects_antipodal_sigma_along_the_axis(backend, d):
    """An antipodal event whose g_sigma lies along n_u cannot complete the
    plane: the event raises and both copies keep their velocities."""
    rng = np.random.default_rng([42, d])
    u, v = _branch_states("antipodal_exact", d, rng)
    start_u, start_v, acc = u.copy(), v.copy(), np.zeros(8)
    gs = 2.0 * _unit(u[0] - u[1])
    with pytest.raises(geometry.GeometryError, match="batch slot 0"):
        _engine.advance_coupled(
            u, v, 0.0, 0.5, np.inf, 1.0, 1.0, cursor=0, proj_ctr=0,
            proj_every=10 ** 9, acc=acc,
            **_one_event_batch(0, 1, 1.1, 0.3, rng.standard_normal(d), gs))
    np.testing.assert_array_equal(u, start_u)
    np.testing.assert_array_equal(v, start_v)
    assert acc[4] == 0.0


def _near_span_event(seed, offset):
    """A state and a Gaussian lying within ``offset`` of span(n, m) for
    pair (0, 1)."""
    rng = np.random.default_rng(seed)
    v = system.sample_equilibrium(4, 3, rng)
    n_hat = _unit(v[0] - v[1])
    m_hat = geometry.orthonormal_to(n_hat)
    l_hat = geometry.complement_unit(rng.standard_normal(3), (n_hat, m_hat))
    g = 0.8 * n_hat - 0.6 * m_hat + offset * l_hat
    return v, g


def _pair_energy_error(before, after):
    e0 = np.sum(before[:2] ** 2)
    return abs(np.sum(after[:2] ** 2) - e0) / e0


# 3e-10 takes the second projection; 1.01e-4 stays just outside it, where
# one projection leaves l_hat off-orthogonal by up to ~1e-12
@pytest.mark.parametrize("offset", [3e-10, 1.01e-4])
def test_kac_conserves_energy_when_gaussian_nearly_in_plane(offset):
    """Whatever l_hat's rounding, the outgoing direction is renormalized, so
    the pair energy is conserved to 1e-12 by the engine and the stepper."""
    theta, cphi = 1.2, 0.1
    for seed in range(50):
        v, g = _near_span_event(seed, offset)
        ref = v.copy()
        system.step_kac(ref, None, rate=1.0,
                        draws=(0.25, 0, 0, theta, cphi, g))
        assert _pair_energy_error(v, ref) <= 1e-12

        eng = v.copy()
        acc = np.zeros(8)
        _engine.advance_kac(eng, 0.0, 0.5, np.inf, 1.0, 1.0, cursor=0,
                            proj_ctr=0, proj_every=10 ** 9, acc=acc,
                            **_one_event_batch(0, 1, theta, cphi, g))
        assert acc[4] == 1.0
        assert acc[2] <= 1e-12
        assert _pair_energy_error(v, eng) <= 1e-12


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_coupled_identity_holds_when_gaussian_nearly_in_plane(seed, d):
    """A Gaussian within 1e-9 of span(n_u, m_u) is projected twice, so l_hat
    stays orthogonal to the frame and the coupling identity holds."""
    rng = np.random.default_rng([seed, d])
    u, v = rng.standard_normal((4, d)), rng.standard_normal((4, d))
    n_u, n_v = _unit(u[0] - u[1]), _unit(v[0] - v[1])
    m_u, _, _ = geometry.transport_frames(n_u, n_v)
    l_perp = geometry.complement_unit(rng.standard_normal(d), (n_u, m_u))
    gl = 0.8 * n_u - 0.6 * m_u + 1e-9 * l_perp
    theta, cphi, gs = 1.2, 0.1, rng.standard_normal(d)

    _, _, acc = _engine_coupled_event(u, v, 0, 1, theta, cphi, gl, gs)
    _, _, delta, resid, completed = _reference_coupled_event(
        u, v, 0, 1, theta, cphi, gl, gs)
    assert acc[3] == 0.0 and not completed
    assert acc[0] <= ATOL and abs(resid) <= ATOL
    assert acc[1] <= ATOL and delta <= ATOL


def _angle_states(case, eps, d, rng):
    """Two 2-particle copies whose relative velocities make the angle eps
    ("near_0") or pi - eps ("near_pi"), or with one copy's pair at rest.
    eps = 0 is exact: the second axis is the first scaled by +-2."""
    x = rng.standard_normal(d)
    if case.endswith("at_rest"):
        moving = np.stack([x, np.zeros(d)])
        still = np.stack([x, x])
        return (still, moving) if case == "u_at_rest" else (moving, still)
    sign = 1.0 if case == "near_0" else -1.0
    if eps == 0.0:
        y = 2.0 * sign * x
    else:
        n = _unit(x)
        p = geometry.complement_unit(rng.standard_normal(d), (n,))
        y = 1.3 * np.sqrt(x @ x) * (sign * np.cos(eps) * n + np.sin(eps) * p)
    return np.stack([x, np.zeros(d)]), np.stack([y, np.zeros(d)])


ANGLE_EPS = [0.0, 1e-12, 1e-8, 1e-6, 4.5e-5, 1e-2]
ANGLE_CASES = ([("near_0", e) for e in ANGLE_EPS]
               + [("near_pi", e) for e in ANGLE_EPS]
               + [("u_at_rest", None), ("v_at_rest", None)])


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("case, eps", ANGLE_CASES,
                         ids=[f"{c}-{e}" for c, e in ANGLE_CASES])
def test_coupled_identity_at_every_angle(backend, case, eps, d):
    """The half-angle frame is exact at every angle between the copies'
    relative directions: per event the identity residual, the pair
    distance increment and the conservation error stay within 1e-12 and
    each copy is deflected by theta.  Only exactly antipodal directions
    complete their plane with g_sigma."""
    rng = np.random.default_rng([43, d, ANGLE_CASES.index((case, eps))])
    u, v = _angle_states(case, eps, d, rng)
    for theta, cphi in ((1.1, 0.3), (2.9, -0.8), (0.2, 0.95)):
        gl, gs = rng.standard_normal(d), rng.standard_normal(d)
        uc, vc, acc = _engine_coupled_event(u, v, 0, 1, theta, cphi, gl, gs)
        assert acc[0] <= 1e-12
        assert acc[1] <= 1e-12
        assert acc[2] <= 1e-12
        _assert_deflected(theta, (u, v), (uc, vc))
        assert acc[3] == float(case == "near_pi" and eps == 0.0)


@pytest.mark.parametrize("tilt", [0.0, 1e-19], ids=["on_axis", "tilted"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["same", "opposite"])
def test_coupled_axis_directions_one_ulp_apart(backend, sign, tilt):
    """Relative velocities along one axis whose unit vectors differ in the
    last bit (49 * (1/49) < 1): the shorter of n_u +- n_v is rounding noise
    along the longer.  On the axis the event takes the identical or the
    antipodal completion instead of normalizing that noise; tilted by
    ~2e-21 the noise has a direction off the longer, and the frame uses
    it."""
    u = np.array([[49.0, tilt, 0.0], [0.0, 0.0, 0.0]])
    v = np.array([[sign * 3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    gl, gs = np.array([0.3, -0.5, 0.7]), np.array([0.1, 0.9, -0.4])
    uc, vc, acc = _engine_coupled_event(u, v, 0, 1, 1.1, 0.3, gl, gs)
    assert np.all(np.isfinite(uc)) and np.all(np.isfinite(vc))
    assert acc[0] <= 1e-12 * 49.0 * 3.0
    assert acc[1] <= 1e-12 * 49.0 * 3.0
    assert acc[2] <= 1e-12
    _assert_deflected(1.1, (u, v), (uc, vc))
    assert acc[3] == float(sign < 0 and tilt == 0.0)


def _short_runs(d):
    rng = np.random.default_rng(11)
    u = system.sample_equilibrium(12, d, rng)
    v = system.two_temperature_initial(12, d, rng)
    v, _ = system.align_configurations(u, v)
    coupled = system.simulate_coupled(u, v, UNIFORM, np.random.default_rng(12),
                                      horizon=12.0, sample_dt=2.0,
                                      reproject_every=40, chunk_size=64)
    single = system.simulate_kac(v, UNIFORM, np.random.default_rng(13),
                                 max_events=300, reproject_every=40,
                                 chunk_size=64)
    return coupled, single


def _finals(rec):
    return rec.final if isinstance(rec.final, tuple) else (rec.final,)


def _assert_same_run(a, b):
    for x, y in zip(_finals(a), _finals(b)):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.times, b.times)
    assert a.checks.keys() == b.checks.keys()
    for key, val in a.checks.items():
        assert b.checks[key] == val, key


@needs_c
# numpy's pairwise sum rounds differently from a sequential one from d = 8 on
@pytest.mark.parametrize("d", [3, 12])
def test_python_fallback_warns_and_matches_c(monkeypatch, tmp_path, d):
    """The forced fallback replays the C loop bit for bit: final states,
    sample times and every check, *_time keys included."""
    coupled_c, single_c = _short_runs(d)

    monkeypatch.setattr(_engine, "_LIB", _engine._LIB)
    monkeypatch.setattr(_engine, "BACKEND", _engine.BACKEND)
    monkeypatch.setattr(_engine, "_CC", str(tmp_path / "no-such-cc"))
    with pytest.warns(RuntimeWarning, match="no-such-cc"):
        _engine._select_backend(tmp_path / "cache")
    assert _engine.BACKEND == "python" and _engine._LIB is None

    coupled_py, single_py = _short_runs(d)
    assert coupled_c.checks["n_events"] > 64   # several batches were used
    _assert_same_run(coupled_c, coupled_py)
    _assert_same_run(single_c, single_py)


@needs_c
@pytest.mark.parametrize("d", [3, 4, 32])
# numpy's pairwise sums change order from 8 terms on; these n straddle that
@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 17, 64])
def test_fallback_reprojects_as_the_c_loop(monkeypatch, n, d):
    """Reprojecting after every event, the forced fallback ends in the C
    loop's states and times bit for bit, so
    system.project_to_constraint_sphere is the loop's reproject."""
    rng = np.random.default_rng(100 * n + d)
    u = system.sample_equilibrium(n, d, rng)
    v = system.two_temperature_initial(n, d, rng)

    def run():
        return system.simulate_coupled(u, v, UNIFORM, np.random.default_rng(n),
                                       max_events=40, reproject_every=1,
                                       chunk_size=16)
    on_c = run()
    monkeypatch.setattr(_engine, "_LIB", None)
    _assert_same_run(on_c, run())


@needs_c
@pytest.mark.parametrize("d", [3, 7])
def test_pair_sums_closed_forms(d):
    """kac_pair_sums at a = b = 1 gives 2 (sum w|x|^2 - |sum w x|^2) in
    each copy, and at a = 2 the double loop; a NULL v fills only out[0];
    exponents 2 and 2 + 1 ulp (repeated squaring and pow) agree to
    rounding."""
    rng = np.random.default_rng(d)
    u, v = rng.standard_normal((9, d)), rng.standard_normal((9, d))
    w = rng.dirichlet(np.ones(9))
    out = _engine.pair_sums(u, v, w, 1.0, 1.0)
    for x, got in ((u, out[0]), (v, out[1])):
        want = 2.0 * (w @ np.sum(x * x, axis=1) - np.sum((w @ x) ** 2))
        assert got == pytest.approx(want, rel=1e-13)
    loop = sum(w[i] * w[j] * np.sum((u[i] - u[j]) ** 2) ** 2
               for i in range(9) for j in range(9))
    single = _engine.pair_sums(u, None, w, 2.0, 1.0)
    assert single[0] == pytest.approx(loop, rel=1e-13)
    assert np.isnan(single[1:]).all()
    ulp = _engine.pair_sums(u, v, w, np.nextafter(2.0, 3.0), 2.0)
    np.testing.assert_allclose(ulp, _engine.pair_sums(u, v, w, 2.0, 2.0),
                               rtol=1e-13)


# float.hex of pair_sums on _golden_inputs(n, d): the four coupled sums at
# (a, b), the single-copy sum at b, and for d = 3 the four sums of u with
# itself under equal weights at (a, a), with a and b drawn in turn from
# _GOLDEN_EXPONENTS.  Written down from a scalar loop over the pairs, one
# at a time (the lanes switched off); the lanes must give them bit for bit
# at every width.  The entries from n = 31 to 49 sit at the edges of the
# 16-row lane blocks, those from n = 15 to 25 at the edges of the 8-row
# blocks and those from n = 3 to 13 at the edges of the 4-row blocks; the
# last two groups were written down from earlier passes that gave the
# scalar loop's sums.
_GOLDEN_EXPONENTS = (1.0, 2.0, 6.0, 19.0, 1.5, 2.0000000000000004,
                     38.00000000000001)
_GOLDEN = {
    (2, 3): (
        '0x1.7117a00000000p-7', '0x1.afe65dc0a3c81p-36', '0x1.5a6fa46ebb4f2p-10',
        '0x1.fbf7d3afa0000p-9', '0x1.052eded50fa38p+57', '0x1.7117a00000000p+2',
        '0x1.7117a00000000p+2', '0x0.0p+0', '0x0.0p+0',
    ),
    (2, 5): (
        '0x1.0d3544f3c8000p-3', '0x1.6c509a04627d6p-11', '0x1.33c34204cf8b3p-9',
        '0x1.1af097eeb0000p-7', '0x1.3c249b4611a10p-5',
    ),
    (2, 32): (
        '0x1.401a52c1c70f8p+29', '0x1.4296861f8c808p-1', '0x1.208cc2abe929fp-5',
        '0x1.15dc283434200p+1', '0x1.13cc13a16b20ap+3',
    ),
    (7, 3): (
        '0x1.d117acadff662p+58', '0x1.c10c2deeffabfp+73', '0x1.74bef5be629bap-3',
        '0x1.0eb84f4393d00p-1', '0x1.a579c791e0cccp+125', '0x1.30eb523414ae7p+64',
        '0x1.30eb523414ae7p+64', '0x0.0p+0', '0x0.0p+0',
    ),
    (7, 5): (
        '0x1.50380987e6ed2p-1', '0x1.b79541c000000p-3', '0x1.bfd3853ac1664p-3',
        '0x1.b27a9620c4500p-1', '0x1.0579e10000000p-2',
    ),
    (7, 32): (
        '0x1.41a4f69d42e0ap+8', '0x1.00ab4d0808f41p+5', '0x1.2a4120179917dp+1',
        '0x1.8b3a3a321571ep+6', '0x1.41a4f69d42e00p+8',
    ),
    (8, 3): (
        '0x1.0b83e704b748ap+150', '0x1.b13ad6d7ec234p+5', '0x1.ddcd1bcbb0d01p-3',
        '0x1.6639678b40e00p-1', '0x1.5d4159984143cp+17', '0x1.ac0665fb6f15ep+153',
        '0x1.ac0665fb6f15ep+153', '0x0.0p+0', '0x0.0p+0',
    ),
    (8, 5): (
        '0x1.ecbe3f0000000p-2', '0x1.116cabd324bd1p+40', '0x1.3d6144ba82fcfp-2',
        '0x1.78e1c67879900p+0', '0x1.9dbc457e04296p+73',
    ),
    (8, 32): (
        '0x1.a86fcea69d0ccp+8', '0x1.25a9dde3efa7cp+3', '0x1.9254c3eab4839p+1',
        '0x1.06bed3ac5cf07p+7', '0x1.947e3ce27b2bfp+5',
    ),
    (9, 3): (
        '0x1.d0a6dc3363d86p+22', '0x1.4b3de5763ea83p-1', '0x1.7b34de05915ccp-2',
        '0x1.72798cdcae700p+0', '0x1.c0ea08880dc0ap+3', '0x1.00c15cf357249p+26',
        '0x1.00c15cf357249p+26', '0x0.0p+0', '0x0.0p+0',
    ),
    (9, 5): (
        '0x1.bae7afe399938p+105', '0x1.dd48502868eedp+91', '0x1.2bb628f4252e7p-1',
        '0x1.4b8c8f1d37900p+2', '0x1.f2ba742712f7dp+219',
    ),
    (9, 32): (
        '0x1.9cace1669f75ap+6', '0x1.5cc59fb000000p+1', '0x1.2d9fb4fc370e6p+2',
        '0x1.bb8c612cca513p+7', '0x1.57f9de5800000p+3',
    ),
    (17, 3): (
        '0x1.872d2db719547p+5', '0x1.7622d688ee070p+1', '0x1.585d95aabccd5p+0',
        '0x1.6f85282a8c700p+2', '0x1.872d2db719540p+5', '0x1.72e93dd7567abp+6',
        '0x1.72e93dd7567abp+6', '0x0.0p+0', '0x0.0p+0',
    ),
    (17, 5): (
        '0x1.f3100b21f2515p+219', '0x1.7f39abf078339p+11', '0x1.4d466e223a632p+1',
        '0x1.5575bee87c9c0p+4', '0x1.bd54edeff8614p+28',
    ),
    (17, 32): (
        '0x1.802d8a9a00000p+5', '0x1.3b55f25acab71p+87', '0x1.6163b7f870a09p+4',
        '0x1.f376bd7e9e6dfp+9', '0x1.0226089728e82p+138',
    ),
    (256, 3): (
        '0x1.88721767aa108p+13', '0x1.bc4818fce7755p+8', '0x1.d4b8e41fcbdf3p+8',
        '0x1.624c6a4e9ccbbp+10', '0x1.c24e79fa81bb2p+11', '0x1.608cb32c4da74p+6',
        '0x1.608cb32c4da74p+6', '0x0.0p+0', '0x0.0p+0',
    ),
    (256, 5): (
        '0x1.371cfa3c68ebdp+33', '0x1.ca0876061b993p+10', '0x1.9fe7f0de1c280p+9',
        '0x1.25c6fad06664cp+12', '0x1.e4d6fad38f238p+14',
    ),
    (256, 32): (
        '0x1.4a895b94855bbp+146', '0x1.b9f936142bab1p+222', '0x1.6fdeb6146a337p+12',
        '0x1.c89addc43d6b7p+17', '0x1.ab5a4a82ee1e6p+299',
    ),
    (257, 3): (
        '0x1.c44ced48cf6ccp+11', '0x1.13c5078590000p+8', '0x1.d7c94ac2d1295p+8',
        '0x1.6427009faeb06p+10', '0x1.15d67c3698000p+10', '0x1.93c9b7fdc56a8p+4',
        '0x1.93c9b7fdc56a8p+4', '0x0.0p+0', '0x0.0p+0',
    ),
    (257, 5): (
        '0x1.e70bdd84cf487p+14', '0x1.cd8427a771795p+10', '0x1.a259906c9a97bp+9',
        '0x1.27ab18b500156p+12', '0x1.e70bdd84cf47dp+14',
    ),
    (257, 32): (
        '0x1.ab5a4a872d7e4p+299', '0x1.608e0ecd54c96p+34', '0x1.71b4a0062be13p+12',
        '0x1.cb1af0bac0cfap+17', '0x1.6682c33e68aaep+46',
    ),
    (15, 3): (
        '0x1.908049a000000p+1', '0x1.0beb623bfbf0fp+33', '0x1.2b2576787a59fp+0',
        '0x1.259f852885860p+2', '0x1.d1528b62594d0p+89', '0x1.b16ac3b2a1906p+2',
        '0x1.b16ac3b2a1906p+2', '0x0.0p+0', '0x0.0p+0',
    ),
    (15, 4): (
        '0x1.36aa212d653a0p+6', '0x1.fb2d7695e5193p+0', '0x1.c718b6298eb4ep+0',
        '0x1.184e7bb1d7960p+3', '0x1.1f281fa13506fp+4',
    ),
    (15, 32): (
        '0x1.6a1f8d50072a0p+39', '0x1.a05b1a6673ad0p+7', '0x1.2a95fe4bc0102p+4',
        '0x1.9d3c9eb7bb08ap+9', '0x1.e07ad579b1394p+11',
    ),
    (16, 3): (
        '0x1.d154b7fc56b76p+89', '0x1.e35b4b8acad16p+73', '0x1.3cb1740aed479p+0',
        '0x1.564f65b378580p+2', '0x1.145584c390e65p+188', '0x1.35f5a2f0e1b90p+91',
        '0x1.35f5a2f0e1b90p+91', '0x0.0p+0', '0x0.0p+0',
    ),
    (16, 4): (
        '0x1.38682e70d58b9p+4', '0x1.3cf5541000000p+0', '0x1.bf8abcd94d5d0p+0',
        '0x1.3a6ed44226e00p+3', '0x1.3faacf6000000p+2',
    ),
    (16, 32): (
        '0x1.117686d41081ap+12', '0x1.bcc6dd5a3831ap+7', '0x1.46aea361b695ep+4',
        '0x1.cc54541d095ebp+9', '0x1.117686d410810p+12',
    ),
    (24, 3): (
        '0x1.145584cc7bedap+188', '0x1.01be80f952339p+10', '0x1.a221812ac4c0cp+1',
        '0x1.92cd754043020p+3', '0x1.a06c1cc0a608ap+23', '0x1.4781d31f4a1dbp+188',
        '0x1.4781d31f4a1dbp+188', '0x0.0p+0', '0x0.0p+0',
    ),
    (24, 4): (
        '0x1.6c7736ec00000p+3', '0x1.2aef46317beb4p+42', '0x1.271617cf976a5p+2',
        '0x1.6d523051b21c8p+4', '0x1.a791cdc551813p+98',
    ),
    (24, 32): (
        '0x1.2fa3ccd288a9bp+13', '0x1.b4b7d94f4602cp+6', '0x1.898d679420b93p+5',
        '0x1.03e79126d43f6p+11', '0x1.ef895cca6c3d1p+9',
    ),
    (25, 3): (
        '0x1.b047434f3669ap+23', '0x1.086c707505e61p+3', '0x1.071c892184875p+2',
        '0x1.d93d9ddd37580p+3', '0x1.ac9bae299c547p+6', '0x1.a800c2fa82716p+23',
        '0x1.a800c2fa82716p+23', '0x0.0p+0', '0x0.0p+0',
    ),
    (25, 4): (
        '0x1.a8058f50bfdd5p+98', '0x1.4a4b06241b1ffp+95', '0x1.74c7c41e5d680p+2',
        '0x1.b07713094f908p+4', '0x1.c32a6146ae5bcp+205',
    ),
    (25, 32): (
        '0x1.20184aff161d1p+10', '0x1.ab94c6b800000p+4', '0x1.c0a997049a7a8p+5',
        '0x1.281cc6afa483bp+11', '0x1.dab0ab2d00000p+6',
    ),
    (3, 3): (
        '0x1.4c973264d6806p-2', '0x1.95c4b46a80000p-12', '0x1.b10b8d8a6a22fp-9',
        '0x1.3d7ae44dc4000p-7', '0x1.4c973264d6800p-2', '0x1.d9048bf020008p+5',
        '0x1.d9048bf020008p+5', '0x0.0p+0', '0x0.0p+0',
    ),
    (3, 4): (
        '0x1.8eff6f87160b4p+125', '0x1.911209365d710p-14', '0x1.31931f4fd87cep-8',
        '0x1.f651781704000p-7', '0x1.71aabb1557d30p+12',
    ),
    (3, 32): (
        '0x1.d5b88e0000000p-3', '0x1.fcb09b6b07df0p+79', '0x1.68aff356e3746p-4',
        '0x1.5b53324141280p+2', '0x1.cb27777e3b47ep+115',
    ),
    (4, 3): (
        '0x1.05f849511a400p-1', '0x1.81d9ea512563ap-8', '0x1.24756929e5b59p-6',
        '0x1.083342f2ca000p-5', '0x1.46356d0f8b668p-3', '0x1.5b45e2c713000p+5',
        '0x1.5b45e2c713000p+5', '0x0.0p+0', '0x0.0p+0',
    ),
    (4, 4): (
        '0x1.f233b0cc03514p+12', '0x1.38fac6783da02p-4', '0x1.a0b07e5ae4328p-6',
        '0x1.26e95252ae800p-4', '0x1.0b3a4d124a405p-1',
    ),
    (4, 32): (
        '0x1.1ab5fd9968c7ap+116', '0x1.4a73547bb13f3p+175', '0x1.e7c8079c33ff8p-2',
        '0x1.920ea48d6ab08p+4', '0x1.8b83b98ba254cp+240',
    ),
    (5, 3): (
        '0x1.29d35c8d3c5adp-2', '0x1.0a8ffe0000000p-4', '0x1.22256d9bcfc57p-4',
        '0x1.7640804df1c00p-3', '0x1.e3acf80000000p-4', '0x1.6209c5b0493e0p+3',
        '0x1.6209c5b0493e0p+3', '0x0.0p+0', '0x0.0p+0',
    ),
    (5, 4): (
        '0x1.b565901f94808p-1', '0x1.6af687888c800p-2', '0x1.54b9f03338d2ap-4',
        '0x1.29e09b1f71000p-2', '0x1.b565901f94800p-1',
    ),
    (5, 32): (
        '0x1.cdc5944b58379p+240', '0x1.1788fb15cee54p+23', '0x1.448cd46f37142p+0',
        '0x1.db36aaf539c1cp+5', '0x1.5716cc2529686p+32',
    ),
    (12, 3): (
        '0x1.a62b058000000p+0', '0x1.bdee2d7ee29b3p+32', '0x1.51388ed0f1decp-1',
        '0x1.3fbb0079a9580p+1', '0x1.cff3b17c7f634p+89', '0x1.c73c49c71c71cp+2',
        '0x1.c73c49c71c71cp+2', '0x0.0p+0', '0x0.0p+0',
    ),
    (12, 4): (
        '0x1.aa33da9b27ac0p+5', '0x1.068a46c7da976p+0', '0x1.e28e5c47434f8p-1',
        '0x1.3f836ff5146a0p+2', '0x1.68681fcddbc94p+3',
    ),
    (12, 32): (
        '0x1.0da3680f1c4eep+39', '0x1.b4690ff2cdc6fp+6', '0x1.40d26ed999446p+3',
        '0x1.b5a61b1f6cf1cp+8', '0x1.08d57e86f7546p+11',
    ),
    (13, 3): (
        '0x1.cff3c020cb531p+89', '0x1.ca701fc3d4859p+73', '0x1.aa401e9849aa9p-1',
        '0x1.68544faea7c00p+1', '0x1.14553505c951dp+188', '0x1.d4d2865bd2d97p+91',
        '0x1.d4d2865bd2d97p+91', '0x0.0p+0', '0x0.0p+0',
    ),
    (13, 4): (
        '0x1.892271055d9fdp+3', '0x1.6ddfa54000000p-1', '0x1.3913cb9075389p+0',
        '0x1.6cb5333306e20p+2', '0x1.7c01621000000p+1',
    ),
    (13, 32): (
        '0x1.2d91a5668ab1ap+11', '0x1.06b75c510c0e3p+7', '0x1.7c7f4addb31fep+3',
        '0x1.012ebbe825aa6p+9', '0x1.2d91a5668ab10p+11',
    ),
    (31, 3): (
        '0x1.145584d796267p+188', '0x1.442da0e6163ecp+13', '0x1.d719d88bb0267p+2',
        '0x1.967027ba4ff70p+4', '0x1.f773e6d658ccbp+23', '0x1.88997f24157f8p+187',
        '0x1.88997f24157f8p+187', '0x0.0p+0', '0x0.0p+0',
    ),
    (31, 4): (
        '0x1.4bc857d800000p+4', '0x1.6a8e50030bf3ap+56', '0x1.5479b0cc05dbap+3',
        '0x1.76b0bb0ee1690p+5', '0x1.a809f9cb21da3p+98',
    ),
    (31, 32): (
        '0x1.fc06db3ce9399p+13', '0x1.8e7fad2dadbb7p+7', '0x1.59fa8e1920d16p+6',
        '0x1.c79d14e6fb9cap+11', '0x1.a194c08579b7fp+10',
    ),
    (32, 3): (
        '0x1.fc2be97e957fep+23', '0x1.0786f71bc4b2dp+4', '0x1.e9ff740e89808p+2',
        '0x1.a4c4726c874e0p+4', '0x1.4fcb9fc4a773cp+7', '0x1.2a580db26e0c8p+23',
        '0x1.2a580db26e0c8p+23', '0x0.0p+0', '0x0.0p+0',
    ),
    (32, 4): (
        '0x1.a809f9ffcc43ap+98', '0x1.c201b25cdb305p+118', '0x1.62e256c834c09p+3',
        '0x1.835c50bf2a768p+5', '0x1.c32a6148eca55p+205',
    ),
    (32, 32): (
        '0x1.b325b81a62c8ep+10', '0x1.5eca058200000p+5', '0x1.67e1674dbcd96p+6',
        '0x1.dadb13b4d111cp+11', '0x1.6a37f80080000p+7',
    ),
    (33, 3): (
        '0x1.66aa8d5f860f4p+7', '0x1.0e52531c6b1c0p+4', '0x1.0093a7e553410p+3',
        '0x1.b5aee76f7adc0p+4', '0x1.66aa8d5f860f0p+7', '0x1.52dccbf3e0e9bp+6',
        '0x1.52dccbf3e0e9bp+6', '0x0.0p+0', '0x0.0p+0',
    ),
    (33, 4): (
        '0x1.c32a6148ecbfbp+205', '0x1.15179ef765bbbp+15', '0x1.7453b7f114d59p+3',
        '0x1.9298a959dd500p+5', '0x1.b400b3fa64b4cp+26',
    ),
    (33, 32): (
        '0x1.81b489b900000p+7', '0x1.2101638a6b509p+96', '0x1.7daf4f626abdcp+6',
        '0x1.f7dadf1b7097bp+11', '0x1.03fc6551c312fp+138',
    ),
    (47, 3): (
        '0x1.81a4917c60642p+8', '0x1.0b275884a4cc6p+4', '0x1.eac4ddbed1d01p+3',
        '0x1.9ed4e1e10c42cp+5', '0x1.b78503a06b94ap+6', '0x1.583cfdf89f81dp+6',
        '0x1.583cfdf89f81dp+6', '0x0.0p+0', '0x0.0p+0',
    ),
    (47, 4): (
        '0x1.4491884a9f586p+28', '0x1.85a7c4f2627f5p+5', '0x1.676ad83a29ab8p+4',
        '0x1.9237eb777bf42p+6', '0x1.5ccfe4d0d1fb0p+9',
    ),
    (47, 32): (
        '0x1.41af0363a66dcp+146', '0x1.825c03b854f23p+198', '0x1.833c468aa8a8cp+7',
        '0x1.05bcbbdb52ce7p+13', '0x1.ab4e3c5a49aa6p+299',
    ),
    (48, 3): (
        '0x1.cbd7c305e6fc5p+6', '0x1.43b4139a00000p+3', '0x1.01a86715e4c0dp+4',
        '0x1.b242a8a55b5fcp+5', '0x1.1bd219b000000p+5', '0x1.87bcff826ae83p+4',
        '0x1.87bcff826ae83p+4', '0x0.0p+0', '0x0.0p+0',
    ),
    (48, 4): (
        '0x1.68d19fd3d696ep+9', '0x1.970a7e5264380p+5', '0x1.7837edf4ee18cp+4',
        '0x1.a502c3a93dba8p+6', '0x1.68d19fd3d696ap+9',
    ),
    (48, 32): (
        '0x1.ab4e3c5c5a3dbp+299', '0x1.95c3f02032c4ap+29', '0x1.94802d832d998p+7',
        '0x1.10bc9c2cae9e6p+13', '0x1.1e3ad74382108p+43',
    ),
    (49, 3): (
        '0x1.2d2730f000000p+5', '0x1.1488abc7e8c22p+50', '0x1.0cec78769091ap+4',
        '0x1.ce1735797aa00p+5', '0x1.cd934f709d248p+91', '0x1.e100ea092b651p+2',
        '0x1.e100ea092b651p+2', '0x0.0p+0', '0x0.0p+0',
    ),
    (49, 4): (
        '0x1.786131a2cafd8p+9', '0x1.b01cd326fe283p+4', '0x1.8b5437b8aa9dep+4',
        '0x1.bf95f63a62e52p+6', '0x1.7bf9c109f5fb4p+7',
    ),
    (49, 32): (
        '0x1.250586891c95bp+43', '0x1.21e8927f61f14p+11', '0x1.acd28a78890b7p+7',
        '0x1.1f9d671f10e28p+13', '0x1.5668be14d61b4p+15',
    ),
}


def _golden_inputs(n, d):
    """Dyadic entries (exact on every platform), two rows coincident from
    n = 3 on, unequal weights."""
    i, k = np.arange(n)[:, None], np.arange(d)[None, :]
    u = ((i * 7919 + k * 104729 + i * k * 31) % 1009 - 504) / 256.0
    v = ((i * 6151 + k * 3571 + i * k * 17) % 997 - 498) / 512.0
    if n > 2:
        u[n - 1], v[n - 1] = u[1], v[1]
    return u, v, (1 + np.arange(n) % 5) / 64.0


# the library's vector widths, in doubles per vector: kac_widths names
# those this CPU runs, and each has its own entry point <kernel>_<width>
WIDTHS = (2, 4, 8)


def cpu_widths():
    """The widths this CPU runs the library's lanes at."""
    return [width for width in WIDTHS if _engine._LIB.kac_widths() & width]


def bind_width(monkeypatch, lib, kernel, width):
    """Bind the library ``lib``'s entry point at one width,
    ``<kernel>_<width>`` (kac_pair_sums_8, kac_assign_2, ...), in place of
    ``kernel``, which picks its width itself, until the test ends."""
    func = getattr(lib, f"{kernel}_{width}")
    func.argtypes = _engine._SIGNATURES[kernel]
    func.restype = ctypes.c_int
    monkeypatch.setattr(_engine, "_LIB",
                        types.SimpleNamespace(**{kernel: func}))


def _each_width(monkeypatch):
    """Yield once with the library's own kac_pair_sums, which picks its
    width from the CPU and n, then once per width the CPU runs with that
    width's pass bound in its place
    (test_library_runs_each_width_the_cpu_has names a width left out),
    then once on the python backend (``_LIB`` None), which stays until the
    test ends.  Without the library only the python leg runs."""
    lib = _engine._LIB
    if lib is not None:
        yield "dispatched"
        for width in cpu_widths():
            bind_width(monkeypatch, lib, "kac_pair_sums", width)
            yield f"{width}-wide"
    monkeypatch.setattr(_engine, "_LIB", None)
    yield "python"


@needs_c
@pytest.mark.parametrize("width, flag", [(4, "avx2"), (8, "avx512f")])
def test_library_runs_each_width_the_cpu_has(width, flag):
    """kac_widths reports the 4- and 8-wide lanes where the CPU reports
    AVX2 and AVX-512F, so the dispatch and the tests reach them; a width
    the CPU lacks is skipped here by name, as its lanes go untested."""
    try:
        info = Path("/proc/cpuinfo").read_text()
    except OSError:
        pytest.skip("no /proc/cpuinfo to read the CPU's flags from")
    flags = re.search(r"^flags\s*:(.*)$", info, re.M)
    if flags is None:
        pytest.skip("/proc/cpuinfo names no x86 flags")
    if flag not in flags.group(1).split():
        pytest.skip(f"the CPU has no {flag}: the {width}-wide lanes go "
                    "untested")
    assert _engine._LIB.kac_widths() & width


def test_pair_sums_golden(monkeypatch):
    """n below, at and past multiples of the 4-, 8- and 16-row lane blocks,
    integral exponents (repeated squaring) and others (pow), single and
    coupled passes, coincident rows and u == v: equal to the scalar loop's
    sums at every width and on the python backend."""
    for width in _each_width(monkeypatch):
        for idx, ((n, d), want) in enumerate(_GOLDEN.items()):
            a = _GOLDEN_EXPONENTS[idx % 7]
            b = _GOLDEN_EXPONENTS[(idx + 3) % 7]
            u, v, w = _golden_inputs(n, d)
            got = [*_engine.pair_sums(u, v, w, a, b),
                   _engine.pair_sums(u, None, w, b, 1.0)[0]]
            if d == 3:
                got += list(_engine.pair_sums(u, u, np.full(n, 1.0 / n), a,
                                              a))
            assert [float(x).hex() for x in got] == list(want), (width, n, d)


@pytest.mark.parametrize("n, d", [(15, 3), (25, 4), (33, 32)])
def test_stacked_pair_sums_equal_each_configuration(n, d, monkeypatch):
    """One call over a stack (s, n, d) gives each configuration's sums bit
    for bit, coupled and single, under shared weights, at every width and
    on the python backend."""
    rng = np.random.default_rng(n + d)
    u, v = rng.standard_normal((2, 6, n, d))
    w = rng.dirichlet(np.ones(n))
    for width in _each_width(monkeypatch):
        for second in (v, None):
            got = _engine.pair_sums(u, second, w, 6.0, 38.00000000000001)
            assert got.shape == (6, 4)
            want = [_engine.pair_sums(u[s], None if second is None else v[s],
                                      w, 6.0, 38.00000000000001)
                    for s in range(6)]
            assert np.array_equal(got, np.array(want), equal_nan=True), width
        assert _engine.pair_sums(u[:0], None, w, 1.0, 1.0).shape == (0, 4)


@pytest.mark.parametrize("n", [3, 7, 12])
def test_dead_lanes_add_nothing(n, monkeypatch):
    """A lane adds exactly +0.0 for a pair its row does not own, at every
    width and on the python backend.  The last row, at distance^2 inf from the others, shares a
    block with rows before it, whose j's its lane meets without owning
    those pairs: the sum is inf, where a zero weight on those terms would
    make it nan and adding them would count the pairs twice.  Coincident rows far
    from the origin sum to exactly 0, though the zero rows that fill the
    lanes past the last row are at distance^2 inf from them."""
    u = np.zeros((n, 3))
    u[-1] = 1e200
    far = np.full((n, 3), 1e200)
    w = np.full(n, 1.0 / n)
    for width in _each_width(monkeypatch):
        assert _engine.pair_sums(u, None, w, 1.0, 1.0)[0] == np.inf, width
        got = _engine.pair_sums(far, -far, w, 1.0, 1.5)
        assert [float(x).hex() for x in got] == ["0x0.0p+0"] * 4, width


@needs_c
def test_pair_sums_reject_mismatched_shapes():
    u, w = np.zeros((4, 3)), np.ones(4) / 4
    for args in ((u[0], None, w[:3]), (u, u[:3], w), (u, u.T, w),
                 (u, None, w[:3]), (u[None], u, w), (u[None, None], None, w)):
        with pytest.raises(ValueError, match="pair sums need"):
            _engine.pair_sums(*args, 1.0, 1.0)


def test_pair_sums_on_the_python_backend(monkeypatch):
    """Without the library, pair_sums runs the numpy reference: each
    configuration of a stack (shared weights) as the single call on it,
    nan past out[0] for a single copy, the same shape checks, and the C
    pass's sums bit for bit when that is loaded."""
    rng = np.random.default_rng(14)
    u, v = rng.standard_normal((2, 3, 9, 4))
    w = rng.dirichlet(np.ones(9))
    c_sums = (_engine.pair_sums(u, v, w, 1.5, 2.0)
              if _engine.BACKEND == "c" else None)
    monkeypatch.setattr(_engine, "_LIB", None)
    got = _engine.pair_sums(u, v, w, 1.5, 2.0)
    assert got.shape == (3, 4)
    for s in range(3):
        assert np.array_equal(got[s], _engine.pair_sums(u[s], v[s], w, 1.5,
                                                        2.0))
    single = _engine.pair_sums(u[0], None, w, 1.5, 1.0)
    assert single[0] == got[0, 0] and np.isnan(single[1:]).all()
    assert _engine.pair_sums(u[:0], None, w, 1.0, 1.0).shape == (0, 4)
    with pytest.raises(ValueError, match="pair sums need"):
        _engine.pair_sums(u, v[:, :8], w, 1.0, 1.0)
    if c_sums is not None:
        assert np.array_equal(got, c_sums)


def _local_includes():
    """The names of the files _engine.c includes with quotes."""
    return re.findall(r'^#include "([^"]+)"', _engine._SOURCE.read_text(),
                      re.M)


def test_library_key_hashes_the_pass(tmp_path, monkeypatch):
    """The cache key changes when any header _engine.c includes changes
    (the pair pass, the assignment search), so an edited header never
    loads a library built from the old one."""
    monkeypatch.setattr(_engine, "_SOURCE",
                        Path(shutil.copy(_engine._SOURCE, tmp_path)))
    monkeypatch.setattr(_engine, "_HEADERS", tuple(
        Path(shutil.copy(path, tmp_path)) for path in _engine._HEADERS))
    for name in set(_local_includes()):
        before = _engine._library_path(tmp_path)
        with open(tmp_path / name, "a") as f:
            f.write("\n")
        assert _engine._library_path(tmp_path) != before, name


def test_included_headers_ship_with_the_package():
    """Every header _engine.c includes is installed beside it, so a built
    package can compile the library."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    data = tomllib.loads(pyproject.read_text())
    shipped = data["tool"]["setuptools"]["package-data"]["kacsim"]
    assert {"_engine.c", *_local_includes()} <= set(shipped)


@pytest.mark.skipif(shutil.which(_engine._CC) is None,
                    reason="no cc on PATH")
def test_c_source_is_warning_clean(tmp_path):
    """A variable left unused, a mismatched type, or a warning raised only
    when optimizing or building one width of the pass fails the build
    here: the library's own command, with warnings as errors."""
    proc = subprocess.run(
        _engine._cc_command(tmp_path / "engine.so", "-Wall", "-Wextra",
                            "-Werror"),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@needs_c
def test_library_builds_into_an_empty_cache(tmp_path):
    lib = _engine.load_library(tmp_path)
    built = sorted(p.name for p in tmp_path.iterdir())
    assert built == [_engine._library_path(tmp_path).name]
    for name, argtypes in _engine._SIGNATURES.items():
        assert tuple(getattr(lib, name).argtypes) == argtypes


@needs_c
def test_build_removes_stale_libraries(tmp_path):
    """A library left by an earlier source is deleted when a new one is
    built; other files in the cache stay."""
    (tmp_path / "_engine_0000000000000000.so").write_bytes(b"old")
    (tmp_path / "other.pyc").write_bytes(b"keep")
    _engine.load_library(tmp_path)
    built = sorted(p.name for p in tmp_path.iterdir())
    assert built == sorted([_engine._library_path(tmp_path).name, "other.pyc"])
