"""The C event loops against the python reference steppers.

Each branch of the coupled frame rule (generic, parallel cutoff, antipodal,
zero relative speed in one copy) is driven on purpose with a constructed
one-event batch and compared with ``system.step_coupled``; the python
fallback is forced and compared with the C loops on short runs.
"""

import re

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
    t, _, delta, resid = system.step_coupled(
        u, v, None, t=0.5, rate=1.0, draws=(0.25, i, j0, theta, cphi, gl, gs))
    assert t == 0.75
    return u, v, delta, resid


def _branch_states(branch, d, rng):
    """Two 4-particle copies whose pair (0, 1) falls in ``branch``."""
    u = rng.standard_normal((4, d))
    v = rng.standard_normal((4, d))
    du = u[0] - u[1]
    p = geometry.complement_unit(rng.standard_normal(d), (_unit(du),))
    r = np.sqrt(du @ du)
    if branch == "parallel":
        # directions 1e-8 apart: 1 - cos < PARALLEL_EPS, yet not identical
        v[0] = v[1] + 1.7 * (du + 1e-8 * r * p)
    elif branch == "antipodal":
        # 1 + cos ~ 5e-13 < ANTIPODAL_EPS
        v[0] = v[1] - 1.3 * (du + 1e-6 * r * p)
    elif branch == "v_at_rest":
        v[0] = v[1]
    elif branch == "u_at_rest":
        u[0] = u[1]
    return u, v


BRANCHES = ["generic", "parallel", "antipodal", "v_at_rest", "u_at_rest"]


@needs_c
@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("branch", BRANCHES)
def test_c_matches_reference_on_each_branch(branch, d):
    rng = np.random.default_rng([d, BRANCHES.index(branch)])
    u, v = _branch_states(branch, d, rng)
    theta, cphi = 1.1, 0.3
    gl, gs = rng.standard_normal(d), rng.standard_normal(d)
    uc, vc, acc = _engine_coupled_event(u, v, 0, 1, theta, cphi, gl, gs)
    ur, vr, delta, resid = _reference_coupled_event(u, v, 0, 1, theta, cphi,
                                                    gl, gs)

    np.testing.assert_allclose(uc, ur, rtol=0, atol=ATOL)
    np.testing.assert_allclose(vc, vr, rtol=0, atol=ATOL)
    assert acc[4] == 1.0
    assert acc[2] <= ATOL
    if branch == "antipodal":
        assert resid is None
        assert acc[3] == 1.0
        np.testing.assert_allclose(acc[5], delta, rtol=0, atol=ATOL)
    else:
        assert acc[3] == 0.0
        assert abs(resid) <= ATOL and acc[0] <= ATOL
        np.testing.assert_allclose(acc[1], delta, rtol=0, atol=ATOL)
        assert delta <= ATOL

    # the event really took its branch
    if branch == "parallel":
        np.testing.assert_allclose(_unit(uc[0] - uc[1]), _unit(vc[0] - vc[1]),
                                   rtol=0, atol=1e-15)
    elif branch in ("v_at_rest", "u_at_rest"):
        still, moved = (vc, uc) if branch == "v_at_rest" else (uc, vc)
        start_still, start_moved = (v, u) if branch == "v_at_rest" else (u, v)
        np.testing.assert_array_equal(still, start_still)
        assert np.max(np.abs(moved - start_moved)) > 1e-3


@needs_c
def test_c_rejects_out_of_range_pair_index():
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    acc = np.zeros(8)
    with pytest.raises(IndexError):
        _engine.advance_coupled(
            u, v, 0.0, 0.5, np.inf, 1.0, 1.0, cursor=0, proj_ctr=0,
            proj_every=10 ** 9, acc=acc,
            **_one_event_batch(0, 4, 1.0, 0.0, rng.standard_normal(3),
                               rng.standard_normal(3)))
    assert acc[4] == 0.0


def test_c_thresholds_equal_geometry_constants():
    defines = dict(re.findall(r"^#define (\w+) (\S+)$",
                              _engine._SOURCE.read_text(), re.MULTILINE))
    for name in ("PARALLEL_EPS", "ANTIPODAL_EPS", "REORTHO_RATIO"):
        assert float(defines[name]) == getattr(geometry, name)


@pytest.fixture(params=["c", "python"])
def backend(request, monkeypatch):
    """Run a test on the C loops and on the forced python fallback."""
    if request.param == "c" and _engine.BACKEND != "c":
        pytest.skip("the C event loop is not loaded")
    if request.param == "python":
        monkeypatch.setattr(_engine, "_LIB", None)
        monkeypatch.setattr(_engine, "BACKEND", "python")
    return request.param


def test_kac_rejects_gaussian_along_the_axis(backend):
    """A g_l along n_hat leaves nothing after the projection: the event
    raises and its pair keeps its velocities."""
    rng = np.random.default_rng(41)
    v = system.sample_equilibrium(4, 3, rng)
    start, acc = v.copy(), np.zeros(2)
    g = 2.0 * _unit(v[0] - v[1])
    with pytest.raises(geometry.GeometryError, match="batch slot 0"):
        _engine.advance_kac(v, 0.0, 0.5, np.inf, 1.0, 1.0, cursor=0,
                            proj_ctr=0, proj_every=10 ** 9, acc=acc,
                            **_one_event_batch(0, 1, 1.2, 0.1, g))
    np.testing.assert_array_equal(v, start)
    assert acc[1] == 0.0


@pytest.mark.parametrize("d", [3, 5])
def test_coupled_rejects_antipodal_sigma_along_the_axis(backend, d):
    """An antipodal event whose g_sigma lies along n_u cannot complete the
    plane: the event raises and both copies keep their velocities."""
    rng = np.random.default_rng([42, d])
    u, v = _branch_states("antipodal", d, rng)
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
        acc = np.zeros(2)
        _engine.advance_kac(eng, 0.0, 0.5, np.inf, 1.0, 1.0, cursor=0,
                            proj_ctr=0, proj_every=10 ** 9, acc=acc,
                            **_one_event_batch(0, 1, theta, cphi, g))
        assert acc[1] == 1.0
        assert acc[0] <= 1e-12
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
    _, _, delta, resid = _reference_coupled_event(u, v, 0, 1, theta, cphi,
                                                  gl, gs)
    assert acc[3] == 0.0 and resid is not None
    assert acc[0] <= ATOL and abs(resid) <= ATOL
    assert acc[1] <= ATOL and delta <= ATOL


def _short_runs():
    rng = np.random.default_rng(11)
    u = system.sample_equilibrium(12, 3, rng)
    v = system.two_temperature_initial(12, 3, rng)
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
        np.testing.assert_allclose(x, y, rtol=0, atol=ATOL)
    np.testing.assert_allclose(a.times, b.times, rtol=1e-12)
    for key, val in a.checks.items():
        if key in ("n_events", "antipodal_events"):
            assert b.checks[key] == val
        elif not key.endswith("_time"):
            # the maxima are rounding noise, equal to ATOL; where they are
            # attained (the *_time keys) differs with the arithmetic order
            np.testing.assert_allclose(b.checks[key], val, rtol=0, atol=ATOL)


@needs_c
def test_python_fallback_warns_and_matches_c(monkeypatch, tmp_path):
    coupled_c, single_c = _short_runs()

    monkeypatch.setattr(_engine, "_LIB", _engine._LIB)
    monkeypatch.setattr(_engine, "BACKEND", _engine.BACKEND)
    monkeypatch.setattr(_engine, "_CC", str(tmp_path / "no-such-cc"))
    with pytest.warns(RuntimeWarning, match="no-such-cc"):
        _engine._select_backend(tmp_path / "cache")
    assert _engine.BACKEND == "python" and _engine._LIB is None

    coupled_py, single_py = _short_runs()
    assert coupled_c.checks["n_events"] > 64   # several batches were used
    _assert_same_run(coupled_c, coupled_py)
    _assert_same_run(single_c, single_py)


@needs_c
def test_library_builds_into_an_empty_cache(tmp_path):
    lib = _engine.load_library(tmp_path)
    built = sorted(p.name for p in tmp_path.iterdir())
    assert built == [_engine._library_path(tmp_path).name]
    for name, argtypes in _engine._SIGNATURES.items():
        assert tuple(getattr(lib, name).argtypes) == argtypes
