import warnings
from fractions import Fraction

import numpy as np
import pytest

from kacsim import _engine, analysis, geometry, kernels, system

UNIFORM = kernels.make_kernel("uniform", theta_min=0.0)


def random_discrete(rng, k=12, d=3, normalized=True):
    u = rng.standard_normal((k, d))
    v = rng.standard_normal((k, d))
    w = rng.random(k)
    dist = analysis.DiscreteCoupledDistribution(u, v, w / w.sum())
    return dist.normalize() if normalized else dist


def two_radius_equality_case(d=3, r1=1.2):
    """Strongly isotropic co-linear two-radius coupling; saturates the
    alignment inequality."""
    r2 = np.sqrt(2.0 - r1 * r1)
    axes = np.concatenate([np.eye(d), -np.eye(d)])
    u = np.concatenate([r1 * axes, r2 * axes])
    v = np.concatenate([r2 * axes, r1 * axes])
    w = np.full(4 * d, 1.0 / (4 * d))
    return analysis.DiscreteCoupledDistribution(u, v, w)


def test_max_eigenvalue():
    s = np.diag([0.5, 0.3, 0.2])
    assert analysis.max_eigenvalue(s) == 0.5


def test_kappa_isotropic_exact():
    assert analysis.kappa(np.eye(3) / 3.0) == 1.5
    assert analysis.kappa(np.eye(4) / 4.0) == 4.0 / 3.0
    assert analysis.kappa(np.eye(8) / 8.0) == 8.0 / 7.0


def test_kappa_near_isotropic_dimensions():
    # accumulated rounding may cost a couple of ulp away from the pinned cases
    for d in range(3, 33):
        val = analysis.kappa(np.eye(d) / d)
        exact = d / (d - 1.0)
        assert abs(val - exact) <= 2 * np.spacing(exact)


def test_kappa_rank_one_infinite():
    s = np.zeros((3, 3))
    s[0, 0] = 1.0
    assert analysis.kappa(s) == np.inf


def test_kappa_generic_value():
    lam = np.array([0.6, 0.3, 0.1])
    rng = np.random.default_rng(81)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    s = (q * lam) @ q.T
    np.testing.assert_allclose(analysis.kappa(s), 1.0 / (1.0 - 0.6),
                               rtol=1e-12)


ISO3 = np.eye(3) / 3.0
ASYM = ISO3 + np.diag([0.1, 0.1], 1)     # unit trace, not symmetric
NOT_SYMMETRIC = "matrix is not symmetric within tolerance"


@pytest.mark.parametrize("func, s, error, message", [
    (analysis.kappa, np.eye(3), analysis.PreconditionFailed,
     "kappa needs unit trace, got 3"),
    (analysis.kappa, ASYM, analysis.BadParams, NOT_SYMMETRIC),
    # in a stack, the first failing matrix raises as it would alone
    (analysis.kappa, np.stack([ISO3, ASYM, np.eye(3)]), analysis.BadParams,
     NOT_SYMMETRIC),
    (analysis.kappa, np.stack([np.eye(3), ASYM]), analysis.PreconditionFailed,
     "kappa needs unit trace, got 3"),
    (analysis.kappa, np.stack([ASYM, np.eye(3)]), analysis.BadParams,
     NOT_SYMMETRIC),
    (analysis.kappa, np.ones((2, 3, 4)), analysis.BadParams,
     "S must be square, got shape (2, 3, 4)"),
    (analysis.kappa, np.ones(3), analysis.BadParams,
     "S must be square, got shape (3,)"),
    (analysis.max_eigenvalue, np.array([[0.0, 1.0], [0.5, 0.0]]),
     analysis.BadParams, NOT_SYMMETRIC),
    # max_eigenvalue takes one matrix, whatever its trace
    (analysis.max_eigenvalue, np.stack([ISO3, ISO3]), analysis.BadParams,
     "S must be square, got shape (2, 3, 3)"),
    (analysis.max_eigenvalue, np.ones((2, 3)), analysis.BadParams,
     "S must be square, got shape (2, 3)"),
], ids=["kappa-trace", "kappa-asymmetric", "kappa-stack-asymmetric-first",
        "kappa-stack-trace-first", "kappa-stack-asymmetric-then-trace",
        "kappa-stack-not-square", "kappa-vector",
        "max_eigenvalue-asymmetric", "max_eigenvalue-stack",
        "max_eigenvalue-not-square"])
def test_spectrum_preconditions(func, s, error, message):
    """Each refusal keeps its exception type and its message."""
    with pytest.raises(error) as info:
        func(s)
    assert type(info.value) is error and str(info.value) == message


def test_kappa_of_a_stack_equals_each_matrix():
    """A stack (2, 5, d, d) of second-moment matrices, a rank-1 one among
    them: the same kappas bit for bit as one matrix at a time."""
    rng = np.random.default_rng(61)
    for d in (3, 4, 32):
        x = rng.standard_normal((2, 5, 40, d))
        x[1, 2] = x[1, 2, :1]                       # rank 1: kappa = inf
        mats = np.swapaxes(x, -1, -2) @ x
        mats /= np.trace(mats, axis1=-2, axis2=-1)[..., None, None]
        got = analysis.kappa(mats)
        assert got.shape == (2, 5) and got[1, 2] == np.inf
        want = [[analysis.kappa(m) for m in row] for row in mats]
        assert got.tolist() == want


def test_delta4_closed_form_properties():
    rng = np.random.default_rng(82)
    v = rng.standard_normal((100, 3))
    # coincident arguments give exactly zero expected jump
    np.testing.assert_allclose(analysis.delta4(v, v), 0.0, atol=1e-13)
    with pytest.raises(analysis.BadParams):
        analysis.delta4(np.ones(2), np.ones(2))


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("n", [2, 3, 17, 256])
def test_delta4_pair_mean_closes_on_the_sphere(n, d):
    """On the constraint sphere (sum |v_i|^2 = n) the fourth moment's
    generator closes: (2/n^2) sum_{i<j} delta4(v_i, v_j) equals
    -m4/2 + (d+1)/(2(d-1)) - tr(S^2)/(d-1), with S = (1/n) sum v v^T.
    At n = 2 both sides vanish."""
    rng = np.random.default_rng(1000 * n + d)
    for _ in range(3):
        v = system.sample_equilibrium(n, d, rng)
        i, j = np.triu_indices(n, 1)
        pair_mean = 2.0 / n ** 2 * float(np.sum(analysis.delta4(v[i], v[j])))
        m4 = float(np.mean(np.sum(v * v, axis=1) ** 2))
        s = v.T @ v / n
        closure = (-m4 / 2.0 + (d + 1.0) / (2.0 * (d - 1.0))
                   - float(np.sum(s * s)) / (d - 1.0))
        np.testing.assert_allclose(pair_mean, closure, rtol=1e-12,
                                   atol=1e-14)


def test_delta4_matches_collision_monte_carlo():
    """b0/2 times the mean sampled jump of |v|^4 + |v*|^4 must reproduce
    delta4 under any normalized kernel; check two kernels on one pair."""
    rng = np.random.default_rng(83)
    d = 3
    v = np.array([0.9, -0.3, 0.2])
    vs = np.array([-0.5, 0.7, 0.1])
    target = analysis.delta4(v, vs)
    m = 400_000
    for kern in (UNIFORM, kernels.make_kernel("dirac", theta0=np.pi / 2)):
        thetas = np.asarray(kern.sample(rng, m), dtype=np.float64)
        diff = v - vs
        r = np.linalg.norm(diff)
        n_hat = diff / r
        g = rng.standard_normal((m, d))
        g -= np.outer(g @ n_hat, n_hat)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        dirs = np.cos(thetas)[:, None] * n_hat + np.sin(thetas)[:, None] * g
        s = v + vs
        vp = 0.5 * (s + r * dirs)
        vsp = 0.5 * (s - r * dirs)
        jump = (np.sum(vp * vp, axis=1) ** 2 + np.sum(vsp * vsp, axis=1) ** 2
                - np.sum(v * v) ** 2 - np.sum(vs * vs) ** 2)
        scale = kern.b0 / 2.0
        est = scale * float(np.mean(jump))
        se = scale * float(np.std(jump, ddof=1) / np.sqrt(m))
        assert abs(est - target) < 4 * se + 1e-12


def test_creation_zero_for_identical_copies():
    rng = np.random.default_rng(84)
    u = rng.standard_normal((20, 3))
    assert abs(analysis.coupling_creation(u, u.copy())) < 1e-14
    v = rng.standard_normal((20, 3))
    assert analysis.coupling_creation(u, v) >= 0.0


def test_pair_statistics_matches_double_loops():
    """The pass's sums on both backends against plain loops over the
    ordered pairs."""
    rng = np.random.default_rng(80)
    u, v = rng.standard_normal((7, 4)), rng.standard_normal((7, 4))
    d2u, d2v, dots, integ = (np.empty((7, 7)) for _ in range(4))
    for i in range(7):
        for j in range(7):
            du, dv = u[i] - u[j], v[i] - v[j]
            d2u[i, j], d2v[i, j], dots[i, j] = du @ du, dv @ dv, du @ dv
            integ[i, j] = np.sqrt(du @ du) * np.sqrt(dv @ dv) - du @ dv
    want = [np.mean(d2u ** 3), np.mean(d2v ** 1.5), np.mean(integ),
            np.mean(d2u * d2v - dots * dots)]
    for pairs in _both_backends(u, v, 3.0, 1.5):
        got = [pairs.moment_u, pairs.moment_v, pairs.gap, pairs.area]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(pairs.creation(),
                                   (4 - 2.0) / (2.0 * 4 - 2.0) * integ.mean(),
                                   rtol=1e-12, atol=0)
    w = rng.dirichlet(np.ones(7))
    rec = analysis.pair_statistics(u, v, weights=w)
    want = {"mean_u": 0.0, "mean_v": 0.0, "c_uu": 0.0, "c_vv": 0.0,
            "c_uv": 0.0, "mean_dot": 0.0, "mean_sq_distance": 0.0}
    for k in range(7):
        for name, term in (("mean_u", u[k]), ("mean_v", v[k]),
                           ("c_uu", np.outer(u[k], u[k])),
                           ("c_vv", np.outer(v[k], v[k])),
                           ("c_uv", np.outer(u[k], v[k])),
                           ("mean_dot", u[k] @ v[k]),
                           ("mean_sq_distance", (u[k] - v[k]) @ (u[k] - v[k]))):
            want[name] = want[name] + w[k] * term
    for name, value in want.items():
        np.testing.assert_allclose(getattr(rec, name), value, rtol=1e-12,
                                   atol=1e-15, err_msg=name)
    single = analysis.pair_statistics(u, weights=w)
    np.testing.assert_array_equal(single.c_uu, rec.c_uu)
    assert single.c_vv is None and np.isnan(single.mean_sq_distance)
    with pytest.raises(analysis.BadParams):
        analysis.pair_statistics(u, v[:6])
    for a, b in ((0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(analysis.BadParams):
            analysis.pair_statistics(u, v, a, b)
    with pytest.raises(analysis.BadParams):
        analysis.pair_statistics(u, v, weights=np.ones(6) / 6)


def _both_backends(*args, **kwargs):
    """``pair_statistics`` by the C pass (when loaded), then by the numpy
    reference of the python backend, after checking that the two records
    are equal field by field."""
    out = []
    if _engine.BACKEND == "c":
        out.append(analysis.pair_statistics(*args, **kwargs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_LIB", None)
        out.append(analysis.pair_statistics(*args, **kwargs))
    if len(out) == 2:
        assert_same_record(out[1], out[0])
    return out


RECORD_FLOATS = ("a", "b", "moment_u", "moment_v", "gap", "area",
                 "mean_dot", "mean_sq_distance", "kappa_u", "kappa_v")
RECORD_ARRAYS = ("u", "v", "weights", "mean_u", "c_uu", "mean_v", "c_vv",
                 "c_uv")


def _field(rec, name):
    """A record's field, or the error that reading it raises (the kappa of
    a matrix that kappa refuses), as text."""
    try:
        return getattr(rec, name)
    except analysis.AnalysisError as exc:
        return repr(exc)


def assert_same_record(got, want):
    """Two records equal field by field: floats by ==, arrays by
    array_equal, both kappas (or the errors kappa raises) and (for two
    copies) the sphere flag."""
    for name in RECORD_FLOATS:
        x, y = _field(got, name), _field(want, name)
        assert x == y or (x != x and y != y), (name, x, y)
    for name in RECORD_ARRAYS:
        x, y = getattr(got, name), getattr(want, name)
        assert (x is None and y is None) or np.array_equal(x, y), name
    if want.v is not None:
        assert got.normalized == want.normalized


def weak_outcome(pairs):
    """The weak report's slack, or the precondition it failed."""
    try:
        return analysis.pathwise_weak_inequality(pairs, 0.5, 4.0).slack
    except analysis.PreconditionFailed as exc:
        return str(exc)


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("samples", [1, 41])
def test_pair_statistics_of_a_stack_equals_each_configuration(
        monkeypatch, backend, copies, samples):
    """A stack of S configurations gives S records, each equal to the call
    on its configuration alone, kappas included; two copies hold a
    coincident pair and a negatively correlated one, whose weak reports
    come out (nan slack, failed precondition) at their own index."""
    if backend == "c" and _engine.BACKEND != "c":
        pytest.skip("the C pass is not loaded")
    if backend == "python":
        monkeypatch.setattr(_engine, "_LIB", None)
    rng = np.random.default_rng(samples * 10 + copies)
    us = system.sample_equilibrium(32, 3, rng, size=samples)
    vs = system.sample_equilibrium(32, 3, rng, size=samples)
    vs *= np.sign(np.einsum("snd,snd->s", us, vs))[:, None, None]
    if samples > 1:
        vs[3], vs[7] = us[3], -us[7]
    exponents = analysis.weak_exponents(0.5, 4.0)
    args = (us, vs) if copies == 2 else (us, None)
    records = analysis.pair_statistics(*args, *exponents)
    assert isinstance(records, list) and len(records) == samples
    alone = [analysis.pair_statistics(u, v, *exponents)
             for u, v in zip(us, vs if copies == 2 else [None] * samples)]
    for got, want in zip(records, alone):
        assert_same_record(got, want)
    if copies == 1:
        return
    outcomes = [weak_outcome(pairs) for pairs in records]
    assert outcomes == [weak_outcome(pairs) for pairs in alone]
    failed = [k for k, x in enumerate(outcomes) if isinstance(x, str)]
    coincident = [k for k, x in enumerate(outcomes)
                  if not isinstance(x, str) and np.isnan(x)]
    assert (failed, coincident) == (([7], [3]) if samples > 1 else ([], []))


def test_pair_statistics_of_a_stack_off_the_sphere():
    """Records of states off the constraint sphere say so as they would
    alone, and a matrix that kappa refuses leaves every record to compute
    its own kappas: the refused one raises on read, the others read the
    values they have alone."""
    rng = np.random.default_rng(94)
    us = system.sample_equilibrium(16, 3, rng, size=4)
    vs = system.sample_equilibrium(16, 3, rng, size=4)
    vs[1] = vs[1] + 1e-9            # not centered, energy 1 within 1e-17
    us[2] = 1.5 * us[2]             # energy 2.25: kappa needs unit trace
    records = analysis.pair_statistics(us, vs)
    assert [r.normalized for r in records] == [True, False, False, True]
    for k in (0, 1, 3):
        assert_same_record(records[k], analysis.pair_statistics(us[k], vs[k]))
    with pytest.raises(analysis.PreconditionFailed):
        records[2].kappa_u
    single = analysis.pair_statistics(us[2], vs[2])
    assert not single.normalized
    with pytest.raises(analysis.PreconditionFailed):
        single.kappa_u
    with pytest.raises(analysis.BadParams):
        analysis.pair_statistics(us[None])


def test_pair_statistics_calls_kappa_once(monkeypatch):
    """One kappa call fills the kappas of a single configuration's record
    and of every record of a stack, one copy or two; reading the kappas
    and the sphere flag afterwards calls nothing more."""
    calls = []
    real = analysis.kappa

    def spy(s):
        calls.append(np.shape(s))
        return real(s)

    monkeypatch.setattr(analysis, "kappa", spy)
    rng = np.random.default_rng(96)
    us = system.sample_equilibrium(16, 3, rng, size=3)
    vs = system.sample_equilibrium(16, 3, rng, size=3)
    for u, v in ((us[0], vs[0]), (us[0], None), (us, vs), (us, None)):
        calls.clear()
        got = analysis.pair_statistics(u, v)
        records = got if u.ndim == 3 else [got]
        assert len(calls) == 1
        for rec in records:
            assert rec.normalized
            rec.kappa_u, rec.kappa_v
        assert len(calls) == 1


# 2/(1 - 0.9) (1 + 0.9): the default p at delta = 0.9 is 20.000000000000004
NEAR_38 = analysis.weak_exponents(0.9, 2.0 / (1.0 - 0.9))[0]


@pytest.mark.skipif(_engine.BACKEND != "c", reason="the C pass is not loaded")
@pytest.mark.parametrize("exponents", [(6.0, 2.0), (4.5, 1.5), (NEAR_38, 2.0)],
                         ids=["integral", "half", "near38"])
@pytest.mark.parametrize("n, d", [(1, 3), (2, 3), (7, 3), (64, 5), (33, 32)])
def test_pair_pass_matches_matrix_oracle(n, d, exponents):
    """The C records equal the python reference's field by field (in
    ``_both_backends``): two copies at uniform and Dirichlet weights, a
    single copy (NULL v), and identical copies, whose gap and area are
    exactly 0."""
    assert NEAR_38 != 38.0
    rng = np.random.default_rng(n * 100 + d)
    u, v = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    names = ("moment_u", "moment_v", "gap", "area")
    for w in (None, rng.dirichlet(np.ones(n))):
        _both_backends(u, v, *exponents, weights=w)
        for rec in _both_backends(u, None, exponents[0], weights=w):
            assert all(np.isnan(getattr(rec, name)) for name in names[1:])
        for rec in _both_backends(u, u.copy(), *exponents, weights=w):
            assert rec.gap == 0.0 and rec.area == 0.0


def test_alignment_area_matches_double_sum():
    rng = np.random.default_rng(81)
    dist = random_discrete(rng, k=9, normalized=False)
    u, v, w = dist.atoms_u, dist.atoms_v, dist.weights
    total = 0.0
    for k in range(9):
        for m in range(9):
            du, dv = u[k] - u[m], v[k] - v[m]
            total += w[k] * w[m] * ((du @ du) * (dv @ dv) - (du @ dv) ** 2)
    pairs = dist.pair_statistics()
    np.testing.assert_allclose(pairs.area, total, rtol=1e-12, atol=0)
    assert analysis.pair_statistics(u, v, 2.0, 3.0, w).area == pairs.area


def test_creation_matches_event_decrement():
    """rate x E[- d(msd)] over one shared-randomness event equals the
    creation functional exactly in expectation.  Each slot of one drawn
    batch runs one event of the engine from the same start."""
    rng = np.random.default_rng(85)
    n, d, m = 16, 3, 20_000
    u0 = system.sample_equilibrium(n, d, rng)
    v0 = system.two_temperature_initial(n, d, rng)
    v0, _ = system.align_configurations(u0, v0)
    rate = system.event_rate(UNIFORM, n)
    batch = system.draw_event_batch(UNIFORM, n, d, rng, m, coupled=True)
    d0 = float(np.sum((u0 - v0) ** 2))
    deltas = np.empty(m)
    for k in range(m):
        u, v = u0.copy(), v0.copy()
        _engine.advance_coupled(u, v, 0.0, 0.0, np.inf, rate, 1.0, batch,
                                cursor=k, proj_ctr=0, proj_every=10 ** 9,
                                acc=np.zeros(8))
        deltas[k] = (float(np.sum((u - v) ** 2)) - d0) / n
    est = -rate * float(np.mean(deltas))
    se = rate * float(np.std(deltas, ddof=1) / np.sqrt(m))
    assert abs(est - analysis.coupling_creation(u0, v0)) < 4 * se


def test_discrete_distribution_validation():
    u = np.zeros((3, 2))
    with pytest.raises(analysis.BadParams):
        analysis.DiscreteCoupledDistribution(u, u, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(analysis.BadParams):
        analysis.DiscreteCoupledDistribution(u, u, np.array([-0.1, 0.6, 0.5]))
    with pytest.raises(analysis.BadParams):
        analysis.DiscreteCoupledDistribution(u, np.zeros((4, 2)),
                                             np.full(3, 1 / 3))


def test_normalize_centers_and_scales():
    rng = np.random.default_rng(86)
    dist = random_discrete(rng, normalized=False)
    pairs = dist.normalize().pair_statistics()
    for mean in (pairs.mean_u, pairs.mean_v):
        assert np.max(np.abs(mean)) <= 1e-12
    for c in (pairs.c_uu, pairs.c_vv):
        assert abs(np.trace(c) - 1.0) <= 1e-12


def test_fund_inequality_identity_coupling():
    d = 3
    axes = np.concatenate([np.eye(d), -np.eye(d)]) / 1.0
    dist = analysis.DiscreteCoupledDistribution(axes, axes,
                                                np.full(2 * d, 1 / (2 * d)))
    pairs = dist.pair_statistics()
    rep = analysis.fund_inequality_report(pairs)
    assert abs(rep.lhs) < 1e-14
    assert abs(rep.rhs) < 1e-14
    assert pairs.kappa_u == pytest.approx(d / (d - 1.0), rel=1e-12)


def test_fund_inequality_random_instances():
    rng = np.random.default_rng(87)
    for _ in range(300):
        rep = analysis.fund_inequality_report(
            random_discrete(rng).pair_statistics())
        assert rep.slack >= -1e-10


def test_fund_inequality_equality_case():
    for d in (3, 5, 8):
        rep = analysis.fund_inequality_report(
            two_radius_equality_case(d).pair_statistics())
        assert rep.lhs > 0.1
        assert abs(rep.slack) < 1e-10


def test_fund_inequality_requires_normalization():
    rng = np.random.default_rng(88)
    dist = random_discrete(rng, normalized=False)
    with pytest.raises(analysis.PreconditionFailed):
        analysis.fund_inequality_report(dist.pair_statistics())
    with pytest.raises(analysis.BadParams):  # the law, not its record
        analysis.fund_inequality_report(dist.normalize())


def test_fund_inequality_rank_one_infinite_rhs():
    e1 = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    # V flips one copy: mean dot 0, left side 1, both marginals rank-1
    u = np.concatenate([e1, e1])
    v = np.concatenate([e1, -e1])
    w = np.full(4, 0.25)
    with pytest.raises(analysis.RhsInfinite):
        analysis.fund_inequality_report(
            analysis.DiscreteCoupledDistribution(u, v, w).pair_statistics())


def test_trace_inequality_random_psd():
    rng = np.random.default_rng(89)
    for _ in range(200):
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal((40, 3))
        c_uu = x.T @ x / 40
        c_vv = y.T @ y / 40
        c_uv = x.T @ y / 40
        rep = analysis.trace_inequality_report(c_uu, c_vv, c_uv)
        assert rep.slack >= -1e-12


def test_trace_inequality_identity_blocks():
    s = np.eye(3) / 3.0
    rep = analysis.trace_inequality_report(s, s, s)
    np.testing.assert_allclose(rep.lhs, 0.0, atol=1e-15)
    np.testing.assert_allclose(rep.rhs, 0.0, atol=1e-15)


def test_area_decomposition_exact():
    rng = np.random.default_rng(90)
    for _ in range(100):
        dist = random_discrete(rng, k=15)
        dec = analysis.area_decomposition(dist.pair_statistics())
        assert abs(dec.residual) < 1e-11
        assert dec.term_pointwise >= 0.0
        assert dec.term_antisym >= 0.0
        np.testing.assert_allclose(
            dec.total, dec.term_pointwise + dec.term_antisym + dec.term_trace,
            atol=1e-11)


def test_pathwise_weak_inequality_random_states():
    rng = np.random.default_rng(91)
    for k in range(25):
        u = system.sample_equilibrium(32, 3, rng)
        v = system.sample_equilibrium(32, 3, rng)
        v, _ = system.align_configurations(u, v)
        pairs = analysis.pair_statistics(u, v,
                                         *analysis.weak_exponents(0.5, 4.0))
        rep = analysis.pathwise_weak_inequality(pairs, delta=0.5, p=4.0)
        assert rep.slack >= -1e-10
        assert pairs.mean_dot >= -1e-12
        # the decay runner's creation column reads pairs.creation()
        assert pairs.creation() == analysis.coupling_creation(u, v)


def test_pathwise_weak_degenerate_and_errors():
    rng = np.random.default_rng(92)
    u = system.sample_equilibrium(16, 3, rng)
    def pairs(a, b):
        return analysis.pair_statistics(a, b, *analysis.weak_exponents(0.5, 4.0))

    coincident = pairs(u, u.copy())
    rep = analysis.pathwise_weak_inequality(coincident, 0.5, 4.0)
    assert coincident.mean_sq_distance == 0.0
    assert np.isnan(rep.rhs) and np.isnan(rep.slack)
    with pytest.raises(analysis.PreconditionFailed):
        analysis.pathwise_weak_inequality(pairs(u, -u), 0.5, 4.0)
    with pytest.raises(analysis.BadParams):
        analysis.pathwise_weak_inequality(pairs(u, u), 0.0, 4.0)  # delta <= 0
    with pytest.raises(analysis.BadParams):
        analysis.pathwise_weak_inequality(u, 0.5, 4.0)  # raw arrays, not pairs
    with pytest.raises(analysis.BadParams):  # moments at other exponents
        analysis.pathwise_weak_inequality(
            analysis.pair_statistics(u, u.copy()), 0.5, 4.0)
    with pytest.raises(analysis.BadParams):  # a single copy
        analysis.pathwise_weak_inequality(
            analysis.pair_statistics(u, None, 6.0), 0.5, 4.0)
    with pytest.raises(analysis.BadParams):  # unequal weights
        analysis.pathwise_weak_inequality(analysis.pair_statistics(
            u, u.copy(), 6.0, 2.0, weights=np.arange(1.0, 17.0) / 136.0),
            0.5, 4.0)


def test_pathwise_weak_rejects_states_off_the_sphere():
    """The record's means and energies must be those of the constraint
    sphere, as check_configuration asks of the states."""
    rng = np.random.default_rng(93)
    u = system.sample_equilibrium(16, 3, rng)
    v = system.sample_equilibrium(16, 3, rng)
    def weak(a, b):
        return analysis.pathwise_weak_inequality(analysis.pair_statistics(
            a, b, *analysis.weak_exponents(0.5, 4.0)), 0.5, 4.0)

    weak(u, v)
    for a, b in ((u, 1.5 * v), (u * (1 + 1e-9), v), (u, v + 1e-9),
                 (u + 0.1, v)):
        with pytest.raises(system.InvariantViolation):
            weak(a, b)
        with pytest.raises(system.InvariantViolation):
            weak(b, a)
    with pytest.raises(system.DegenerateInput):
        weak(u[:, :2], v[:, :2])
    with pytest.raises(system.DegenerateInput):
        weak(u[:1], v[:1])


def test_conjugate_exponent():
    assert analysis.conjugate_exponent(2.0) == 2.0
    np.testing.assert_allclose(analysis.conjugate_exponent(4.0), 4.0 / 3.0)
    with pytest.raises(analysis.BadParams):
        analysis.conjugate_exponent(1.0)


def test_holder_constants_values():
    hc = analysis.holder_constants(0.5, 4.0, 3)
    shared = 0.5 * (1.5 ** 3.0) / (2.0 ** 2.0)
    np.testing.assert_allclose(hc.k1, 2.0 ** -4.0 * shared, rtol=1e-13)
    np.testing.assert_allclose(hc.k2, 2.0 ** -8.5 * shared, rtol=1e-13)
    assert hc.q == 4.0 / 3.0
    assert 0.0 < hc.k2 < hc.k1


def test_order4_bound_shapes_and_t_star():
    bound, t_star = analysis.order4_bound(3.0, 3, 0.0)
    assert bound == pytest.approx(3.0)
    assert t_star == 0.0  # 3 < 2 (d+2)/d = 10/3 needs no waiting at d=3
    bound, t_star = analysis.order4_bound(5.0, 3, np.array([0.0, 1.0, 2.0]))
    assert np.all(np.diff(bound) < 0.0)
    np.testing.assert_allclose(t_star, 2.0 * np.log(2.0))
    # at t_star the bound reaches twice the equilibrium value
    b_at, _ = analysis.order4_bound(5.0, 3, t_star)
    np.testing.assert_allclose(b_at, 10.0 / 3.0, rtol=1e-12)
    with pytest.raises(analysis.BadParams):
        analysis.order4_bound(0.5, 3, 0.0)


def test_gamma_exponent():
    assert analysis.gamma_exponent(0.5) == 0.75
    with pytest.raises(analysis.BadParams, match="need delta > 0, got 0.0"):
        analysis.gamma_exponent(0.0)


def test_decay_envelope_monotone():
    t = np.linspace(0.0, 10.0, 50)
    env = analysis.decay_envelope(t, 2.0, 0.5, 1e-2, 1.0)
    assert env[0] == pytest.approx(2.0)
    assert np.all(np.diff(env) <= 0.0)


def test_gaussian_even_moment():
    """Whole m: within 2e-15 relative of the exact rational
    prod_k (d/2 + k) / (d/2).  Fractional m: within 1e-14 of mpmath's
    (2/d)^m Gamma(d/2 + m) / Gamma(d/2) (scipy's gammaln form was off by up
    to 9.5e-14 on this grid)."""
    for d in range(3, 40):
        h, exact = Fraction(d, 2), Fraction(1)
        for m in range(1, 40):
            exact *= (h + m - 1) / h
            got = analysis.gaussian_even_moment(d, m)
            assert abs(Fraction(got) - exact) <= Fraction(2e-15) * exact, (d, m)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        for m in (0.5, 3.7, 6.3, 20.5, 38.00000000000001, 99.9):
            for d in (3, 4, 5, 8, 16, 32, 64):
                mm, h = mpmath.mpf(m), mpmath.mpf(d) / 2
                want = (1 / h) ** mm * mpmath.gamma(h + mm) / mpmath.gamma(h)
                got = analysis.gaussian_even_moment(d, m)
                assert abs(got / want - 1) < 1e-14, (d, m)
    with pytest.raises(ValueError, match="m >= 0"):
        analysis.gaussian_even_moment(3, -0.5)


def test_mean_stderr_over_the_first_axis():
    """A 1-D sample gives python floats; replicas stacked as rows give
    numpy's mean and standard error over axis 0, bit for bit, and a single
    replica has standard error zero."""
    x = np.random.default_rng(3).standard_normal((7, 4))
    mean, se = analysis._mean_stderr(x)
    assert np.array_equal(mean, np.mean(x, axis=0))
    assert np.array_equal(se, np.std(x, axis=0, ddof=1) / np.sqrt(7))
    assert [type(y) for y in analysis._mean_stderr(x[:, 0])] == [float, float]
    mean, se = analysis._mean_stderr(x[:1])
    assert np.array_equal(mean, x[0]) and np.array_equal(se, np.zeros(4))


def test_wishart_kappa_moment():
    rng = np.random.default_rng(93)
    with pytest.raises(analysis.BadParams):
        analysis.wishart_kappa_moment(4, 3, 2.0, 10, rng)
    # the dimension rule comes first: the order rule divides by d - 1
    with pytest.raises(analysis.BadParams, match="need d >= 3, got 1"):
        analysis.wishart_kappa_moment(64, 1, 2.0, 4, rng)
    small = analysis.wishart_kappa_moment(16, 3, 2.0, 400, rng)
    large = analysis.wishart_kappa_moment(256, 3, 2.0, 400, rng)
    bound = 2.0 / 3.0
    assert small.value < bound + 3 * small.stderr
    assert large.value < bound + 3 * large.stderr
    # convergence toward the bound from below as n grows
    assert large.value > small.value + 0.01


def test_k_main_estimate_converges_to_limit():
    rng = np.random.default_rng(94)
    hc = analysis.k_main_estimate(0.5, 4.0, 512, 3, 60, rng)
    assert not hc.moment_blowup
    assert abs(hc.j_factor - hc.j_limit) / hc.j_limit < 0.1
    assert hc.k_main == pytest.approx(hc.k2 * hc.j_factor)
    assert hc.c_delta_n < hc.k_main


@pytest.mark.parametrize("n, d, samples", [(256, 3, 200), (64, 5, 100),
                                           (2048, 32, 5)])
def test_k_main_estimate_equals_per_sample_loop(n, d, samples):
    """The blocked estimate against one sample at a time, each with its
    own draw, moment record and kappa, and python float powers: the
    constants are equal, not only close."""
    delta, p = 0.5, 4.0
    hc = analysis.k_main_estimate(delta, p, n, d, samples,
                                  np.random.default_rng(n + d))
    rng = np.random.default_rng(n + d)
    m_kappa, m_pair = p * (1.0 + 2.0 * delta), p * (1.0 + delta)
    xs = np.empty(samples)
    for s in range(samples):
        pairs = analysis.pair_statistics(system.sample_equilibrium(n, d, rng),
                                         a=m_pair)
        kap = analysis.kappa(pairs.c_uu)
        xs[s] = kap ** m_kappa * (pairs.moment_u * 0.5 ** m_pair)
    m = float(np.mean(xs))
    se_m = float(np.std(xs, ddof=1) / np.sqrt(samples))
    expo = 1.0 / (2.0 * p * delta)
    j = m ** (-expo)
    assert hc.j_factor == j
    assert hc.j_stderr == j * expo * se_m / m
    assert hc.k_main == hc.k2 * j


@pytest.mark.parametrize("n, d, samples", [(256, 3, 200), (64, 5, 100),
                                           (2048, 32, 5)])
def test_wishart_kappa_moment_equals_per_sample_loop(n, d, samples):
    """The blocked estimate against one sample at a time, each with its
    own draw, second-moment matrix and kappa, and python float powers:
    equal, not only close."""
    p = 2.0
    est = analysis.wishart_kappa_moment(n, d, p, samples,
                                        np.random.default_rng(n + d))
    rng = np.random.default_rng(n + d)
    w = np.full(n, 1.0 / n)
    xs = np.empty(samples)
    for s in range(samples):
        x = system.sample_equilibrium(n, d, rng)
        xs[s] = analysis.kappa(analysis._moment(x, x, w)) ** p
    m = float(np.mean(xs))
    se_m = float(np.std(xs, ddof=1) / np.sqrt(samples))
    value = m ** (-1.0 / p)
    assert est.value == value
    assert est.stderr == value * se_m / (p * m)


def test_k_main_estimate_blowup_warning():
    rng = np.random.default_rng(95)
    with pytest.warns(analysis.MomentBlowup):
        analysis.k_main_estimate(0.5, 4.0, 8, 3, 5, rng)
    with pytest.raises(analysis.BadParams, match="need 0 < delta < 1"):
        analysis.k_main_estimate(1.0, 4.0, 64, 3, 5, rng)
    with pytest.raises(analysis.BadParams, match="need p > 1"):
        analysis.k_main_estimate(0.5, 1.0, 64, 3, 5, rng)


@pytest.mark.parametrize("n, d, diverges", [(5, 3, True), (6, 3, False),
                                             (7, 3, True), (8, 3, False)])
def test_kappa_moment_rule_decides_alike(n, d, diverges):
    """At the boundary n - 2 order/(d-1) = d the kappa moment of order 2
    (n = 5) or 4 (n = 7) is not integrable: check_wishart_order refuses it
    and k_main_estimate, whose kappa order is p (1 + 2 delta) = 2 (p = 1.6,
    delta = 0.125) or 4 (p = 2, delta = 0.5), warns; one particle more
    passes both."""
    order = 2 if n < 7 else 4
    p, delta = (1.6, 0.125) if order == 2 else (2.0, 0.5)
    assert p * (1.0 + 2.0 * delta) == order
    rng = np.random.default_rng(n)
    if diverges:
        with pytest.raises(analysis.BadParams, match="too small"):
            analysis.check_wishart_order(n, d, order)
        with pytest.warns(analysis.MomentBlowup):
            analysis.k_main_estimate(delta, p, n, d, 5, rng)
    else:
        analysis.check_wishart_order(n, d, order)
        with warnings.catch_warnings():
            warnings.simplefilter("error", analysis.MomentBlowup)
            analysis.k_main_estimate(delta, p, n, d, 5, rng)


def test_counterexample_heavy_tail_trend():
    """Creation collapses with the heavy-tail mass while the coupled
    distance stays order one."""
    rng = np.random.default_rng(96)
    rows = analysis.counterexample_heavy_tail((10.0, 100.0, 1000.0), 1.5, 3,
                                              4000, rng)
    creations = [r.creation for r in rows]
    assert creations[0] > creations[1] > creations[2]
    m_qs = [r.m_q for r in rows]
    assert m_qs[0] > m_qs[1] > m_qs[2]
    for r in rows:
        assert abs(r.mean_sq_distance - 2.0) < 5 * r.distance_stderr + 0.05
    with pytest.raises(analysis.BadParams):
        analysis.counterexample_heavy_tail((10.0,), 2.5, 3, 10, rng)
    # every radius is checked before the first draw
    state = rng.bit_generator.state
    with pytest.raises(analysis.BadParams):
        analysis.counterexample_heavy_tail((10.0, 1.0), 1.5, 3, 10, rng)
    assert rng.bit_generator.state == state


def test_counterexample_radial_band_trend():
    """The creation-to-distance ratio falls off like r^-2, so band
    couplings defeat any linear comparison between the two."""
    rng = np.random.default_rng(97)
    rows = analysis.counterexample_radial_band((2.0, 4.0, 8.0), 0.5, 3,
                                               20_000, rng)
    ratios = np.array([r.ratio for r in rows])
    assert np.all(np.diff(ratios) < 0.0)
    slope = np.polyfit(np.log([2.0, 4.0, 8.0]), np.log(ratios), 1)[0]
    assert -3.0 < slope < -1.0
    with pytest.raises(analysis.DegenerateBand):
        analysis.counterexample_radial_band((2.0,), 0.0, 3, 10, rng)
    # every band's mass is checked before the first draw
    state = rng.bit_generator.state
    with pytest.raises(analysis.DegenerateBand):
        analysis.counterexample_radial_band((2.0, 200.0), 0.1, 3, 10, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("samples", [0, 1])
def test_estimators_need_two_samples(samples):
    """Fewer than two Monte Carlo samples leave no standard error (and none
    no mean): each estimator refuses them instead of returning nan."""
    rng = np.random.default_rng(5)
    calls = (
        lambda: analysis.k_main_estimate(0.5, 4.0, 64, 3, samples, rng),
        lambda: analysis.wishart_kappa_moment(16, 3, 2.0, samples, rng),
        lambda: analysis.counterexample_heavy_tail((10.0,), 1.5, 3, samples,
                                                   rng),
        lambda: analysis.counterexample_radial_band((2.0,), 0.5, 3, samples,
                                                    rng),
    )
    for call in calls:
        with pytest.raises(analysis.BadParams, match="2 Monte Carlo samples"):
            call()
