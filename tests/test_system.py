import re

import numpy as np
import pytest

from kacsim import _engine, analysis, kernels, system

UNIFORM = kernels.make_kernel("uniform", theta_min=0.0)


def kac_sphere_point(n, d, seed):
    rng = np.random.default_rng(seed)
    return system.sample_equilibrium(n, d, rng), rng


def m4(v):
    return float(np.mean(np.sum(v * v, axis=1) ** 2))


def test_projection_example():
    v = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = system.project_to_constraint_sphere(v)
    np.testing.assert_allclose(out, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                               atol=1e-15)


def test_projection_degenerate_and_shapes():
    with pytest.raises(system.DegenerateInput):
        system.project_to_constraint_sphere(np.zeros((4, 3)))
    with pytest.raises(system.DegenerateInput):
        # all equal velocities have zero energy once centered
        system.project_to_constraint_sphere(np.ones((4, 3)))
    with pytest.raises(ValueError):
        system.project_to_constraint_sphere(np.zeros(3))
    stack = np.ones((2, 4, 3))
    stack[0, 0] = 2.0
    with pytest.raises(system.DegenerateInput):
        # the second configuration has zero energy once centered
        system.project_to_constraint_sphere(stack)


def test_check_configuration():
    v, _ = kac_sphere_point(16, 3, 51)
    system.check_configuration(v)
    with pytest.raises(system.InvariantViolation):
        system.check_configuration(v + 0.01)


def test_event_rate():
    np.testing.assert_allclose(system.event_rate(UNIFORM, 33), 32.0,
                               rtol=1e-12)
    with pytest.raises(system.DegenerateInput):
        system.event_rate(UNIFORM, 1)


def test_sample_equilibrium_constraints():
    rng = np.random.default_rng(52)
    v = system.sample_equilibrium(100, 3, rng)
    np.testing.assert_allclose(v.mean(axis=0), 0.0, atol=1e-14)
    np.testing.assert_allclose(np.mean(np.sum(v * v, axis=1)), 1.0,
                               atol=1e-14)


@pytest.mark.parametrize("n, d, size", [(17, 3, 30), (64, 5, 100),
                                        (256, 3, 200)])
def test_stacked_sample_equals_sequential_draws(n, d, size):
    """One stacked draw gives the configurations of ``size`` calls in a
    row bit for bit, and leaves the generator where they leave it."""
    stacked_rng, rng = np.random.default_rng(n), np.random.default_rng(n)
    stack = system.sample_equilibrium(n, d, stacked_rng, size=size)
    one_by_one = [system.sample_equilibrium(n, d, rng) for _ in range(size)]
    assert stack.shape == (size, n, d)
    assert np.array_equal(stack, np.stack(one_by_one))
    assert stacked_rng.bit_generator.state == rng.bit_generator.state


# numpy's pairwise sums change order from 8 terms on; these n straddle that
@pytest.mark.parametrize("d", [3, 4, 32])
@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 17, 64])
def test_stacks_project_as_each_configuration(n, d):
    """project_to_constraint_sphere on a stack gives each configuration as
    it gives it alone, bit for bit, also from a column-major copy (its sums
    run in index order whatever the memory order), and so does a stacked
    equilibrium draw against draws one at a time."""
    rng = np.random.default_rng(100 * n + d)
    stack = rng.uniform(-3.0, 5.0, (4, n, d))
    alone = [system.project_to_constraint_sphere(np.asfortranarray(x))
             for x in stack]
    assert np.array_equal(system.project_to_constraint_sphere(stack),
                          np.stack(alone))
    stacked_rng, rng = np.random.default_rng(n), np.random.default_rng(n)
    one_by_one = [system.sample_equilibrium(n, d, rng) for _ in range(4)]
    assert np.array_equal(system.sample_equilibrium(n, d, stacked_rng, size=4),
                          np.stack(one_by_one))


def test_equilibrium_blocks_span_several_blocks():
    """200 samples at n = 256, d = 3 come in blocks of at most
    SAMPLE_BLOCK_VALUES numbers, equal to the draws one at a time."""
    n, d, samples = 256, 3, 200
    block_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
    blocks = list(system.equilibrium_blocks(n, d, samples, block_rng))
    assert len(blocks) > 2
    assert all(b.size <= system.SAMPLE_BLOCK_VALUES for b in blocks)
    one_by_one = [system.sample_equilibrium(n, d, rng) for _ in range(samples)]
    assert np.array_equal(np.concatenate(blocks), np.stack(one_by_one))
    assert block_rng.bit_generator.state == rng.bit_generator.state
    # a sample larger than a block comes alone
    big = list(system.equilibrium_blocks(64, 1024, 2, block_rng))
    assert [b.shape for b in big] == [(1, 64, 1024)] * 2


def test_equilibrium_m4_small_n_exact():
    # two particles on the constraint sphere are +/-v with |v| = 1, so the
    # fourth moment is exactly 1
    assert system.equilibrium_m4(2, 3) == pytest.approx(1.0)
    # large n approaches the Maxwellian value (d+2)/d
    assert system.equilibrium_m4(10_000, 3) == pytest.approx(5.0 / 3.0,
                                                             rel=1e-3)


def test_equilibrium_m4_matches_sampler():
    """Monte Carlo check of the exact finite-n fourth moment formula."""
    rng = np.random.default_rng(53)
    n, d, reps = 16, 3, 4000
    vals = np.empty(reps)
    for k in range(reps):
        vals[k] = m4(system.sample_equilibrium(n, d, rng))
    se = np.std(vals, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(vals) - system.equilibrium_m4(n, d)) < 4 * se


def test_two_temperature_initial():
    rng = np.random.default_rng(54)
    v = system.two_temperature_initial(4096, 3, rng, m4_target=3.0)
    np.testing.assert_allclose(v.mean(axis=0), 0.0, atol=1e-13)
    np.testing.assert_allclose(np.mean(np.sum(v * v, axis=1)), 1.0,
                               atol=1e-13)
    assert abs(m4(v) - 3.0) < 0.2
    with pytest.raises(ValueError):
        system.two_temperature_initial(64, 3, rng, m4_target=0.5)


def test_default_m4_init_is_reachable():
    """3.0 where the two-temperature start reaches it (d = 3), the middle
    of the reachable range from d = 4 on, where 3.0 is out of reach."""
    assert system.default_m4_init(3) == 3.0
    for d in (4, 5, 8):
        lo, hi = system.two_temperature_m4_range(d)
        assert not lo < 3.0 < hi
        assert system.default_m4_init(d) == 0.5 * (lo + hi)
        system.two_temperature_initial(64, d, np.random.default_rng(d))


def test_substreams_disjoint_and_stable():
    a = system.substream_seed(7, 0)
    b = system.substream_seed(7, 1)
    assert a != b
    assert a == system.substream_seed(7, 0)
    x = system.substream(7, 3).random(4)
    y = system.substream(7, 3).random(4)
    np.testing.assert_array_equal(x, y)


def test_step_kac_conserves():
    v, rng = kac_sphere_point(8, 3, 55)
    p0, e0 = v.sum(axis=0), np.sum(v * v)
    t = 0.0
    for _ in range(200):
        t, (i, j) = system.step_kac(v, UNIFORM, rng, t=t)
        assert i != j
    np.testing.assert_allclose(v.sum(axis=0), p0, atol=1e-12)
    np.testing.assert_allclose(np.sum(v * v), e0, rtol=1e-12)
    assert t > 0.0


def test_step_kac_zero_angle_is_identity():
    """theta = 0 keeps n' = n so both particles keep their velocities, up
    to one normalize/rescale round trip."""
    v, rng = kac_sphere_point(8, 3, 56)
    before = v.copy()
    draws = (0.5, 1, 3, 0.0, 0.3, rng.standard_normal(3))
    system.step_kac(v, UNIFORM, rng, draws=draws)
    np.testing.assert_allclose(v, before, atol=1e-14)


@pytest.mark.parametrize("convert", [
    pytest.param(lambda x: x.astype(np.float32), id="float32"),
    pytest.param(lambda x: x.tolist(), id="nested_list"),
])
def test_steppers_refuse_a_state_they_would_copy(convert):
    """The event would update a converted copy and leave the caller's state
    as it was, so each stepper raises TypeError for either copy."""
    u, rng = kac_sphere_point(8, 3, 60)
    v = u.copy()
    bad = convert(u)
    with pytest.raises(TypeError, match="v must be"):
        system.step_kac(bad, UNIFORM, rng)
    with pytest.raises(TypeError, match="u must be"):
        system.step_coupled(bad, v, UNIFORM, rng)
    with pytest.raises(TypeError, match="v must be"):
        system.step_coupled(u, bad, UNIFORM, rng)
    np.testing.assert_array_equal(u, v)


def test_step_coupled_identical_copies_stay_identical():
    u, rng = kac_sphere_point(8, 3, 57)
    v = u.copy()
    t = 0.0
    for _ in range(100):
        t, ev, delta, residual, _ = system.step_coupled(u, v, UNIFORM, rng,
                                                        t=t)
        assert delta <= 1e-15
    np.testing.assert_array_equal(u, v)


def test_step_coupled_residual_identity():
    u, rng = kac_sphere_point(16, 3, 58)
    v, _ = kac_sphere_point(16, 3, 59)
    v, _ = system.align_configurations(u, v)
    worst_resid, worst_delta = 0.0, -np.inf
    t = 0.0
    for _ in range(500):
        t, ev, delta, residual, _ = system.step_coupled(u, v, UNIFORM, rng,
                                                        t=t)
        worst_resid = max(worst_resid, abs(residual))
        worst_delta = max(worst_delta, delta)
    assert worst_resid < 1e-12
    assert worst_delta <= 1e-13


def test_engine_matches_python_step_kac():
    """The compiled batch path and the python reference path must produce
    the same trajectory, bit for bit, from the same draw stream."""
    n, d, events = 16, 3, 200
    v0, _ = kac_sphere_point(n, d, 60)
    seed = 61

    rec = system.simulate_kac(v0.copy(), UNIFORM,
                              np.random.default_rng(seed),
                              max_events=events,
                              reproject_every=10 ** 9)

    rng = np.random.default_rng(seed)
    rate = system.event_rate(UNIFORM, n)
    w0 = float(rng.standard_exponential())
    exps, ii, jj, thetas, cphis, gl, _ = system.draw_event_batch(
        UNIFORM, n, d, rng, system.DEFAULT_CHUNK_SIZE, False)
    v = v0.copy()
    t = 0.0
    for k in range(events):
        i, j = int(ii[k]), int(jj[k])
        j0 = j - 1 if j > i else j
        w = w0 if k == 0 else float(exps[k - 1])
        t, _ = system.step_kac(v, UNIFORM, t=t, rate=rate,
                               draws=(w, i, j0, float(thetas[k]),
                                      float(cphis[k]), gl[k]))

    assert rec.checks["n_events"] == events
    np.testing.assert_array_equal(rec.final, v)
    assert rec.times[-1] == t


def test_engine_matches_python_step_coupled():
    n, d, events = 12, 3, 150
    u0, _ = kac_sphere_point(n, d, 62)
    v0, _ = kac_sphere_point(n, d, 63)
    v0, _ = system.align_configurations(u0, v0)
    seed = 64

    rec = system.simulate_coupled(u0.copy(), v0.copy(), UNIFORM,
                                  np.random.default_rng(seed),
                                  max_events=events,
                                  reproject_every=10 ** 9)

    rng = np.random.default_rng(seed)
    rate = system.event_rate(UNIFORM, n)
    w0 = float(rng.standard_exponential())
    exps, ii, jj, thetas, cphis, gl, gs = system.draw_event_batch(
        UNIFORM, n, d, rng, system.DEFAULT_CHUNK_SIZE, True)
    u, v = u0.copy(), v0.copy()
    t = 0.0
    for k in range(events):
        i, j = int(ii[k]), int(jj[k])
        j0 = j - 1 if j > i else j
        w = w0 if k == 0 else float(exps[k - 1])
        t = system.step_coupled(u, v, UNIFORM, t=t, rate=rate,
                                draws=(w, i, j0, float(thetas[k]),
                                       float(cphis[k]), gl[k], gs[k]))[0]

    fu, fv = rec.final
    np.testing.assert_array_equal(fu, u)
    np.testing.assert_array_equal(fv, v)
    assert rec.times[-1] == t


KERNELS = {"uniform": UNIFORM,
           "power_law": kernels.make_kernel("power_law", nu=-0.5,
                                            theta_min=0.0),
           "dirac": kernels.make_kernel("dirac", theta0=np.pi / 3)}


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("family", sorted(KERNELS))
def test_step_draws_a_batch_of_one(family, d, copies):
    """A step given only ``rng`` draws its event as draw_event_batch of
    size 1: the generator ends where a twin that drew that batch ends, and
    the states where a step given the batch's draws leaves them."""
    kernel, n = KERNELS[family], 10
    step = system.step_kac if copies == 1 else system.step_coupled
    rng, twin = np.random.default_rng(70 + d), np.random.default_rng(70 + d)
    states = [system.sample_equilibrium(n, d, np.random.default_rng(c))
              for c in range(copies)]
    replay = [x.copy() for x in states]
    for _ in range(25):
        got = step(*states, kernel, rng)
        exps, ii, jj, thetas, cphis, gl, gs = system.draw_event_batch(
            kernel, n, d, twin, 1, copies == 2)
        assert rng.bit_generator.state == twin.bit_generator.state
        i, j = int(ii[0]), int(jj[0])
        draws = (float(exps[0]), i, j - 1 if j > i else j, float(thetas[0]),
                 float(cphis[0]), gl[0], *gs[:1])
        want = step(*replay, kernel, draws=draws)
        assert got[:2] == want[:2] and got[1] == (i, j)
        for x, y in zip(states, replay):
            np.testing.assert_array_equal(x, y)


def test_simulate_kac_event_count_near_expectation():
    """With rate (n-1) b0 / 2 the event count over [0, T] is Poisson with
    mean rate * T; check within 4 standard deviations."""
    n, horizon = 32, 8.0
    v0, rng = kac_sphere_point(n, 3, 65)
    rec = system.simulate_kac(v0, UNIFORM, rng, horizon=horizon)
    mean = system.event_rate(UNIFORM, n) * horizon
    assert abs(rec.checks["n_events"] - mean) < 4 * np.sqrt(mean)


def test_simulate_kac_deterministic():
    v0, _ = kac_sphere_point(16, 3, 66)
    a = system.simulate_kac(v0.copy(), UNIFORM, np.random.default_rng(9),
                            horizon=2.0, sample_dt=0.5)
    b = system.simulate_kac(v0.copy(), UNIFORM, np.random.default_rng(9),
                            horizon=2.0, sample_dt=0.5)
    np.testing.assert_array_equal(a.final, b.final)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.columns["m4"], b.columns["m4"])


def test_simulate_kac_skeleton_property():
    """Sampling stops must not perturb the realized path: a run sampled on
    a grid ends in the same state as the same run sampled only at the
    horizon."""
    v0, _ = kac_sphere_point(16, 3, 67)
    fine = system.simulate_kac(v0.copy(), UNIFORM, np.random.default_rng(10),
                               horizon=3.0, sample_dt=0.25)
    coarse = system.simulate_kac(v0.copy(), UNIFORM,
                                 np.random.default_rng(10), horizon=3.0)
    np.testing.assert_array_equal(fine.final, coarse.final)
    assert fine.checks["n_events"] == coarse.checks["n_events"]


def _sampled_run(coupled, horizon, sample_dt, **kw):
    """A default-shape run (N = 256, from a two-temperature start) that
    samples its states: (times, states of shape (samples, copies, n, d),
    checks)."""
    rng = np.random.default_rng(80)
    u0 = system.sample_equilibrium(256, 3, rng)
    v0 = system.two_temperature_initial(256, 3, rng)
    rng = np.random.default_rng(81)
    if coupled:
        v0, _ = system.align_configurations(u0, v0)
        rec = system.simulate_coupled(u0, v0, UNIFORM, rng, horizon=horizon,
                                      sample_dt=sample_dt, **kw)
    else:
        rec = system.simulate_kac(v0, UNIFORM, rng, horizon=horizon,
                                  sample_dt=sample_dt, **kw)
    return rec.times, np.stack(rec.states, axis=1), rec.checks


@pytest.mark.parametrize("coupled", [False, True], ids=["single", "coupled"])
def test_runs_are_prefixes_at_the_default_chunk(coupled):
    """The chunk size is fixed, not sized from the horizon, so the run to
    horizon 10 is bit for bit the start of the run to horizon 20 (both past
    the first batch), and halving sample_dt leaves the state equal at the
    common sample times.  Another chunk size is another stream."""
    times, states, checks = _sampled_run(coupled, 20.0, 0.5)
    short_t, short, short_checks = _sampled_run(coupled, 10.0, 0.5)
    assert short_checks["n_events"] > system.DEFAULT_CHUNK_SIZE
    assert checks["n_events"] > short_checks["n_events"]
    assert np.array_equal(short_t, times[:len(short_t)])
    assert np.array_equal(short, states[:len(short)])

    fine_t, fine, fine_checks = _sampled_run(coupled, 20.0, 0.25)
    assert np.array_equal(fine_t[::2], times)
    assert np.array_equal(fine[::2], states)
    assert fine_checks["n_events"] == checks["n_events"]

    other = _sampled_run(coupled, 20.0, 0.5,
                         chunk_size=2 * system.DEFAULT_CHUNK_SIZE)[1]
    assert not np.array_equal(other[-1], states[-1])


def test_simulate_horizon_zero_single_snapshot():
    v0, rng = kac_sphere_point(8, 3, 68)
    rec = system.simulate_kac(v0, UNIFORM, rng, horizon=0.0)
    np.testing.assert_array_equal(rec.times, [0.0])
    assert rec.checks["n_events"] == 0


@pytest.mark.parametrize("coupled", [False, True], ids=["single", "coupled"])
@pytest.mark.parametrize("name, kw", [
    ("horizon", dict(horizon=np.nan)),
    ("horizon", dict(horizon=np.inf, max_events=10)),
    ("horizon", dict(horizon=-1.0)),
    ("sample_dt", dict(horizon=1.0, sample_dt=-0.5)),
    ("sample_dt", dict(horizon=1.0, sample_dt=0.0)),
    ("sample_dt", dict(horizon=1.0, sample_dt=np.nan)),
    ("sample_dt", dict(horizon=1.0, sample_dt=np.inf)),
    ("sample_dt", dict(sample_dt=0.5, max_events=500)),
    ("max_events", dict(max_events=-3)),
    ("chunk_size", dict(horizon=1.0, chunk_size=0)),
], ids=["horizon-nan", "horizon-inf", "horizon-negative", "dt-negative",
        "dt-zero", "dt-nan", "dt-inf", "dt-without-horizon", "events-negative",
        "chunk-zero"])
def test_simulate_refuses_bad_run_lengths(coupled, name, kw):
    """A horizon, sample spacing or event budget the run cannot honour is
    refused by name, before any event: a nan horizon would never stop, a
    negative one would sample [-1, 0], a nonpositive sample_dt would fail
    deep in the grid, a sample_dt without a horizon would be ignored, a
    negative budget would run no event silently, and an empty batch of
    draws would be drawn again forever."""
    starts = [kac_sphere_point(8, 3, 69 + c)[0] for c in range(1 + coupled)]
    simulate = system.simulate_coupled if coupled else system.simulate_kac
    with pytest.raises(ValueError, match=name):
        simulate(*starts, UNIFORM, np.random.default_rng(70), **kw)


def test_simulate_kac_stationarity():
    """Starting from the exact stationary law the ensemble m4 must show no
    drift over one unit of time."""
    reps, n, d = 60, 32, 3
    start = np.empty(reps)
    end = np.empty(reps)
    for k in range(reps):
        rng = np.random.default_rng(1000 + k)
        v0 = system.sample_equilibrium(n, d, rng)
        start[k] = m4(v0)
        rec = system.simulate_kac(v0, UNIFORM, rng, horizon=1.0)
        end[k] = rec.columns["m4"][-1]
    diff = end - start
    se = np.std(diff, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(diff)) < 4 * se + 1e-12


@pytest.mark.parametrize("shape", [(10, 3), (8, 4)])
def test_simulate_coupled_refuses_copies_of_two_shapes(shape):
    """Copies that differ in n or d are refused by the engine's check."""
    rng = np.random.default_rng(6)
    u = system.sample_equilibrium(8, 3, rng)
    v = system.sample_equilibrium(*shape, rng)
    with pytest.raises(ValueError, match=re.escape(
            f"copies differ in shape: (8, 3) vs {shape}")):
        system.simulate_coupled(u, v, UNIFORM, rng, max_events=10)


def test_simulate_coupled_checks_and_monotonicity():
    u0, _ = kac_sphere_point(32, 3, 69)
    rng = np.random.default_rng(70)
    v0 = system.two_temperature_initial(32, 3, rng)
    v0, _ = system.align_configurations(u0, v0)
    rec = system.simulate_coupled(u0, v0, UNIFORM, np.random.default_rng(71),
                                  horizon=5.0, sample_dt=0.25)
    msd = rec.columns["mean_sq_distance"]
    assert np.all(np.diff(msd) <= 1e-12)
    assert rec.checks["max_residual"] < 1e-9
    assert rec.checks["max_delta_pair"] < 1e-12
    assert rec.checks["max_conservation_error"] < 1e-12
    assert coupled_ok(rec)


@pytest.mark.parametrize("coupled", [False, True], ids=["single", "coupled"])
def test_record_stacks_the_sampled_states(coupled):
    """One (S, N, d) stack per copy: the start at sample 0 and the final
    state at the last, each sample a copy.  An event budget that runs out
    inside the grid ends the stack with the state at the stop, the same
    sample a run with no grid records."""
    rng = np.random.default_rng(73)
    starts = [system.sample_equilibrium(16, 3, rng)
              for _ in range(1 + coupled)]
    simulate = system.simulate_coupled if coupled else system.simulate_kac

    def run(**kw):
        return simulate(*(x.copy() for x in starts), UNIFORM,
                        np.random.default_rng(74), **kw)

    rec = run(horizon=4.0, sample_dt=0.5)
    # one copy reports two of the eight coupled checks, with the same types
    assert len(rec.checks) == (8 if coupled else 2)
    assert type(rec.checks["n_events"]) is int
    assert type(rec.checks["max_conservation_error"]) is float
    final = rec.final if coupled else (rec.final,)
    assert len(rec.states) == len(starts)
    for stack, start, end in zip(rec.states, starts, final):
        assert stack.shape == (9, 16, 3)
        np.testing.assert_array_equal(stack[0], start)
        np.testing.assert_array_equal(stack[-1], end)
        assert not np.shares_memory(stack, end)

    budget = rec.checks["n_events"] // 2
    stop = run(horizon=4.0, sample_dt=0.5, max_events=budget)
    last = len(stop.times) - 1
    assert stop.checks["n_events"] == budget
    assert 1 < last < 8
    assert np.array_equal(stop.times[:last], rec.times[:last])
    assert rec.times[last - 1] < stop.times[last] < rec.times[last]
    alone = run(max_events=budget)
    assert np.array_equal(alone.times, stop.times[last:])
    final = stop.final if coupled else (stop.final,)
    for stack, full, end, one in zip(stop.states, rec.states, final,
                                     alone.states):
        assert stack.shape == (last + 1, 16, 3)
        assert np.array_equal(stack[:last], full[:last])
        assert np.array_equal(stack[last], end)
        assert np.array_equal(one, stack[last:])


@pytest.mark.parametrize("n", [2, 7, 129, 256])
def test_columns_equal_the_per_sample_formulas(n):
    """The columns, computed over the stacks, equal each sample's own
    formula bit for bit, for one copy and for two; a pair's
    mean_sq_distance and corr equal the pair_statistics records' fields."""
    rng = np.random.default_rng(n)
    u, v = rng.standard_normal((2, 6, n, 3))

    def per_sample(f, *stacks):
        return np.array([f(*xs) for xs in zip(*stacks)])

    def energy(x):
        return np.sum(x * x, axis=1)

    m2 = per_sample(lambda x: float(np.mean(energy(x))), v)
    m4 = per_sample(lambda x: float(np.mean(energy(x) ** 2)), v)
    single = system.TrajectoryRecord(times=np.arange(6.0), states=(v,),
                                     checks={})
    assert single.columns.keys() == {"m2", "m4"}
    assert np.array_equal(single.columns["m2"], m2)
    assert np.array_equal(single.column("m4"), m4)
    pair = system.TrajectoryRecord(times=np.arange(6.0), states=(u, v),
                                   checks={})
    want = {"mean_sq_distance": per_sample(
                lambda a, b: analysis.pair_statistics(a, b).mean_sq_distance,
                u, v),
            "corr": per_sample(
                lambda a, b: analysis.pair_statistics(a, b).mean_dot, u, v),
            "m2": m2, "m4": m4}
    assert pair.columns.keys() == want.keys()
    for name, col in want.items():
        assert np.array_equal(pair.columns[name], col), name
    assert system.energy_moments(v[0]) == (m2[0], m4[0])


def coupled_ok(rec):
    return not system.coupled_run_issues(rec)


def test_coupled_run_issues_flags_bad_checks():
    u0, _ = kac_sphere_point(8, 3, 72)
    rec = system.simulate_coupled(u0.copy(), u0.copy(), UNIFORM,
                                  np.random.default_rng(73), horizon=0.5)
    rec.checks["max_residual"] = 1.0
    issues = system.coupled_run_issues(rec)
    assert issues and "residual" in issues[0]


def test_coupled_run_issues_flag_conservation_past_the_roadmap_limit():
    """A conservation error above 1e-12, the limit the acceptance tests
    and the benchmark hold each run to, is an issue of the run too."""
    u0, _ = kac_sphere_point(8, 3, 72)
    rec = system.simulate_coupled(u0.copy(), u0.copy(), UNIFORM,
                                  np.random.default_rng(73), horizon=0.5)
    assert coupled_ok(rec)
    rec.checks["max_conservation_error"] = 1e-11
    issues = system.coupled_run_issues(rec)
    assert len(issues) == 1 and "conservation" in issues[0]


def test_align_configurations_nonnegative_correlation():
    rng = np.random.default_rng(74)
    for k in range(20):
        u = system.sample_equilibrium(24, 3, rng)
        v = system.sample_equilibrium(24, 3, rng)
        v_aligned, perm = system.align_configurations(u, v)
        np.testing.assert_array_equal(v_aligned, v[perm])
        corr = float(np.mean(np.sum(u * v_aligned, axis=1)))
        assert corr >= -1e-12
        # matching maximizes correlation, so it beats the raw slot order
        assert corr >= float(np.mean(np.sum(u * v, axis=1))) - 1e-12


def test_max_events_budget():
    v0, rng = kac_sphere_point(8, 3, 77)
    rec = system.simulate_kac(v0, UNIFORM, rng, max_events=50)
    assert rec.checks["n_events"] == 50


def test_reprojection_keeps_constraints_tight():
    v0, rng = kac_sphere_point(64, 3, 78)
    rec = system.simulate_kac(v0, UNIFORM, rng, horizon=50.0,
                              reproject_every=1000)
    system.check_configuration(rec.final, tol=1e-12)
