"""Acceptance suite: one test per release criterion, one printed line each.

Every test prints ``acceptance NN <name>: PASS/FAIL (<numbers>)`` before
asserting, so a plain ``pytest tests/test_acceptance.py -v -s`` doubles as
the acceptance report.  Tolerances are pinned here and nowhere else; seeds
are pinned so the printed numbers are reproducible bit for bit.
"""

import itertools
import json
import time

import numpy as np
from scipy import stats

from kacsim import analysis, assignment, cli, kernels, system


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _uniform_kernel():
    return kernels.make_kernel("uniform", theta_min=0.0)


def test_01_per_event_exactness():
    """10^6 coupled events: identity residual <= 1e-9, pair distance never
    increases (<= 1e-12), pair momentum/energy conserved to 1e-12 relative,
    all within one minute."""
    t0 = time.time()
    k = _uniform_kernel()
    rng = np.random.default_rng(101)
    u = system.sample_equilibrium(64, 3, rng)
    v = system.sample_equilibrium(64, 3, rng)
    rec = system.simulate_coupled(u, v, k, np.random.default_rng(7),
                                  max_events=1_000_000, horizon=None)
    elapsed = time.time() - t0
    c = rec.checks
    ok = (c["n_events"] == 1_000_000
          and c["max_residual"] <= 1e-9
          and c["max_delta_pair"] <= 1e-12
          and c["antipodal_events"] == 0
          and c["max_conservation_error"] <= 1e-12
          and elapsed <= 60.0)
    _report(1, "per-event exactness", ok,
            f"events {c['n_events']}, residual {c['max_residual']:.2e}, "
            f"delta {c['max_delta_pair']:.2e}, "
            f"conservation {c['max_conservation_error']:.2e}, "
            f"antipodal {c['antipodal_events']}, {elapsed:.1f} s")


def test_02_inequality_suite(tmp_path):
    """10^4 random discrete coupled laws and 10^3 constrained pairs: all
    slacks >= -1e-10, constructed equality cases |slack| <= 1e-10, area
    residual <= 1e-11, within two minutes."""
    t0 = time.time()
    cfg = cli.ExperimentConfig(kind="inequality", seed=202)
    code = cli.run_inequality_sweep(cfg, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    elapsed = time.time() - t0
    worst = min(report["min_slack"].values())
    worst_eq = max(abs(e["slack"]) for e in report["equality_cases"])
    ok = (code == 0 and report["pass"]
          and report["checked"] == {"discrete": 10_000, "configuration": 1_000}
          and worst >= -1e-10
          and worst_eq <= 1e-10
          and report["max_area_residual"] <= 1e-11
          and elapsed <= 120.0)
    _report(2, "inequality suite", ok,
            f"min slack {worst:.2e}, equality |slack| {worst_eq:.2e}, "
            f"area residual {report['max_area_residual']:.2e}, {elapsed:.1f} s")


def test_03_kappa_range():
    """kappa(I_d / d) = d/(d-1) exactly; rank-1 input gives +inf."""
    exact = all(analysis.kappa(np.eye(d) / d) == d / (d - 1.0)
                for d in (3, 4, 5, 8))
    e = np.zeros(3)
    e[0] = 1.0
    rank1 = analysis.kappa(np.outer(e, e))
    ok = exact and np.isinf(rank1) and rank1 > 0
    _report(3, "kappa range", ok,
            f"isotropic exact {exact}, rank-1 {rank1}")


def test_04_order4_dynamics():
    """Ensemble m4 (200 replicas, N=64, d=3, m4_0 near 3) is dominated by
    exp(-t/2)(m4_0 - 5/3) + 5/3 within 3 standard errors on t <= 10, and the
    long-run mean matches the exact finite-N value within 4 standard errors."""
    t0 = time.time()
    k = _uniform_kernel()
    n, d, reps = 64, 3, 200
    trajs = []
    for r in range(reps):
        rng = system.substream(404, r)
        v0 = system.two_temperature_initial(n, d, rng, m4_target=3.0)
        rec = system.simulate_kac(v0, k, rng, horizon=16.0, sample_dt=0.5)
        trajs.append(rec.column("m4"))
    times = np.arange(0.0, 16.0 + 1e-9, 0.5)
    m4 = np.array(trajs)
    mean = m4.mean(axis=0)
    se = m4.std(axis=0, ddof=1) / np.sqrt(reps)
    env = np.exp(-times / 2.0) * (mean[0] - 5.0 / 3.0) + 5.0 / 3.0
    mask = times <= 10.0 + 1e-9
    excess = float((mean - env - 3.0 * se)[mask].max())
    m4_eq = system.equilibrium_m4(n, d)
    z_eq = float((mean[-1] - m4_eq) / se[-1])
    elapsed = time.time() - t0
    ok = excess <= 0.0 and abs(z_eq) <= 4.0 and elapsed <= 300.0
    _report(4, "order-4 dynamics", ok,
            f"m4_0 {mean[0]:.3f}, max envelope excess {excess:+.4f}, "
            f"long-run m4 {mean[-1]:.4f} vs exact {m4_eq:.4f} "
            f"(z = {z_eq:+.2f}), {elapsed:.1f} s")


def test_05_wishart_moment():
    """E[(1 - L)^(-p)]^(-1/p) <= 2/3 + 3 se for every N at d=3, p=2, and
    within 5% of 2/3 at N = 2048."""
    t0 = time.time()
    rng = system.substream(505, 0)
    limit = 2.0 / 3.0
    rows = [(n, analysis.wishart_kappa_moment(n, 3, 2, 400, rng))
            for n in (16, 64, 256, 1024, 2048)]
    bound_ok = all(est.value <= limit + 3.0 * est.stderr for _, est in rows)
    last = rows[-1][1]
    rel_gap = abs(last.value - limit) / limit
    elapsed = time.time() - t0
    ok = bound_ok and rel_gap <= 0.05 and elapsed <= 120.0
    _report(5, "wishart moment", ok,
            f"bound holds at all N {bound_ok}, N=2048 value {last.value:.4f} "
            f"({rel_gap:.2%} from 2/3), {elapsed:.1f} s")


def test_06_decay_experiment(tmp_path):
    """Full decay run (d=3, N=256, delta=1/2, 100 replicas): ensemble
    distance monotone, pathwise weak inequality holds at every sample,
    correlation >= -1e-12 throughout, clean exit, within ten minutes."""
    t0 = time.time()
    cfg = cli.ExperimentConfig(kind="decay", seed=606)
    code = cli.run_decay_experiment(cfg, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    elapsed = time.time() - t0
    eng = report["engine_checks"]
    ok = (code == 0 and report["pass"] and not report["violations"]
          and report["replicas"] == 100
          and eng["max_delta_pair"] <= 1e-12
          and eng["max_conservation_error"] <= 1e-12
          and report["decay_factor"] > 1.0
          and elapsed <= 600.0)
    _report(6, "decay experiment", ok,
            f"violations {len(report['violations'])}, "
            f"decay factor {report['decay_factor']:.1f}, "
            f"gamma {report['gamma']}, {elapsed:.1f} s")


def test_07_constant_magnitude():
    """The main constant in the large-N, large-d, delta near 1 proxy regime
    (N=2048, d=32, delta=0.9) comes out at the 1e-3 order of magnitude."""
    t0 = time.time()
    res = analysis.k_main_estimate(0.9, 20.0, 2048, 32, 150,
                                   system.substream(0, cli.CONSTANTS_STREAM))
    elapsed = time.time() - t0
    ok = (1e-4 <= res.c_delta_n <= 1e-2 and not res.blowup
          and elapsed <= 180.0)
    _report(7, "constant magnitude", ok,
            f"c = {res.c_delta_n:.3e}, k_main = {res.k_main:.3e} "
            f"+- {res.k_main_stderr:.1e}, blowup {res.blowup}, {elapsed:.1f} s")


def test_08_counterexamples():
    """Heavy-tail creation strictly decreasing over M in {10,100,1000}
    beyond 3 sigma; radial-band log-log slope of the ratio in (-3, -1)."""
    t0 = time.time()
    rows = analysis.counterexample_heavy_tail((10.0, 100.0, 1000.0), 1.5, 3,
                                              40_000, system.substream(808, 0))
    separated = all(
        a.creation - b.creation
        > 3.0 * np.hypot(a.creation_stderr, b.creation_stderr)
        for a, b in zip(rows, rows[1:]))
    band = analysis.counterexample_radial_band((2.0, 4.0, 8.0), 0.5, 3,
                                               60_000, system.substream(808, 1))
    ratios = np.array([r.ratio for r in band])
    slope = float(np.polyfit(np.log([2.0, 4.0, 8.0]), np.log(ratios), 1)[0])
    elapsed = time.time() - t0
    ok = separated and -3.0 < slope < -1.0 and elapsed <= 180.0
    _report(8, "counterexamples", ok,
            f"creation decreasing beyond 3 sigma {separated}, "
            f"band slope {slope:.2f}, {elapsed:.1f} s")


def test_09_assignment_correctness():
    """Brute-force equality for N <= 8 over 100 random instances, and the
    metric axioms of sym_distance over 10^3 random triples."""
    rng = np.random.default_rng(909)
    exact = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 5))
        cost = assignment.pairing_cost(rng.standard_normal((n, d)),
                                       rng.standard_normal((n, d)))
        _, got = assignment.solve_assignment(cost)
        best = min(sum(cost[i, p[i]] for i in range(n))
                   for p in itertools.permutations(range(n)))
        exact += abs(got - best) <= 1e-10 * max(1.0, abs(best))
    axioms = True
    for _ in range(1000):
        u, v, w = (system.sample_equilibrium(16, 3, rng) for _ in range(3))
        duv = assignment.sym_distance(u, v)
        axioms &= abs(duv - assignment.sym_distance(v, u)) <= 1e-12
        axioms &= duv <= (assignment.sym_distance(u, w)
                          + assignment.sym_distance(w, v) + 1e-10)
        perm = rng.permutation(16)
        axioms &= assignment.sym_distance(u, u[perm]) <= 1e-12
    ok = exact == 100 and axioms
    _report(9, "assignment correctness", ok,
            f"brute-force matches {exact}/100, metric axioms {bool(axioms)}")


def test_10_marginal_fidelity():
    """The coupled second copy is marginally the plain process: two-sample
    KS on final m4 over 100 replicas each passes at the 1% level."""
    t0 = time.time()
    k = _uniform_kernel()
    n, d, reps, horizon = 64, 3, 100, 2.0
    coupled_m4, plain_m4 = [], []
    for r in range(reps):
        rng = system.substream(1010, r)
        u0 = system.sample_equilibrium(n, d, rng)
        v0 = system.two_temperature_initial(n, d, rng, m4_target=3.0)
        rec = system.simulate_coupled(system.make_coupled_state(u0, v0), None,
                                      k, rng, horizon=horizon)
        coupled_m4.append(rec.column("m4")[-1])
    for r in range(reps):
        rng = system.substream(1010, reps + r)
        w0 = system.two_temperature_initial(n, d, rng, m4_target=3.0)
        rec = system.simulate_kac(w0, k, rng, horizon=horizon)
        plain_m4.append(rec.column("m4")[-1])
    res = stats.ks_2samp(coupled_m4, plain_m4)
    elapsed = time.time() - t0
    ok = res.pvalue >= 0.01 and elapsed <= 120.0
    _report(10, "marginal fidelity", ok,
            f"KS statistic {res.statistic:.3f}, p = {res.pvalue:.3f}, "
            f"{elapsed:.1f} s")
