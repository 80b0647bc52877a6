"""Experiment configuration and the ``kac`` command line runner.

Configs are flat ``key = value`` files (``#`` starts a comment).  The
table ``RUNNERS`` maps each ``kind`` to its runner, and ``KINDS`` lists its
keys:

* ``decay``: coupled two-copy runs from an out-of-equilibrium start,
  per-replica trajectories plus an aggregate with the power-law envelope.
* ``inequalities``: a randomized sweep of the alignment inequalities plus
  constructed equality cases.
* ``wishart`` / ``counterexample1`` / ``counterexample2`` /
  ``equilibrium-check``: the supporting study tables.

Each runner writes its CSV files and hands its fields to ``_write_report``,
which writes report.json as {kind, stream, config, <fields>, violations,
pass} and returns the exit code: 0 all checks passed, 1 an invariant was
violated; 2 means the config was rejected (by ``validate_config``, before
any output).  ``validate_config`` asks each rule of the code that enforces
it in a run, so ``kac validate`` refuses what ``kac run`` would.
All randomness flows through substreams of the master seed, so identical
(config, seed) pairs produce bit-identical output files within one RNG
stream version (``stream`` in report.json, ``system.STREAM_VERSION``).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import _engine, analysis, assignment, geometry, kernels, system
from .geometry import _weighted_dots
from .system import (
    STREAM_VERSION,
    align_configurations,
    coupled_run_issues,
    default_m4_init,
    energy_moments,
    equilibrium_blocks,
    equilibrium_m4,
    gaussian_m4,
    sample_equilibrium,
    simulate_coupled,
    substream,
    substream_seed,
    two_temperature_initial,
    project_to_constraint_sphere,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_decay_experiment",
    "run_inequality_sweep",
    "main",
]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2

# check tolerances applied by the runners
MONOTONE_TOL = 1e-9
SLACK_TOL = 1e-10
AREA_RESIDUAL_TOL = 1e-11

# substream index reserved for the constants estimate of a decay run;
# replicas use their own index directly
CONSTANTS_STREAM = 1_000_000_000


class ConfigError(ValueError):
    """Config file rejected: unknown key, bad value, or missing input."""


@dataclass
class ExperimentConfig:
    kind: str = "decay"
    n: int = 256
    d: int = 3
    kernel: str = "uniform"
    theta0: float = np.pi / 2
    theta_min: float = 0.0
    nu: float = -1.0
    horizon: float = 20.0
    sample_dt: float = 0.5
    replicas: int = 100
    delta: float = 0.5
    p: float = 0.0          # 0 means the default 2 / (1 - delta)
    seed: int = 0
    out: str = "out"
    initial_law: str = "two_temperature"
    m4_init: float = 0.0    # 0 means system.default_m4_init(d)
    constant_samples: int = 200
    n_discrete: int = 10_000
    n_config: int = 1_000
    samples: int = 2_000
    q_moment: float = 1.5
    m_values: tuple = (10.0, 100.0, 1000.0)
    r_values: tuple = (2.0, 4.0, 8.0)
    band_eps: float = 0.5
    p_moment: float = 2.0
    n_values: tuple = (64, 256, 1024, 2048)

    def __post_init__(self):
        # the m4 the start really has; below d = 3 it has no range
        if self.m4_init == 0.0:
            with suppress(system.DegenerateInput):
                self.m4_init = default_m4_init(self.d)

    def resolved_exponents(self):
        """(delta, p) with p's default filled in; q is p's conjugate."""
        delta = float(self.delta)
        p = float(self.p)
        if p == 0.0:
            if delta >= 1.0:
                raise ConfigError("delta >= 1 requires an explicit p")
            p = 2.0 / (1.0 - delta)
        return delta, p


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _cast(key, raw):
    """Parse ``raw`` as the type of the key's default; a tuple default
    takes a comma-separated list of its first element's type."""
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    default = _DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(x) for x in raw.split(","))
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def load_config(path, overrides=None):
    """Parse a flat key = value config file into an ExperimentConfig.

    ``overrides`` maps keys to already-typed values (command line flags).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values, first_line = {}, {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        values[key] = _cast(key, raw.strip())
    if overrides:
        values.update(overrides)
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    """Range and consistency checks; raises ConfigError on the first failure."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        items = value if isinstance(value, tuple) else (value,)
        if any(isinstance(x, float) and not np.isfinite(x) for x in items):
            raise ConfigError(f"{f.name} must be finite, got {value}")
    if cfg.kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {cfg.kind!r}")
    if cfg.replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {cfg.replicas}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.kind == "inequalities" and (cfg.n_discrete < 0 or cfg.n_config < 0):
        raise ConfigError("sweep sizes must be >= 0")
    if cfg.initial_law not in INITIAL_LAWS:
        raise ConfigError(f"initial_law must be one of {tuple(INITIAL_LAWS)}, "
                          f"got {cfg.initial_law!r}")
    try:
        system._check_particles(cfg.n)
        geometry._check_dimension(cfg.d)
        build_kernel(cfg)
        system._check_sample_grid(cfg.horizon, cfg.sample_dt)
        if cfg.kind == "decay":
            analysis._check_samples(cfg.constant_samples)
            assignment._check_size(cfg.n)
            if cfg.initial_law == "two_temperature":
                system._check_m4_target(cfg.d, cfg.m4_init)
            analysis.check_delta(cfg.delta, 1.0)
        if cfg.kind in ("decay", "inequalities"):
            analysis.weak_exponents(*cfg.resolved_exponents())
        else:
            analysis._check_samples(cfg.samples)
        if cfg.kind == "counterexample1":
            analysis.heavy_tail_radii(cfg.m_values, cfg.q_moment)
        if cfg.kind == "counterexample2":
            analysis.radial_band_tails(cfg.r_values, cfg.band_eps, cfg.d)
        if cfg.kind == "wishart":
            for n in cfg.n_values:
                analysis.check_wishart_order(n, cfg.d, cfg.p_moment)
    except (geometry.GeometryError, system.DegenerateInput,
            kernels.KernelError, assignment.SizeLimit,
            analysis.AnalysisError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def build_kernel(cfg):
    return kernels.make_kernel(cfg.kernel, theta0=cfg.theta0,
                               theta_min=cfg.theta_min, nu=cfg.nu)


def _write_csv(path, header, rows):
    """Write ``rows`` under ``header``, through one row format taken from
    the first row's types, so each column must keep its type: a str as is,
    an int in decimal, any other value as a float to 17 significant
    digits, which reads back bit for bit."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            fmt = ",".join("%s" if isinstance(x, str)
                           else "%d" if isinstance(x, int) else "%.17g"
                           for x in rows[0]) + "\n"
            fh.writelines(fmt % tuple(row) for row in rows)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_report(out_dir, cfg, violations, **fields):
    """Write report.json, {kind, stream, config, <fields>, violations,
    pass}, and return the run's exit code; ``stream`` is the RNG stream
    version the outputs were drawn from."""
    report = {"kind": cfg.kind, "stream": STREAM_VERSION,
              "config": asdict(cfg), **fields,
              "violations": violations, "pass": not violations}
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    (Path(out_dir) / "report.json").write_text(text + "\n")
    return EXIT_INVARIANT if violations else EXIT_OK


# The sampled min_corr column holds each sample's raw correlation E U.V;
# _decay_replica takes its running minimum before checking or writing.
TRAJECTORY_COLUMNS = ("mean_sq_distance", "m2", "m4", "creation",
                      "fund_lhs", "fund_rhs", "min_corr", "weak_slack")
TRAJECTORY_HEADER = ("time",) + TRAJECTORY_COLUMNS + ("replica", "substream")


def _decay_observables(delta, p, notes):
    """Observable columns of one coupled replica, one callable per
    trajectory column, in column order.

    Each callable takes the replica's states (u, v) stacked over its
    sample times (``TrajectoryRecord.states``, two arrays (S, N, d)) and
    returns its column of S values.  The first callable to see the stacks
    builds every column: one stacked ``pair_statistics`` (one pair pass,
    each moment product once and one ``kappa`` call for the whole sample
    grid), the fundamental and weak reports of each sample, and m2 and m4
    over the stack; the others find the same arrays (``is``) and read
    their column.  A report that fails appends its note per sample, in
    sample order.  The ``min_corr`` column holds the raw correlation
    E U.V, not a minimum, until the runner takes its running minimum.
    """
    # One function returning the table would do, but perfbench's traced run
    # replaces this one (its wrapper test counts it) and times each callable
    # it returns as analysis.observables.<column>; so the callables and the
    # ``is`` cache stay until ROADMAP item 1 stops wrapping program names
    # and item 2 deletes them.
    exponents = analysis.weak_exponents(delta, p)
    kept = {}

    def reports(pairs):
        try:
            fund = analysis.fund_inequality_report(pairs)
            fund_lhs, fund_rhs = fund.lhs, fund.rhs
        except analysis.RhsInfinite as exc:
            notes.append(f"fundamental inequality degenerate: {exc}")
            fund_lhs, fund_rhs = 1.0, np.inf
        try:
            weak_slack = analysis.pathwise_weak_inequality(pairs, delta, p).slack
        except analysis.PreconditionFailed as exc:
            notes.append(f"weak inequality precondition failed: {exc}")
            weak_slack = -np.inf
        return fund_lhs, fund_rhs, weak_slack

    def table(us, vs):
        records = analysis.pair_statistics(us, vs, *exponents)
        fund_lhs, fund_rhs, weak_slack = np.array(
            [reports(pairs) for pairs in records]).T
        m2, m4 = energy_moments(vs)
        return {"mean_sq_distance": np.array([r.mean_sq_distance
                                              for r in records]),
                "m2": m2, "m4": m4,
                "creation": np.array([r.creation() for r in records]),
                "fund_lhs": fund_lhs, "fund_rhs": fund_rhs,
                "min_corr": np.array([r.mean_dot for r in records]),
                "weak_slack": weak_slack}

    def column(name):
        def read(us, vs):
            if kept.get("u") is not us or kept.get("v") is not vs:
                kept.update(u=us, v=vs, table=table(us, vs))
            return kept["table"][name]
        return read

    return {name: column(name) for name in TRAJECTORY_COLUMNS}


# each initial_law's second copy of a decay start from the first, u0
INITIAL_LAWS = {
    "two_temperature": lambda cfg, u0, rng: two_temperature_initial(
        cfg.n, cfg.d, rng, m4_target=cfg.m4_init),
    "equilibrium": lambda cfg, u0, rng: sample_equilibrium(cfg.n, cfg.d, rng),
    "identical": lambda cfg, u0, rng: u0.copy(),
}


def _initial_copies(cfg, rng):
    u0 = sample_equilibrium(cfg.n, cfg.d, rng)
    return u0, INITIAL_LAWS[cfg.initial_law](cfg, u0, rng)


def _decay_sample_checks(times, columns):
    """Per-sample invariant checks on one decay trajectory."""
    issues = []
    msd = columns["mean_sq_distance"]
    steps = np.diff(msd)
    if steps.size and float(np.max(steps)) > MONOTONE_TOL:
        k = int(np.argmax(steps))
        issues.append(
            f"mean squared distance increased by {steps[k]:.3e} between "
            f"t = {times[k]:.6g} and t = {times[k + 1]:.6g}")
    corr_min = float(np.min(columns["min_corr"]))
    if corr_min < -analysis.CORRELATION_TOL:
        issues.append(f"velocity correlation dipped to {corr_min:.3e}")
    slack = columns["weak_slack"]
    finite = slack[np.isfinite(slack)]
    if finite.size and float(np.min(finite)) < -SLACK_TOL:
        issues.append(
            f"weak inequality slack fell to {float(np.min(finite)):.3e}")
    return issues


def _decay_replica(cfg, kern, rep):
    """One coupled replica of a decay run from its own substream alone, so
    it is recomputed from (config, seed, replica) without the others: its
    sample times, columns, issues, engine checks and trajectory rows."""
    delta, p = cfg.resolved_exponents()
    rng = substream(cfg.seed, rep)
    stream_id = substream_seed(cfg.seed, rep)
    u0, v0 = _initial_copies(cfg, rng)
    v0a, _ = align_configurations(u0, v0)
    # the columns come from the stacked states in one pass after the run
    traj = simulate_coupled(u0, v0a, kern, rng, horizon=cfg.horizon,
                            sample_dt=cfg.sample_dt)
    notes = []
    cols = {name: read(*traj.states) for name, read
            in _decay_observables(delta, p, notes).items()}
    cols["min_corr"] = np.minimum.accumulate(cols["min_corr"])
    issues = (coupled_run_issues(traj)
              + _decay_sample_checks(traj.times, cols) + notes)
    rows = [[t] + [cols[name][k] for name in TRAJECTORY_COLUMNS]
            + [rep, stream_id] for k, t in enumerate(traj.times)]
    return traj.times, cols, issues, traj.checks, rows


def run_decay_experiment(cfg, out_dir):
    """Coupled decay runs: the constants, ``_decay_replica`` for each
    replica in order up to the first with an issue, and their aggregate."""
    kern = build_kernel(cfg)
    delta, p = cfg.resolved_exponents()
    hc = analysis.k_main_estimate(delta, p, cfg.n, cfg.d, cfg.constant_samples,
                                  substream(cfg.seed, CONSTANTS_STREAM))
    constants = asdict(hc)

    done, violations, check_extrema = [], [], {}
    for rep in range(cfg.replicas):
        times, cols, issues, checks, rows = _decay_replica(cfg, kern, rep)
        _write_csv(Path(out_dir) / f"trajectory_{rep}.csv", TRAJECTORY_HEADER,
                   rows)
        done.append(cols)
        # the fold starts from the first replica's value, so each check
        # keeps its type (floats stay floats, counts stay ints); the
        # worst_*_time entries are the times of the maxima, not maxima
        check_extrema = {key: max(check_extrema.get(key, val), val)
                         for key, val in checks.items()
                         if not key.startswith("worst_")}
        if issues:
            violations.append({"replica": rep,
                               "substream": substream_seed(cfg.seed, rep),
                               "issues": issues, "checks": checks})
            break

    # every replica samples the same times; each replica mean is read once
    n_done = len(done)
    mean, se = {}, {}
    for name in TRAJECTORY_COLUMNS:
        mean[name], se[name] = analysis._mean_stderr([c[name] for c in done])
    d0 = float(mean["mean_sq_distance"][0])
    m4_0 = float(mean["m4"][0])
    _, t_star = analysis.order4_bound(max(m4_0, 1.0), cfg.d, 0.0)
    env = (analysis.decay_envelope(times, d0, delta, hc.c_delta_n, t_star)
           if d0 > 0 else np.zeros_like(times))
    header = ["time", *(name + end for name in TRAJECTORY_COLUMNS
                        for end in ("", "_se")),
              "envelope", "n_replicas", "replica", "substream"]
    agg_rows = [[t] + [x for name in TRAJECTORY_COLUMNS
                       for x in (mean[name][k], se[name][k])]
                + [env[k], n_done, -1, cfg.seed] for k, t in enumerate(times)]
    _write_csv(Path(out_dir) / "aggregate.csv", header, agg_rows)

    d_end = float(mean["mean_sq_distance"][-1])
    return _write_report(
        out_dir, cfg, violations, constants=constants,
        gamma=analysis.gamma_exponent(delta), replicas=n_done, t_star=t_star,
        envelope_d0=d0, initial={"mean_sq_distance": d0, "m4": m4_0},
        final={"mean_sq_distance": d_end},
        decay_factor=d0 / d_end if d_end > 0 else np.inf,
        engine_checks=check_extrema)


def _random_discrete(rng, d):
    """Random normalized coupled law: mixed co-linear / correlated / free."""
    k = int(rng.integers(4, 25))
    u = rng.standard_normal((k, d))
    mode = int(rng.integers(0, 3))
    if mode == 0:
        v = u * rng.uniform(0.2, 2.0, size=(k, 1))
    elif mode == 1:
        rho = float(rng.uniform(-1.0, 1.0))
        v = rho * u + np.sqrt(1.0 - rho * rho) * rng.standard_normal((k, d))
    else:
        v = rng.standard_normal((k, d))
    w = rng.dirichlet(np.ones(k))
    return analysis.DiscreteCoupledDistribution(u, v, w).normalize()


def _two_radius_equality(d):
    """Strongly isotropic co-linear two-radius coupling; saturates the
    fundamental inequality (slack 0 up to rounding) with a positive lhs."""
    r1 = 1.2
    r2 = float(np.sqrt(2.0 - r1 * r1))
    axes = np.concatenate([np.eye(d), -np.eye(d)])
    u = np.concatenate([r1 * axes, r2 * axes])
    v = np.concatenate([r2 * axes, r1 * axes])
    w = np.full(4 * d, 1.0 / (4 * d))
    return analysis.DiscreteCoupledDistribution(u, v, w)


def _equality_cases(cfg, rng):
    """Constructed equality instances: (label, report) pairs."""
    d = cfg.d
    cases = []

    rep = analysis.fund_inequality_report(
        _two_radius_equality(d).pair_statistics())
    cases.append(("fund_two_radius", rep))

    x = rng.standard_normal((2 * d + 2, d))
    dist = analysis.DiscreteCoupledDistribution.from_configurations(x, x.copy())
    cases.append(("fund_identity_coupling", analysis.fund_inequality_report(
        dist.normalize().pair_statistics())))

    eye = np.eye(d) / d
    cases.append(("trace_independent",
                  analysis.trace_inequality_report(eye, eye, np.zeros((d, d)))))
    cases.append(("trace_identical",
                  analysis.trace_inequality_report(eye, eye, eye)))
    return cases


def _random_constrained_pair(cfg, rng):
    """Correlated constraint-sphere pair with nonnegative correlation."""
    u = sample_equilibrium(cfg.n, cfg.d, rng)
    rho = float(rng.uniform(0.0, 1.0))
    g = sample_equilibrium(cfg.n, cfg.d, rng)
    v = project_to_constraint_sphere(rho * u + np.sqrt(1.0 - rho * rho) * g)
    if _weighted_dots(u[None], v[None], np.full(cfg.n, 1.0 / cfg.n))[0] < 0.0:
        v = -v
    return u, v


def run_inequality_sweep(cfg, out_dir):
    """Randomized slack sweep; exit 1 when any inequality is violated."""
    delta, p = cfg.resolved_exponents()
    exponents = analysis.weak_exponents(delta, p)
    rows = []
    mins = {}
    max_area_residual = 0.0
    violations = []

    def note(group, name, rep_obj, instance, stream):
        slack = rep_obj.slack
        rows.append((instance, group, name, rep_obj.lhs, rep_obj.rhs, slack,
                     instance, stream))
        if not np.isnan(slack):
            if name not in mins or slack < mins[name]:
                mins[name] = slack
            if slack < -SLACK_TOL:
                violations.append(
                    f"{group}/{name} instance {instance}: slack {slack:.3e}")

    stream = substream_seed(cfg.seed, 0)
    rng = substream(cfg.seed, 0)
    for k in range(cfg.n_discrete):
        pairs = _random_discrete(rng, cfg.d).pair_statistics()
        note("discrete", "fundamental_alignment",
             analysis.fund_inequality_report(pairs), k, stream)
        note("discrete", "trace",
             analysis.trace_inequality_report(pairs.c_uu, pairs.c_vv,
                                              pairs.c_uv),
             k, stream)
        dec = analysis.area_decomposition(pairs)
        max_area_residual = max(max_area_residual, abs(dec.residual))
        if abs(dec.residual) > AREA_RESIDUAL_TOL:
            violations.append(
                f"discrete/area instance {k}: residual {dec.residual:.3e}")

    stream = substream_seed(cfg.seed, 1)
    rng = substream(cfg.seed, 1)
    for k in range(cfg.n_config):
        u, v = _random_constrained_pair(cfg, rng)
        pairs = analysis.pair_statistics(u, v, *exponents)
        note("configuration", "pathwise_weak",
             analysis.pathwise_weak_inequality(pairs, delta, p), k, stream)
        note("configuration", "fundamental_alignment",
             analysis.fund_inequality_report(pairs), k, stream)

    stream = substream_seed(cfg.seed, 2)
    equality = []
    for label, rep_obj in _equality_cases(cfg, substream(cfg.seed, 2)):
        note("equality", label, rep_obj, len(equality), stream)
        equality.append({"label": label, "slack": rep_obj.slack})
        if abs(rep_obj.slack) > SLACK_TOL:
            violations.append(
                f"equality case {label}: |slack| = {abs(rep_obj.slack):.3e}")

    _write_csv(Path(out_dir) / "sweep.csv",
               ("instance", "group", "name", "lhs", "rhs", "slack",
                "replica", "substream"), rows)
    return _write_report(
        out_dir, cfg, violations, min_slack=mins,
        max_area_residual=max_area_residual, equality_cases=equality,
        checked={"discrete": cfg.n_discrete, "configuration": cfg.n_config})


def _run_wishart(cfg, out_dir):
    bound = (cfg.d - 1.0) / cfg.d
    rows, table, violations = [], [], []
    prev = None
    for idx, n in enumerate(cfg.n_values):
        est = analysis.wishart_kappa_moment(n, cfg.d, cfg.p_moment,
                                            cfg.samples,
                                            substream(cfg.seed, idx))
        stream = substream_seed(cfg.seed, idx)
        rows.append((n, est.value, est.stderr, bound, idx, stream))
        table.append({"n": n, "estimate": est.value, "stderr": est.stderr})
        if est.value > bound + 3.0 * est.stderr:
            violations.append(
                f"wishart estimate at n = {n} exceeds the bound: "
                f"{est.value:.6g} > {bound:.6g} + 3 se")
        if prev is not None and est.value < prev.value - 3.0 * (est.stderr
                                                                + prev.stderr):
            violations.append(
                f"wishart estimate decreased from n = {cfg.n_values[idx - 1]} "
                f"to n = {n} beyond noise")
        prev = est
    _write_csv(Path(out_dir) / "wishart.csv",
               ("n", "estimate", "stderr", "bound", "replica", "substream"),
               rows)
    return _write_report(out_dir, cfg, violations,
                         results={"rows": table, "bound": bound})


def _run_heavy_tail(cfg, out_dir):
    rows = analysis.counterexample_heavy_tail(cfg.m_values, cfg.q_moment,
                                              cfg.d, cfg.samples,
                                              substream(cfg.seed, 0))
    stream = substream_seed(cfg.seed, 0)
    csv_rows, table, violations = [], [], []
    for idx, row in enumerate(rows):
        csv_rows.append((row.m, row.m_q, row.mean_sq_distance,
                         row.distance_stderr, row.creation,
                         row.creation_stderr, idx, stream))
        table.append(asdict(row))
        if idx > 0:
            prev = rows[idx - 1]
            gap = prev.creation - row.creation
            noise = 3.0 * (prev.creation_stderr + row.creation_stderr)
            if gap <= noise:
                violations.append(
                    f"creation not strictly decreasing from M = {prev.m} "
                    f"to M = {row.m} (gap {gap:.3e} <= noise {noise:.3e})")
            if row.m_q >= prev.m_q:
                violations.append(f"m_q failed to decrease at M = {row.m}")
    _write_csv(Path(out_dir) / "heavy_tail.csv",
               ("m", "m_q", "mean_sq_distance", "distance_stderr",
                "creation", "creation_stderr", "replica", "substream"),
               csv_rows)
    return _write_report(out_dir, cfg, violations, results={"rows": table})


def _run_radial_band(cfg, out_dir):
    rows = analysis.counterexample_radial_band(cfg.r_values, cfg.band_eps,
                                               cfg.d, cfg.samples,
                                               substream(cfg.seed, 0))
    stream = substream_seed(cfg.seed, 0)
    csv_rows, table, violations = [], [], []
    for idx, row in enumerate(rows):
        csv_rows.append((row.r_minus, row.band_prob, row.band_radius,
                         row.ratio, row.ratio_stderr, idx, stream))
        table.append(asdict(row))
        if idx > 0 and row.ratio >= rows[idx - 1].ratio:
            violations.append(
                f"creation-to-distance ratio failed to decrease at "
                f"r = {row.r_minus}")
    slope = None
    if len(rows) >= 2:
        slope = float(np.polyfit(np.log([r.r_minus for r in rows]),
                                 np.log([r.ratio for r in rows]), 1)[0])
        if not (-3.0 <= slope <= -1.0):
            violations.append(
                f"log-log slope {slope:.3f} outside [-3, -1]")
    _write_csv(Path(out_dir) / "radial_band.csv",
               ("r_minus", "band_prob", "band_radius", "ratio",
                "ratio_stderr", "replica", "substream"), csv_rows)
    return _write_report(out_dir, cfg, violations,
                         results={"rows": table, "slope": slope})


def _run_equilibrium_check(cfg, out_dir):
    rng = substream(cfg.seed, 0)
    stream = substream_seed(cfg.seed, 0)
    m4s = np.concatenate([
        energy_moments(confs)[1]
        for confs in equilibrium_blocks(cfg.n, cfg.d, cfg.samples, rng)])
    mean, se = analysis._mean_stderr(m4s)
    exact = equilibrium_m4(cfg.n, cfg.d)
    limit = gaussian_m4(cfg.d)
    violations = []
    if abs(mean - exact) > 4.0 * se + 1e-12:
        violations.append(
            f"equilibrium m4 {mean:.8g} is {abs(mean - exact) / se:.1f} se "
            f"away from the exact value {exact:.8g}")
    # the exact finite-n value itself sits below the large-n one (1.05%
    # at n = 64, d = 3), so only a gap beyond that plus 4 se is flagged
    if abs(mean - limit) > abs(exact - limit) + 4.0 * se:
        violations.append(
            f"equilibrium m4 {mean:.8g} is further from the large-n value "
            f"{limit:.8g} than the exact value {exact:.8g} plus 4 se")
    _write_csv(Path(out_dir) / "moments.csv",
               ("n", "d", "m4_mean", "m4_se", "m4_exact", "m4_limit",
                "replica", "substream"),
               [(cfg.n, cfg.d, mean, se, exact, limit, 0, stream)])
    return _write_report(out_dir, cfg, violations, results={
        "m4_mean": mean, "m4_se": se, "m4_exact": exact, "m4_limit": limit})


# each kind's runner, called as runner(cfg, out_dir) with the directory made
RUNNERS = {
    "decay": run_decay_experiment,
    "inequalities": run_inequality_sweep,
    "counterexample1": _run_heavy_tail,
    "counterexample2": _run_radial_band,
    "wishart": _run_wishart,
    "equilibrium-check": _run_equilibrium_check,
}
KINDS = tuple(RUNNERS)


def run_experiment(cfg, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return RUNNERS[cfg.kind](cfg, out_dir)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kac",
        description="Collision process experiments: coupled decay runs, "
                    "inequality sweeps, and supporting moment studies.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment in a config file")
    run_p.add_argument("--config", required=True, help="path to a key = value file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--replicas", type=int, default=None,
                       help="override the replica count")

    val_p = sub.add_parser("validate", help="check a config file and exit")
    val_p.add_argument("--config", required=True, help="path to a key = value file")

    args = parser.parse_args(argv)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["out"] = args.out
    if getattr(args, "replicas", None) is not None:
        overrides["replicas"] = args.replicas

    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print(json.dumps(_jsonable(asdict(cfg)), indent=2, sort_keys=True))
        return EXIT_OK

    print(f"kac run: engine backend {_engine.BACKEND}", flush=True)
    code = run_experiment(cfg, cfg.out)
    status = "ok" if code == EXIT_OK else "INVARIANT VIOLATION"
    print(f"{cfg.kind}: {status} (outputs in {cfg.out})")
    return code


if __name__ == "__main__":
    sys.exit(main())
