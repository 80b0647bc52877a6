#!/usr/bin/env python3
"""kacsim benchmark: one workload per run, timed end to end or per layer.

    python3 perfbench/run.py --workload decay --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from a checkout; the program is imported from ``src/``.  A run measures
set-up time in fresh processes (``--trace 0`` only), warms up, then runs the
workload as a closed loop of back-to-back units for ``--seconds`` of timed
wall (at least 11 units, so a tail exists), with BLAS threads at their
default.  ``--trace 1`` spends half of ``--seconds`` untraced, then reruns
the same units with spans recorded at each layer boundary and reports the
per-layer metrics.  Correctness checks run outside the timed region: engine
check statistics per unit, the python stepper against the engine on a
prefix of unit 0, and sha256 digests of outputs, which must repeat for the
same seed.

The first output line names the engine backend; the last line is the JSON
result.  Results, digests and spans go under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

import metrics
from tracing import Patches, Tracer, arg_getter
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench_out")   # relative to ROOT, so kac run outputs and
                               # their digests do not depend on where the
                               # checkout lives
SETUP_REPEATS = 5
MIN_UNITS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import kacsim
from kacsim import kernels, system
k = kernels.make_kernel("uniform", theta_min=0.0)
rng = np.random.default_rng(0)
u = system.sample_equilibrium(8, 3, rng)
v = system.sample_equilibrium(8, 3, rng)
system.simulate_coupled(u, v, k, rng, max_events=64, chunk_size=64)
"""


def load_program():
    """The kacsim modules from this checkout's src/, or None."""
    pkg = ROOT / "src" / "kacsim"
    if not (pkg / "__init__.py").is_file():
        print(f"perfbench: no program at {pkg.relative_to(ROOT)}", file=sys.stderr)
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import kacsim
    from kacsim import _engine, analysis, assignment, cli, kernels, system
    if Path(kacsim.__file__).resolve().parent != pkg.resolve():
        print(f"perfbench: kacsim imported from {kacsim.__file__}, not {pkg}",
              file=sys.stderr)
        return None
    return types.SimpleNamespace(engine=_engine, analysis=analysis,
                                 assignment=assignment, cli=cli,
                                 kernels=kernels, system=system)


def program_sha256():
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "kacsim").glob("*.py"))
    for f in files + [Path(__file__).with_name("workloads.py")]:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def metadata(kac, workload, args, backend):
    import scipy
    return {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "backend": backend, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(),
            "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": git_commit(), "program_sha256": program_sha256(),
            "params": workload.params(), "unit": workload.unit_name}


def measure_setup():
    """Wall seconds of a fresh process that imports and runs the program."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL, timeout=170)
    return time.perf_counter() - t0


def run_steps(workload, seconds=None, count=None, between=()):
    """Closed loop: steps back to back for ``seconds`` of step wall (and at
    least MIN_UNITS units), or exactly ``count`` steps.

    The calls in ``between`` run outside the timed wall, spaced evenly
    through it.  Set-up measurements go there: the machine's speed can
    change in steps that last seconds to minutes, and spreading the
    measurements over a longer span samples more of them.
    """
    calls, n = list(between), len(between)
    steps, timed, units = [], 0.0, 0
    while (len(steps) < count if count is not None
           else timed < seconds or units < MIN_UNITS):
        step = workload.run_step(len(steps))
        steps.append(step)
        timed += step.wall
        units += len(step.units)
        while calls and timed >= seconds * (n - len(calls) + 1) / (n + 1):
            calls.pop(0)()
    for call in calls:
        call()
    return steps


# --- layer boundaries of the traced run -------------------------------------

def _size_count(key):
    def counter(func):
        get = arg_getter(func, "size")

        def count(args, kwargs, result):
            size = get(args, kwargs)
            return {key: 1 if size is None else int(np.prod(size))}
        return count
    return counter


def _cursor_count(func):
    get = arg_getter(func, "cursor")
    return lambda args, kwargs, result: {"events": result[2] - get(args, kwargs)}


def _file_bytes(arg, name=None):
    def counter(func):
        get = arg_getter(func, arg)

        def count(args, kwargs, result):
            path = Path(get(args, kwargs))
            return {"bytes": (path / name if name else path).stat().st_size}
        return count
    return counter


# (module, attribute path, span name, counter factory); the span name's
# first component is the layer
BOUNDARIES = (
    ("kernels", "AngularKernel.sample", "kernels.sample", _size_count("draws")),
    ("system", "sample_azimuth_cos", "geometry.sample_azimuth_cos",
     _size_count("draws")),
    ("system", "draw_event_batch", "system.draw_event_batch",
     _size_count("drawn")),
    ("system", "simulate_kac", "system.simulate_kac", None),
    ("system", "simulate_coupled", "system.simulate_coupled", None),
    ("cli", "simulate_coupled", "system.simulate_coupled", None),
    ("engine", "advance_kac", "engine.advance_kac", _cursor_count),
    ("engine", "advance_coupled", "engine.advance_coupled", _cursor_count),
    ("analysis", "coupling_creation", "analysis.coupling_creation", None),
    ("analysis", "pathwise_weak_inequality",
     "analysis.pathwise_weak_inequality", None),
    ("analysis", "fund_inequality_report", "analysis.fund_inequality_report",
     None),
    ("analysis", "trace_inequality_report",
     "analysis.trace_inequality_report", None),
    ("analysis", "area_decomposition", "analysis.area_decomposition", None),
    ("analysis", "k_main_estimate", "analysis.k_main_estimate", None),
    ("analysis", "DiscreteCoupledDistribution.__post_init__",
     "analysis.distribution.init", None),
    ("analysis", "DiscreteCoupledDistribution.from_configurations",
     "analysis.distribution.from_configurations", None),
    ("analysis", "DiscreteCoupledDistribution.normalize",
     "analysis.distribution.normalize", None),
    ("analysis", "DiscreteCoupledDistribution.second_moment",
     "analysis.distribution.second_moment", None),
    ("assignment", "optimal_pairing", "assignment.optimal_pairing", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_write_csv", "cli.io", _file_bytes("path")),
    ("cli", "_write_report", "cli.io", _file_bytes("out_dir", "report.json")),
)


def install_boundaries(patches, tracer, kac):
    for module, path, name, counter in BOUNDARIES:
        owner = getattr(kac, module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)

        def make(func, name=name, counter=counter):
            return tracer.wrap(name, counter(func) if counter else None)(func)
        patches.replace(owner, attr, make)

    def observables(func):
        def traced(*args, **kwargs):
            return {col: tracer.wrap(f"analysis.observables.{col}")(fn)
                    for col, fn in func(*args, **kwargs).items()}
        return traced
    patches.replace(kac.cli, "_decay_observables", observables)


def traced_phase(workload, kac, count):
    tracer = Tracer()
    workload.tracer = tracer
    try:
        with Patches() as patches:
            install_boundaries(patches, tracer, kac)
            with tracer.span("bench.run"):
                steps = run_steps(workload, count=count)
    finally:
        workload.tracer = None
    return steps, tracer


# --- metrics ----------------------------------------------------------------

def end_to_end_metrics(steps, setup_times):
    units = [u for s in steps for u in s.units]
    ms = [u.seconds * 1e3 for u in units if math.isfinite(u.seconds)]
    wall = sum(s.wall for s in steps)
    tail = metrics.tail(ms)
    values = {
        "units_per_s": (len(units) / wall, f"n={len(units)}, wall {wall:.3f} s"),
        "unit_ms.p50": (metrics.median(ms), f"n={len(ms)}"),
        "unit_ms.tail": ((tail[1], f"p{tail[0]:.2f}, n={len(ms)}") if tail
                         else (max(ms), f"no tail, n={len(ms)}")),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "n=1"),
        "setup_s": (metrics.median(setup_times), f"n={len(setup_times)}"),
    }
    problems = [] if tail else [f"only {len(ms)} timed units, no tail"]
    return values, problems


def unit_metrics(steps, failed, attempted):
    units = [u for s in steps for u in s.units]
    wall = sum(s.wall for s in steps)

    def worst(key):
        return max((float(u.checks.get(key, 0.0)) for u in units), default=0.0)
    return {
        "engine.max_residual": worst("max_residual"),
        "engine.max_delta_pair": worst("max_delta_pair"),
        "engine.max_conservation_error": worst("max_conservation_error"),
        "engine.antipodal_events": float(sum(u.checks.get("antipodal_events", 0)
                                             for u in units)),
        "events_per_s": sum(u.events for u in units) / wall,
        "failed_ratio": failed / attempted,
    }


def layer_metrics(tracer, untraced, traced):
    summ = tracer.summary()
    counts = tracer.counts
    wall = summ["bench.run"]["total_s"]

    def total(*names):
        return sum(summ[n]["total_s"] for n in names if n in summ)

    def calls(*names):
        return sum(summ[n]["calls"] for n in names if n in summ)

    def per(x, n, scale=1.0):
        return x / n * scale if n else 0.0

    layer_self = dict.fromkeys(metrics.LAYERS, 0.0)
    for name, row in summ.items():
        layer_self[name.split(".")[0]] += row["self_s"]
    problems = []
    if abs(sum(layer_self.values()) - wall) > 1e-6 * wall + 1e-6:
        problems.append(f"layer self times sum to {sum(layer_self.values())} s, "
                        f"traced wall is {wall} s")
    obs = [n for n in summ if n.startswith("analysis.observables.")]
    samples = calls("analysis.observables.mean_sq_distance")
    engine_events = (counts["engine.advance_kac.events"]
                     + counts["engine.advance_coupled.events"])
    drawn = counts["system.draw_event_batch.drawn"]
    drivers = ("system.simulate_kac", "system.simulate_coupled")
    runs = calls("cli.main")
    values = {
        "kernels.sample.ns_per_draw": per(total("kernels.sample"),
                                          counts["kernels.sample.draws"], 1e9),
        "geometry.sample_azimuth_cos.ns_per_draw": per(
            total("geometry.sample_azimuth_cos"),
            counts["geometry.sample_azimuth_cos.draws"], 1e9),
        "system.draw_event_batch.ns_per_event": per(
            total("system.draw_event_batch"), drawn, 1e9),
        "system.draws.used_ratio": per(engine_events, drawn),
        "system.draws.share": total("system.draw_event_batch") / wall,
        "system.driver.self_s": per(sum(summ[n]["self_s"] for n in drivers
                                        if n in summ), calls(*drivers)),
        "engine.advance_coupled.ns_per_event": per(
            total("engine.advance_coupled"),
            counts["engine.advance_coupled.events"], 1e9),
        "engine.advance_kac.ns_per_event": per(
            total("engine.advance_kac"), counts["engine.advance_kac.events"], 1e9),
        "engine.ns_per_event": per(total("engine.advance_kac",
                                         "engine.advance_coupled"),
                                   engine_events, 1e9),
        "engine.events_per_call": per(engine_events, calls(
            "engine.advance_kac", "engine.advance_coupled")),
        "analysis.observables.ms_per_sample": per(total(*obs), samples, 1e3),
        "analysis.observables.share": total(*obs) / wall,
        "analysis.coupling_creation.calls_per_sample": per(
            calls("analysis.coupling_creation"), samples),
        "analysis.pathwise_weak_inequality.ms_per_call": per(
            total("analysis.pathwise_weak_inequality"),
            calls("analysis.pathwise_weak_inequality"), 1e3),
        "analysis.fund_inequality_report.us_per_call": per(
            total("analysis.fund_inequality_report"),
            calls("analysis.fund_inequality_report"), 1e6),
        "analysis.area_decomposition.us_per_call": per(
            total("analysis.area_decomposition"),
            calls("analysis.area_decomposition"), 1e6),
        "analysis.trace_inequality_report.us_per_call": per(
            total("analysis.trace_inequality_report"),
            calls("analysis.trace_inequality_report"), 1e6),
        "analysis.k_main_estimate.s": per(total("analysis.k_main_estimate"),
                                          calls("analysis.k_main_estimate")),
        "assignment.optimal_pairing.ms_per_call": per(
            total("assignment.optimal_pairing"),
            calls("assignment.optimal_pairing"), 1e3),
        "cli.io.s": per(total("cli.io"), runs),
        "cli.io.bytes": per(counts["cli.io.bytes"], runs),
        "cli.self_s": per(layer_self["cli"], runs),
        "trace.overhead_ratio": (sum(s.wall for s in traced)
                                 / sum(s.wall for s in untraced) - 1.0),
        "trace.spans": float(len(tracer.names)),
    }
    for layer, secs in layer_self.items():
        values[f"{layer}.self_share"] = secs / wall
    return values, problems


# --- digests ----------------------------------------------------------------

def stored_digest_mismatches(name, seed, digests):
    """Compare with earlier runs of this seed on the same program and store.

    Returns the step indices whose digest differs from a stored one.
    """
    path = OUT / "digests" / f"{name}-seed{seed}-{program_sha256()[:16]}.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    bad = [k for k, d in enumerate(digests) if stored.get(str(k), d) != d]
    stored.update({str(k): d for k, d in enumerate(digests)})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return bad


def fail_step(step, message):
    for u in step.units:
        u.failures.append(message)


# --- driver -----------------------------------------------------------------

def run_one(args):
    kac = load_program()
    if kac is None:
        return 2
    os.chdir(ROOT)
    backend = "numba" if kac.engine.HAVE_NUMBA else "python"
    print(f"perfbench workload={args.workload} backend={backend} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}",
          flush=True)
    workload = WORKLOADS[args.workload](kac, args.seed, OUT)
    meta = metadata(kac, workload, args, backend)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)
    setup_times = []

    traced, tracer = [], None
    with Patches() as hooks:
        workload.install_hooks(hooks)
        workload.warmup()
        if args.trace:
            # a traced run splits its time between the two phases
            steps = run_steps(workload, seconds=args.seconds / 2)
        else:
            steps = run_steps(workload, seconds=args.seconds, between=[
                lambda: setup_times.append(measure_setup())] * SETUP_REPEATS)
        for message in workload.oracle_failures():
            steps[0].units[0].failures.append(message)
        if args.trace:
            traced, tracer = traced_phase(workload, kac, len(steps))
            for k, (a, b) in enumerate(zip(steps, traced)):
                if a.digest != b.digest:
                    fail_step(b, f"digest of run {k} differs between phases")
        elif workload.replay_digest(0) != steps[0].digest:
            fail_step(steps[0], "digest of run 0 differs on replay")
    for k in stored_digest_mismatches(workload.name, args.seed,
                                      [s.digest for s in steps]):
        fail_step(steps[k], f"digest of run {k} differs from an earlier run "
                            f"with seed {args.seed}")

    all_units = [u for s in steps + traced for u in s.units]
    failed = [u for u in all_units if u.failures]
    per_unit = unit_metrics(steps, len(failed), len(all_units))
    notes = {}
    if args.trace:
        values, problems = layer_metrics(tracer, steps, traced)
        values.update(per_unit)
        specs = metrics.PER_LAYER
        info = {k: (values[k], unit) for k, (unit, _, _) in
                metrics.LAYER_DETAILS.items()}
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{workload.name}-seed{args.seed}.spans.csv.gz")
    else:
        measured, problems = end_to_end_metrics(steps, setup_times)
        values = {k: v for k, (v, _) in measured.items()}
        notes = {k: f" ({d})" for k, (_, d) in measured.items()}
        specs = metrics.END_TO_END
        info = {k: (values[k], unit)
                for k, (unit, _, _) in metrics.END_TO_END_INFO.items()}
        info.update((k, (per_unit[k], metrics.PER_LAYER[k][0]))
                    for k in ("events_per_s", "failed_ratio"))

    for u in failed[:20]:
        print(f"FAILED {workload.unit_name} {u.index} seed {u.seed}: "
              + "; ".join(u.failures))
    if len(failed) > 20:
        print(f"FAILED ... and {len(failed) - 20} more {workload.unit_name}s")
    for p in problems:
        print(f"PROBLEM {p}")
    for name, (value, unit) in info.items():
        print(f"info {name} = {value!r} {unit}{notes.get(name, '')}")
    for name, (unit, _, _) in specs.items():
        print(f"metric {name} = {values[name]!r} {unit}{notes.get(name, '')}")

    result = {"correct": not failed and not problems,
              "attempted": len(all_units), "failed": len(failed),
              "metrics": {name: {"value": float(values[name]), "unit": unit}
                          for name, (unit, _, _) in specs.items()}}
    res_dir = OUT / "results"
    res_dir.mkdir(parents=True, exist_ok=True)
    (res_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result, "notes": notes,
                    "info": {k: v for k, (v, _) in info.items()},
                    "digests": [s.digest for s in steps],
                    "unit_seconds": [u.seconds for s in steps for u in s.units],
                    "failures": {str(u.index): u.failures for u in failed}},
                   indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def run_all(args):
    """Every workload in its own process; exit 1 if any check fails."""
    bad = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode or result is None or not result["correct"]:
            bad.append(name)
    print(f"perfbench all: {len(WORKLOADS) - len(bad)} of {len(WORKLOADS)} "
          f"workloads correct" + (f"; failing: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
