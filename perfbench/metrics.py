"""Metric definitions, the tail-percentile rule and the metric-name rule.

Each per-layer metric carries one sentence naming the end-to-end metric and
workload it should move, so later changes can cite it by name.  The names,
units and directions here are the ones in BENCHMARK.json.
"""

from __future__ import annotations

import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# name: (unit, better, doc)
END_TO_END = {
    "units_per_s": ("1/s", "higher",
                    "Completed units per second of timed wall; a unit is a "
                    "replica, or an instance on inequality."),
    "peak_rss_mb": ("MB", "lower", "ru_maxrss of the workload process."),
    "setup_s": ("s", "lower",
                "Median wall time of a fresh process that imports kacsim, "
                "builds the kernel and runs one tiny coupled run."),
}

# Printed as info lines by the untraced run and kept in its results file,
# but not in BENCHMARK.json.  With one caller in a closed loop, units_per_s
# is the inverse of the mean unit time, so the median adds little beyond it
# while it moves more with the machine's slow spells (see README.md); the
# tail reads whichever units fell in those spells, so across runs it
# tracks the machine rather than the program.
END_TO_END_INFO = {
    "unit_ms.p50": ("ms", "lower", "Median wall time per unit."),
    "unit_ms.tail": ("ms", "lower",
                     "Wall time per unit at the highest percentile with at "
                     "least ten units beyond it; percentile and unit count "
                     "are printed beside it."),
}

# Per-layer metrics of the traced run.  A time-valued metric is listed
# here only if every workload in BENCHMARK.json runs its layer, so that none
# reads a constant 0; the per-call costs of layers only some workloads run
# are in LAYER_DETAILS.
PER_LAYER = {
    "kernels.sample.ns_per_draw": ("ns", "lower",
        "Wrapper on AngularKernel.sample; moves events_per_s on "
        "engine-coupled once the loop is compiled."),
    "kernels.self_share": ("1", "lower",
        "Self time of the kernels layer over the traced wall."),
    "geometry.sample_azimuth_cos.ns_per_draw": ("ns", "lower",
        "Wrapper on system.sample_azimuth_cos; moves events_per_s on "
        "engine-coupled once the loop is compiled."),
    "geometry.self_share": ("1", "lower",
        "Self time of the geometry layer over the traced wall."),
    "system.draw_event_batch.ns_per_event": ("ns", "lower",
        "Inclusive draw_event_batch time per drawn event; moves events_per_s "
        "on engine-coupled."),
    "system.draws.used_ratio": ("1", "higher",
        "Engine events over drawn events; moves units_per_s on relax-single "
        "(about 0.03) and decay (about 0.16); about 1 on engine-coupled, "
        "where the prediction is no change."),
    "system.draws.share": ("1", "lower",
        "Inclusive draw_event_batch time over the traced wall; with "
        "engine.self_share the dominant layers of relax-single."),
    "system.driver.self_s": ("s", "lower",
        "Self time of simulate_* per call, without draws, engine and "
        "observables; moves unit_ms.p50 and units_per_s on relax-single."),
    "system.self_share": ("1", "lower",
        "Self time of the system layer over the traced wall."),
    "engine.ns_per_event": ("ns", "lower",
        "advance_* time per engine event: advance_coupled on engine-coupled "
        "and decay, advance_kac on relax-single; moves events_per_s there "
        "and units_per_s on decay."),
    "engine.events_per_call": ("count", "higher",
        "Engine events per advance_* call; separates per-call from "
        "per-event cost."),
    "engine.max_residual": ("1", "lower",
        "Largest coupling-identity residual of any unit; moves failed_ratio "
        "on every engine workload."),
    "engine.max_delta_pair": ("1", "lower",
        "Largest per-event pair-distance increment of any unit; moves "
        "failed_ratio on every engine workload."),
    "engine.max_conservation_error": ("1", "lower",
        "Largest relative pair conservation error of any unit; moves "
        "failed_ratio on every engine workload."),
    "engine.antipodal_events": ("count", "lower",
        "Antipodal events resolved with a random plane, summed over units."),
    "engine.self_share": ("1", "lower",
        "Self time of the engine layer over the traced wall."),
    "analysis.observables.share": ("1", "lower",
        "Inclusive time of the cli._decay_observables closures over the "
        "traced wall; with engine.self_share the dominant layers of decay."),
    "analysis.coupling_creation.calls_per_sample": ("count", "lower",
        "coupling_creation calls per decay sample; moves units_per_s on "
        "decay."),
    "analysis.self_share": ("1", "lower",
        "Self time of the analysis layer over the traced wall; no analysis "
        "change should move engine-coupled or relax-single."),
    "assignment.self_share": ("1", "lower",
        "Self time of the assignment layer over the traced wall."),
    "cli.io.bytes": ("B", "lower",
        "Bytes written per kac run, from the files written."),
    "cli.self_share": ("1", "lower",
        "Self time of the cli layer over the traced wall."),
    "bench.self_share": ("1", "lower",
        "Benchmark code between units (input generation, hashing) over the "
        "traced wall."),
    "trace.overhead_ratio": ("1", "lower",
        "Traced wall over untraced wall of the same units, minus one."),
    "trace.spans": ("count", "lower", "Spans recorded in the traced phase."),
    "events_per_s": ("1/s", "higher",
        "Engine events per second of untimed-setup, untraced wall."),
    "failed_ratio": ("1", "lower",
        "Failed units over attempted units, traced and untraced phases."),
}

# Printed as info lines by the traced run and kept in its results file; 0
# on a workload that does not run the layer.
LAYER_DETAILS = {
    "engine.advance_coupled.ns_per_event": ("ns", "lower",
        "Moves events_per_s on engine-coupled and units_per_s on decay."),
    "engine.advance_kac.ns_per_event": ("ns", "lower",
        "Moves events_per_s on relax-single."),
    "analysis.observables.ms_per_sample": ("ms", "lower",
        "Wrappers on the closures of cli._decay_observables, per sample; "
        "moves units_per_s on decay."),
    "analysis.pathwise_weak_inequality.ms_per_call": ("ms", "lower",
        "Moves units_per_s on decay and inequality."),
    "analysis.fund_inequality_report.us_per_call": ("us", "lower",
        "Moves units_per_s on decay and inequality."),
    "analysis.area_decomposition.us_per_call": ("us", "lower",
        "Moves units_per_s on inequality."),
    "analysis.trace_inequality_report.us_per_call": ("us", "lower",
        "Moves units_per_s on inequality."),
    "analysis.k_main_estimate.s": ("s", "lower",
        "Seconds per k_main_estimate call, once per kac run; moves "
        "units_per_s on decay."),
    "assignment.optimal_pairing.ms_per_call": ("ms", "lower",
        "Moves unit_ms.p50 and units_per_s on decay."),
    "cli.io.s": ("s", "lower",
        "_write_csv plus _write_report seconds per kac run; moves "
        "units_per_s on decay and inequality."),
    "cli.self_s": ("s", "lower",
        "Self time of the cli layer per kac run; moves units_per_s on decay "
        "and inequality."),
}

LAYERS = ("kernels", "geometry", "system", "engine", "analysis", "assignment",
          "cli", "bench")


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 values above.

    That is the 11th largest value, at percentile 100 (n - 10) / n.  Returns
    None for fewer than 11 values.
    """
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def median(values):
    return statistics.median(values) if values else None


def check_names(names):
    """Raise ValueError for a name outside the allowed pattern."""
    for name in names:
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
