"""Tests of the benchmark's own helpers.

Kept out of Tier-1 (pytest's testpaths is tests/); run them with

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
from pathlib import Path

import pytest

import metrics
import run
from tracing import Patches, Tracer, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def test_tail_needs_eleven_units():
    assert metrics.tail([]) is None
    assert metrics.tail(list(range(10))) is None
    pct, value = metrics.tail(list(range(11, 0, -1)))
    assert value == 1 and pct == pytest.approx(100.0 / 11)


def test_tail_leaves_ten_units_beyond():
    values = [float(v) for v in range(1, 101)]
    pct, value = metrics.tail(values[::-1])
    assert (pct, value) == (90.0, 90.0)
    assert sum(v > value for v in values) == 10


def test_self_time_nested_and_sibling_spans():
    # root [0, 10] holds siblings a [1, 4] and b [5, 7]; c [2, 3] is inside a
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 7.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [5.0, 2.0, 1.0, 2.0]
    assert sum(self_times(starts, ends, parents)) == 10.0


def test_self_time_counts_overlapping_children_once():
    assert self_times([0.0, 1.0, 3.0], [10.0, 4.0, 6.0], [-1, 0, 0])[0] == 5.0
    # a child running past its parent is clipped to the parent
    assert self_times([0.0, 8.0], [10.0, 12.0], [-1, 0])[0] == 8.0


def test_tracer_records_parents_units_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(size=None):
        return size

    traced_inner = tracer.wrap("x.inner", lambda a, kw, r: {"items": r})(inner)
    traced_outer = tracer.wrap("x.outer")(lambda: traced_inner(size=3)
                                          + traced_inner(size=4))
    tracer.unit = 7
    assert traced_outer() == 7
    assert tracer.names == ["x.outer", "x.inner", "x.inner"]
    assert tracer.parents == [-1, 0, 0]
    assert tracer.units == [7, 7, 7]
    assert tracer.counts["x.inner.items"] == 7
    assert tracer.counts["x.inner.calls"] == 2
    summary = tracer.summary()
    assert summary["x.outer"]["total_s"] == 5.0
    assert summary["x.outer"]["self_s"] == 3.0
    assert summary["x.inner"]["self_s"] == 2.0


def test_metric_names_match_the_pattern():
    names = (list(metrics.END_TO_END) + list(metrics.END_TO_END_INFO)
             + list(metrics.PER_LAYER) + list(metrics.LAYER_DETAILS))
    metrics.check_names(names)
    assert len(set(names)) == len(names)
    for bad in ("_engine.advance_kac.ns_per_event", "unit ms", "", "a" * 65,
                "rate/s"):
        with pytest.raises(ValueError):
            metrics.check_names([bad])
    for unit, better, doc in (list(metrics.END_TO_END.values())
                              + list(metrics.END_TO_END_INFO.values())
                              + list(metrics.PER_LAYER.values())
                              + list(metrics.LAYER_DETAILS.values())):
        assert metrics.UNIT_RE.fullmatch(unit)
        assert better in ("higher", "lower") and doc


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == {k: v[:2] for k, v in table.items()}
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_patches_restore_class_and_static_methods():
    class Owner:
        @classmethod
        def make(cls):
            return cls

        @staticmethod
        def helper():
            return 1

    raw = dict(vars(Owner))
    with Patches() as patches:
        patches.replace(Owner, "make", lambda f: lambda cls: ("wrapped", f(cls)))
        patches.replace(Owner, "helper", lambda f: lambda: f() + 1)
        assert Owner.make() == ("wrapped", Owner)
        assert Owner.helper() == 2
    assert vars(Owner)["make"] is raw["make"]
    assert vars(Owner)["helper"] is raw["helper"]


def test_every_wrapper_restores_the_original(tmp_path):
    kac = run.load_program()
    owners = [getattr(kac, m) for m in ("kernels", "system", "engine",
                                        "analysis", "assignment", "cli")]
    owners += [kac.kernels.AngularKernel, kac.analysis.DiscreteCoupledDistribution]
    before = [dict(vars(o)) for o in owners]
    workloads = [w(kac, 0, tmp_path) for w in WORKLOADS.values()]
    with Patches() as patches:
        for w in workloads:
            w.install_hooks(patches)
        run.install_boundaries(patches, Tracer(), kac)
        changed = sum(vars(o).get(k) is not v
                      for o, snap in zip(owners, before) for k, v in snap.items())
        # the boundaries, _decay_observables, and the six unit hooks of which
        # _write_csv is also a boundary
        assert changed == len(run.BOUNDARIES) + 1 + 5
    for o, snap in zip(owners, before):
        assert all(vars(o)[k] is v for k, v in snap.items()), o
