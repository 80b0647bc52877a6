"""Spans recorded by replacing module attributes at layer boundaries.

``Patches`` replaces attributes and puts the originals back in reverse
order.  ``Tracer`` keeps spans (name, start, end, parent span, unit id) and
counts in memory; its ``wrap`` builds the replacement for one boundary.
Nothing here imports the program, so the helpers can be tested alone.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import time
from collections import defaultdict


class Patches:
    """Stack of attribute replacements, undone last-in first-out."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        """Set ``owner.attr`` to ``make(original_function)``.

        On a class the raw descriptor is saved, and a classmethod or
        staticmethod is unwrapped before ``make`` and rewrapped after, so
        restoring gives back the identical object.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        new = make(raw.__func__ if kind else raw)
        setattr(owner, attr, kind(new) if kind else new)
        self._saved.append((owner, attr, raw))

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def arg_getter(func, name):
    """Function reading argument ``name`` of ``func`` from (args, kwargs)."""
    params = list(inspect.signature(func).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, None if default is inspect.Parameter.empty else default)

    return get


class Tracer:
    """In-memory spans and counts; one instance per traced phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.units = []
        self.counts = defaultdict(float)
        self.unit = -1
        self._stack = []

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.units.append(self.unit)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx):
        self.ends[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, count=None):
        """Replacement factory for ``Patches.replace``.

        ``count(args, kwargs, result)`` returns a dict of counts to add
        under ``name.<key>``; ``calls`` is always counted.
        """
        counts = self.counts

        def make(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self.close(idx)
                counts[name + ".calls"] += 1
                if count is not None:
                    for key, val in count(args, kwargs, result).items():
                        counts[name + "." + key] += val
                return result

            return traced

        return make

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out = {}
        for k, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.ends[k] - self.starts[k]
            row["self_s"] += selfs[k]
        return out

    def write(self, path):
        """Write every span as gzipped CSV: id,name,start,end,parent,unit."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,unit\n")
            for k, name in enumerate(self.names):
                fh.write(f"{k},{name},{self.starts[k]!r},{self.ends[k]!r},"
                         f"{self.parents[k]},{self.units[k]}\n")


def self_times(starts, ends, parents):
    """Span duration minus the part of it covered by its child spans.

    Children are clipped to their parent and overlapping children are
    counted once, so the result never goes below zero.
    """
    children = defaultdict(list)
    for k, p in enumerate(parents):
        if p >= 0:
            children[p].append(k)
    out = []
    for k in range(len(starts)):
        lo, hi = starts[k], ends[k]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(k, ()), key=lambda c: starts[c]):
            s, e = max(starts[c], lo), min(ends[c], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((hi - lo) - covered)
    return out
