"""Timing shims around the public functions of each ``morseideals`` module.

A shim replaces the module attribute that a call resolves through, so calls
between modules (``check`` -> ``morse_differential`` -> ``validate_matching``)
nest as parent and child spans.  Nothing inside the package changes.  Spans
stay in memory and are written out once the run ends.  Work counts are taken
from the arguments and results after a call returns; that counting is itself
a ``trace.count`` span, so it is charged to tracing and not to the caller.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "algebra", "taylor", "matching", "morse", "homology", "search")

# (module whose attribute the call resolves through, attribute name)
SHIMMED = (
    ("cli", "parse_ideal"),
    ("cli", "build_taylor"),
    ("cli", "betti_numbers"),
    ("cli", "bm_matching"),
    ("cli", "lyubeznik_matching"),
    ("cli", "trimmed_matching"),
    ("cli", "critical_family"),
    ("cli", "critical_cells"),
    ("cli", "validate_matching"),
    ("cli", "morse_differential"),
    ("cli", "verify_complex"),
    ("cli", "homology_ranks"),
    ("cli", "is_minimal"),
    ("cli", "bridge_friendly_list"),
    ("cli", "bridge_minimal_search"),
    ("morse", "validate_matching"),
    ("matching", "validate_matching"),
    ("matching", "lyubeznik_matching"),
    ("search", "build_taylor"),
    ("search", "betti_numbers"),
    ("search", "bm_matching"),
)

# counts that must repeat exactly between runs of one seed
COUNTS = (
    "taylor.cells",
    "taylor.labels",
    "matching.edges",
    "matching.validate_matching.calls",
    "matching.lyubeznik_matching.calls",
    "morse.critical_cells",
    "morse.entries",
    "homology.blocks",
    "homology.max_block_cells",
    "homology.homology_ranks.dense_cells",
    "search.orders_tried",
    "search.orders_covered",
)
_MAXIMA = {"homology.max_block_cells"}


def _count_taylor(args, tc):
    return {"taylor.cells": len(tc.lcms), "taylor.labels": len({id(m) for m in tc.lcms})}


def _count_betti(args, table):
    tc = args[0]
    sizes = Counter(id(tc.lcm(c)) for c in range(1 << tc.n))
    return {"homology.blocks": len(sizes), "homology.max_block_cells": max(sizes.values())}


def _count_homology(args, ranks):
    dims = [len(b) for b in args[0].basis]
    return {"homology.homology_ranks.dense_cells": sum(r * c for r, c in zip(dims, dims[1:]))}


def _count_critical(args, mc):
    return {"morse.critical_cells": sum(len(b) for b in mc.basis)}


def _count_entries(args, ok):
    return {"morse.entries": sum(len(m.entries) for m in args[0].differentials)}


def _count_edges(args, matching):
    return {"matching.edges": len(matching)}


def _count_minimal_search(args, result):
    return {"search.orders_tried": result.orders_tried}


def _count_friendly_list(args, pairs):
    # the friendly scan decides every order
    return {"search.orders_tried": math.factorial(args[0].n)}


_COUNTERS = {
    "taylor.build_taylor": _count_taylor,
    "homology.betti_numbers": _count_betti,
    "homology.homology_ranks": _count_homology,
    "morse.morse_differential": _count_critical,
    "morse.verify_complex": _count_entries,
    "matching.bm_matching": _count_edges,
    "matching.lyubeznik_matching": _count_edges,
    "matching.trimmed_matching": _count_edges,
    "search.bridge_minimal_search": _count_minimal_search,
    "search.bridge_friendly_list": _count_friendly_list,
}


def span_name(fn) -> str:
    """``<module>.<function>`` with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _shimmed():
    for module_name, attr in SHIMMED:
        module = importlib.import_module(f"morseideals.{module_name}")
        yield module, attr, getattr(module, attr)


class Tracer:
    """Spans and counts of one traced pass.

    A span is ``(name, start, end, parent, run, call)``: ``parent`` indexes
    the enclosing span (-1 for a root), ``run`` is the pass number and
    ``call`` the command index inside the pass.
    """

    def __init__(self, workload: str, run: int):
        self.workload = workload
        self.run = run
        self.call = 0
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self._stack: list[int] = []

    def _record(self, name, start, end, parent, index=None):
        span = (name, start, end, parent, self.run, self.call)
        if index is None:
            self.spans.append(span)
        else:
            self.spans[index] = span

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)
        counter = _COUNTERS.get(name)

        def shim(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._record(name, start, end, parent, index)
            if counter is not None:
                self.add_counts(counter(args, result), parent)
            return result

        return shim

    def add_counts(self, found: dict, parent: int = -1) -> None:
        start = time.perf_counter()
        for key, value in found.items():
            if key in _MAXIMA:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        self._record("trace.count", start, time.perf_counter(), parent)

    @contextmanager
    def installed(self):
        """Swap every shimmed attribute for a shim; restore on exit."""
        saved = []
        try:
            for module, attr, original in _shimmed():
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time of child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, *_) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and work counts of this pass."""
        selfs = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        out: dict[str, float] = dict(self.counts)
        for name in {span_name(fn) for _, _, fn in _shimmed()} - set(selfs):
            selfs[name] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for n, t in selfs.items() if n.split(".")[0] == layer)
        for name, seconds in selfs.items():
            out[f"{name}.self_s"] = seconds
            out[f"{name}.calls"] = calls[name]
        out["trace.self_s"] = sum(selfs.values())
        return out

    def dump(self, stream) -> None:
        for name, start, end, parent, run, call in self.spans:
            record = {
                "name": name, "start": start, "end": end, "parent": parent,
                "workload": self.workload, "run": run, "call": call,
            }
            stream.write(json.dumps(record) + "\n")


def count_problems(passes: list[dict], pinned: dict) -> list[str]:
    """Determinism gate: every count repeats exactly across the traced passes
    of a run, and matches the workload's pinned values."""
    problems = []
    first = passes[0]
    for run, counts in enumerate(passes[1:], 2):
        for name in COUNTS:
            if counts[name] != first[name]:
                problems.append(f"{name}: pass {run} gave {counts[name]}, pass 1 gave {first[name]}")
    for name, want in pinned.items():
        if first[name] != want:
            problems.append(f"{name}: got {first[name]}, pinned {want}")
    return problems
