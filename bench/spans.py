"""Timing wrappers around calls into the ``debruijn`` layers, kept in memory.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span, or -1. The wrappers are installed on every module attribute
that holds the wrapped function, because ``analysis`` and ``cli`` import what
they call by name: patching only ``debruijn.watchman.solve_min_walk`` would
miss the call ``analysis.verify`` makes through its own global.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MODULES = (
    "debruijn",
    "debruijn.seqcore",
    "debruijn.graphcore",
    "debruijn.watchman",
    "debruijn.analysis",
    "debruijn.cli",
)


class Recorder:
    """Spans of one traced pass, plus the counters read at the same calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children (children never overlap, since the
    calls are synchronous)."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return dict(out)


def calls(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for name, *_ in spans:
        out[name] += 1
    return dict(out)


def _count_vertices(counts, graph) -> None:
    counts["graphcore.vertices_built"] += graph.vertex_count


def _count_states(counts, result) -> None:
    counts["watchman.solve_min_walk.explored_states"] += result.explored_states


def _count_walks(counts, walks) -> None:
    counts["watchman.enumerate_min_walks.walks"] += len(walks)


def _count_sweep(counts, report) -> None:
    counts["analysis.verified"] += report.summary["verified"]
    counts["analysis.skipped"] += report.summary["skipped"]


# (module, attribute, span name, counter read from the return value)
LAYERS = (
    ("debruijn.cli", "main", "cli.main", None),
    ("debruijn.seqcore", "k_tour", "seqcore.k_tour", None),
    ("debruijn.graphcore", "generated_subdigraph", "graphcore.generated_subdigraph", _count_vertices),
    ("debruijn.watchman", "solve_min_walk", "watchman.solve_min_walk", _count_states),
    ("debruijn.watchman", "enumerate_min_walks", "watchman.enumerate_min_walks", _count_walks),
    ("debruijn.watchman", "induced_walk", "watchman.induced_walk", None),
    ("debruijn.analysis", "classify", "analysis.classify", None),
    ("debruijn.analysis", "verify", "analysis.verify", None),
    ("debruijn.analysis", "sweep", "analysis.sweep", _count_sweep),
    ("debruijn.analysis", "SweepReport.to_jsonl", "analysis.to_jsonl", None),
)
GENERATORS = (
    ("debruijn.analysis", "rotation_representatives", "analysis.rotation_representatives"),
)
# "bench.harness" is the harness's own span around each call into cli.main
NAMES = ("bench.harness",) + tuple(l[2] for l in LAYERS) + tuple(g[2] for g in GENERATORS)


def _span(fn, name, rec: Recorder, count):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None:
            count(rec.counts, result)
        return result

    return wrapper


def _span_each_next(fn, name, rec: Recorder):
    # a generator does its work in next(), so each step is its own span
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = rec.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.close(idx)
            rec.counts[name + ".yielded"] += 1
            yield item

    return wrapper


def patch(replacements: dict[tuple[str, str], object]) -> list[tuple]:
    """Replace each ``(module, attribute)`` by its new value wherever the
    original is bound: in every module of MODULES for a function, on the
    class for a dotted ``Class.method``. Returns the undo list for unpatch."""
    undo = []
    for (mod_name, attr), new in replacements.items():
        owner = sys.modules[mod_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        if path:
            undo.append((owner, leaf, original))
            setattr(owner, leaf, new)
            continue
        for other in MODULES:
            module = sys.modules[other]
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, new)
    return undo


def unpatch(undo: list[tuple]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def install(rec: Recorder) -> list[tuple]:
    """Wrap every layer entry point so calls record spans into ``rec``."""
    replacements: dict[tuple[str, str], object] = {}
    for mod_name, attr, name, count in LAYERS:
        owner = sys.modules[mod_name]
        for part in attr.split("."):
            owner = getattr(owner, part)
        replacements[(mod_name, attr)] = _span(owner, name, rec, count)
    for mod_name, attr, name in GENERATORS:
        replacements[(mod_name, attr)] = _span_each_next(
            getattr(sys.modules[mod_name], attr), name, rec
        )
    return patch(replacements)
