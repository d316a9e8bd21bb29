"""One workload in a fresh process: ``run.py`` starts this file.

``--setup`` imports ``debruijn.cli``, generates the workload's inputs,
prints ``ready`` and exits; ``run.py`` times it from spawn to that line.
Otherwise the worker runs one untimed warm-up pass, then timed passes of
``debruijn.cli.main`` calls (stdout captured) until ``--seconds`` have
passed, and prints one JSON object of measurements. With ``--trace 1`` it
alternates untraced and traced passes, so the two wall times it compares
come from the same stretch of time.

Times are reported at a reference CPU speed. The speed of this kind of
shared machine drifts by 10-40% over seconds to minutes, which would swamp
the differences the benchmark must resolve. So a fixed pure-Python loop
(``reference_loop``) is timed between calls throughout the run, for about
a twentieth of the time, and every time is multiplied by REF_S over the
loop's median time in the run. Raw seconds are reported alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 5  # untraced; fixes the tail percentile and when peak RSS is read
MIN_TRACED_PASSES = 2
SPANS_DIR = HERE / "out"
REF_S = 0.015  # reference_loop's typical time on the machine of the baseline
REF_SHARE = 0.05  # least share of each call's time spent on reference_loop after it

sys.path.insert(0, str(SRC))

import spans  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402


def reference_loop() -> float:
    """Seconds taken by a fixed mix of integer arithmetic and inserts of
    tuple keys into a fresh dict. Of the loops tried (dict inserts or
    lookups, small-object creation, a bitset search), this mix's time tracked
    the drift of the workloads' own times most closely."""
    t = time.perf_counter()
    s = 0
    for i in range(75_000):
        s += i * i
    d = {}
    for i in range(20_000):
        d[(i & 63, i * 2654435761 & 0xFFFFF)] = i
    return time.perf_counter() - t


def run_pass(workload, cli, refs: list[float], rec=None) -> list[tuple[object, str, float]]:
    """Run every call once; returns [(exit code, stdout, call seconds)].

    The reference loop runs before the first call and after each call, for
    at least REF_SHARE of the call's time, its times appended to ``refs``.
    An exception is recorded in place of the exit code. With a span
    recorder, each call is one ``bench.harness`` span.
    """
    outputs = []
    refs.append(reference_loop())
    for argv in workload.calls:
        buf = io.StringIO()
        idx = rec.open("bench.harness") if rec else None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed item, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if rec:
            rec.close(idx)
        outputs.append((code, buf.getvalue(), dt))
        spent = 0.0
        while spent < REF_SHARE * dt or not spent:
            refs.append(reference_loop())
            spent += refs[-1]
    return outputs


class Checker:
    """Counts attempted and failed items of each pass. Full checks run once
    per distinct output; a repeated output reuses the verdict."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.cache: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _problems(self, i: int, code, stdout: str) -> list[str]:
        key = (i, code, stdout)
        if key not in self.cache:
            if code != 0:
                found = [f"call {i}: exit {code}"]
            elif self.w.is_sweep:
                _, found = workloads.check_sweep_records(stdout)
                digest = workloads.sha256(stdout)
                if self.w.expected_sha256 and digest != self.w.expected_sha256:
                    found.append(f"stdout sha256 {digest} != pinned {self.w.expected_sha256}")
            else:
                found = workloads.check_solve(self.w.sequences[i], stdout, self.w.optima[i])
            self.cache[key] = found
        return self.cache[key]

    def check(self, outputs, items: int) -> None:
        """``items`` is the number of sweep records the pass produced."""
        for i, (code, stdout, *_) in enumerate(outputs):
            found = self._problems(i, code, stdout)
            if self.w.is_sweep:
                n = self.w.expected_records or items
                self.attempted += n
                self.failed += n if found else 0
            else:
                self.attempted += 1
                self.failed += 1 if found else 0
            for p in found:
                if p not in self.problems:
                    self.problems.append(p)


def setup_only(name: str, seed: int) -> int:
    import debruijn.cli  # noqa: F401  (the import is what is timed)

    workloads.Workload(name, seed)
    print("ready", flush=True)
    return 0


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Warm up, then run timed passes for ``seconds``; returns the figures,
    times at the reference speed unless named raw."""
    import debruijn.analysis
    import debruijn.cli as cli

    w = workloads.Workload(name, seed, smoke)
    os.environ.update(w.env)
    checker = Checker(w)
    verify_s: list[float] = []

    def timed_verify(fn):
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                verify_s.append(time.perf_counter() - t)

        return wrapper

    walls: list[float] = []
    samples: list[list[float]] = []  # per pass
    refs: list[float] = []
    peak_rss_kib: list[int] = []

    def untraced_pass(keep: bool) -> None:
        del verify_s[:]
        undo = []
        if w.is_sweep:  # an item is a sweep record, i.e. one verify call
            undo = spans.patch(
                {("debruijn.analysis", "verify"): timed_verify(debruijn.analysis.verify)}
            )
        try:
            outputs = run_pass(w, cli, refs)
        finally:
            spans.unpatch(undo)
        checker.check(outputs, len(verify_s))
        if keep:
            walls.append(sum(dt for _, _, dt in outputs))
            samples.append(list(verify_s) if w.is_sweep else [dt for _, _, dt in outputs])
            if len(walls) == MIN_PASSES:
                # later passes repeat the same work; reading the peak here keeps
                # the harness's own growing sample lists out of it
                peak_rss_kib.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def traced_pass() -> tuple[dict, list[list]]:
        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            outputs = run_pass(w, cli, refs, rec)
        finally:
            spans.unpatch(undo)
        checker.check(outputs, rec.counts["analysis.verified"] + rec.counts["analysis.skipped"])
        return {
            "wall_s": sum(dt for _, _, dt in outputs),
            "self_s": spans.self_times(rec.spans),
            "calls": spans.calls(rec.spans),
            "counts": dict(rec.counts),
        }, rec.spans

    untraced_pass(keep=False)
    warmup_attempted, warmup_failed = checker.attempted, checker.failed

    traced: list[dict] = []
    last_spans: list[list] = []
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or len(walls) < (MIN_TRACED_PASSES if trace else MIN_PASSES)
        or len(traced) < (MIN_TRACED_PASSES if trace else 0)
    ):
        if trace and len(traced) < len(walls):
            figures, last_spans = traced_pass()
            traced.append(figures)
        else:
            untraced_pass(keep=True)

    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        with open(SPANS_DIR / f"spans-{name}.jsonl", "w", encoding="utf-8") as fh:
            for span in last_spans:
                fh.write(json.dumps(span) + "\n")

    speed = REF_S / statistics.median(refs)
    for t in traced:
        t["wall_s"] *= speed
        t["self_s"] = {k: v * speed for k, v in t["self_s"].items()}
    return {
        "workload": name,
        "seed": seed,
        "speed_factor": speed,
        "items_per_pass": len(samples[0]),
        "pass_wall_s": [x * speed for x in walls],
        "raw_pass_wall_s": walls,
        "item_s": [[x * speed for x in items] for items in samples],
        "traced": traced,
        "peak_rss_kib": peak_rss_kib[0] if peak_rss_kib else None,  # None when traced
        "attempted": checker.attempted - warmup_attempted,
        "failed": checker.failed - warmup_failed,
        "warmup_failed": warmup_failed,
        "problems": checker.problems[:20],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup", action="store_true")
    args = p.parse_args(argv)
    if args.setup:
        return setup_only(args.workload, args.seed)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
