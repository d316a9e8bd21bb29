"""Benchmark of the ``watchman`` toolkit: two workloads through
``debruijn.cli.main``, every output checked, every metric printed by name.

Usage, from the repository root:

    python3 bench/run.py                                  # all workloads
    python3 bench/run.py --workload sweep-q3 --seed 3 --seconds 50 --trace 0

Each workload runs in a fresh worker process (``bench/worker.py``), so the
peak RSS is the workload's own. Set-up time is the median over several
fresh processes that only import ``debruijn.cli`` and build the inputs.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` a traced run's
per-layer metrics (spans are written to ``bench/out/``). The output of each
workload ends with one JSON line: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402
from worker import MIN_PASSES, REF_S, reference_loop  # noqa: E402

SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170
TAIL_LADDER = (50, 90, 95, 98, 99, 99.5, 99.9, 99.95, 99.99)

# Names and units of the metrics come from BENCHMARK.json. Its per_layer list
# has the time metrics of layers that every workload calls, plus counts. The
# self times of sweep-only layers (induced_walk, enumerate_min_walks,
# classify, verify, sweep, rotation_representatives, to_jsonl) are exactly 0
# on solve-b6, so they are printed, marked "not tracked", but not listed.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


def tail_percentile(samples_guaranteed: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if samples_guaranteed * (100 - p) / 100 >= 10:
            best = p
    return best


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Median spawn-to-ready time of fresh processes that import
    debruijn.cli and build the workload's inputs, at the reference speed and
    raw. The first probe, which may compile bytecode, is dropped."""
    times, refs = [], [reference_loop()]
    for _ in range(SETUP_PROBES + 1):
        t = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(WORKER), "--setup", "--workload", name, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} exited {code}")
        times.append(elapsed)
        refs.append(reference_loop())
    raw = statistics.median(times[1:])
    return raw * REF_S / statistics.median(refs), raw


def run_worker(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {name} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(raw: dict, setup: tuple[float, float]) -> tuple[dict, dict]:
    # Every pass repeats the same items, so an item's latency is its median
    # over the passes: a stall during one pass then moves no percentile. The
    # percentiles are taken over the items; the tail's is the highest with
    # ten samples beyond it in the least number of passes.
    per_pass = raw["items_per_pass"]
    items = sorted(statistics.median(xs) for xs in zip(*raw["item_s"]))
    p = tail_percentile(per_pass * MIN_PASSES)
    values = {
        "wall_s": statistics.median(raw["pass_wall_s"]),
        "item_p50_ms": statistics.median(items) * 1000,
        "item_tail_ms": percentile(items, p) * 1000,
        "peak_rss_mb": raw["peak_rss_kib"] / 1024,
        "setup_s": setup[0],
    }
    passes = len(raw["pass_wall_s"])
    detail = {
        "passes": passes,
        "items_per_pass": per_pass,
        "item_samples": per_pass * passes,
        "tail_percentile": p,
        "tail_samples_beyond": sum(1 for x in items if x > values["item_tail_ms"] / 1000) * passes,
        "setup_probes": SETUP_PROBES,
        "speed_factor": raw["speed_factor"],
        "raw_wall_s": statistics.median(raw["raw_pass_wall_s"]),
        "raw_setup_s": setup[1],
    }
    return values, detail


def per_layer(raw: dict) -> tuple[dict, dict, list[str]]:
    """Mean per-pass self times and the (repeating) counts of the traced
    passes. The self times of all spans must add up to the traced wall time,
    which the harness times around its calls independently of the spans."""
    traced = raw["traced"]
    problems = []
    first = traced[0]
    for t in traced[1:]:
        if t["calls"] != first["calls"] or t["counts"] != first["counts"]:
            problems.append("deterministic counters differ between traced passes")
            break
    n = len(traced)
    self_s = {s: sum(t["self_s"].get(s, 0.0) for t in traced) / n for s in spans.NAMES}
    unknown = set().union(*(t["self_s"] for t in traced)) - set(spans.NAMES)
    if unknown:
        problems.append(f"unexpected spans {sorted(unknown)}")
    traced_wall = sum(t["wall_s"] for t in traced) / n
    self_sum = sum(self_s.values())
    if abs(self_sum - traced_wall) > 1e-3 * traced_wall:
        problems.append(f"self times sum to {self_sum}, traced wall is {traced_wall}")
    values = {m: 0 for m, unit in PER_LAYER if unit == "count"}
    values.update({f"{s}.self_s": v for s, v in self_s.items()})
    values.update({f"{s}.calls": first["calls"].get(s, 0) for s in spans.NAMES})
    values.update(first["counts"])
    states = values["watchman.solve_min_walk.explored_states"]
    values["watchman.solve_min_walk.us_per_state"] = (
        self_s["watchman.solve_min_walk"] / states * 1e6 if states else 0.0
    )
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] for t in traced
    ) / statistics.median(raw["pass_wall_s"])
    detail = {
        "traced_passes": n,
        "untraced_passes": len(raw["pass_wall_s"]),
        "self_sum_s": self_sum,
        "speed_factor": raw["speed_factor"],
    }
    return values, detail, problems


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    setup = None if trace else setup_seconds(name, seed)
    raw = run_worker(name, seed, seconds, trace)
    problems = list(raw["problems"])
    if raw["warmup_failed"]:
        problems.append(f"{raw['warmup_failed']} items failed in the warm-up pass")
    if trace:
        values, detail, more = per_layer(raw)
        problems += more
        tracked = PER_LAYER
    else:
        values, detail = end_to_end(raw, setup)
        tracked = END_TO_END
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {name}  seed {seed}  trace {trace}")
    for metric, unit in tracked:
        print(f"  {metric:<44} {values[metric]:.6g} {unit}")
    for metric in sorted(set(values) - {m for m, _ in tracked}):
        print(f"  {metric:<44} {values[metric]:.6g}  (not tracked)")
    print(f"  {'fail_ratio':<44} {failed / attempted:.6g} ({failed} of {attempted} items)")
    for p in problems:
        print(f"  problem: {p}")
    print("detail " + json.dumps(detail | {"python": sys.version.split()[0], "nproc": os.cpu_count()}))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in tracked},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.NAMES, help="default: every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "debruijn" / "cli.py").is_file():
        print(f"bench: no debruijn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.NAMES)
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        ok = ok and result["correct"]
    # one workload: its JSON line carries the verdict; all: so does the exit code
    return 0 if ok or args.workload else 1


if __name__ == "__main__":
    raise SystemExit(main())
