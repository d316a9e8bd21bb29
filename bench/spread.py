"""Run-to-run spread of the benchmark: one ``run.py`` run per seed.

    python3 bench/spread.py --workload sweep-q3 --seeds 10 --trace 0

For every metric prints the median, the quartiles (``statistics.quantiles``
with n=4) and the quartile distance as a share of the median, which is what
the bound of each end-to-end metric in BENCHMARK.json is compared with.
``--json`` writes the per-run values and the summary to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10, help="runs, with seeds 1..N")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path, help="write runs and summary here")
    args = p.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            cwd=HERE.parent,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        detail = json.loads(proc.stdout.splitlines()[-2].removeprefix("detail "))
        runs.append({"seed": seed, "result": result, "detail": detail})
        values = {m: v["value"] for m, v in result["metrics"].items()}
        print(f"seed {seed} correct={result['correct']} " + " ".join(f"{m}={v:.6g}" for m, v in values.items()), flush=True)

    summary = {}
    for metric in runs[0]["result"]["metrics"] if len(runs) > 1 else ():
        values = [r["result"]["metrics"][metric]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{metric:<44} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
