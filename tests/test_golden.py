"""Golden CLI corpus: the exact stdout of fixed ``watchman`` invocations.

Each case runs ``cli.main`` in-process and compares its stdout byte for
byte with ``tests/golden/<name>.out`` (and, for ``--csv``, the written
file with ``<name>.csv``). Argument ``{csv}`` is replaced by a temporary
path and ``{golden}`` by the corpus directory. After a deliberate output
change, rewrite the corpus with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from debruijn.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, file fed to stdin or None)
CASES = {
    # README command-line tour
    "tour_gen_fkm": (["gen", "-a", "2", "-k", "3"], None),
    "tour_gen_greedy": (["gen", "-a", "2", "-k", "2", "--algo", "greedy"], None),
    "tour_gen_euler": (["gen", "-a", "3", "-k", "3", "--algo", "euler"], None),
    "gen_euler_order_one": (["gen", "-a", "4", "-k", "1", "--algo", "euler"], None),
    "tour_walk": (["walk", "-a", "2", "-k", "3", "--seq", "1001"], None),
    "tour_classify": (["classify", "--seq", "0001", "-a", "2", "-k", "3"], None),
    "tour_solve_count": (
        ["solve", "--from-seq", "01210123", "-a", "4", "-k", "3", "--count"],
        None,
    ),
    "graph_full_json": (["graph", "-a", "2", "-k", "3"], None),
    "graph_full_dot": (["graph", "-a", "2", "-k", "3", "--dot"], None),
    "graph_seq_json": (["graph", "--from-seq", "01210123", "-a", "4", "-k", "3"], None),
    "graph_seq_dot": (
        ["graph", "--from-seq", "01210123", "-a", "4", "-k", "3", "--dot"],
        None,
    ),
    "graph_seq_dot_highlight": (
        [
            "graph", "--from-seq", "01210123", "-a", "4", "-k", "3",
            "--dot", "--highlight-induced",
        ],
        None,
    ),
    "solve_seq_count_binary": (
        ["solve", "--from-seq", "001011", "-a", "2", "-k", "3", "--count"],
        None,
    ),
    "solve_custom_stdin": (["solve"], "custom_graph.json"),
    "verify_seq_file": (
        ["verify", "--seq-file", "{golden}/seqs.txt", "-a", "2", "-k", "3"],
        None,
    ),
    "sweep_b2_k3": (
        ["sweep", "-a", "2", "-k", "3", "--lengths", "3..8", "--csv", "{csv}"],
        None,
    ),
}


def run_case(name, csv_path):
    """Exit code, stdout bytes and CSV bytes (or None) of one corpus case."""
    argv, stdin_name = CASES[name]
    argv = [
        arg.replace("{golden}", str(GOLDEN)).replace("{csv}", str(csv_path))
        for arg in argv
    ]
    saved_stdin = sys.stdin
    if stdin_name is not None:
        sys.stdin = io.StringIO((GOLDEN / stdin_name).read_text(encoding="utf-8"))
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved_stdin
    csv_bytes = csv_path.read_bytes() if "{csv}" in CASES[name][0] else None
    return code, out.getvalue().encode("utf-8"), csv_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    code, out, csv_bytes = run_case(name, tmp_path / "report.csv")
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    if csv_bytes is not None:
        assert csv_bytes == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            code, out, csv_bytes = run_case(case, Path(tmp) / "report.csv")
            if code != 0:
                raise SystemExit(f"{case}: exit {code}")
            (GOLDEN / f"{case}.out").write_bytes(out)
            if csv_bytes is not None:
                (GOLDEN / f"{case}.csv").write_bytes(csv_bytes)
            print(f"wrote {case}")
