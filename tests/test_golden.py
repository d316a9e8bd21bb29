"""Golden CLI corpus: the exact stdout of fixed ``watchman`` invocations.

Each case runs ``cli.main`` in-process, with its environment variables
set, and compares its stdout byte for byte with ``tests/golden/<name>.out``
(and, for ``--csv``, the written file with ``<name>.csv``). Argument
``{csv}`` is replaced by a temporary path and ``{golden}`` by the corpus
directory. After a deliberate output change, rewrite the corpus with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import os
import sys
from collections import namedtuple
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from debruijn.cli import main
from debruijn.seqcore import gen_eulerian, gen_greedy

GOLDEN = Path(__file__).parent / "golden"

# argv, the corpus file fed to stdin (or None), environment variables to set
Case = namedtuple("Case", "argv stdin env", defaults=(None, {}))

CASES = {
    # README command-line tour
    "tour_gen_fkm": Case(["gen", "-a", "2", "-k", "3"]),
    "tour_gen_greedy": Case(["gen", "-a", "2", "-k", "2", "--algo", "greedy"]),
    "tour_gen_euler": Case(["gen", "-a", "3", "-k", "3", "--algo", "euler"]),
    "gen_euler_order_one": Case(["gen", "-a", "4", "-k", "1", "--algo", "euler"]),
    "tour_walk": Case(["walk", "-a", "2", "-k", "3", "--seq", "1001"]),
    "tour_classify": Case(["classify", "--seq", "0001", "-a", "2", "-k", "3"]),
    "tour_solve_count": Case(
        ["solve", "--from-seq", "01210123", "-a", "4", "-k", "3", "--count"]
    ),
    "graph_full_json": Case(["graph", "-a", "2", "-k", "3"]),
    "graph_full_dot": Case(["graph", "-a", "2", "-k", "3", "--dot"]),
    "graph_seq_json": Case(["graph", "--from-seq", "01210123", "-a", "4", "-k", "3"]),
    "graph_seq_dot": Case(
        ["graph", "--from-seq", "01210123", "-a", "4", "-k", "3", "--dot"]
    ),
    "graph_seq_dot_highlight": Case(
        [
            "graph", "--from-seq", "01210123", "-a", "4", "-k", "3",
            "--dot", "--highlight-induced",
        ]
    ),
    "solve_seq_count_binary": Case(
        ["solve", "--from-seq", "001011", "-a", "2", "-k", "3", "--count"]
    ),
    "solve_custom_stdin": Case(["solve"], "custom_graph.json"),
    "verify_seq_file": Case(
        ["verify", "--seq-file", "{golden}/seqs.txt", "-a", "2", "-k", "3"]
    ),
    "sweep_b2_k3": Case(
        ["sweep", "-a", "2", "-k", "3", "--lengths", "3..8", "--csv", "{csv}"]
    ),
    # a 4-ary sweep whose orbits hold up to 24 necklaces each
    "sweep_a4_k3": Case(
        ["sweep", "-a", "4", "-k", "3", "--lengths", "3..5", "--csv", "{csv}"]
    ),
    # a ternary sweep that the record budget stops inside length 6
    "sweep_a3_k2_budget": Case(
        ["sweep", "-a", "3", "-k", "2", "--lengths", "2..7", "--budget", "150",
         "--csv", "{csv}"]
    ),
}


def run_case(name, csv_path):
    """Exit code, stdout bytes and CSV bytes (or None) of one corpus case."""
    case = CASES[name]
    argv = [
        arg.replace("{golden}", str(GOLDEN)).replace("{csv}", str(csv_path))
        for arg in case.argv
    ]
    saved_stdin = sys.stdin
    if case.stdin is not None:
        sys.stdin = io.StringIO((GOLDEN / case.stdin).read_text(encoding="utf-8"))
    out = io.StringIO()
    try:
        with mock.patch.dict(os.environ, case.env), redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved_stdin
    csv_bytes = csv_path.read_bytes() if "{csv}" in case.argv else None
    return code, out.getvalue().encode("utf-8"), csv_bytes


# sha256 of the stdout of sweeps too long to keep in the corpus; they
# cover many ternary orbits and long binary necklaces with many runs
SWEEP_DIGESTS = {
    "-a 3 -k 3 --lengths 3..8":
        "cbaf146ecac9067acb220526c191fa6659e2db75f93a40f3d3ab960819652dbb",
    "-a 2 -k 4 --lengths 4..12":
        "a7b962d5b927ad85b1cf9cfaa594ff33bd740ee4b8db195f1f26679c0452321a",
    "-a 2 -k 3 --lengths 3..14":
        "ba0371c2142aa596f66e33240c843965f0ef22683769c17f6c175cf0d105e536",
}


@pytest.mark.parametrize("args", sorted(SWEEP_DIGESTS))
def test_sweep_stdout_digest(args):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["sweep", *args.split()])
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert (code, digest) == (0, SWEEP_DIGESTS[args])


# sha256 of the lines "a k text" of gen(a, k), for every a in 2..36 and
# every k >= 1 with a**k <= 4096 (106 cases), a in the outer loop
GEN_EULERIAN_DIGEST = "ec35ee74e2589c9099c527ced7d2c37b3480b7caad62905d37937d003e16e6c3"
# taken from Martin's prefer-smallest loop, before gen_greedy became a
# rotation of gen_fkm
GEN_GREEDY_DIGEST = "8b62501a680bb95095e9dd073c176f3f53babfa7aa12f3da88f7be70c0d0a643"


def gen_digest(gen):
    digest = hashlib.sha256()
    cases = 0
    for a in range(2, 37):
        k = 1
        while a**k <= 4096:
            digest.update(f"{a} {k} {gen(a, k).text}\n".encode("ascii"))
            cases += 1
            k += 1
    return cases, digest.hexdigest()


def test_gen_eulerian_digest():
    assert gen_digest(gen_eulerian) == (106, GEN_EULERIAN_DIGEST)


def test_gen_greedy_digest():
    assert gen_digest(gen_greedy) == (106, GEN_GREEDY_DIGEST)


def test_readme_library_quickstart():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == [
        "4",
        "8",
        "2",
        "True",
        "{'ProvablyNotWatchman:false': 23, 'ProvablyNotWatchman:true': 0, "
        "'ProvablyWatchman:false': 0, 'ProvablyWatchman:true': 3, "
        "'Undetermined:false': 6, 'Undetermined:true': 0}",
    ]


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
