"""Fuzz ``cli.main``: any argv and any standard input end in exit 0, 1 or 2.

Arguments are drawn from the subcommand grammar with junk tokens mixed
in, and ``solve`` reads arbitrary JSON (or graph-shaped JSON, or plain
text) from standard input. The caps are set low so that every run stays
small; CSV targets are the null device or unwritable paths.
"""

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from debruijn.cli import main

HERE = Path(__file__).parent
SEQ_FILE = str(HERE / "golden" / "seqs.txt")
MISSING = str(HERE / "no-such-dir" / "x.txt")
CAPS = {"WATCHMAN_MAX_SEQ": "64", "WATCHMAN_MAX_VERTICES": "8"}

ints = st.integers(-1, 5).map(str) | st.sampled_from(["37", "20000", "x", ""])
MAX_SEQ = int(CAPS["WATCHMAN_MAX_SEQ"])
# short sequences, and long ones up to one symbol past WATCHMAN_MAX_SEQ,
# which verify refuses
seqs = st.text(alphabet="0123A", max_size=9) | st.text(
    alphabet="0123A", min_size=10, max_size=MAX_SEQ + 1
)
# A high end above WATCHMAN_MAX_SEQ is a length sweep refuses before it
# verifies a record, as is, above 10**6, a range wider than any budget
# drawn here (at most the default 100,000); a high end between 7 and
# the cap would run a sweep to its budget, up to 100,000 records, too
# slow for one example.
lengths = st.builds(
    "{}..{}".format,
    st.integers(-1, 6),
    st.integers(-1, 6) | st.integers(MAX_SEQ + 1, 10**12),
) | st.sampled_from(["3", "..", "x..y", "5..2"])
paths = st.sampled_from(["", "\0", os.devnull, SEQ_FILE, MISSING])
junk = st.text(max_size=8) | st.sampled_from(["-", "--", "-h", "--seq", "-k", "=1"])

# option -> strategy for its value, or None for a flag
COMMON = {"-a": ints, "-k": ints}
OPTIONS = {
    "gen": {**COMMON, "--algo": st.sampled_from(["fkm", "greedy", "euler", "x"])},
    "graph": {
        **COMMON,
        "--from-seq": seqs,
        "--dot": None,
        "--json": None,
        "--highlight-induced": None,
    },
    "walk": {**COMMON, "--seq": seqs},
    "solve": {**COMMON, "--from-seq": seqs, "--count": None},
    "classify": {**COMMON, "--seq": seqs, "--seq-file": paths},
    "verify": {**COMMON, "--seq": seqs, "--seq-file": paths},
    "sweep": {
        **COMMON,
        "--lengths": lengths,
        "--budget": ints,
        "--csv": st.sampled_from(["", "\0", os.devnull, MISSING]),
    },
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option in draw(st.lists(st.sampled_from(sorted(OPTIONS[command])), max_size=7)):
        argv.append(option)
        if OPTIONS[command][option] is not None:
            argv.append(draw(OPTIONS[command][option]))
    for token in draw(st.lists(junk, max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
small = st.integers(-1, 4) | json_values
graph_like = st.fixed_dictionaries(
    {
        "alphabet": small,
        "order": small,
        "vertices": st.lists(st.text(alphabet="012A", max_size=3), max_size=8)
        | json_values,
        "arcs": st.lists(st.lists(st.integers(-1, 8), max_size=3), max_size=12)
        | json_values,
    },
    optional={
        "provenance": st.fixed_dictionaries(
            {"kind": st.sampled_from(["custom", "generated", "de_bruijn", "x"])},
            optional={"sequence": json_values},
        )
        | json_values
    },
)
stdins = (
    st.one_of(json_values, graph_like).map(json.dumps) | st.text(max_size=20)
)

HUGE_GRAPH = json.dumps(
    {
        "alphabet": 2,
        "order": 14,
        "vertices": [format(i, "014b") for i in range(15000)],
        "arcs": [],
    }
)


@settings(max_examples=300, deadline=None)
@given(argvs(), stdins)
@example(["gen", "-a", "2", "-k", "20000"], "")
@example(["graph", "-a", "2", "-k", "20000"], "")
@example(["walk", "-a", "2", "-k", "20000"], "")
@example(
    ["sweep", "-a", "2", "-k", "2", "--lengths", "2..1000000000000", "--budget", "1"], ""
)
@example(["verify", "--seq", "0", "-a", "2", "-k", "1"], "")
@example(["verify", "--seq", "0" * (MAX_SEQ + 1), "-a", "2", "-k", "3"], "")
@example(["sweep", "-a", "2", "-k", "1", "--lengths", "1..3"], "")
@example(["sweep", "-a", "2", "-k", "1", "--lengths", "65..65"], "")
@example(["solve"], HUGE_GRAPH)
@example(["solve"], '{"alphabet": ' + "9" * 5000 + "}")
@example(["solve"], "[" * 3000)
def test_main_exits_0_1_or_2(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, CAPS), mock.patch(
        "sys.stdin", io.StringIO(stdin_text)
    ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda a: st.tuples(
            st.just(a),
            st.text(alphabet="0123"[:a], min_size=MAX_SEQ + 1, max_size=MAX_SEQ + 1),
            st.integers(1, 5) | st.sampled_from([0, 20000]),
        )
    )
)
def test_verify_refuses_a_sequence_past_the_size_cap(case):
    # valid input one symbol too long: exit 2 before any window is built,
    # whatever order it reaches; an order below 1 or above its length is
    # a domain error, exit 1, found before the cap
    a, text, k = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, CAPS), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = main(["verify", "--seq", text, "-a", str(a), "-k", str(k)])
    if k < 1:
        expected = (1, "watchman: error: order must be at least 1\n")
    elif k > len(text):
        expected = (
            1,
            f"watchman: error: sequence shorter than order: length {len(text)} "
            f"< k = {k}\n",
        )
    else:
        expected = (
            2,
            f"watchman: resource cap: sequence length {MAX_SEQ + 1} exceeds "
            f"size cap {MAX_SEQ}\n",
        )
    assert (code, out.getvalue(), err.getvalue()) == (expected[0], "", expected[1])
