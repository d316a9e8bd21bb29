import errno
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import debruijn
from debruijn import analysis, cli, graphcore, watchman
from debruijn.cli import main
from debruijn.graphcore import generated_subdigraph
from debruijn.seqcore import parse_sequence


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestGen:
    def test_fkm_default(self, capsys):
        code, out, _ = run(capsys, "gen", "-a", "2", "-k", "3")
        assert code == 0
        assert out == "00010111\n"

    def test_greedy(self, capsys):
        code, out, _ = run(capsys, "gen", "-a", "2", "-k", "2", "--algo", "greedy")
        assert (code, out) == (0, "1100\n")

    def test_euler(self, capsys):
        code, out, _ = run(capsys, "gen", "-a", "3", "-k", "2", "--algo", "euler")
        assert code == 0
        assert len(out.strip()) == 9

    def test_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "gen", "-a", "2", "-k", "20")
        assert code == 2
        assert "cap" in err

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("WATCHMAN_MAX_SEQ", "8")
        code, _, err = run(capsys, "gen", "-a", "2", "-k", "4")
        assert code == 2
        monkeypatch.setenv("WATCHMAN_MAX_SEQ", "16")
        code, out, _ = run(capsys, "gen", "-a", "2", "-k", "4")
        assert code == 0 and len(out.strip()) == 16

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("WATCHMAN_MAX_SEQ", "lots")
        code, _, err = run(capsys, "gen", "-a", "2", "-k", "2")
        assert code == 1
        assert "WATCHMAN_MAX_SEQ" in err


class TestWalk:
    def test_known_example(self, capsys):
        code, out, _ = run(capsys, "walk", "-a", "2", "-k", "3", "--seq", "1001")
        assert (code, out) == (0, "100,001,011,110\n")

    def test_default_seed(self, capsys):
        code, out, _ = run(capsys, "walk", "-a", "3", "-k", "2")
        assert code == 0
        assert len(out.strip().split(",")) == 3

    def test_bad_seed(self, capsys):
        code, _, err = run(capsys, "walk", "-a", "2", "-k", "3", "--seq", "1101")
        assert code == 1
        assert "de Bruijn" in err

    def test_empty_seed_is_an_error_not_the_default(self, capsys):
        code, out, err = run(capsys, "walk", "-a", "2", "-k", "3", "--seq", "")
        assert (code, out) == (1, "")
        assert "empty sequence text" in err


class TestGraph:
    def test_json_default(self, capsys):
        code, out, _ = run(capsys, "graph", "-a", "2", "-k", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["vertices"] == ["00", "01", "10", "11"]
        assert len(obj["arcs"]) == 8

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "-a", "2", "-k", "2", "--dot")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 8

    def test_from_seq_highlight(self, capsys):
        code, out, _ = run(
            capsys,
            "graph", "--from-seq", "01210123", "-a", "4", "-k", "3",
            "--dot", "--highlight-induced",
        )
        assert code == 0
        assert out.count("style=bold") == 8

    def test_highlight_needs_dot_and_seq(self, capsys):
        code, _, err = run(
            capsys, "graph", "-a", "2", "-k", "2", "--dot", "--highlight-induced"
        )
        assert code == 1 and "--from-seq" in err
        code, _, err = run(
            capsys,
            "graph", "--from-seq", "0011", "-a", "2", "-k", "2", "--highlight-induced",
        )
        assert code == 1 and "--dot" in err

    def test_empty_from_seq_is_an_error_not_the_full_graph(self, capsys):
        code, out, err = run(capsys, "graph", "-a", "2", "-k", "3", "--from-seq", "")
        assert (code, out) == (1, "")
        assert "empty sequence text" in err


class TestSolve:
    def test_from_seq_with_count(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--from-seq", "01210123", "-a", "4", "-k", "3", "--count"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["optimum"] == 8
        assert obj["count"] == 2
        assert len(obj["walks"]) == 2
        assert all(len(w) == 8 for w in obj["walks"])

    def test_stdin_round_trip_matches_direct_path(self, capsys, monkeypatch):
        code, graph_json, _ = run(
            capsys, "graph", "--from-seq", "01210123", "-a", "4", "-k", "3"
        )
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(graph_json))
        code, via_stdin, _ = run(capsys, "solve")
        assert code == 0
        code, direct, _ = run(
            capsys, "solve", "--from-seq", "01210123", "-a", "4", "-k", "3"
        )
        assert code == 0
        a, b = json.loads(via_stdin), json.loads(direct)
        a.pop("explored_states")
        b.pop("explored_states")
        assert json.dumps(a) == json.dumps(b)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("arcs", [[0.5, 1]]),
            ("arcs", [[True, 1]]),
            ("arcs", [["0", 1]]),
            ("arcs", {"0": 1}),
            ("vertices", [0, 1]),
            ("vertices", "01"),
            ("alphabet", 2.0),
            ("order", True),
            ("provenance", {"kind": "custom", "sequence": 5}),
            ("provenance", {"kind": "generated", "sequence": [1, {"x": None}]}),
            # "01" generates all four arcs on these two vertices
            ("provenance", {"kind": "generated", "sequence": "01"}),
            pytest.param(
                None,
                {
                    "alphabet": 2,
                    "order": 2,
                    "vertices": ["00", "11"],
                    "arcs": [],
                    "provenance": {"kind": "generated", "sequence": "zz!"},
                },
                id="generated-by-foreign-text",
            ),
            pytest.param(
                None,
                {
                    "alphabet": 2,
                    "order": 2,
                    "vertices": ["00", "11"],
                    "arcs": [],
                    "provenance": {"kind": "de_bruijn"},
                },
                id="de_bruijn-but-not-full",
            ),
        ],
    )
    def test_malformed_graph_json_is_a_domain_error(
        self, capsys, monkeypatch, field, value
    ):
        graph = {"alphabet": 2, "order": 1, "vertices": ["0", "1"], "arcs": [[0, 1]]}
        graph = value if field is None else {**graph, field: value}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(graph)))
        code, out, err = run(capsys, "solve")
        assert (code, out) == (1, "")
        assert err.startswith("watchman: error:") and "Traceback" not in err

    def test_full_graph_json_loads_back(self, capsys, monkeypatch):
        code, graph_json, _ = run(capsys, "graph", "-a", "2", "-k", "3")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(graph_json))
        code, out, err = run(capsys, "solve")
        assert (code, err) == (0, "")
        assert json.loads(out)["optimum"] == 4

    def test_repeated_arc_solves_like_a_single_one(self, capsys, monkeypatch):
        outputs = []
        for arcs in ([[0, 1], [1, 1]], [[0, 1], [0, 1], [1, 1]]):
            graph = {"alphabet": 2, "order": 1, "vertices": ["0", "1"], "arcs": arcs}
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(graph)))
            code, out, _ = run(capsys, "solve")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_missing_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, _, err = run(capsys, "solve")
        assert code == 1

    def test_non_utf8_stdin_is_a_domain_error(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff{"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "solve")
        assert (code, out) == (1, "")
        assert err.startswith("watchman: error: cannot read standard input")
        assert "Traceback" not in err

    def test_empty_from_seq_does_not_read_stdin(self, capsys, monkeypatch):
        graph = {"alphabet": 2, "order": 1, "vertices": ["0", "1"], "arcs": [[0, 1]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(graph)))
        code, out, err = run(capsys, "solve", "--from-seq", "", "-a", "2", "-k", "2")
        assert (code, out) == (1, "")
        assert "empty sequence text" in err

    def test_from_seq_needs_dimensions(self, capsys):
        code, _, err = run(capsys, "solve", "--from-seq", "0011")
        assert code == 1 and "-a" in err

    def test_vertex_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WATCHMAN_MAX_VERTICES", "4")
        code, _, err = run(
            capsys, "solve", "--from-seq", "01210123", "-a", "4", "-k", "3"
        )
        assert code == 2 and "cap" in err

    def test_vertex_cap_env_must_be_positive(self, capsys, monkeypatch):
        monkeypatch.setenv("WATCHMAN_MAX_VERTICES", "0")
        code, out, err = run(capsys, "solve", "--from-seq", "01", "-a", "2", "-k", "2")
        assert (code, out) == (1, "")
        assert err == "watchman: error: WATCHMAN_MAX_VERTICES must be positive\n"

    @pytest.mark.parametrize("alphabet", [2, "two"], ids=["valid", "bad-alphabet"])
    def test_over_cap_graph_json_is_refused_before_any_label_is_ranked(
        self, capsys, monkeypatch, alphabet
    ):
        def no_ranking(text, alphabet):
            raise AssertionError("ranked a label of an over-cap graph")

        monkeypatch.setattr(graphcore, "_text_rank", no_ranking)
        vertices = [format(i, "018b") for i in range(25)]
        graph = {"alphabet": alphabet, "order": 18, "vertices": vertices, "arcs": []}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(graph)))
        code, out, err = run(capsys, "solve")
        assert (code, out) == (2, "")
        assert err == (
            "watchman: resource cap: digraph has 25 vertices, oracle cap is 24 "
            "(worst-case state space ~25 * 2^25)\n"
        )

    def test_count_without_a_closed_dominating_walk_is_zero(self, capsys, monkeypatch):
        # each vertex sees only itself, and no walk joins them
        graph = {"alphabet": 2, "order": 2, "vertices": ["00", "01"], "arcs": [[0, 0]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(graph)))
        code, out, err = run(capsys, "solve", "--count")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert (obj["optimum"], obj["witness"]) == (None, None)
        assert (obj["count"], obj["walks"]) == (0, [])

    @pytest.mark.parametrize(
        "provenance,message",
        [
            ({"kind": "mystery"}, "unknown provenance kind 'mystery'"),
            ("de_bruijn", "provenance must be an object with a 'kind' field"),
            ({"sequence": "01"}, "provenance must be an object with a 'kind' field"),
        ],
        ids=["unknown-kind", "not-an-object", "no-kind"],
    )
    def test_bad_provenance_is_one_error_line(
        self, capsys, monkeypatch, provenance, message
    ):
        graph = {"alphabet": 2, "order": 1, "vertices": ["0", "1"], "arcs": []}
        graph["provenance"] = provenance
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(graph)))
        code, out, err = run(capsys, "solve")
        assert (code, out) == (1, "")
        assert err == f"watchman: error: {message}\n"


class TestClassify:
    def test_constant_run_example(self, capsys):
        code, out, _ = run(capsys, "classify", "--seq", "0001", "-a", "2", "-k", "3")
        assert (code, out) == (0, "ProvablyNotWatchman (ConstantRun)\n")

    def test_seq_file(self, capsys, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("# demo\n0001\n0011\n")
        code, out, _ = run(
            capsys, "classify", "--seq-file", str(path), "-a", "2", "-k", "3"
        )
        assert code == 0
        assert out.splitlines() == [
            "ProvablyNotWatchman (ConstantRun)",
            "ProvablyWatchman (DistinctWindows)",
        ]

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "classify", "-a", "2", "-k", "3")
        assert code == 1
        code, _, err = run(
            capsys, "classify", "--seq", "0001", "--seq-file", "x", "-a", "2", "-k", "3"
        )
        assert code == 1

    def test_empty_seq_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("0011\n")
        code, out, err = run(
            capsys,
            "classify", "--seq", "", "--seq-file", str(path), "-a", "2", "-k", "3",
        )
        assert (code, out) == (1, "")
        code, out, err = run(capsys, "classify", "--seq", "", "-a", "2", "-k", "3")
        assert (code, out) == (1, "")
        assert "empty sequence text" in err

    def test_invalid_symbol_exit(self, capsys):
        code, _, err = run(capsys, "classify", "--seq", "102", "-a", "2", "-k", "2")
        assert code == 1
        assert "position 2" in err

    def test_seq_file_of_comments_only_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("# nothing here\n\n   \n# still nothing\n")
        code, out, err = run(
            capsys, "classify", "--seq-file", str(path), "-a", "2", "-k", "3"
        )
        assert (code, out) == (1, "")
        assert err == f"watchman: error: no sequences in {path}\n"


class TestVerify:
    def test_record_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--seq", "01210123", "-a", "4", "-k", "3"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["induced_length"] == 8
        assert obj["oracle_optimum"] == 8
        assert obj["is_watchman"] is True
        assert obj["verdict"] == "Undetermined"

    def test_seq_file_emits_one_record_per_line(self, capsys, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("0001\n0011\n")
        code, out, _ = run(
            capsys, "verify", "--seq-file", str(path), "-a", "2", "-k", "3"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["sequence"] for r in records] == ["0001", "0011"]
        assert [r["is_watchman"] for r in records] == [False, True]

    def test_unreadable_seq_file(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run(
            capsys, "verify", "--seq-file", missing, "-a", "2", "-k", "3"
        )
        assert (code, out) == (1, "")
        assert "missing.txt" in err and "Traceback" not in err

    def test_cap_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("WATCHMAN_MAX_SEQ", "3")
        code, out, err = run(capsys, "verify", "--seq", "0011", "-a", "2", "-k", "3")
        assert (code, out) == (2, "")
        assert err == "watchman: resource cap: sequence length 4 exceeds size cap 3\n"
        monkeypatch.setenv("WATCHMAN_MAX_SEQ", "4")  # a sequence at the cap is verified
        code, out, err = run(capsys, "verify", "--seq", "0011", "-a", "2", "-k", "3")
        assert (code, err) == (0, "")
        assert json.loads(out)["is_watchman"] is True

    @pytest.mark.parametrize(
        "k,lines,message",
        [
            ("0", ["0" * 5000], "order must be at least 1"),
            ("3", ["0" * 5000, "01"], "sequence shorter than order: length 2 < k = 3"),
        ],
    )
    def test_order_is_checked_before_the_length_cap(self, capsys, tmp_path, k, lines, message):
        path = tmp_path / "long.seq"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(
            capsys, "verify", "-a", "2", "-k", k, "--seq-file", str(path)
        )
        assert (code, out, err) == (1, "", f"watchman: error: {message}\n")

    @pytest.mark.parametrize("cap", [None, "9"])
    def test_long_sequence_is_refused_before_its_windows(
        self, capsys, monkeypatch, tmp_path, cap
    ):
        # one over-long sequence in a file refuses the whole file, before
        # any window set is built or any record is printed
        def no_windows(d, k):
            raise AssertionError("built the window set of a refused input")

        monkeypatch.setattr(analysis, "window_set", no_windows)
        monkeypatch.setattr(cli, "window_set", no_windows)
        limit = 4096
        if cap is not None:
            monkeypatch.setenv("WATCHMAN_MAX_SEQ", cap)
            limit = int(cap)
        path = tmp_path / "seqs.txt"
        path.write_text(f"0011\n{'1' * limit}0\n0001\n")
        code, out, err = run(
            capsys, "verify", "--seq-file", str(path), "-a", "2", "-k", "3"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"watchman: resource cap: sequence length {limit + 1} exceeds "
            f"size cap {limit}\n"
        )

    def test_seq_file_runs_the_oracle_once_per_window_set(
        self, capsys, monkeypatch, tmp_path
    ):
        # the three rotations of 0011 have one set of 2-windows; 0001 has another
        texts = ["0011", "0110", "0001", "1100"]
        singles = [
            run(capsys, "verify", "--seq", t, "-a", "2", "-k", "3")[1] for t in texts
        ]
        runs, setups = [], []
        postman = analysis._postman_optimum
        monkeypatch.setattr(
            analysis,
            "_postman_optimum",
            lambda w, a, k: runs.append(w) or postman(w, a, k),
        )
        monkeypatch.setattr(
            watchman, "_SearchSetup", lambda g, cap: setups.append(g)
        )  # no exact search runs
        path = tmp_path / "seqs.txt"
        path.write_text("\n".join(texts) + "\n")
        code, out, err = run(
            capsys, "verify", "--seq-file", str(path), "-a", "2", "-k", "3"
        )
        assert (code, err) == (0, "")
        assert out == "".join(singles)
        assert len(runs) == 2
        assert setups == []

    def test_seq_file_memo_holds_only_optima(self, capsys, monkeypatch, tmp_path):
        memos, real = [], cli.verify

        def recording_verify(d, k, solved):
            memos.append(solved)
            return real(d, k, solved)

        monkeypatch.setattr(cli, "verify", recording_verify)
        path = tmp_path / "seqs.txt"
        path.write_text("0011\n0110\n0001\n0101\n")
        code, _, err = run(
            capsys, "verify", "--seq-file", str(path), "-a", "2", "-k", "3"
        )
        assert (code, err) == (0, "")
        assert len(memos) == 4 and all(m is memos[0] for m in memos)  # one memo
        # one postman optimum per window set, and nothing else
        assert sorted(memos[0].values()) == [2, 3, 4]
        assert all(type(v) is int for v in memos[0].values())

    def test_length_one_sequence_at_order_one(self, capsys):
        # the induced walk is the stationary walk, which is minimum
        code, out, err = run(capsys, "verify", "--seq", "0", "-a", "2", "-k", "1")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert (obj["verdict"], obj["reason"]) == ("ProvablyWatchman", "DistinctWindows")
        assert obj["induced_length"] == obj["oracle_optimum"] == 0
        assert obj["is_watchman"] is True


class TestSweep:
    def test_jsonl_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            "sweep", "-a", "2", "-k", "2", "--lengths", "2..3", "--csv", str(csv_path),
        )
        assert code == 0
        lines = out.strip().splitlines()
        *records, summary = [json.loads(line) for line in lines]
        assert len(records) == 7
        assert json.loads(json.dumps(summary))["summary"]["total"] == 7
        assert any(r["sequence"] == "01" for r in records)
        csv_lines = csv_path.read_text().strip().splitlines()
        assert csv_lines[0].startswith("sequence,length,")
        assert len(csv_lines) == 8

    @pytest.mark.parametrize("target", ["missing/report.csv", ".", None])
    def test_unwritable_csv_is_a_domain_error(self, capsys, tmp_path, target):
        csv_path = "" if target is None else str(tmp_path / target)
        code, out, err = run(
            capsys,
            "sweep", "-a", "2", "-k", "2", "--lengths", "2..2", "--csv", csv_path,
        )
        assert (code, out) == (1, "")
        assert err.startswith("watchman: error: cannot write")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "args,exit_code",
        [
            (["-a", "2", "-k", "3", "--lengths", "2..3"], 1),  # below the order
            (["-a", "1", "-k", "2", "--lengths", "2..3"], 1),  # bad alphabet
            (["-a", "2", "-k", "2", "--lengths", "2..3", "--budget", "0"], 1),
            (["-a", "2", "-k", "2", "--lengths", "2..9", "--budget", "3"], 2),
            (["-a", "2", "-k", "1", "--lengths", "4097..4097"], 2),  # size cap
            (["-a", "2", "-k", "0", "--lengths", "3..4"], 1),  # order below 1
            (["-a", "2", "-k", "-3", "--lengths", "3..4"], 1),
            # the order is checked before the size cap and the record budget
            (["-a", "2", "-k", "0", "--lengths", "5000..5000"], 1),
            (["-a", "2", "-k", "0", "--lengths", "1..200000"], 1),
            # lengths below the order are checked before the record budget
            (["-a", "2", "-k", "3", "--lengths", "1..200000"], 1),
        ],
    )
    def test_rejected_sweep_leaves_the_csv_alone(self, capsys, tmp_path, args, exit_code):
        csv_path = tmp_path / "report.csv"
        csv_path.write_bytes(b"keep\n")
        code, out, _ = run(capsys, "sweep", *args, "--csv", str(csv_path))
        assert (code, out) == (exit_code, "")
        assert csv_path.read_bytes() == b"keep\n"

    def test_one_length_is_a_range_of_one(self, capsys):
        code, out, err = run(capsys, "sweep", "-a", "2", "-k", "3", "--lengths", "5")
        assert (code, err) == (0, "")
        _, ranged, _ = run(capsys, "sweep", "-a", "2", "-k", "3", "--lengths", "5..5")
        assert out == ranged
        assert json.loads(out.splitlines()[-1])["summary"]["lengths"] == [5]

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "sweep", "-a", "2", "-k", "2", "--lengths", "3..2")
        assert code == 1
        code, _, err = run(capsys, "sweep", "-a", "2", "-k", "2", "--lengths", "x..y")
        assert code == 1

    def test_range_wider_than_budget_is_a_cap_error(self, capsys):
        code, out, err = run(
            capsys,
            "sweep", "-a", "2", "-k", "2", "--lengths", "2..1000000000000",
            "--budget", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("watchman: resource cap: length range 2..1000000000000")
        assert "record budget of 1" in err

    def test_order_one_sweep_from_length_one(self, capsys):
        code, out, err = run(capsys, "sweep", "-a", "2", "-k", "1", "--lengths", "1..3")
        assert (code, err) == (0, "")
        *records, summary = [json.loads(line) for line in out.splitlines()]
        assert [r["sequence"] for r in records[:2]] == ["0", "1"]
        assert all(r["is_watchman"] for r in records[:2])
        assert summary["summary"]["cells"]["ProvablyWatchman:true"] == 2
        assert summary["summary"]["cells"]["ProvablyNotWatchman:false"] == 7

    @pytest.mark.parametrize(
        "lengths,cap", [("4097..4097", None), ("1000000000..1000000000", None), ("9..9", "8")]
    )
    def test_length_above_the_size_cap_is_a_cap_error(
        self, capsys, monkeypatch, lengths, cap
    ):
        # rejected before a word of that length is built
        if cap is not None:
            monkeypatch.setenv("WATCHMAN_MAX_SEQ", cap)
        code, out, err = run(capsys, "sweep", "-a", "2", "-k", "1", "--lengths", lengths)
        assert (code, out) == (2, "")
        assert err.startswith(f"watchman: resource cap: sweep length {lengths.split('..')[0]}")
        assert f"size cap {cap or 4096}" in err

    def test_length_at_the_size_cap_is_swept(self, capsys, monkeypatch):
        monkeypatch.setenv("WATCHMAN_MAX_SEQ", "8")
        code, out, _ = run(capsys, "sweep", "-a", "2", "-k", "1", "--lengths", "8..8")
        assert code == 0
        assert json.loads(out.splitlines()[-1])["summary"]["total"] == 36

    def test_budget_must_be_positive(self, capsys):
        code, _, err = run(
            capsys, "sweep", "-a", "2", "-k", "2", "--lengths", "2..2", "--budget", "0"
        )
        assert code == 1 and "budget" in err


# a binary sequence whose order-20 subdigraph has thousands of vertices
_LONG = "".join(random.Random(23).choices("01", k=2000))


@pytest.fixture
def builds(monkeypatch):
    """The sequence text of each generated_subdigraph call, counted at
    every module global that names it."""
    calls = []
    for module in (debruijn, cli, graphcore):
        build = module.generated_subdigraph
        monkeypatch.setattr(
            module,
            "generated_subdigraph",
            lambda d, k, build=build: calls.append(d.text) or build(d, k),
        )
    return calls


class TestCapBeforeBuild:
    """A subdigraph a sequence generates is W x {0..a-1}, so an input whose
    a * |W| vertices do not fit solve's vertex cap is refused before that
    subdigraph is built; verify obeys no vertex cap and builds none."""

    @pytest.mark.parametrize("option", ["--seq", "--from-seq"])
    def test_over_cap_sequence_is_never_built(self, capsys, builds, option):
        command = "verify" if option == "--seq" else "solve"
        code, out, err = run(capsys, command, option, _LONG, "-a", "2", "-k", "20")
        if command == "verify":
            assert (code, err, builds) == (0, "", [])
            assert json.loads(out)["sequence"] == _LONG
            return
        n = generated_subdigraph(parse_sequence(_LONG, 2), 20).vertex_count
        assert (code, out, builds) == (2, "", [])
        assert err == (
            f"watchman: resource cap: digraph has {n} vertices, oracle cap is 24 "
            f"(worst-case state space ~{n} * 2^{n})\n"
        )

    def test_provenance_of_another_size_is_never_built(
        self, capsys, monkeypatch, builds
    ):
        graph = {"alphabet": 2, "order": 20, "vertices": ["0" * 20], "arcs": []}
        graph["provenance"] = {"kind": "generated", "sequence": _LONG}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(graph)))
        code, out, err = run(capsys, "solve")
        assert (code, out, builds) == (1, "", [])
        assert err == (
            "watchman: error: graph is not the subdigraph its provenance "
            "sequence generates\n"
        )

    def test_inputs_that_fit_are_built_once(self, capsys, monkeypatch, builds):
        graph = generated_subdigraph(parse_sequence("0011", 2), 3).to_json()
        for command, option in [("verify", "--seq"), ("solve", "--from-seq")]:
            assert run(capsys, command, option, "0011", "-a", "2", "-k", "3")[0] == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(graph)))
        assert run(capsys, "solve")[0] == 0
        # verify checks its walk on window ranks and builds nothing; solve
        # builds from --from-seq, and from JSON builds the provenance's
        # subdigraph to compare
        assert builds == ["0011"] * 2


class TestVertexCapIsSolveOnly:
    """WATCHMAN_MAX_VERTICES caps solve's exact search; verify and sweep
    run no search, so their output does not depend on it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--seq-file", "{golden}/seqs.txt", "-a", "2", "-k", "3"],
            ["verify", "--seq", _LONG, "-a", "2", "-k", "20"],
            ["sweep", "-a", "4", "-k", "3", "--lengths", "3..6", "--csv", "{csv}"],
            ["sweep", "-a", "5", "-k", "2", "--lengths", "2..5", "--csv", "{csv}"],
        ],
        ids=["verify-file", "verify-long", "sweep-a4", "sweep-a5"],
    )
    def test_output_is_byte_identical_at_cap_one(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        golden = Path(__file__).parent / "golden"
        outputs = []
        for cap in (None, "1"):
            if cap is not None:
                monkeypatch.setenv("WATCHMAN_MAX_VERTICES", cap)
            csv_path = tmp_path / f"report-{cap}.csv"
            args = [
                a.replace("{golden}", str(golden)).replace("{csv}", str(csv_path))
                for a in argv
            ]
            code, out, err = run(capsys, *args)
            assert (code, err) == (0, "")
            csv_bytes = csv_path.read_bytes() if "{csv}" in argv else None
            outputs.append((out.encode("utf-8"), csv_bytes))
        assert outputs[0] == outputs[1]
        # the cap is still read, and solve still obeys it
        code, _, err = run(capsys, "solve", "--from-seq", "01", "-a", "2", "-k", "2")
        assert code == 2 and "oracle cap is 1" in err


class TestHugeIntegers:
    """Values past Python's int-to-str digit limit are named by their inputs."""

    @pytest.mark.parametrize("command", ["gen", "graph", "walk"])
    def test_huge_order_is_a_cap_error(self, capsys, command):
        code, out, err = run(capsys, command, "-a", "2", "-k", "20000")
        assert (code, out) == (2, "")
        assert err.startswith("watchman: resource cap: a^k = 2^")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["graph", "--from-seq", "012"], "sequence shorter than order"),
            (["solve", "--from-seq", "012"], "sequence shorter than order"),
            (["walk", "--seq", "012"], "seed is not a de Bruijn sequence"),
        ],
        ids=["graph", "solve", "walk"],
    )
    def test_huge_order_on_a_short_sequence_fails_fast(self, argv, message):
        # a**k for k = 10**8 takes minutes; k is checked against the
        # sequence first
        src = str(Path(debruijn.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "debruijn.cli", *argv, "-a", "3", "-k", "100000000"],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(f"watchman: error: {message}")

    def test_huge_custom_graph_is_a_cap_error(self, capsys, monkeypatch):
        n = 15000
        graph = {
            "alphabet": 2,
            "order": 14,
            "vertices": [format(i, "014b") for i in range(n)],
            "arcs": [],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(graph)))
        code, out, err = run(capsys, "solve")
        assert (code, out) == (2, "")
        assert f"~{n} * 2^{n}" in err

    @pytest.mark.parametrize("order", [4097, 200_000])
    def test_graph_order_above_the_size_cap_is_a_cap_error(
        self, capsys, monkeypatch, order
    ):
        # refused before its one label, of quadratic cost, is ranked
        graph = {"alphabet": 36, "order": order, "vertices": ["Z" * order], "arcs": []}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(graph)))
        code, out, err = run(capsys, "solve")
        assert (code, out) == (2, "")
        assert err == f"watchman: resource cap: order {order} exceeds cap 4096\n"

    def test_graph_order_at_the_size_cap_is_solved(self, capsys, monkeypatch):
        graph = {"alphabet": 36, "order": 4096, "vertices": ["Z" * 4096], "arcs": []}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(graph)))
        code, out, err = run(capsys, "solve")
        assert (code, err) == (0, "")
        assert json.loads(out)["optimum"] == 0

    def test_huge_json_integer_is_invalid_json(self, capsys, monkeypatch):
        text = '{"alphabet": ' + "9" * 5000 + "}"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "solve")
        assert (code, out) == (1, "")
        assert err.startswith("watchman: error: invalid graph JSON")

    def test_deeply_nested_json_is_invalid_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 3000))
        code, out, err = run(capsys, "solve")
        assert (code, out) == (1, "")
        assert err.startswith("watchman: error: invalid graph JSON")
        assert err.count("\n") == 1


class TestStartUp:
    def test_cli_import_loads_no_dataclasses_inspect_or_typing(self):
        # every watchman command is a fresh process; -S keeps site's .pth
        # hooks from loading these modules before the package does
        src = str(Path(debruijn.__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import debruijn.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "[]\n"


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 1
        assert "invalid choice" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "gen", "-a", "2", "-k", "2", "--nope")
        assert code == 1

    def test_missing_required(self, capsys):
        code, _, err = run(capsys, "gen", "-a", "2")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestOutOfMemory:
    """Running out of memory is a resource cap: exit 2, one line, no traceback."""

    @pytest.mark.parametrize("name", ["cmd_solve", "solve_min_walk"])
    def test_memory_error_exits_2(self, capsys, monkeypatch, name):
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, name, out_of_memory)
        code, out, err = run(capsys, "solve", "--from-seq", "0011", "-a", "2", "-k", "3")
        assert (code, out, err) == (2, "", "watchman: resource cap: out of memory\n")


class _Full(io.RawIOBase):
    """A writable stream on a full disk: every write fails."""

    def writable(self):
        return True

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestWriteFailures:
    """A failed write exits 1 with one error line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "-a", "2", "-k", "3"],  # print
            ["graph", "-a", "2", "-k", "2", "--dot"],  # sys.stdout.write
            ["sweep", "-a", "2", "-k", "2", "--lengths", "2..3"],
        ],
        ids=["gen", "graph", "sweep"],
    )
    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_failed_stdout_is_an_error_line(self, capsys, monkeypatch, argv, failing):
        class FullStdout(io.StringIO):
            def fail(self, *args):
                raise OSError(errno.ENOSPC, "No space left on device")

        stdout = FullStdout()
        setattr(stdout, failing, stdout.fail)  # a flush failure is buffered output
        monkeypatch.setattr("sys.stdout", stdout)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err == (
            "watchman: error: cannot write standard output: "
            "[Errno 28] No space left on device\n"
        )

    def test_closed_stdout_is_an_error_line(self, capsys, monkeypatch):
        # a process started with descriptor 1 closed has no sys.stdout
        monkeypatch.setattr("sys.stdout", None)
        code, _, err = run(capsys, "gen", "-a", "2", "-k", "3")
        assert (code, err) == (1, "watchman: error: standard output is closed\n")

    def test_failed_csv_write_is_an_error_line(self, capsys, monkeypatch):
        opened = []

        def open_full(path):
            fh = io.TextIOWrapper(io.BufferedWriter(_Full()), encoding="utf-8")
            opened.append(fh)
            return fh

        monkeypatch.setattr(cli, "_open_csv", open_full)
        code, out, err = run(
            capsys, "sweep", "-a", "2", "-k", "3", "--lengths", "3..4", "--csv", "x.csv"
        )
        assert code == 1
        assert json.loads(out.splitlines()[-1])["summary"]["total"] == 10  # all lines
        assert err == (
            "watchman: error: cannot write x.csv: [Errno 28] No space left on device\n"
        )
        assert opened[0].closed

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "-a", "2", "-k", "3"],  # fails at main's flush
            ["graph", "-a", "2", "-k", "10"],  # 38 kB: fails inside print
        ],
        ids=["flush", "write"],
    )
    def test_closed_pipe_is_an_error_line(self, argv):
        src = str(Path(debruijn.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: every write fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "debruijn.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=30,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == (
            "watchman: error: cannot write standard output: [Errno 32] Broken pipe\n"
        )
