"""Tests of the benchmark itself: span arithmetic, output checks, and a
reduced-size pass of every workload.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

import run
import spans
import worker
import workloads
from debruijn import cli


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]; a second root d
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 6.0, 0],
        ["b", 2.0, 4.0, 1],
        ["c", 7.0, 9.0, 0],
        ["a", 11.0, 12.5, -1],
    ]
    got = spans.self_times(tree)
    assert got == {"root": 3.0, "a": 4.5, "b": 2.0, "c": 2.0}
    assert sum(got.values()) == 10.0 + 1.5
    assert spans.calls(tree) == {"root": 1, "a": 2, "b": 1, "c": 1}


def test_recorder_nests_spans_by_call_order():
    rec = spans.Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    assert [s[3] for s in rec.spans] == [-1, outer]
    assert rec.spans[0][1] <= rec.spans[1][1] <= rec.spans[1][2] <= rec.spans[0][2]


def test_wrappers_sit_where_callers_resolve_names_and_come_off():
    import debruijn.analysis
    import debruijn.watchman

    original = debruijn.watchman.solve_min_walk
    undo = spans.install(spans.Recorder())
    try:
        assert debruijn.analysis.solve_min_walk is not original
        assert debruijn.cli.solve_min_walk is debruijn.analysis.solve_min_walk
        assert debruijn.watchman.solve_min_walk is debruijn.analysis.solve_min_walk
    finally:
        spans.unpatch(undo)
    assert debruijn.analysis.solve_min_walk is original
    assert debruijn.cli.solve_min_walk is original


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_sweep_check_rejects_a_corrupted_record():
    text = _stdout(["sweep", "-a", "2", "-k", "3", "--lengths", "3..6"])
    count, problems = workloads.check_sweep_records(text)
    assert count > 0 and problems == []

    lines = text.splitlines()
    for i, line in enumerate(lines[:-1]):
        rec = json.loads(line)
        if rec["verdict"] == "ProvablyWatchman":
            rec["oracle_optimum"] -= 1
            lines[i] = json.dumps(rec)
            break
    else:
        pytest.fail("no ProvablyWatchman record to corrupt")
    _, problems = workloads.check_sweep_records("\n".join(lines) + "\n")
    assert any("ProvablyWatchman" in p for p in problems)
    assert any("is_watchman" in p for p in problems)


def test_sweep_digest_mismatch_fails_the_pass():
    w = workloads.Workload("sweep-q3", seed=1, smoke=True)
    w.expected_sha256 = "0" * 64
    checker = worker.Checker(w)
    text = _stdout(w.calls[0])
    count, _ = workloads.check_sweep_records(text)
    checker.check([(0, text, 0.0)], count)
    assert checker.failed == checker.attempted == count
    assert any("sha256" in p for p in checker.problems)


def test_solve_check_rejects_a_non_dominating_witness(monkeypatch):
    monkeypatch.setenv("WATCHMAN_MAX_VERTICES", workloads.B6_VERTEX_CAP)
    w = workloads.Workload("solve-b6", seed=1, smoke=True)
    d, optimum = w.sequences[0], w.optima[0]
    payload = json.loads(_stdout(w.calls[0]))
    assert workloads.check_solve(d, json.dumps(payload), optimum) == []

    # the witness's first two vertices alone: too short to dominate 34 vertices
    payload["witness"] = payload["witness"][:2]
    problems = workloads.check_solve(d, json.dumps(payload), optimum)
    assert any("closed dominating walk" in p for p in problems)
    assert any("witness length" in p for p in problems)

    payload = json.loads(_stdout(w.calls[0]))
    payload["optimum"] += 1
    problems = workloads.check_solve(d, json.dumps(payload), optimum)
    assert any("pinned" in p for p in problems)


def test_b6_pool_matches_its_definition():
    pool = workloads.b6_pool()
    assert len(pool) == len(workloads.B6_VERTEX_COUNTS) * workloads.POOL_PER_SIZE
    assert set(pool) == set(workloads.PINNED["solve-b6"]["optimum"])
    from debruijn import generated_subdigraph, parse_sequence

    for d in pool:
        got = generated_subdigraph(parse_sequence(d, 2), workloads.B6_ORDER).vertex_count
        assert got == workloads.generated_vertex_count(tuple(map(int, d)), workloads.B6_ORDER)
        assert 33 <= got <= 44


def test_seed_fixes_the_b6_inputs():
    a = workloads.Workload("solve-b6", seed=7).sequences
    assert a == workloads.Workload("solve-b6", seed=7).sequences
    assert a != workloads.Workload("solve-b6", seed=8).sequences


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_pass(name, trace, monkeypatch, tmp_path):
    monkeypatch.setenv("WATCHMAN_MAX_VERTICES", "24")
    monkeypatch.setattr(worker, "SPANS_DIR", tmp_path)
    raw = worker.measure(name, seed=3, seconds=0.0, trace=trace, smoke=True)
    assert raw["failed"] == 0 and raw["warmup_failed"] == 0, raw["problems"]
    assert raw["attempted"] > 0
    if not trace:
        values, detail = run.end_to_end(raw, (0.1, 0.1))
        assert all(values[m] > 0 for m, _ in run.END_TO_END)
        assert detail["item_samples"] == raw["items_per_pass"] * detail["passes"]
        return
    values, _, problems = run.per_layer(raw)
    assert problems == []
    assert set(m for m, _ in run.PER_LAYER) <= set(values)
    assert values["watchman.solve_min_walk.explored_states"] > 0
    assert (tmp_path / f"spans-{name}.jsonl").is_file()
    assert sys.modules["debruijn.analysis"].solve_min_walk.__module__ == "debruijn.watchman"
