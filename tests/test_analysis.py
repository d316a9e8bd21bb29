import csv
import hashlib
import io
import itertools
import json
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import oracles

from debruijn import (
    DomainError,
    InvariantViolation,
    ResourceCapError,
    analysis,
    graphcore,
    watchman,
)
from debruijn.analysis import (
    Classification,
    Verdict,
    VerificationRecord,
    classify,
    is_doubled,
    rotation_representatives,
    sweep,
    verify,
)
from debruijn.graphcore import generated_subdigraph
from debruijn.seqcore import (
    Alphabet,
    CyclicSequence,
    necklaces,
    parse_sequence,
    window_set,
)
from debruijn.watchman import enumerate_min_walks, induced_walk


@st.composite
def sequences_with_order(draw):
    a = draw(st.integers(2, 4))
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k, 7))
    syms = tuple(draw(st.integers(0, a - 1)) for _ in range(n))
    return CyclicSequence(syms, Alphabet(a)), k


class TestPredicates:
    def test_constant_run(self):
        assert classify(parse_sequence("0001", 2), 3) is Classification.CONSTANT_RUN
        assert classify(parse_sequence("0101", 2), 2) is not Classification.CONSTANT_RUN
        assert analysis._longest_run(parse_sequence("0001", 2)) == (3, 3)
        assert analysis._longest_run(parse_sequence("0101", 2)) == (1, 1)

    def test_constant_run_crosses_the_seam(self):
        # 1001 read cyclically has the 2-run 1,1 at positions 3,0
        assert analysis._longest_run(parse_sequence("1001", 2)) == (2, 2)
        assert oracles.has_constant_window((1, 0, 0, 1), 2, cyclic=True)
        assert not oracles.has_constant_window((0, 1, 0), 2, cyclic=False)
        assert analysis._longest_run(parse_sequence("010", 2)) == (1, 2)
        assert analysis._classify(parse_sequence("010", 2), 2, None) == (
            Classification.CONSTANT_RUN,
            True,  # seam only
        )

    @pytest.mark.parametrize("a", [2, 3])
    def test_constant_runs_match_brute_force(self, a):
        alphabet = Alphabet(a)
        for n in range(1, 9):
            for syms in itertools.product(range(a), repeat=n):
                seq = CyclicSequence(syms, alphabet)
                for k in range(1, n + 1):
                    cyclic = oracles.has_constant_window(syms, k, cyclic=True)
                    assert (analysis._longest_run(seq)[1] >= k) == cyclic, (syms, k)
                    # the seam flag is the linear scan of the same pass
                    classification, seam_only = analysis._classify(seq, k, None)
                    assert (classification is Classification.CONSTANT_RUN) == (
                        cyclic and n > 1
                    ), (syms, k)
                    assert seam_only == (
                        classification is Classification.CONSTANT_RUN
                        and not oracles.has_constant_window(syms, k, cyclic=False)
                    ), (syms, k)

    def test_constant_run_scan_is_linear(self):
        n = 100_000
        near_constant = CyclicSequence((0,) * (n - 1) + (1,), Alphabet(2))
        assert analysis._longest_run(near_constant) == (n - 1, n - 1)
        assert classify(near_constant, n - 1) is Classification.CONSTANT_RUN
        across_the_seam = oracles.rotate(near_constant, n // 2)
        assert analysis._longest_run(across_the_seam) == (n // 2, n - 1)
        assert classify(across_the_seam, n - 1) is Classification.CONSTANT_RUN
        assert analysis._longest_run(CyclicSequence((1,) * n, Alphabet(2))) == (n, n)

    def test_constant_run_needs_enough_symbols(self):
        with pytest.raises(DomainError):
            classify(parse_sequence("01", 2), 3)

    def test_doubled(self):
        assert is_doubled(parse_sequence("0101", 2), 2)
        assert not is_doubled(parse_sequence("0101", 2), 3)  # halves shorter than k
        assert not is_doubled(parse_sequence("0110", 2), 2)
        assert not is_doubled(parse_sequence("010", 2), 2)  # odd length
        for k in (0, -3):
            with pytest.raises(DomainError, match="order must be at least 1"):
                is_doubled(parse_sequence("0101", 2), k)
        with pytest.raises(DomainError, match="shorter than order"):
            is_doubled(parse_sequence("0101", 2), 5)

    def test_distinct_windows(self):
        for text, a, k, expected in [
            ("0123", 4, 2, True),
            ("01210123", 4, 3, False),
            ("00", 2, 2, False),
        ]:
            seq = parse_sequence(text, a)
            windows = oracles.cyclic_windows(seq.symbols, k - 1)
            assert (len(set(windows)) == len(windows)) == expected, text
            assert (len(window_set(seq, k)) == len(seq)) == expected, text
        assert classify(parse_sequence("0123", 4), 2) is Classification.DISTINCT_WINDOWS

    @given(sequences_with_order(), st.integers(0, 6))
    def test_predicates_are_rotation_invariant(self, seq_k, r):
        seq, k = seq_k
        rot = oracles.rotate(seq, r)
        assert analysis._longest_run(seq)[1] == analysis._longest_run(rot)[1]
        assert is_doubled(seq, k) == is_doubled(rot, k)
        assert window_set(seq, k) == window_set(rot, k)
        assert classify(seq, k) is classify(rot, k)


class TestClassify:
    def test_fixtures(self):
        assert classify(parse_sequence("0001", 2), 3) is Classification.CONSTANT_RUN
        assert classify(parse_sequence("0123", 4), 2) is Classification.DISTINCT_WINDOWS
        assert classify(parse_sequence("01210123", 4), 3) is Classification.UNDETERMINED

    def test_precedence_constant_run_beats_doubled(self):
        # 0000 is doubled and constant; the constant run wins
        assert classify(parse_sequence("0000", 2), 2) is Classification.CONSTANT_RUN

    def test_doubled_without_run(self):
        assert classify(parse_sequence("0101", 2), 2) is Classification.DOUBLED_SEQUENCE

    def test_short_sequence_rejected(self):
        with pytest.raises(DomainError):
            classify(parse_sequence("01", 2), 3)

    @pytest.mark.parametrize("a", [2, 3])
    def test_length_one_sequence_is_a_watchman(self, a):
        # its one window is constant, but the induced walk is stationary
        seq = parse_sequence(str(a - 1), a)
        assert classify(seq, 1) is Classification.DISTINCT_WINDOWS
        rec = verify(seq, 1)
        assert rec.is_watchman and rec.induced_length == rec.oracle_optimum == 0
        assert classify(parse_sequence("00", a), 1) is Classification.CONSTANT_RUN

    def test_each_outcome_fixes_its_verdict(self):
        assert [(c.name, c.verdict, c.reason) for c in Classification] == [
            ("CONSTANT_RUN", Verdict.PROVABLY_NOT_WATCHMAN, "ConstantRun"),
            ("DOUBLED_SEQUENCE", Verdict.PROVABLY_NOT_WATCHMAN, "DoubledSequence"),
            ("DISTINCT_WINDOWS", Verdict.PROVABLY_WATCHMAN, "DistinctWindows"),
            ("UNDETERMINED", Verdict.UNDETERMINED, "None"),
        ]

    def test_render(self):
        c = classify(parse_sequence("0001", 2), 3)
        assert str(c) == "ProvablyNotWatchman (ConstantRun)"

    @given(sequences_with_order(), st.integers(0, 6))
    def test_classify_is_rotation_invariant(self, seq_k, r):
        seq, k = seq_k
        assert classify(seq, k) == classify(oracles.rotate(seq, r), k)


def _reference_classification(symbols, k):
    """classify and the seam-only flag by brute force, from the window
    scans of tests/oracles.py: no run scan and no window set."""
    n = len(symbols)
    if n > 1 and oracles.has_constant_window(symbols, k, cyclic=True):
        seam_only = not oracles.has_constant_window(symbols, k, cyclic=False)
        return Classification.CONSTANT_RUN, seam_only
    half = n // 2
    if n % 2 == 0 and half >= k and symbols[:half] == symbols[half:]:
        return Classification.DOUBLED_SEQUENCE, False
    if len(set(oracles.cyclic_windows(symbols, k - 1))) == n:
        return Classification.DISTINCT_WINDOWS, False
    return Classification.UNDETERMINED, False


def _random_certificate_cases(count, seed):
    """Seeded (symbols, a, k) cases: k from 1 and lengths from k; three
    cases in eight are a doubled block, one of those three constant."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        a, k = rng.randint(2, 5), rng.randint(1, 6)
        word = tuple(rng.randrange(a) for _ in range(rng.randint(k, k + 12)))
        shape = rng.randrange(8)
        if shape == 0:
            word = (word[0],) * len(word) * 2
        elif shape < 3:
            word = word * 2
        cases.append((word, a, k))
    return cases


def _rotation_certificate_cases():
    """Every rotation of every necklace of three small sweeps."""
    return [
        (word, a, k)
        for a, k, lengths in [
            (2, 3, range(3, 10)),
            (3, 2, range(2, 7)),
            (4, 3, range(3, 6)),
        ]
        for n in lengths
        for seq in rotation_representatives(a, n)
        for word in oracles.rotations(seq.symbols)
    ]


class TestCertificatesMatchBruteForce:
    @pytest.mark.parametrize(
        "cases",
        [_rotation_certificate_cases(), _random_certificate_cases(2000, 28)],
        ids=["necklace-rotations", "random"],
    )
    def test_classify_and_verify_match_the_reference(self, cases):
        fixtures = [
            ((0,), 2, 1),  # k = 1 with len(d) == k
            ((0, 0), 2, 1),
            ((0, 1, 1), 2, 3),  # len(d) == k, a seam-only run
            ((1, 1, 1, 1), 2, 2),  # doubled and constant
            ((2, 2, 2, 2, 2, 2), 3, 3),
        ]
        memos = {}
        for word, a, k in fixtures + cases:
            seq = CyclicSequence(word, Alphabet(a))
            expected, seam_only = _reference_classification(word, k)
            assert classify(seq, k) == expected, (word, k)
            rec = verify(seq, k, memos.setdefault((a, k), {}))
            got = (rec.classification, rec.constant_run_seam_only)
            assert got == (expected, seam_only), (word, k)
        verdicts = Counter(_reference_classification(w, k) for w, _, k in cases)
        assert len(verdicts) == 5  # every reason, and seam-only runs too


class TestVerify:
    def test_repeated_window_watchman(self):
        rec = verify(parse_sequence("01210123", 4), 3)
        assert rec.induced_length == 8
        assert rec.oracle_optimum == 8
        assert rec.is_watchman
        assert rec.classification.verdict is Verdict.UNDETERMINED

    def test_verify_runs_no_search(self, monkeypatch):
        setups = _search_setups(monkeypatch)
        graphs = _digraph_builds(monkeypatch)
        rec = verify(parse_sequence("01210123", 4), 3)
        assert rec.is_watchman  # so verify ran its closed-walk check
        assert not verify(parse_sequence("0001", 2), 3).is_watchman
        assert setups == graphs == []

    def test_optimum_walk_must_be_closed_dominating(self, monkeypatch):
        monkeypatch.setattr(
            analysis, "_closed_dominating_ranks", lambda walk, w, a, k: False
        )
        with pytest.raises(InvariantViolation, match="closed dominating walk"):
            verify(parse_sequence("0011", 2), 3)
        assert not verify(parse_sequence("0001", 2), 3).is_watchman  # not checked

    @pytest.mark.parametrize(
        "text,a,k,wrong,message",
        [
            ("011200122", 3, 3, Classification.DISTINCT_WINDOWS, "distinct-window"),
            ("0123", 4, 2, Classification.CONSTANT_RUN, "negative"),
            ("0123", 4, 2, Classification.DOUBLED_SEQUENCE, "negative"),
        ],
    )
    def test_certificate_contradicting_the_optimum_raises(
        self, monkeypatch, text, a, k, wrong, message
    ):
        # 011200122 is not a watchman (optimum 6, length 9) and 0123 is one
        d = parse_sequence(text, a)
        assert verify(d, k).is_watchman == (text == "0123")
        monkeypatch.setattr(analysis, "_classify", lambda *args: (wrong, False))
        with pytest.raises(InvariantViolation, match=f"{message} certificate violated"):
            verify(d, k)

    @pytest.mark.parametrize(
        "text,wrong",
        [("0001", 5), ("0001", 2), ("0011", 3), ("0", 1), ("0000", 5)],
    )
    def test_optimum_must_lie_between_w_and_the_induced_length(
        self, monkeypatch, text, wrong
    ):
        # the induced walk is a closed dominating walk, and with |W| >= 2
        # every such walk passes all of W; 0001 has |W| = 3 and length 4
        monkeypatch.setattr(analysis, "_postman_optimum", lambda w, a, k: wrong)
        with pytest.raises(InvariantViolation, match="postman optimum"):
            verify(parse_sequence(text, 2), 3 if len(text) > 1 else 1)

    def test_one_window_has_no_lower_bound(self, monkeypatch):
        monkeypatch.setattr(analysis, "_postman_optimum", lambda w, a, k: 0)
        rec = verify(parse_sequence("0000", 2), 3)
        assert (rec.oracle_optimum, rec.is_watchman) == (0, False)

    @pytest.mark.parametrize(
        "a,k,lengths", [(2, 3, range(3, 9)), (3, 2, range(2, 6)), (4, 3, range(3, 7))]
    )
    def test_watchman_walks_are_in_the_enumerated_minimum_set(self, a, k, lengths):
        # verify trusts the oracle optimum; the enumerator must agree
        checked = 0
        for rec in sweep(a, k, lengths).records:
            if not rec.is_watchman:
                continue
            graph = generated_subdigraph(rec.sequence, k)
            walk = induced_walk(rec.sequence, k, graph)
            minimum_set = {
                w.vertex_indices for w in enumerate_min_walks(graph, rec.oracle_optimum)
            }
            assert oracles.canonical_rotation(walk) in minimum_set, rec.sequence.text
            checked += 1
        assert checked

    def test_constant_run_is_never_minimum(self):
        rec = verify(parse_sequence("0001", 2), 3)
        assert not rec.is_watchman
        assert rec.oracle_optimum < rec.induced_length

    def test_doubled_traverses_at_most_half(self):
        rec = verify(parse_sequence("0101", 2), 2)
        assert not rec.is_watchman
        assert rec.induced_length == 4
        assert rec.oracle_optimum == 2

    def test_record_consistency(self):
        rec = verify(parse_sequence("0011", 2), 3)
        assert rec.classification.verdict is Verdict.PROVABLY_WATCHMAN
        assert rec.is_watchman
        assert rec.induced_length == rec.oracle_optimum == 4

    def test_rotation_invariance_of_verdict_and_watchman_flag(self):
        for text, a, k in [("0011", 2, 3), ("0101", 2, 2), ("01210123", 4, 3)]:
            seq = parse_sequence(text, a)
            base = verify(seq, k)
            for r in range(1, len(seq)):
                rec = verify(oracles.rotate(seq, r), k)
                assert rec.classification == base.classification
                assert rec.is_watchman == base.is_watchman

    @pytest.mark.parametrize(
        "text,a,k,optimum",
        [
            ("01234", 5, 2, 5),  # 25 vertices
            # an order-5 de Bruijn sequence generates all 64 of G(2, 6),
            # and so does its doubling, which is no watchman's walk
            ("00000100011001010011101011011111", 2, 6, 32),
            ("00000100011001010011101011011111" * 2, 2, 6, 32),
            ("0", 36, 1, 0),  # 36 vertices and a stationary walk
        ],
    )
    def test_no_vertex_cap_applies(self, text, a, k, optimum):
        # the postman optimum needs no search, so a subdigraph past the
        # search oracle's cap is verified like any other
        seq = parse_sequence(text, a)
        assert a * len(window_set(seq, k)) > watchman.DEFAULT_VERTEX_CAP
        assert verify(seq, k).oracle_optimum == optimum

    def test_json_fields(self):
        obj = verify(parse_sequence("0001", 2), 3).to_json()
        assert obj["sequence"] == "0001"
        assert obj["verdict"] == "ProvablyNotWatchman"
        assert obj["reason"] == "ConstantRun"
        assert obj["is_watchman"] is False
        assert isinstance(obj["constant_run_seam_only"], bool)

    def test_seam_only_flag(self):
        rec = verify(parse_sequence("010", 2), 2)
        assert rec.constant_run_seam_only
        assert not rec.is_watchman

    @pytest.mark.parametrize(
        "a,k,lengths", [(2, 3, range(3, 11)), (3, 2, range(2, 7)), (4, 3, range(3, 6))]
    )
    def test_reversal_changes_no_field_but_the_sequence(self, a, k, lengths):
        # W of the reversal is W with each window reversed, which turns
        # G(a, k-1)[W] around, and a shortest closed walk through all of
        # W keeps its length when every arc turns
        checked = 0
        for n in lengths:
            for seq in rotation_representatives(a, n):
                rev = CyclicSequence(seq.symbols[::-1], seq.alphabet)
                fields, back = verify(seq, k).to_json(), verify(rev, k).to_json()
                assert back.pop("sequence") == seq.text[::-1]
                del fields["sequence"]
                assert fields == back, seq.text
                checked += 1
        assert checked == sum(len(list(necklaces(a, n))) for n in lengths)

    def test_memo_gives_the_memo_free_record(self):
        # every ternary word, so rotations and renamings meet the memo
        # out of order
        solved = {}
        hits = 0
        for n in range(2, 6):
            for word in itertools.product(range(3), repeat=n):
                seq = CyclicSequence(word, Alphabet(3))
                hits += window_set(seq, 2) in solved
                with_memo = verify(seq, 2, solved).to_json()
                assert with_memo == verify(seq, 2).to_json(), seq.text
        assert len(solved) == 7  # the nonempty subsets of {0, 1, 2}
        assert hits == 3**2 + 3**3 + 3**4 + 3**5 - 7


class TestRotationRepresentatives:
    def test_binary_length_three(self):
        reps = [s.text for s in rotation_representatives(2, 3)]
        assert reps == ["000", "001", "011", "111"]

    def test_covers_every_class(self):
        reps = list(rotation_representatives(2, 4))
        seen = set()
        for rep in reps:
            seen.update(oracles.rotations(rep.symbols))
        assert seen == set(itertools.product(range(2), repeat=4))

    @pytest.mark.parametrize(
        "a,n", [(a, n) for a in range(2, 37) for n in range(1, 13) if a**n <= 5000]
    )
    def test_matches_brute_force_filter(self, a, n):
        expected = [
            syms
            for syms in itertools.product(range(a), repeat=n)
            if oracles.is_least_rotation(syms)
        ]
        assert [s.symbols for s in rotation_representatives(a, n)] == expected


class TestSweep:
    def test_small_binary_sweep(self):
        report = sweep(2, 2, range(2, 4))
        texts = [r.sequence.text for r in report.records]
        assert texts == ["00", "01", "11", "000", "001", "011", "111"]
        assert report.summary["total"] == 7
        assert report.summary["skipped"] == 0
        assert not report.summary["truncated"]
        assert report.summary["cells"]["ProvablyWatchman:true"] == 1

    def test_no_two_records_are_rotation_equivalent(self):
        report = sweep(2, 2, range(2, 5))
        canon = {
            min(oracles.rotations(rec.sequence.symbols))
            for rec in report.records
        }
        assert len(canon) == len(report.records)

    def test_deterministic(self):
        a = sweep(3, 2, range(2, 4)).to_jsonl()
        b = sweep(3, 2, range(2, 4)).to_jsonl()
        assert a == b

    def test_budget_truncates(self):
        report = sweep(2, 2, range(2, 4), budget=3)
        assert len(report.records) == 3
        assert report.summary["truncated"]

    def test_orbit_table_of_long_necklaces_stays_small(self):
        # the orbit table keys each run-start rotation of an orbit's first
        # necklace by its first-appearance form, one byte per symbol: 500
        # binary necklaces of length 400 peak near 3 MiB, where forms
        # kept as tuples of ints peaked at 11 MiB
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = sweep(2, 3, [400], budget=500)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 6 * 2**20, f"sweep peaked at {peak / 2**20:.1f} MiB"
        assert report.summary["total"] == 500 and report.summary["truncated"]
        assert hashlib.sha256(report.to_jsonl().encode()).hexdigest() == (
            "be4e767d40c2072564d500321cb1d3d436cf2e3fcb6e462d6fd4e5f803bb3b8b"
        )

    def test_range_wider_than_budget_is_a_cap_error(self):
        with pytest.raises(ResourceCapError, match=r"2\.\.4 .* budget of 2$"):
            sweep(2, 2, range(2, 5), budget=2)
        with pytest.raises(ResourceCapError):  # never built: past sys.maxsize
            sweep(2, 2, range(2, 10**30), budget=1)
        report = sweep(2, 2, range(2, 4), budget=2)  # as wide as the budget
        assert report.summary["truncated"]

    def test_length_above_the_size_cap_is_a_cap_error(self):
        with pytest.raises(ResourceCapError, match="sweep length 4097 exceeds size cap 4096"):
            sweep(2, 1, range(4096, 4098), budget=2)
        with pytest.raises(ResourceCapError, match="size cap 3$"):
            sweep(2, 1, range(1, 5), size_cap=3)
        assert sweep(2, 1, range(1, 4), size_cap=3).summary["total"] == 9

    def test_subdigraphs_past_the_search_cap_are_verified(self):
        # no vertex cap applies, so the summary's "skipped" stays 0
        report = sweep(5, 2, range(5, 6))
        sizes = [5 * len(window_set(r.sequence, 2)) for r in report.records]
        assert max(sizes) == 25 > watchman.DEFAULT_VERTEX_CAP
        summary = report.summary
        assert summary["verified"] == summary["total"] == len(report.records)
        assert summary["skipped"] == 0

    def test_lengths_below_order_rejected(self):
        with pytest.raises(DomainError):
            sweep(2, 3, range(2, 4))
        with pytest.raises(DomainError):
            sweep(2, 2, [])
        with pytest.raises(DomainError, match="no lengths to sweep"):
            sweep(2, 2, range(5, 5))

    @pytest.mark.parametrize(
        "lengths", [range(1, 200_001), range(200_000, 0, -1), range(1, 10**30)]
    )
    def test_lengths_below_order_are_checked_before_the_budget(self, lengths):
        with pytest.raises(DomainError, match="at least the order k = 3"):
            sweep(2, 3, lengths)

    def test_jsonl_round_trips(self):
        report = sweep(2, 2, range(2, 3))
        lines = report.to_jsonl().splitlines()
        *records, summary = [json.loads(line) for line in lines]
        assert all("sequence" in r for r in records)
        assert "summary" in summary
        assert summary["summary"]["cells"] == report.summary["cells"]

    def test_csv_columns(self):
        report = sweep(2, 2, range(2, 3))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == (
            "sequence,length,verdict,reason,induced_length,oracle_optimum,is_watchman"
        )
        assert len(lines) == 1 + report.summary["verified"]

    def test_undetermined_watchman_cell_has_the_known_witness(self):
        # the repeated-window sequence is the documented member of the
        # cell no certificate explains
        rec = verify(parse_sequence("01210123", 4), 3)
        assert rec.classification.verdict is Verdict.UNDETERMINED
        assert rec.is_watchman


# Orbits of necklaces under rotation and symbol permutation, per length:
# binary n = 1..12 (OEIS A000013), ternary n = 1..10, 4-ary n = 3..6.
ORBIT_COUNTS = {
    2: dict(zip(range(1, 13), [1, 2, 2, 4, 4, 8, 10, 20, 30, 56, 94, 180])),
    3: dict(zip(range(1, 11), [1, 2, 3, 6, 9, 26, 53, 146, 369, 1002])),
    4: dict(zip(range(3, 7), [3, 7, 11, 39])),
}


# (a, k, lengths) of sweeps whose shared records are checked
SHARED_SWEEPS = [
    (2, 3, range(3, 9)),
    (3, 2, range(2, 6)),
    (4, 3, range(3, 6)),
    # every character of SYMBOL_CHARS, in 702 records of 36 vertices each
    (36, 1, range(1, 3)),
    # 144 records of 17 window sets, so most records come from the memo
    (2, 4, range(4, 10)),
    # subdigraphs of up to 25 and 28 vertices, past the search oracle's
    # default cap of 24, which verify does not obey
    (5, 2, range(2, 6)),
    (2, 5, range(12, 15)),
]
# the same with a budget, plus one sweep that the budget stops inside length 6
BUDGETED_SWEEPS = [(*args, analysis.DEFAULT_SWEEP_BUDGET) for args in SHARED_SWEEPS]
BUDGETED_SWEEPS.append((4, 3, range(3, 7), 500))


class TestRunScan:
    """The one-pass run scan against the list of every run's length."""

    @pytest.mark.parametrize(
        "a,n",
        sorted(
            {(a, n) for a, counts in ORBIT_COUNTS.items() for n in counts}
            | {(a, n) for a, _, lengths in SHARED_SWEEPS for n in lengths}
        ),
    )
    def test_run_scan_matches_the_run_list_on_necklaces(self, a, n):
        alphabet = Alphabet(a)
        for word, _, _ in necklaces(a, n):
            seq = CyclicSequence(word, alphabet)
            assert analysis._longest_run(seq) == oracles.longest_runs(word), word

    def test_run_scan_matches_the_run_list_on_random_sequences(self):
        rng = random.Random(29)
        for _ in range(20_000):
            a = rng.randint(2, 5)
            word = tuple(rng.randrange(a) for _ in range(rng.randint(1, 30)))
            seq = CyclicSequence(word, Alphabet(a))
            assert analysis._longest_run(seq) == oracles.longest_runs(word), word


class TestOrbitSharing:
    @pytest.mark.parametrize(
        "a,n", [(a, n) for a, counts in ORBIT_COUNTS.items() for n in counts]
    )
    def test_burnside_counts(self, a, n):
        assert oracles.burnside_orbit_count(a, n) == ORBIT_COUNTS[a][n]

    @pytest.mark.parametrize("a,n", [(2, 8), (3, 6), (4, 5), (5, 4)])
    def test_symbol_orbit_key_is_the_brute_force_key(self, a, n):
        for word in itertools.product(range(a), repeat=n):
            assert oracles.symbol_orbit_key(word) == oracles.brute_orbit_key(word, a)

    @pytest.mark.parametrize(
        "a,n",
        [(2, n) for n in range(1, 11)]
        + [(3, n) for n in range(1, 7)]
        + [(4, n) for n in range(1, 6)],
    )
    def test_orbit_form_partitions_like_brute_force(self, monkeypatch, a, n):
        # sweep's orbits, keyed by first-appearance forms, are the classes
        # of the brute-force key: verify gets the first necklace of each
        calls = []

        def recording_verify(d, k, solved):
            calls.append(d.symbols)
            return verify(d, k, solved)

        monkeypatch.setattr(analysis, "verify", recording_verify)
        report = sweep(a, 1, [n])
        firsts = {}
        for seq in rotation_representatives(a, n):
            firsts.setdefault(oracles.brute_orbit_key(seq.symbols, a), seq.symbols)
        assert calls == list(firsts.values())
        assert len(calls) == oracles.burnside_orbit_count(a, n)
        assert report.summary["verified"] == len(report.records)

    @pytest.mark.parametrize("a,k,lengths", SHARED_SWEEPS)
    def test_shared_records_equal_direct_verify(self, a, k, lengths):
        report = sweep(a, k, lengths)
        for entry in report.records:
            assert entry.to_json() == verify(entry.sequence, k).to_json()
        assert report.summary["skipped"] == 0

    # the serializations are compared line by line, each line with its
    # terminator, so every byte is checked and a failure names its line
    # without a diff of the whole text
    @pytest.mark.parametrize("a,k,lengths,budget", BUDGETED_SWEEPS)
    def test_to_jsonl_is_the_reference_serialization(self, a, k, lengths, budget):
        report = sweep(a, k, lengths, budget=budget)
        assert report.summary["truncated"] == (budget == 500)
        lines = []
        for entry in report.records:
            fields = entry.to_json()  # "sequence" stays the first key
            fields["sequence"] = oracles.symbols_text(entry.sequence.symbols)
            lines.append(json.dumps(fields) + "\n")
        lines.append(json.dumps({"summary": report.summary}) + "\n")
        assert report.to_jsonl().splitlines(keepends=True) == lines

    @pytest.mark.parametrize("a,k,lengths,budget", BUDGETED_SWEEPS)
    def test_to_csv_is_the_reference_serialization(self, a, k, lengths, budget):
        report = sweep(a, k, lengths, budget=budget)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            "sequence length verdict reason induced_length oracle_optimum "
            "is_watchman".split()
        )
        writer.writerows(
            [
                oracles.symbols_text(entry.sequence.symbols),
                len(entry.sequence),
                entry.classification.verdict.value,
                entry.classification.reason,
                entry.induced_length,
                entry.oracle_optimum,
                entry.is_watchman,
            ]
            for entry in report.records
        )
        expected = buf.getvalue().splitlines(keepends=True)
        assert report.to_csv().splitlines(keepends=True) == expected

    @pytest.mark.parametrize("a,k,lengths,budget", BUDGETED_SWEEPS)
    def test_copies_and_tallies_match_the_first_of_each_orbit(
        self, a, k, lengths, budget
    ):
        report = sweep(a, k, lengths, budget=budget)
        firsts = {}
        for entry in report.records:
            symbols = entry.sequence.symbols
            first = firsts.setdefault(oracles.symbol_orbit_key(symbols), entry)
            if first is not entry:
                assert entry == VerificationRecord(
                    entry.sequence,
                    first.order,
                    first.classification,
                    first.induced_length,
                    first.oracle_optimum,
                    first.is_watchman,
                    first.constant_run_seam_only,
                )
        # the per-orbit tally equals a count over the records
        records = report.records
        cells = Counter(
            f"{e.classification.verdict.value}:{str(e.is_watchman).lower()}"
            for e in records
        )
        seam = [e for e in records if e.constant_run_seam_only]
        summary = report.summary
        assert summary["verified"] == summary["total"] == len(records)
        assert summary["skipped"] == 0
        assert {cell: n for cell, n in summary["cells"].items() if n} == cells
        assert summary["seam_only_constant_runs"] == {
            "total": len(seam),
            "not_watchman": sum(not e.is_watchman for e in seam),
        }
        # no necklace is seam-only: one that is not constant starts a run
        assert summary["seam_only_constant_runs"] == {"total": 0, "not_watchman": 0}

    def test_output_builds_one_sequence_per_orbit(self, monkeypatch):
        # a later necklace of an orbit is a row of the report: sweep,
        # to_jsonl and to_csv build no record and no sequence for it
        built, records = [], []
        sequence_init = CyclicSequence.__init__
        record_init = VerificationRecord.__init__

        def counting_sequence_init(seq, symbols, alphabet):
            built.append(symbols)
            sequence_init(seq, symbols, alphabet)

        def counting_record_init(entry, sequence, *args, **kwargs):
            records.append(sequence.symbols)
            record_init(entry, sequence, *args, **kwargs)

        monkeypatch.setattr(CyclicSequence, "__init__", counting_sequence_init)
        monkeypatch.setattr(VerificationRecord, "__init__", counting_record_init)
        report = sweep(4, 3, range(3, 7))
        report.to_jsonl()
        report.to_csv()
        assert report.summary["total"] == 1002
        assert len(built) == sum(ORBIT_COUNTS[4].values()) == 60
        # one record per orbit, each built by verify: no copy of a record
        assert records == built
        assert built[:3] == [(0, 0, 0), (0, 0, 1), (0, 1, 2)]

    def test_oracle_runs_once_per_orbit(self, monkeypatch):
        calls = []

        def counting_verify(d, k, solved):
            calls.append(d.text)
            return verify(d, k, solved)

        monkeypatch.setattr(analysis, "verify", counting_verify)
        report = sweep(4, 3, range(3, 7))
        assert len(report.records) == 1002
        assert len(calls) == sum(ORBIT_COUNTS[4].values()) == 60
        assert calls[:3] == ["000", "001", "012"]  # each orbit's first necklace


def _counting(monkeypatch, name):
    """Patch ``analysis.<name>`` to record each call's arguments and result."""
    calls = []
    fn = getattr(analysis, name)

    def counting(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(analysis, name, counting)
    return calls


def _digraph_builds(monkeypatch):
    """The ranks of each Digraph built from here on, by any route:
    generated_subdigraph and build_de_bruijn_graph build one each."""
    built = []
    init = graphcore.Digraph.__init__

    def counting_init(self, alphabet, k, ranks, *args, **kwargs):
        built.append(ranks := tuple(ranks))
        init(self, alphabet, k, ranks, *args, **kwargs)

    monkeypatch.setattr(graphcore.Digraph, "__init__", counting_init)
    return built


def _search_setups(monkeypatch):
    """The digraph of each exact-search setup built from here on: every
    solve_min_walk and enumerate_min_walks call builds one."""
    built = []
    search_inputs = watchman._search_inputs
    monkeypatch.setattr(
        watchman,
        "_search_inputs",
        lambda g, vertex_cap: built.append(g) or search_inputs(g, vertex_cap),
    )
    return built


def _symbol_pairs(ranks):
    """A set of 4-ary 2-window ranks as the symbol pairs they stand for."""
    return frozenset(divmod(r, 4) for r in ranks)


def _orbit_window_sets(a, k, lengths):
    """The first necklace of each symbol-permutation orbit, in necklace
    order, and the distinct sets of their cyclic (k-1)-windows, derived
    apart from sweep."""
    firsts = {}
    for n in lengths:
        for seq in rotation_representatives(a, n):
            firsts.setdefault(oracles.symbol_orbit_key(seq.symbols), seq.symbols)
    firsts = list(firsts.values())
    return firsts, {frozenset(oracles.cyclic_windows(w, k - 1)) for w in firsts}


def _attaining_firsts(firsts):
    """The 4-ary first necklaces at k = 3 whose length is their
    brute-force postman optimum: verify runs its closed-walk check on
    each."""
    return [
        w
        for w in firsts
        if len(w) == oracles.postman_optimum(CyclicSequence(w, Alphabet(4)), 3)
    ]


class TestWindowSetMemo:
    # verify checks its walk against W x {0..a-1} without building the
    # subdigraph, so it rests on the subdigraph being that set
    @pytest.mark.parametrize("a,k,lengths", SHARED_SWEEPS)
    def test_sweep_subdigraphs_have_a_times_w_vertices(self, a, k, lengths):
        for n in lengths:
            for seq in rotation_representatives(a, n):
                g = generated_subdigraph(seq, k)
                assert g.vertex_count == a * len(window_set(seq, k)), seq.text

    @given(st.data())
    def test_random_subdigraphs_have_a_times_w_vertices(self, data):
        a = data.draw(st.integers(2, 6))
        k = data.draw(st.integers(1, 6))
        word = data.draw(st.lists(st.integers(0, a - 1), min_size=k, max_size=40))
        seq = CyclicSequence(tuple(word), Alphabet(a))
        assert generated_subdigraph(seq, k).vertex_count == a * len(window_set(seq, k))

    def test_oracle_runs_once_per_window_set(self, monkeypatch):
        firsts, window_sets = _orbit_window_sets(4, 3, range(3, 7))
        assert (len(firsts), len(window_sets)) == (60, 36)
        attaining = _attaining_firsts(firsts)
        assert len(attaining) == 34
        optima = _counting(monkeypatch, "_postman_optimum")
        checks = _counting(monkeypatch, "_closed_dominating_ranks")
        verifies = _counting(monkeypatch, "verify")
        setups = _search_setups(monkeypatch)
        graphs = _digraph_builds(monkeypatch)
        for _ in range(2):  # each call starts from an empty memo
            optima.clear(), checks.clear(), verifies.clear()
            report = sweep(4, 3, range(3, 7))
            assert report.summary["verified"] == 1002
            assert len(verifies) == len(firsts)
            solved = [_symbol_pairs(args[0]) for args, _ in optima]
            assert Counter(solved) == Counter(window_sets)  # each W once
            # the closed-walk check runs on ranks for each attaining orbit;
            # a window's first symbol is its rank // 4**2
            walks = [tuple(r // 16 for r in args[0]) for args, _ in checks]
            assert walks == attaining
            assert all(ok for _, ok in checks)
            assert setups == graphs == []

    def test_sweep_memo_holds_only_optima(self, monkeypatch):
        memos = []

        def recording_verify(d, k, solved):
            memos.append(solved)
            return verify(d, k, solved)

        monkeypatch.setattr(analysis, "verify", recording_verify)
        sweep(4, 3, range(3, 7))
        assert len(memos) == 60 and all(m is memos[0] for m in memos)  # one memo
        assert len(memos[0]) == 36  # one entry per window set
        assert all(type(v) is int for v in memos[0].values())

    def test_window_sets_past_the_search_cap_are_solved_once(self, monkeypatch):
        # length 7 gives window sets of 7 pairs, 28 vertices: past the
        # search oracle's default cap, yet each is solved once, unbuilt
        _, window_sets = _orbit_window_sets(4, 3, range(3, 8))
        optima = _counting(monkeypatch, "_postman_optimum")
        setups = _search_setups(monkeypatch)
        graphs = _digraph_builds(monkeypatch)
        report = sweep(4, 3, range(3, 8))
        solved = Counter(_symbol_pairs(args[0]) for args, _ in optima)
        assert set(solved.values()) == {1}  # each solved W once
        assert set(solved) == window_sets
        assert max(4 * len(w) for w in window_sets) == 28 > watchman.DEFAULT_VERTEX_CAP
        assert setups == graphs == []
        summary = report.summary
        assert summary["verified"] == summary["total"] == len(report.records)

    def test_sweep_finds_later_necklaces_by_their_generated_form(self, monkeypatch):
        # the generator hands sweep each necklace's form, so relabelling
        # runs only to file each orbit's run-starting rotations; verify
        # builds W once and classifies from it
        firsts, _ = _orbit_window_sets(4, 3, range(3, 7))
        forms = _counting(monkeypatch, "_first_appearance")
        windows = _counting(monkeypatch, "window_set")

        def forbidden(*args):
            raise AssertionError("verify classifies from the W it holds")

        monkeypatch.setattr(analysis, "classify", forbidden)
        report = sweep(4, 3, range(3, 7))
        assert report.summary["verified"] == 1002
        filed = [
            w[i:] + w[:i]
            for w in firsts
            for i in range(len(w))
            if i == 0 or w[i] != w[i - 1]
        ]
        assert [args[0] for args, _ in forms] == filed
        assert [args[0].symbols for args, _ in windows] == firsts
