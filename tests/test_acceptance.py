"""Acceptance suite: one test per criterion, exact assertions only.

conftest prints a PASS/FAIL line per criterion; run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` for the reported
counts).
"""

import itertools
import random

from debruijn.analysis import Verdict, classify, verify
from debruijn.graphcore import (
    Digraph,
    build_de_bruijn_graph,
    generated_subdigraph,
    is_closed_dominating_walk,
)
from debruijn.seqcore import (
    Alphabet,
    CyclicSequence,
    gen_eulerian,
    gen_fkm,
    gen_greedy,
    is_de_bruijn_sequence,
    k_tour,
    parse_sequence,
)
from debruijn.watchman import (
    construct_watchman_walk,
    enumerate_min_walks,
    induced_walk,
    solve_min_walk,
)

from oracles import (
    canonical_rotation,
    has_closed_dominating_walk,
    is_least_rotation,
    min_walk_length,
)

GRID = [(2, 2, 2), (2, 3, 4), (2, 4, 8), (3, 2, 3)]


def test_01_oracle_matches_closed_form_on_full_graphs():
    for a, k, expected in GRID:
        g = build_de_bruijn_graph(a, k)
        result = solve_min_walk(g)
        assert result.optimum_length == expected
        assert result.optimum_length == a ** (k - 1)
        assert is_closed_dominating_walk(g, result.witness)


def test_02_constructed_walks_from_every_generator_are_minimum():
    for a, k, expected in GRID:
        for gen in (gen_fkm, gen_greedy, gen_eulerian):
            seed = gen(a, k - 1)
            walk = construct_watchman_walk(a, k, seed)
            assert walk.length == expected
            assert is_closed_dominating_walk(walk.digraph, walk)


def test_03_order_two_binary_tour_fixture():
    seq = parse_sequence("1001", 2)
    tour = k_tour(seq, 3)
    assert list(tour) == ["100", "001", "011", "110"]
    walk = construct_watchman_walk(2, 3, seq)
    assert is_closed_dominating_walk(walk.digraph, walk)
    assert solve_min_walk(walk.digraph).optimum_length == 4 == walk.length


def test_04_ternary_order_two_fixture():
    assert is_de_bruijn_sequence(parse_sequence("220011210", 3), 2)
    assert solve_min_walk(build_de_bruijn_graph(3, 2)).optimum_length == 3


def test_05_repeated_window_sequence_reproduction():
    d = parse_sequence("01210123", 4)
    g = generated_subdigraph(d, 3)
    walk = induced_walk(d, 3, g)
    assert walk.length == 8
    result = solve_min_walk(g)
    assert result.optimum_length == 8
    walks = enumerate_min_walks(g, 8)
    assert canonical_rotation(walk) in {canonical_rotation(w) for w in walks}
    # verified count under rotation-equivalence; raw count = all rotations
    assert len(walks) == 2
    raw = sum(
        len({w.vertex_indices[i:] + w.vertex_indices[:i] for i in range(8)})
        for w in walks
    )
    print(
        f"\nminimum walks of length 8: {len(walks)} up to rotation, {raw} without deduplication"
    )


def _exhaustive_ranges():
    for n in range(3, 9):
        for syms in itertools.product(range(2), repeat=n):
            yield CyclicSequence(syms, Alphabet(2)), 2, 3
    for n in range(2, 6):
        for syms in itertools.product(range(3), repeat=n):
            yield CyclicSequence(syms, Alphabet(3)), 3, 2


def test_06_negative_certificates_are_sound():
    counterexamples = []
    flagged = 0
    seam_only = 0
    for seq, a, k in _exhaustive_ranges():
        if classify(seq, k).verdict is Verdict.PROVABLY_NOT_WATCHMAN:
            flagged += 1
            record = verify(seq, k)
            if record.is_watchman:
                counterexamples.append((seq.text, a, k))
            if record.constant_run_seam_only:
                seam_only += 1
    assert flagged > 0
    assert seam_only > 0  # the cyclic reading is exercised, not vacuous
    assert counterexamples == []
    print(
        f"\n{flagged} provably-not-minimum sequences, zero counterexamples "
        f"({seam_only} with a constant run only across the cyclic seam)"
    )


def test_07_distinct_window_certificate_is_sound():
    counterexamples = []
    flagged = 0
    for seq, a, k in _exhaustive_ranges():
        if classify(seq, k).verdict is not Verdict.PROVABLY_WATCHMAN:
            continue
        flagged += 1
        record = verify(seq, k)
        g = generated_subdigraph(seq, k)
        ok = (
            record.is_watchman
            and record.induced_length == len(seq) == record.oracle_optimum
            and g.vertex_count == a * len(seq)
        )
        if not ok:
            counterexamples.append((seq.text, a, k))
    assert flagged > 0
    assert counterexamples == []
    print(f"\n{flagged} distinct-window sequences, zero counterexamples")


def test_08_all_generators_valid_for_every_size_within_cap():
    pairs = [(a, k) for a in range(2, 37) for k in range(1, 13) if a**k <= 4096]
    for a, k in pairs:
        for gen in (gen_fkm, gen_greedy, gen_eulerian):
            seq = gen(a, k)
            assert is_de_bruijn_sequence(seq, k), (gen.__name__, a, k)
        assert is_least_rotation(gen_fkm(a, k).symbols), (a, k)
    print(f"\n{len(pairs)} (a, k) pairs x 3 generators validated")


def _random_custom_digraph(rng):
    # arbitrary arc sets on up to nine vertices, feasible or not
    n = rng.randint(1, 9)
    density = rng.choice([0.15, 0.3, 0.5])
    arcs = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
    return Digraph(Alphabet(3), 2, range(n), arcs)  # vertex i is the 2-string of rank i


def _assert_witness_is_least_minimum_walk(g, result):
    least = enumerate_min_walks(g, result.optimum_length)[0]
    assert result.witness.vertex_indices == least.vertex_indices


def test_09_oracle_agrees_with_naive_enumeration_on_random_subdigraphs():
    rng = random.Random(74207281)
    checked = 0
    while checked < 200:
        a = rng.choice([2, 2, 3, 3, 4])
        k = rng.choice([2, 3])
        n = rng.randint(k, 5)
        seq = CyclicSequence(tuple(rng.randrange(a) for _ in range(n)), Alphabet(a))
        g = generated_subdigraph(seq, k)
        if g.vertex_count > 10:
            continue
        result = solve_min_walk(g)
        assert min_walk_length(g, result.optimum_length) == result.optimum_length
        _assert_witness_is_least_minimum_walk(g, result)
        checked += 1
    infeasible = 0
    for _ in range(200):
        g = _random_custom_digraph(rng)
        result = solve_min_walk(g)
        assert result.feasible == has_closed_dominating_walk(g)
        if not result.feasible:
            infeasible += 1
            for length in range(g.vertex_count + 1):
                assert enumerate_min_walks(g, length) == []
            continue
        if g.vertex_count <= 5:
            assert min_walk_length(g, result.optimum_length) == result.optimum_length
        _assert_witness_is_least_minimum_walk(g, result)
    assert infeasible > 0
    print(
        f"\n{checked} random subdigraphs and 200 custom digraphs "
        f"({infeasible} infeasible), exact agreement"
    )
