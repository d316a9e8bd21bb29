import itertools
import json
import math
import random
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from debruijn import (
    DomainError,
    InvariantViolation,
    ResourceCapError,
    graphcore,
    watchman,
)
from debruijn.analysis import Classification, Verdict, rotation_representatives, verify
from debruijn.graphcore import (
    Digraph,
    Provenance,
    Walk,
    build_de_bruijn_graph,
    generated_subdigraph,
    is_closed_dominating_walk,
)
from debruijn.seqcore import (
    Alphabet,
    CyclicSequence,
    _shift_arcs,
    gen_eulerian,
    gen_fkm,
    gen_greedy,
    is_de_bruijn_sequence,
    parse_sequence,
    window_ranks,
    window_set,
)
from debruijn.watchman import (
    _bounded_bfs,
    _closed_dominating_ranks,
    _postman,
    _postman_optimum,
    _search_inputs,
    _starts,
    construct_watchman_walk,
    enumerate_min_walks,
    induced_walk,
    solve_min_walk,
)

from oracles import (
    brute_orbit_key,
    canonical_rotation,
    closed_dominating_walks,
    cover_detours,
    has_closed_dominating_walk,
    min_walk_length,
    postman_optimum,
)

FIXTURE_SEQ = "01210123"  # repeated 2-windows, induced walk still minimum

# every full graph G(a, k) with k >= 2 and at most 36 vertices
FULL_GRAPHS = [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (2, 4), (2, 5)]


def fixture_graph():
    return generated_subdigraph(parse_sequence(FIXTURE_SEQ, 4), 3)


def custom_graph(texts, arcs, a=2):
    ranks = [int(t, a) for t in texts]
    return Digraph(Alphabet(a), len(texts[0]), ranks, arcs, Provenance("custom"))


def custom_copy(g):
    """``g`` with custom provenance, so that solve_min_walk searches it
    unseeded."""
    return Digraph(g.alphabet, g.order, g.ranks, g.arcs, Provenance("custom"))


def random_custom_graph(rng, max_vertices=9):
    """A random arc set on up to nine vertices; sparse draws are often infeasible."""
    n = rng.randint(1, max_vertices)
    density = rng.choice([0.15, 0.3, 0.5])
    arcs = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
    return custom_graph([f"{i // 3}{i % 3}" for i in range(n)], arcs, a=3)


class TestWatchmanNumber:
    @pytest.mark.parametrize("a,k,expected", [(2, 3, 4), (3, 2, 3), (2, 2, 2)])
    def test_closed_form(self, a, k, expected):
        # w(G(a, k)) = a**(k-1): the search and the construction attain it
        assert a ** (k - 1) == expected
        assert solve_min_walk(build_de_bruijn_graph(a, k)).optimum_length == expected
        assert construct_watchman_walk(a, k).length == expected

    def test_order_one_graphs_have_a_stationary_watchman(self):
        # not covered by the closed form; reported by the oracle instead
        for a in (2, 3):
            result = solve_min_walk(build_de_bruijn_graph(a, 1))
            assert result.optimum_length == 0
            assert result.witness.label_texts == ("0",)


class TestConstructWatchmanWalk:
    def test_binary_order_three(self):
        walk = construct_watchman_walk(2, 3, parse_sequence("1001", 2))
        assert walk.label_texts == ("100", "001", "011", "110")
        assert walk.closed
        assert is_closed_dominating_walk(walk.digraph, walk)

    def test_binary_order_two(self):
        walk = construct_watchman_walk(2, 2, parse_sequence("01", 2))
        assert walk.label_texts == ("01", "10")
        assert is_closed_dominating_walk(walk.digraph, walk)

    def test_ternary_order_two(self):
        walk = construct_watchman_walk(3, 2, parse_sequence("012", 3))
        assert walk.length == 3
        assert is_closed_dominating_walk(walk.digraph, walk)

    def test_default_seed(self):
        walk = construct_watchman_walk(2, 3)
        assert walk.length == 4
        assert is_closed_dominating_walk(walk.digraph, walk)

    def test_invalid_seed_rejected(self):
        with pytest.raises(DomainError, match="de Bruijn"):
            construct_watchman_walk(2, 3, parse_sequence("1101", 2))
        with pytest.raises(DomainError, match="alphabet"):
            construct_watchman_walk(3, 2, parse_sequence("01", 2))
        with pytest.raises(DomainError):
            construct_watchman_walk(2, 1)

    @pytest.mark.parametrize("a,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
    def test_every_generator_seed_attains_the_formula(self, a, k):
        for gen in (gen_fkm, gen_greedy, gen_eulerian):
            walk = construct_watchman_walk(a, k, gen(a, k - 1))
            assert walk.length == a ** (k - 1)
            assert is_closed_dominating_walk(walk.digraph, walk)


def own_induced_walk(text, a, k):
    d = parse_sequence(text, a)
    return induced_walk(d, k, generated_subdigraph(d, k))


class TestInducedWalk:
    def test_binary_order_three(self):
        walk = own_induced_walk("1001", 2, 3)
        assert walk.label_texts == ("100", "001", "011", "110")
        assert walk.length == 4

    def test_repeated_vertex_is_revisited(self):
        walk = own_induced_walk(FIXTURE_SEQ, 4, 3)
        assert walk.length == 8
        assert walk.label_texts.count("012") == 2

    def test_constant_sequence_loops(self):
        walk = own_induced_walk("000", 2, 3)
        assert walk.length == 3
        g = walk.digraph
        assert walk.arc_steps() == [(g.index("000"), g.index("000"))] * 3
        assert is_closed_dominating_walk(g, walk)

    def test_too_short(self):
        with pytest.raises(DomainError):
            induced_walk(parse_sequence("01", 2), 3, build_de_bruijn_graph(2, 3))

    def test_graph_must_match_alphabet_and_order(self):
        d = parse_sequence("0011", 2)
        other_order = generated_subdigraph(d, 2)
        other_alphabet = generated_subdigraph(parse_sequence("0011", 3), 3)
        for graph in (other_order, other_alphabet):
            with pytest.raises(DomainError, match="do not match"):
                induced_walk(d, 3, graph)

    def test_window_missing_from_graph(self):
        graph = generated_subdigraph(parse_sequence("0001", 2), 3)
        with pytest.raises(DomainError, match="unknown vertex 110"):
            induced_walk(parse_sequence("0011", 2), 3, graph)


class TestSolve:
    """The unseeded search, on custom copies of the builders' graphs
    where it is checked against a known optimum."""

    @pytest.mark.parametrize("a,k", FULL_GRAPHS)
    def test_full_graphs_match_closed_form(self, a, k):
        g = custom_copy(build_de_bruijn_graph(a, k))
        result = solve_min_walk(g, vertex_cap=64)
        assert result.optimum_length == a ** (k - 1)
        assert is_closed_dominating_walk(g, result.witness)
        assert result.witness.length == result.optimum_length

    def test_fixture_subdigraph(self):
        result = solve_min_walk(custom_copy(fixture_graph()))
        assert result.optimum_length == 8

    def test_witness_is_canonical_and_deterministic(self):
        g = build_de_bruijn_graph(2, 3)
        r1, r2 = solve_min_walk(g), solve_min_walk(g)
        assert r1.witness.vertex_indices == r2.witness.vertex_indices
        assert r1.witness.vertex_indices == canonical_rotation(r1.witness)
        assert r1.explored_states == r2.explored_states

    def test_stationary_watchman(self):
        # one center vertex sees everything; nobody else moves
        g = custom_graph(["00", "01", "10"], [(0, 1), (0, 2)])
        result = solve_min_walk(g)
        assert result.optimum_length == 0
        assert result.witness.label_texts == ("00",)
        assert is_closed_dominating_walk(g, result.witness)

    def test_infeasible_graph(self):
        # 01 can never be seen: nothing dominates it and it cannot be reached
        g = custom_graph(["00", "01"], [(0, 0)])
        result = solve_min_walk(g)
        assert not result.feasible
        assert result.optimum_length is None
        assert result.witness is None
        assert result.to_json()["optimum"] is None

    def test_vertex_cap(self):
        g = generated_subdigraph(parse_sequence("01234", 5), 2)  # 25 vertices
        with pytest.raises(ResourceCapError, match="cap"):
            solve_min_walk(g)
        assert solve_min_walk(g, vertex_cap=25).optimum_length == 5

    def test_witnesses_of_binary_order_six_sequences_are_pinned(self):
        # 24 sequences with 34-44-vertex subdigraphs, above the default
        # cap; the file holds each one's witness as found by the search
        # before the cover-mask bound, which must leave witnesses alone
        path = Path(__file__).with_name("solve_b6_witnesses.json")
        pinned = json.loads(path.read_text(encoding="utf-8"))
        assert len(pinned) == 24
        for text, witness in pinned.items():
            g = generated_subdigraph(parse_sequence(text, 2), 6)
            result = solve_min_walk(g, vertex_cap=64)
            assert list(result.witness.label_texts) == witness, text
            assert result.optimum_length == len(witness)

    def test_explored_states_over_the_binary_order_six_pool_are_pinned(self):
        # the total README quotes for the cover-mask search
        path = Path(__file__).with_name("solve_b6_witnesses.json")
        pinned = json.loads(path.read_text(encoding="utf-8"))
        total = 0
        for text in pinned:
            g = custom_copy(generated_subdigraph(parse_sequence(text, 2), 6))
            total += solve_min_walk(g, vertex_cap=64).explored_states
        assert total == 14_563

    def test_explored_states_over_the_sweep_orbit_graphs_are_pinned(self):
        graphs = map(custom_copy, sweep_orbit_graphs(4, 3, range(3, 7)))
        assert sum(solve_min_walk(g).explored_states for g in graphs) == 324

    def test_json_shape(self):
        obj = solve_min_walk(build_de_bruijn_graph(2, 2)).to_json()
        assert set(obj) == {"optimum", "witness", "explored_states"}
        assert obj["optimum"] == 2
        assert obj["witness"] == ["01", "10"]


class TestEnumerate:
    def test_fixture_has_exactly_two_minimum_walks(self):
        g = fixture_graph()
        walks = enumerate_min_walks(g, 8)
        assert len(walks) == 2
        induced = induced_walk(parse_sequence(FIXTURE_SEQ, 4), 3, g)
        assert canonical_rotation(induced) in {canonical_rotation(w) for w in walks}

    def test_binary_order_three_single_class(self):
        g = build_de_bruijn_graph(2, 3)
        walks = enumerate_min_walks(g, 4)
        expected = tuple(g.index(t) for t in ("001", "011", "110", "100"))
        assert [w.vertex_indices for w in walks] == [expected]

    @pytest.mark.parametrize("a,k", FULL_GRAPHS)
    def test_full_graph_minimum_walks_are_de_bruijn_sequences(self, a, k):
        # a minimum walk of G(a, k) lifts a de Bruijn sequence of order
        # k-1, read off its vertices' last symbols; by the BEST theorem
        # there are (a!)**(a**(k-2)) of them, a**(k-1) per rotation class
        g = build_de_bruijn_graph(a, k)
        walks = enumerate_min_walks(g, a ** (k - 1), vertex_cap=64)
        assert len(walks) == math.factorial(a) ** (a ** (k - 2)) // a ** (k - 1)
        for walk in walks:
            symbols = tuple(g.ranks[v] % a for v in walk.vertex_indices)
            assert is_de_bruijn_sequence(CyclicSequence(symbols, Alphabet(a)), k - 1)

    def test_below_optimum_is_empty(self):
        g = build_de_bruijn_graph(2, 3)
        assert enumerate_min_walks(g, 3) == []

    def test_length_zero_lists_dominating_vertices(self):
        g = custom_graph(["00", "01", "10"], [(0, 1), (0, 2)])
        walks = enumerate_min_walks(g, 0)
        assert [w.label_texts for w in walks] == [("00",)]

    def test_no_two_results_are_rotations(self):
        walks = enumerate_min_walks(fixture_graph(), 8)
        canon = [canonical_rotation(w) for w in walks]
        assert len(set(canon)) == len(canon)
        assert [w.vertex_indices for w in walks] == sorted(canon)

    def test_every_result_dominates_at_the_exact_length(self):
        g = fixture_graph()
        for walk in enumerate_min_walks(g, 8):
            assert walk.length == 8
            assert is_closed_dominating_walk(g, walk)

    def test_agrees_with_naive_enumeration(self):
        g = fixture_graph()
        assert {canonical_rotation(w) for w in enumerate_min_walks(g, 8)} == (
            closed_dominating_walks(g, 8)
        )

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            enumerate_min_walks(build_de_bruijn_graph(2, 2), -1)
        # G(2, 5) is above the vertex cap: the length is checked first
        with pytest.raises(DomainError):
            enumerate_min_walks(build_de_bruijn_graph(2, 5), -1)

    def test_one_arc_circuits_have_no_distinct_representation(self):
        # a dominating self-loop coincides with the stationary walk
        g = custom_graph(["00", "01"], [(0, 0), (0, 1)])
        assert [w.label_texts for w in enumerate_min_walks(g, 0)] == [("00",)]
        assert enumerate_min_walks(g, 1) == []

    def test_walks_longer_than_the_recursion_limit(self):
        # the only closed dominating walk of a directed n-cycle is the cycle
        n = 1100
        g = Digraph.from_json(
            {
                "alphabet": 2,
                "order": 11,
                "vertices": [format(i, "011b") for i in range(n)],
                "arcs": [[i, (i + 1) % n] for i in range(n)],
            }
        )
        walks = enumerate_min_walks(g, n, vertex_cap=n)
        assert [w.vertex_indices for w in walks] == [tuple(range(n))]
        assert enumerate_min_walks(g, n - 1, vertex_cap=n) == []


def sweep_orbit_graphs(a, k, lengths):
    """The subdigraph of the first necklace of each orbit a sweep solves."""
    graphs = {}
    for n in lengths:
        for seq in rotation_representatives(a, n):
            graphs.setdefault(brute_orbit_key(seq.symbols, a), generated_subdigraph(seq, k))
    return list(graphs.values())


def assert_covers_match_detours(g):
    for vertex, _, dist_back, layers in _starts(*_search_inputs(g, g.vertex_count)):
        back, detour = cover_detours(g, vertex)
        assert dist_back == [back.get(u, -1) for u in range(g.vertex_count)]
        last = max(max(row.values()) for row in detour.values())
        for t in range(last + 2):  # one layer past the fixed point
            cover = layers[min(t, len(layers) - 1)]
            for u in range(g.vertex_count):
                row = detour.get(u, {})
                assert cover[u] == sum(1 << x for x, d in row.items() if d <= t)


class TestCoverMasks:
    def test_covers_match_brute_force_detours_on_random_digraphs(self):
        rng = random.Random(4242)
        for _ in range(200):
            assert_covers_match_detours(random_custom_graph(rng))

    def test_covers_match_brute_force_detours_on_sweep_orbit_graphs(self):
        graphs = sweep_orbit_graphs(4, 3, range(3, 7))
        assert len(graphs) == 60
        for g in graphs:
            assert_covers_match_detours(g)

    def test_start_bound_never_exceeds_the_shortest_walk_through_start(self):
        # a walk is met from its least vertex, which its canonical
        # rotation starts with; a start the setup drops has no walk
        rng = random.Random(3141)
        checked = 0
        for _ in range(150):
            g = random_custom_graph(rng, max_vertices=6)
            bounds = {
                vertex: bound
                for vertex, bound, _, _ in _starts(*_search_inputs(g, g.vertex_count))
            }
            shortest = {}
            for length in range(g.vertex_count + 3):
                for walk in closed_dominating_walks(g, length):
                    shortest.setdefault(walk[0], length)
            assert set(shortest) <= set(bounds)
            for vertex, length in shortest.items():
                assert bounds[vertex] <= length
                checked += 1
        assert checked > 50

    def test_a_long_cycle_keeps_a_bounded_table(self):
        n = 1100
        g = Digraph(Alphabet(2), 11, range(n), [(i, (i + 1) % n) for i in range(n)])
        out, nb, full = _search_inputs(g, n)
        ((vertex, bound, _, layers),) = _starts(out, nb, full)
        horizon = (1 << 24) // n**2
        assert horizon == 13 == len(layers) - 2
        assert layers[horizon][vertex] != full
        assert layers[horizon + 1] == [full] * n
        # past the horizon nothing is excluded
        assert layers[min(n - 1, len(layers) - 1)][vertex] == full
        assert bound == horizon + 1
        assert solve_min_walk(g, vertex_cap=n).optimum_length == n

    def test_a_truncated_table_keeps_the_search_exact(self, monkeypatch):
        rng = random.Random(2024)
        graphs = [random_custom_graph(rng) for _ in range(120)]
        expected = []
        for g in graphs:
            result = solve_min_walk(g)
            expected.append((result.optimum_length, result.witness))
        for g, (optimum, witness) in zip(graphs, expected):
            n = g.vertex_count
            horizon = rng.randrange(4)
            monkeypatch.setattr(watchman, "_COVER_BITS", horizon * n * n)
            for *_, layers in _starts(*_search_inputs(g, n)):
                assert len(layers) <= horizon + 2
            result = solve_min_walk(g)
            assert result.optimum_length == optimum
            if witness is not None:
                assert result.witness.vertex_indices == witness.vertex_indices
                walks = enumerate_min_walks(g, optimum)
                assert walks[0].vertex_indices == witness.vertex_indices

    def test_enumeration_is_exact_at_and_above_the_optimum(self):
        rng = random.Random(1618)
        checked = 0
        for _ in range(150):
            g = random_custom_graph(rng, max_vertices=6)
            result = solve_min_walk(g)
            if not result.feasible:
                continue
            for length in (result.optimum_length, result.optimum_length + 1):
                if length == 1:  # a dominating self-loop is the stationary walk
                    continue
                walks = enumerate_min_walks(g, length)
                assert {w.vertex_indices for w in walks} == closed_dominating_walks(
                    g, length
                )
                checked += 1
        assert checked > 50


class TestSearchKernels:
    @pytest.mark.parametrize("a, k", [(2, 3), (3, 3), (2, 4), (2, 5)])
    def test_window_space_masks_give_the_watchman_number(self, a, k):
        # on B = G(a, k-1) with mask {p} per vertex, a walk dominates what
        # it visits: the search is over the windows, not over G(a, k)
        out = build_de_bruijn_graph(a, k - 1).adjacency
        n = len(out)
        nb = [1 << v for v in range(n)]
        full = (1 << n) - 1
        (start,) = _starts(out, nb, full)  # only vertex 0 reaches all of B
        found = next(
            walk
            for limit in itertools.count(start[1])  # deepened from its bound
            if (walk := _bounded_bfs(out, nb, full, start, limit)[0])
        )
        assert sorted(found) == list(range(n))
        assert all(v in out[u] for u, v in zip(found, found[1:] + found[:1]))
        full_graph = build_de_bruijn_graph(a, k)
        optimum = solve_min_walk(full_graph, vertex_cap=a**k).optimum_length
        assert len(found) == optimum == a ** (k - 1)

    def test_the_return_distance_prunes_a_state(self):
        # a state whose way back to its start is longer than the arcs left
        # is dropped, not expanded: without that check 5 states are
        g = custom_graph(
            ["000", "001", "010", "110"], [(0, 1), (1, 3), (2, 0), (3, 1), (3, 2)]
        )
        result = solve_min_walk(g)
        assert result.optimum_length == 4
        assert result.witness.label_texts == ("000", "001", "110", "010")
        assert result.explored_states == 4


@st.composite
def generating_sequences(draw):
    a = draw(st.integers(2, 4))
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k, 5))
    syms = tuple(draw(st.integers(0, a - 1)) for _ in range(n))
    return CyclicSequence(syms, Alphabet(a)), k


class TestOracleBounds:
    @given(generating_sequences())
    def test_optimum_is_bracketed_by_certificates(self, seq_k):
        # the induced walk is always a closed dominating walk, so the
        # optimum never exceeds len(d); any moving walk of length L
        # dominates at most L*(a+1) vertices, which bounds it from below
        seq, k = seq_k
        g = generated_subdigraph(seq, k)
        result = solve_min_walk(g)
        assert result.feasible
        walk = induced_walk(seq, k, g)
        assert is_closed_dominating_walk(g, walk)
        assert result.optimum_length <= walk.length == len(seq)
        a = seq.alphabet.size
        if result.optimum_length > 0:
            assert result.optimum_length >= -(-g.vertex_count // (a + 1))


class TestOracleCrossChecks:
    def test_random_small_subdigraphs_agree_with_naive_search(self):
        rng = random.Random(1106)
        checked = 0
        while checked < 60:
            a = rng.choice([2, 2, 3])
            k = rng.choice([2, 3])
            n = rng.randint(k, 4)
            seq = CyclicSequence(tuple(rng.randrange(a) for _ in range(n)), Alphabet(a))
            g = generated_subdigraph(seq, k)
            if g.vertex_count > 6:
                continue
            result = solve_min_walk(g)
            assert is_closed_dominating_walk(g, result.witness)
            assert min_walk_length(g, result.optimum_length) == result.optimum_length
            least = enumerate_min_walks(g, result.optimum_length)[0]
            assert result.witness.vertex_indices == least.vertex_indices
            checked += 1

    def test_random_custom_digraphs_agree_with_naive_search(self):
        # the witness is the least canonical minimum walk, which the
        # enumerator lists first; infeasible draws leave both searches empty
        rng = random.Random(2718)
        infeasible = 0
        for _ in range(300):
            g = random_custom_graph(rng)
            n = g.vertex_count
            result = solve_min_walk(g)
            assert result.feasible == has_closed_dominating_walk(g)
            if not result.feasible:
                infeasible += 1
                for length in range(n + 1):
                    assert enumerate_min_walks(g, length) == []
                continue
            assert is_closed_dominating_walk(g, result.witness)
            least = enumerate_min_walks(g, result.optimum_length)[0]
            assert result.witness.vertex_indices == least.vertex_indices
            if n <= 5:
                assert min_walk_length(g, result.optimum_length) == result.optimum_length
        assert 0 < infeasible < 300

    def test_stationary_witness_is_the_least_dominating_vertex(self):
        g = custom_graph(["00", "01", "10"], [(1, 0), (1, 2), (2, 0), (2, 1)])
        result = solve_min_walk(g)
        assert result.witness.label_texts == ("01",)
        least = enumerate_min_walks(g, 0)[0]
        assert result.witness.vertex_indices == least.vertex_indices

    def test_naive_agrees_on_infeasible(self):
        g = custom_graph(["00", "01"], [(0, 0)])
        assert min_walk_length(g, 6) is None
        assert not solve_min_walk(g).feasible
        # every vertex is dominated by some vertex, but the only dominating
        # component is a sink nothing can leave and come back to
        g = custom_graph(["00", "01", "02", "10"], [(1, 0), (2, 0), (3, 0)], a=3)
        assert not has_closed_dominating_walk(g)
        assert not solve_min_walk(g).feasible
        assert all(enumerate_min_walks(g, length) == [] for length in range(5))


# (a, k, lengths, necklaces with at most 24 vertices, those whose B_D
# needs extra arcs): at k = 2, B_D is one vertex with a loop per window,
# and a binary B_D at k = 3 has its arcs 0 -> 1 and 1 -> 0 both or neither
POSTMAN_FAMILIES = [
    (2, 3, range(3, 11), 256, 0),
    (3, 2, range(2, 7), 222, 0),
    (4, 3, range(3, 7), 1002, 180),
    (2, 4, range(4, 10), 144, 44),
    (5, 2, range(2, 6), 830, 0),
    (3, 3, range(3, 7), 216, 36),
]


class TestPostmanTheorem:
    """The watchman number of a generated subdigraph, k >= 2, is the
    length of the directed Chinese postman tour of the window digraph
    B_D (``oracles.postman_optimum``)."""

    @pytest.mark.parametrize("a,k,lengths,checked,unbalanced", POSTMAN_FAMILIES)
    def test_postman_optimum_equals_the_oracle_on_every_small_necklace(
        self, a, k, lengths, checked, unbalanced
    ):
        optima = []
        for n in lengths:
            for seq in rotation_representatives(a, n):
                g = generated_subdigraph(seq, k)
                if g.vertex_count <= 24:
                    optimum = postman_optimum(seq, k)
                    assert optimum == solve_min_walk(g, 24).optimum_length, seq.text
                    optima.append((optimum, g.vertex_count // a))
        assert len(optima) == checked
        # a*|W| vertices; an optimum above |W| >= 2 took a balancing arc
        assert sum(w > 1 and opt > w for opt, w in optima) == unbalanced

    def test_postman_optimum_equals_the_oracle_on_random_sequences(self):
        rng = random.Random(2026)
        checked = 0
        while checked < 1500:
            a, k = rng.choice((2, 3, 4)), rng.randint(2, 6)
            n = rng.randint(k, 20)
            d = CyclicSequence(tuple(rng.randrange(a) for _ in range(n)), Alphabet(a))
            g = generated_subdigraph(d, k)
            if g.vertex_count > 30:
                continue
            expected = solve_min_walk(g, 30).optimum_length
            assert postman_optimum(d, k) == expected, (d.text, k)
            checked += 1

    @pytest.mark.parametrize(
        "text,a,k,expected",
        [
            ("0000", 2, 3, 0),  # one window
            ("01", 2, 2, 2),  # B_D is one vertex with two loops
            ("0011", 2, 3, 4),  # distinct windows: D is an Euler circuit of B_D
            ("0001", 2, 3, 3),  # the window 00 twice: |W| = 3
            ("00101", 2, 4, 5),  # 01 has one arc more in than out
            ("01210123", 4, 3, 8),
        ],
    )
    def test_postman_optimum_examples(self, text, a, k, expected):
        assert postman_optimum(parse_sequence(text, a), k) == expected


def flow_optimum(d, k):
    return _postman_optimum(window_set(d, k), d.alphabet.size, k)


class TestPostmanFlow:
    """``watchman._postman_optimum``, the min-cost flow that verify and
    sweep use, against the Bellman-Ford reference ``oracles.postman_optimum``
    and the exact search."""

    # the postman families, plus order 1, where W is the one empty window
    @pytest.mark.parametrize(
        "a,k,lengths,checked",
        [(a, k, lengths, checked) for a, k, lengths, checked, _ in POSTMAN_FAMILIES]
        + [(3, 1, range(1, 6), 95)],
    )
    def test_flow_equals_the_reference_and_the_oracle_on_every_small_necklace(
        self, a, k, lengths, checked
    ):
        count = one_window = 0
        for n in lengths:
            for seq in rotation_representatives(a, n):
                g = generated_subdigraph(seq, k)
                if g.vertex_count <= 24:
                    optimum = flow_optimum(seq, k)
                    assert optimum == postman_optimum(seq, k), seq.text
                    assert optimum == solve_min_walk(g, 24).optimum_length, seq.text
                    count += 1
                    one_window += len(window_set(seq, k)) == 1
        assert count == checked
        assert one_window  # constant necklaces, and every necklace at k = 1

    def test_flow_equals_the_reference_and_the_oracle_on_random_sequences(self):
        rng = random.Random(2027)
        checked = orders = 0
        while checked < 1500:
            a, k = rng.choice((2, 3, 4)), rng.randint(1, 6)
            n = rng.randint(k, 20)
            if rng.random() < 0.05:  # one window
                d = CyclicSequence((rng.randrange(a),) * n, Alphabet(a))
            else:
                d = CyclicSequence(tuple(rng.randrange(a) for _ in range(n)), Alphabet(a))
            g = generated_subdigraph(d, k)
            if g.vertex_count > 30:
                continue
            expected = solve_min_walk(g, 30).optimum_length
            assert flow_optimum(d, k) == postman_optimum(d, k) == expected, (d.text, k)
            checked += 1
            orders |= 1 << k
        assert orders == 0b1111110  # every k in 1..6

    @pytest.mark.parametrize("a,n,k,windows", [(2, 512, 9, 221), (3, 729, 6, 235)])
    def test_flow_equals_the_reference_on_a_long_sequence(self, a, n, k, windows):
        d = CyclicSequence(tuple(random.Random(7).choices(range(a), k=n)), Alphabet(a))
        assert len(window_set(d, k)) == windows
        optimum = flow_optimum(d, k)
        assert optimum == postman_optimum(d, k)
        assert optimum > windows  # B_D needed extra arcs

    def test_reversal_keeps_the_oracle_optimum(self):
        # B of D reversed is B_D with every arc turned round, which keeps a
        # postman tour's cost; the check needs no flow code. The two
        # subdigraphs need not be isomorphic: some pairs differ in their
        # multisets of (out-degree, in-degree)
        def degrees(g):
            ins = Counter(v for _, v in g.arcs)
            return sorted((len(out), ins[v]) for v, out in enumerate(g.adjacency))

        rng = random.Random(2028)
        checked = differ = 0
        while checked < 1000:
            a, k = rng.choice((2, 3, 4)), rng.randint(2, 6)
            n = rng.randint(k, 18)
            d = CyclicSequence(tuple(rng.randrange(a) for _ in range(n)), Alphabet(a))
            rev = CyclicSequence(d.symbols[::-1], d.alphabet)
            g, h = generated_subdigraph(d, k), generated_subdigraph(rev, k)
            if g.vertex_count > 30:
                continue
            assert solve_min_walk(g, 30).optimum_length == solve_min_walk(h, 30).optimum_length
            differ += degrees(g) != degrees(h)
            checked += 1
        assert differ


def seeded_pairs():
    """Every generated subdigraph this suite solves, with the cap it is
    solved under, plus every full graph G(a, k) of at most 36 vertices."""
    for a, k, lengths in [f[:3] for f in POSTMAN_FAMILIES] + [(3, 1, range(1, 6))]:
        for n in lengths:
            for seq in rotation_representatives(a, n):
                g = generated_subdigraph(seq, k)
                if g.vertex_count <= 24:
                    yield g, 24
    rng = random.Random(2026)  # the draws of the postman theorem's random test
    drawn = 0
    while drawn < 1500:
        a, k = rng.choice((2, 3, 4)), rng.randint(2, 6)
        n = rng.randint(k, 20)
        g = generated_subdigraph(
            CyclicSequence(tuple(rng.randrange(a) for _ in range(n)), Alphabet(a)), k
        )
        if g.vertex_count <= 30:
            drawn += 1
            yield g, 30
    for text in json.loads(Path(__file__).with_name("solve_b6_witnesses.json").read_text()):
        yield generated_subdigraph(parse_sequence(text, 2), 6), 64
    yield fixture_graph(), 24
    for a in range(2, 37):
        for k in range(1, 6):
            if a**k <= 36:
                yield build_de_bruijn_graph(a, k), 64


class TestSeededSolve:
    """``solve_min_walk`` starts the deepening of a generated or de Bruijn
    graph one round below the postman optimum of its W; the unseeded
    search, run on a custom copy, is the oracle it is checked against."""

    def test_seeded_and_unseeded_searches_agree(self):
        checked = fewer = 0
        for g, cap in seeded_pairs():
            seeded = solve_min_walk(g, cap)
            plain = solve_min_walk(custom_copy(g), cap)
            assert seeded.optimum_length == plain.optimum_length, g.to_json()
            assert seeded.witness.vertex_indices == plain.witness.vertex_indices
            assert seeded.explored_states <= plain.explored_states
            checked += 1
            fewer += seeded.explored_states < plain.explored_states
        assert checked == 4_334
        assert fewer

    def test_seeded_states_over_the_binary_order_six_pool_are_pinned(self):
        # the unseeded total is 14,563 (TestSolve)
        path = Path(__file__).with_name("solve_b6_witnesses.json")
        total = 0
        for text, witness in json.loads(path.read_text(encoding="utf-8")).items():
            g = generated_subdigraph(parse_sequence(text, 2), 6)
            result = solve_min_walk(g, vertex_cap=64)
            assert list(result.witness.label_texts) == witness, text
            total += result.explored_states
        assert total == 8_142

    @staticmethod
    def seed(monkeypatch, optimum):
        """Make every seed ``optimum``, whatever the graph."""
        monkeypatch.setattr(watchman, "_postman_optimum", lambda w, a, k: optimum)

    def test_a_seed_above_the_optimum_meets_a_shorter_walk(self, monkeypatch):
        # the first round, at the true optimum 8, finds a walk
        self.seed(monkeypatch, 9)
        with pytest.raises(InvariantViolation, match="seeded optimum 9, .* length 8"):
            solve_min_walk(fixture_graph())

    def test_a_seed_below_the_optimum_meets_no_walk(self, monkeypatch):
        # the rounds at 6 and 7 find nothing
        self.seed(monkeypatch, 7)
        with pytest.raises(InvariantViolation, match="seeded optimum 7, .* no walk"):
            solve_min_walk(fixture_graph())

    @pytest.mark.parametrize("seed", [0, 2, 3, 5])
    def test_wrong_seeds_around_the_counting_bound_are_refused(self, monkeypatch, seed):
        # G(2, 3): optimum 4, counting bound ceil(8 / 3) = 3, so the
        # seeds 0, 2 and 3 start at the bound, where no walk fits
        self.seed(monkeypatch, seed)
        with pytest.raises(InvariantViolation, match=f"seeded optimum {seed}, "):
            solve_min_walk(build_de_bruijn_graph(2, 3))

    def test_stationary_graphs_check_their_seed_and_infeasible_ones_take_none(
        self, monkeypatch
    ):
        # 000 generates {000, 001}, and 000 sees both
        stationary = generated_subdigraph(parse_sequence("000", 2), 3)
        assert solve_min_walk(stationary).optimum_length == 0
        # W = {00, 11}: two blocks that no walk joins. No sequence has
        # this window set, yet the constructor takes any W, so the
        # search asks for no seed
        infeasible = Digraph(
            Alphabet(2), 3, [0, 1, 6, 7], [(0, 0), (0, 1), (3, 2), (3, 3)],
            Provenance("generated", "0011"),
        )
        self.seed(monkeypatch, 2)
        with pytest.raises(InvariantViolation, match="length 0"):
            solve_min_walk(stationary)
        assert not solve_min_walk(infeasible).feasible

    def test_any_w_solves_like_its_custom_copy(self):
        # a W that is no sequence's window set would stall the postman
        # flow, so only a graph the search finds feasible is seeded
        rng = random.Random(2040)
        infeasible = 0
        for _ in range(600):
            a, k = rng.choice((2, 3)), rng.randint(1, 4)
            strings = a ** (k - 1)
            windows = sorted(rng.sample(range(strings), rng.randint(1, min(8, strings))))
            g = graphcore._window_digraph(
                Alphabet(a), k, windows, Provenance("generated", "0")
            )
            if g.vertex_count > 16:
                continue
            seeded, plain = solve_min_walk(g), solve_min_walk(custom_copy(g))
            assert seeded.optimum_length == plain.optimum_length, (a, k, windows)
            if plain.feasible:
                assert seeded.witness.vertex_indices == plain.witness.vertex_indices
            infeasible += not plain.feasible
        assert infeasible > 50


def window_digraph(text, a, k):
    """The arc lists of B_D for the sequence ``text``, as the flow reads them."""
    return _shift_arcs(window_set(parse_sequence(text, a), k), a, k - 1)


def certified(tails, heads, extra, copies, potential):
    """True iff the flow's answer carries its certificate, checked here
    from scratch: the tour 1 + copies balances every vertex and has
    |W| + extra arcs, and the potentials' reduced costs are non-negative
    with the same sum."""
    x = [1 + c for c in copies]
    balance = Counter()
    for u, v, uses in zip(tails, heads, x):
        balance[u] += uses
        balance[v] -= uses
    reduced = [1 + potential[u] - potential[v] for u, v in zip(tails, heads)]
    return (
        not any(balance.values())
        and min(x) >= 1
        and min(reduced) >= 0
        and sum(x) == sum(reduced) == len(tails) + extra
    )


# sequences whose B_D needs extra arcs, one or two
UNBALANCED = [
    ("00101", 2, 4),
    ("0010011", 2, 4),
    ("001012", 3, 3),
    ("001013", 4, 3),
    ("000100011", 2, 5),
]
# sequences whose B_D is balanced already, with two vertices or more
BALANCED = [("0011", 2, 3), ("011200122", 3, 3), ("0001011100", 2, 4)]
# sequences at k = 2, whose B_D is loops on one vertex
LOOPS = [("01", 2, 2), ("0121", 3, 2), ("0123", 4, 2)]


def under_report(tails, heads, extra, copies, potential):
    return extra - 1, copies, potential


def drop_copy(tails, heads, extra, copies, potential):
    i = next(i for i, c in enumerate(copies) if c)
    return extra, copies[:i] + [copies[i] - 1] + copies[i + 1 :], potential


def move_copy(tails, heads, extra, copies, potential):
    # onto an arc with other ends, so only the balance breaks
    arcs = list(zip(tails, heads))
    i = next(i for i, c in enumerate(copies) if c)
    j = next(j for j, arc in enumerate(arcs) if arc != arcs[i])
    copies = list(copies)
    copies[i] -= 1
    copies[j] += 1
    return extra, copies, potential


def shift_potential(tails, heads, extra, copies, potential):
    # at a vertex with more arcs out than in, or in than out, raising the
    # potential by 1 changes the sum of the reduced costs
    degree = Counter(tails)
    degree.subtract(heads)
    potential = list(potential)
    potential[next(v for v, d in degree.items() if d)] += 1
    return extra, copies, potential


def sink_potential(tails, heads, extra, copies, potential):
    # at a balanced vertex the sum of the reduced costs stays, but its
    # arcs in from other vertices get reduced costs below 0
    potential = list(potential)
    potential[tails[0]] += len(tails) + extra + 1
    return extra, copies, potential


def negative_copy(tails, heads, extra, copies, potential):
    # two loops: the balance and the sums stay, but one arc is used 0 times
    return extra, [-1, 1] + copies[2:], potential


def unreported_loop_copy(tails, heads, extra, copies, potential):
    return extra, [copies[0] + 1] + copies[1:], potential


def reported_loop_copy(tails, heads, extra, copies, potential):
    # a longer balanced tour whose length the potentials do not certify
    return extra + 1, [copies[0] + 1] + copies[1:], potential


# each corruption of the flow's answer, with the sequences it applies to;
# from move_copy on, each breaks exactly one part of the certificate
CORRUPTIONS = [
    (under_report, UNBALANCED),
    (drop_copy, UNBALANCED),
    (shift_potential, UNBALANCED),
    (move_copy, UNBALANCED),
    (sink_potential, BALANCED),
    (negative_copy, LOOPS),
    (unreported_loop_copy, LOOPS),
    (reported_loop_copy, LOOPS),
]


class TestPostmanKernel:
    """``watchman._postman``, the min-cost flow on arc lists, and the
    certificate ``_postman_optimum`` checks before it answers."""

    @pytest.mark.parametrize("text,a", [("01", 2), ("0121", 3), ("0123", 4), ("00", 2)])
    def test_parallel_loops_at_order_two(self, text, a):
        # at k = 2 every window is a loop on the one empty (k-2)-string
        tails, heads = window_digraph(text, a, 2)
        assert set(tails) == set(heads) == {0}
        assert _postman(tails, heads) == (0, [0] * len(tails), [0])

    # every necklace of the families, whatever its vertex count
    @pytest.mark.parametrize(
        "a,k,lengths,family_unbalanced",
        [(a, k, lengths, u) for a, k, lengths, _, u in POSTMAN_FAMILIES],
    )
    def test_extra_equals_the_reference_on_every_necklace(
        self, a, k, lengths, family_unbalanced
    ):
        checked = unbalanced = 0
        for n in lengths:
            for seq in rotation_representatives(a, n):
                windows = window_set(seq, k)
                if len(windows) == 1:
                    continue
                tails, heads = _shift_arcs(windows, a, k - 1)
                extra, copies, potential = _postman(tails, heads)
                assert len(windows) + extra == postman_optimum(seq, k), seq.text
                assert certified(tails, heads, extra, copies, potential), seq.text
                checked += 1
                unbalanced += extra > 0
        assert checked
        assert bool(unbalanced) == bool(family_unbalanced)

    @pytest.mark.parametrize("text,a,k", UNBALANCED + BALANCED + LOOPS)
    def test_the_corrupted_sequences_are_what_their_lists_say(self, text, a, k):
        tails, heads = window_digraph(text, a, k)
        extra, copies, potential = _postman(tails, heads)
        assert sum(copies) == extra
        if (text, a, k) in UNBALANCED:
            assert extra > 0
        elif (text, a, k) in BALANCED:
            assert extra == 0 and len(set(tails)) > 1
        else:
            assert tails == heads == [0] * len(tails) and len(tails) > 1

    @pytest.mark.parametrize(
        "corrupt,text,a,k",
        [(corrupt, *case) for corrupt, cases in CORRUPTIONS for case in cases],
    )
    def test_a_corrupted_flow_fails_verify(self, monkeypatch, corrupt, text, a, k):
        d = parse_sequence(text, a)
        verify(d, k)  # the real flow passes
        real = watchman._postman
        monkeypatch.setattr(
            watchman, "_postman", lambda t, h: corrupt(t, h, *real(t, h))
        )
        with pytest.raises(InvariantViolation):
            verify(d, k)

    def test_a_balanced_digraph_with_a_shorter_tour_than_its_sequence(self):
        # 011200122 walks the arcs 0 -> 1, 1 -> 2 and 2 -> 0 of its
        # balanced B_D twice each, so an Euler circuit of B_D is 3 arcs
        # shorter, though no certificate applies to it
        d = parse_sequence("011200122", 3)
        windows = window_set(d, 3)
        assert len(windows) == 6
        rec = verify(d, 3)
        assert rec.oracle_optimum == 6 and rec.induced_length == 9
        assert not rec.is_watchman
        assert rec.classification.verdict is Verdict.UNDETERMINED
        assert rec.classification is Classification.UNDETERMINED
        tails, heads = window_digraph("011200122", 3, 3)
        assert certified(tails, heads, *_postman(tails, heads))


def graphcore_closed_dominating(g, ranks):
    """The reference for ``_closed_dominating_ranks``: the walk on these
    vertex ranks, built on the digraph ``g`` and read by graphcore. A rank
    that is no vertex of ``g`` makes no walk of it."""
    if not set(ranks) <= set(g.ranks):
        return False
    walk = Walk(g, tuple(map(g.index_of_rank, ranks)), closed=True)
    return is_closed_dominating_walk(g, walk)


def rank_mutants(ranks):
    """Each rank list with one rank dropped, then each with two cyclically
    adjacent ranks swapped; none for a single rank."""
    n = len(ranks)
    if n < 2:
        return []
    drops = [ranks[:i] + ranks[i + 1 :] for i in range(n)]
    swaps = []
    for i in range(n):
        j = (i + 1) % n
        swapped = list(ranks)
        swapped[i], swapped[j] = ranks[j], ranks[i]
        swaps.append(swapped)
    return drops + swaps


class TestClosedDominatingRanks:
    """``watchman._closed_dominating_ranks``, verify's closed-walk check on
    window ranks, against graphcore on the built subdigraph."""

    # 1,799 necklaces in all
    @pytest.mark.parametrize(
        "a,k,lengths,necklaces",
        [
            (2, 1, range(1, 6), 23),
            (3, 1, range(1, 5), 44),
            (2, 3, range(3, 11), 256),
            (3, 2, range(2, 7), 222),
            (4, 3, range(3, 7), 1002),
            (2, 4, range(4, 11), 252),
        ],
    )
    def test_agrees_with_graphcore_on_every_necklace_and_its_mutants(
        self, a, k, lengths, necklaces
    ):
        verdicts = Counter()
        # the induced walks of the last three necklaces: every step is a
        # shift, but the ranks may leave W x {0..a-1} or miss a window
        recent = deque(maxlen=3)
        for n in lengths:
            for seq in rotation_representatives(a, n):
                g = generated_subdigraph(seq, k)
                windows, ranks = window_set(seq, k), window_ranks(seq, k)
                # an induced walk passes every window, so it always dominates
                assert _closed_dominating_ranks(ranks, windows, a, k), seq.text
                assert is_closed_dominating_walk(g, induced_walk(seq, k, g)), seq.text
                verdicts["induced"] += 1
                for walk in rank_mutants(ranks) + list(recent):
                    ok = _closed_dominating_ranks(walk, windows, a, k)
                    assert ok == graphcore_closed_dominating(g, walk), (seq.text, walk)
                    verdicts[ok] += 1
                recent.append(ranks)
        assert verdicts["induced"] == necklaces
        # at k = 1, G_D is complete with a loop at each vertex, so every
        # walk on its vertices is closed and dominating
        assert verdicts[True] and (verdicts[False] or k == 1)

    @given(st.data())
    def test_agrees_with_graphcore_on_mutated_walks(self, data):
        a = data.draw(st.integers(2, 4))
        k = data.draw(st.integers(1, 4))
        word = data.draw(st.lists(st.integers(0, a - 1), min_size=k, max_size=12))
        seq = CyclicSequence(tuple(word), Alphabet(a))
        g = generated_subdigraph(seq, k)
        windows, walk = window_set(seq, k), window_ranks(seq, k)
        kinds = ["replace", "drop", "swap", "outside", "other"]
        kind = data.draw(st.sampled_from(kinds))
        i = data.draw(st.integers(0, len(walk) - 1))
        if kind == "replace":  # by a vertex of G_D, so only arcs and cover decide
            walk[i] = data.draw(st.sampled_from(g.ranks))
        elif kind == "drop" and len(walk) > 1:
            del walk[i]
        elif kind == "swap":
            j = data.draw(st.integers(0, len(walk) - 1))
            walk[i], walk[j] = walk[j], walk[i]
        elif kind == "outside":  # a rank x with x // a not in W
            outside = [x for x in range(a ** k + a) if x // a not in windows]
            walk[i] = data.draw(st.sampled_from(outside))
        elif kind == "other":  # every step a shift, but W may gain or lose
            extra = data.draw(st.lists(st.integers(0, a - 1), max_size=4))
            other = word[: data.draw(st.integers(k, len(word)))] + extra
            walk = window_ranks(CyclicSequence(tuple(other), Alphabet(a)), k)
        ok = _closed_dominating_ranks(walk, windows, a, k)
        assert ok == graphcore_closed_dominating(g, walk), (seq.text, k, kind, walk)
        if kind == "outside":
            assert not ok
