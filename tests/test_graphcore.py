import itertools
import json
import random
from collections import Counter

import pytest

import oracles

from debruijn import DomainError, ResourceCapError, graphcore
from debruijn.graphcore import (
    Digraph,
    Provenance,
    Walk,
    build_de_bruijn_graph,
    generated_subdigraph,
    is_closed_dominating_walk,
    to_dot,
)
from debruijn.seqcore import (
    Alphabet,
    CyclicSequence,
    gen_eulerian,
    is_de_bruijn_sequence,
    k_tour,
    parse_sequence,
    window_set,
)
from debruijn.watchman import induced_walk


def labels_of(g, indices):
    return {g.label(i) for i in indices}


SMALL_PAIRS = [(a, k) for a in range(2, 37) for k in range(1, 9) if a**k <= 256]


class TestBuildDeBruijnGraph:
    def test_order_two_binary(self):
        g = build_de_bruijn_graph(2, 2)
        assert g.vertex_count == 4
        assert len(g.arcs) == 8
        assert (g.index("00"), g.index("00")) in g.arcs  # self-loop
        assert (g.index("10"), g.index("01")) in g.arcs
        assert (g.index("01"), g.index("11")) in g.arcs

    def test_order_two_ternary(self):
        g = build_de_bruijn_graph(3, 2)
        assert g.vertex_count == 9
        assert len(g.arcs) == 27

    def test_order_three_binary_contains_known_cycle(self):
        g = build_de_bruijn_graph(2, 3)
        assert g.vertex_count == 8
        assert len(g.arcs) == 16
        cycle = ["100", "001", "011", "110", "100"]
        for u, v in zip(cycle, cycle[1:]):
            assert (g.index(u), g.index(v)) in g.arcs

    def test_vertices_in_lexicographic_order(self):
        g = build_de_bruijn_graph(2, 2)
        assert g.labels == ("00", "01", "10", "11")

    @pytest.mark.parametrize("a,k", SMALL_PAIRS)
    def test_regular_degrees_and_counts(self, a, k):
        g = build_de_bruijn_graph(a, k)
        assert g.vertex_count == a**k
        assert len(g.arcs) == a ** (k + 1)
        in_degree = Counter(v for _, v in g.arcs)
        for v in range(g.vertex_count):
            assert len(g.adjacency[v]) == a
            assert in_degree[v] == a

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            build_de_bruijn_graph(2, 13)


class TestGeneratedSubdigraph:
    @pytest.mark.parametrize(
        "a,k", [(a, k) for a in range(2, 37) for k in range(1, 7) if a**k <= 81]
    )
    def test_full_sequence_generates_full_graph(self, a, k):
        from debruijn.seqcore import gen_fkm

        full = build_de_bruijn_graph(a, k)
        gen = generated_subdigraph(gen_fkm(a, k), k)
        assert gen.labels == full.labels
        assert gen.arcs == full.arcs
        assert gen.provenance.kind == "generated"

    def test_repeated_window_fixture(self):
        d = parse_sequence("01210123", 4)
        g = generated_subdigraph(d, 3)
        assert g.vertex_count == 24
        assert all(g.has_vertex(label) for label in g.labels)
        assert all(g.has_vertex(i) for i in range(g.vertex_count))
        assert set(k_tour(d, 3)) <= set(g.labels)
        assert g.provenance.sequence == "01210123"

    def test_constant_sequence_keeps_zero_outdegree_successors(self):
        g = generated_subdigraph(parse_sequence("000", 2), 3)
        assert g.labels == ("000", "001")
        assert g.arcs == {(0, 0), (0, 1)}
        assert g.adjacency[g.index("001")] == ()

    def test_too_short(self):
        with pytest.raises(DomainError):
            generated_subdigraph(parse_sequence("10", 2), 3)

    @pytest.mark.parametrize(
        "text,a,k",
        [("1001", 2, 3), ("0121", 3, 2), ("01210123", 4, 3), ("012", 3, 3)],
    )
    def test_always_arc_induced_in_full_graph(self, text, a, k):
        d = parse_sequence(text, a)
        sub = generated_subdigraph(d, k)
        full = build_de_bruijn_graph(a, k)
        kept = set(sub.labels)
        expected = {
            (u, v)
            for u, v in (
                (sub.index(full.label(fu)), sub.index(full.label(fv)))
                for fu, fv in full.arcs
                if full.label(fu) in kept and full.label(fv) in kept
            )
        }
        assert sub.arcs == expected

    def test_distinct_window_sequences_have_a_times_n_vertices(self):
        for text, a, k in [("0011", 2, 3), ("001", 2, 3), ("012", 3, 2), ("0123", 4, 2)]:
            d = parse_sequence(text, a)
            g = generated_subdigraph(d, k)
            assert g.vertex_count == a * len(d)


class TestDomination:
    def test_closed_out_neighborhood(self):
        g = build_de_bruijn_graph(2, 3)
        i = g.index("100")
        assert labels_of(g, {i, *g.adjacency[i]}) == {"100", "000", "001"}

    def test_loop_collapses(self):
        g = build_de_bruijn_graph(2, 2)
        i = g.index("00")
        assert labels_of(g, {i, *g.adjacency[i]}) == {"00", "01"}

    @pytest.mark.parametrize("a,k", [(2, 3), (3, 2), (4, 2)])
    def test_neighborhood_size_bound(self, a, k):
        g = build_de_bruijn_graph(a, k)
        for v in range(g.vertex_count):
            assert len({v, *g.adjacency[v]}) <= a + 1

    def test_unknown_vertex(self):
        g = build_de_bruijn_graph(2, 2)
        with pytest.raises(DomainError):
            g.index("22")
        with pytest.raises(DomainError):
            g.index(99)

    def test_label_of_the_right_length_that_is_no_vertex(self):
        g = generated_subdigraph(parse_sequence("0000", 2), 3)  # 000 and 001
        with pytest.raises(DomainError, match="^unknown vertex 011$"):
            g.index("011")

    @pytest.mark.parametrize("i", [2, -1])
    def test_label_index_out_of_range(self, i):
        g = generated_subdigraph(parse_sequence("0000", 2), 3)
        with pytest.raises(DomainError, match=f"^vertex index {i} out of range$"):
            g.label(i)

    def test_dominating_sets(self):
        g = build_de_bruijn_graph(2, 3)
        out = oracles.out_lists(g)
        assert oracles.dominates(out, 8, map(g.index, ["100", "001", "011", "110"]))
        assert oracles.dominates(out, 8, range(8))
        assert not oracles.dominates(out, 8, [g.index("000")])


class TestWalks:
    def test_length_conventions(self):
        g = build_de_bruijn_graph(2, 2)
        assert Walk(g, (0, 1, 2), closed=True).length == 3
        assert Walk(g, (0, 1, 2), closed=False).length == 2
        assert Walk(g, (0,), closed=True).length == 0

    def test_arc_steps_wraparound(self):
        g = build_de_bruijn_graph(2, 2)
        walk = Walk(g, (0, 1, 2), closed=True)
        assert walk.arc_steps() == [(0, 1), (1, 2), (2, 0)]
        assert Walk(g, (0,), closed=True).arc_steps() == []

    def test_index_validation(self):
        g = build_de_bruijn_graph(2, 2)
        with pytest.raises(DomainError):
            Walk(g, (0, 7), closed=True)
        with pytest.raises(DomainError):
            Walk(g, (), closed=True)

    def test_canonical_rotation(self):
        g = build_de_bruijn_graph(2, 3)
        walk = Walk(g, (4, 1, 3, 6), closed=True)
        assert oracles.canonical_rotation(walk) == (1, 3, 6, 4)
        with pytest.raises(AssertionError):
            oracles.canonical_rotation(Walk(g, (4, 1), closed=False))

    def test_closed_dominating_walk_accepts_known_cycle(self):
        g = build_de_bruijn_graph(2, 3)
        walk = Walk(g, tuple(g.index(t) for t in ("100", "001", "011", "110")))
        assert is_closed_dominating_walk(g, walk)

    def test_rejects_missing_arc(self):
        g = build_de_bruijn_graph(2, 3)
        walk = Walk(g, (g.index("100"), g.index("001")))
        assert not is_closed_dominating_walk(g, walk)  # 001 -> 100 is no arc

    def test_rejects_non_dominating_single_vertex(self):
        g = build_de_bruijn_graph(2, 2)
        assert not is_closed_dominating_walk(g, Walk(g, (g.index("01"),)))

    def test_rejects_open_walk(self):
        g = build_de_bruijn_graph(2, 3)
        walk = Walk(g, (g.index("100"), g.index("001")), closed=False)
        assert not is_closed_dominating_walk(g, walk)

    @pytest.mark.parametrize("text, a, k", [("0011", 2, 2), ("1001", 2, 3), ("0001", 2, 3)])
    def test_closed_dominating_walk_matches_brute_force(self, text, a, k):
        # every vertex sequence of up to 4 vertices, against the raw arcs
        g = generated_subdigraph(parse_sequence(text, a), k)
        out = oracles.out_lists(g)
        n = g.vertex_count
        for m in range(1, 5):
            for vi in itertools.product(range(n), repeat=m):
                steps = zip(vi, vi[1:] + vi[:1]) if m > 1 else ()
                expected = all(v in out[u] for u, v in steps) and oracles.dominates(
                    out, n, vi
                )
                assert is_closed_dominating_walk(g, Walk(g, vi)) == expected, vi

    def test_rejects_foreign_digraph(self):
        g1 = build_de_bruijn_graph(2, 2)
        g2 = build_de_bruijn_graph(2, 2)
        with pytest.raises(DomainError):
            is_closed_dominating_walk(g1, Walk(g2, (0,)))


class TestEulerian:
    @pytest.mark.parametrize("a,k", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (2, 4)])
    def test_gen_eulerian_validates(self, a, k):
        seq = gen_eulerian(a, k)
        assert len(seq) == a**k
        assert is_de_bruijn_sequence(seq, k)

    def test_gen_eulerian_order_one_reads_each_symbol_once(self):
        assert gen_eulerian(2, 1).text == "01"
        assert gen_eulerian(5, 1).text == "01234"


class TestDot:
    def test_counts(self):
        dot = to_dot(build_de_bruijn_graph(2, 2))
        lines = dot.splitlines()
        assert sum(1 for l in lines if "->" in l) == 8
        assert sum(1 for l in lines if l.endswith('";') and "->" not in l) == 4

    def test_deterministic(self):
        g = build_de_bruijn_graph(2, 2)
        assert to_dot(g) == to_dot(g)

    def test_highlighted_induced_walk_has_eight_bold_arcs(self):
        d = parse_sequence("01210123", 4)
        g = generated_subdigraph(d, 3)
        walk = induced_walk(d, 3, g)
        dot = to_dot(g, walk)
        assert dot.count("style=bold") == 8
        assert dot.count("color=grey") == len(g.arcs) - 8

    def test_foreign_walk_rejected(self):
        g = build_de_bruijn_graph(2, 2)
        other = build_de_bruijn_graph(2, 2)
        with pytest.raises(DomainError):
            to_dot(g, Walk(other, (0,)))


class TestJson:
    def test_round_trip(self):
        for g in (
            generated_subdigraph(parse_sequence("01210123", 4), 3),
            build_de_bruijn_graph(3, 2),
        ):
            obj = g.to_json()
            again = Digraph.from_json(json.loads(json.dumps(obj)))
            assert again.to_json() == obj

    def test_repeated_arc_is_kept_once(self):
        obj = {"alphabet": 2, "order": 1, "vertices": ["0", "1"]}
        g = Digraph.from_json({**obj, "arcs": [[0, 1], [0, 1]]})
        assert g.to_json()["arcs"] == [[0, 1]]
        assert g.adjacency == ((1,), ())

    @pytest.mark.parametrize(
        "vertices,arcs,provenance",
        [
            (["00", "01", "10", "11"], [[0, 1], [1, 3]], {"kind": "de_bruijn"}),
            (["1", "0"], [[0, 0], [0, 1], [1, 0], [1, 1]], {"kind": "de_bruijn"}),
            (["10", "01"], [[0, 1], [1, 0]], {"kind": "generated", "sequence": "01"}),
            (["00", "01"], [[0, 1]], {"kind": "generated", "sequence": "0"}),
        ],
    )
    def test_provenance_must_describe_the_graph(self, vertices, arcs, provenance):
        order = len(vertices[0])
        obj = {"alphabet": 2, "order": order, "vertices": vertices, "arcs": arcs}
        Digraph.from_json({**obj, "provenance": {"kind": "custom"}})
        with pytest.raises(DomainError):
            Digraph.from_json({**obj, "provenance": provenance})

    def test_provenance_sequence_must_have_the_graphs_w(self):
        # the 2-windows of 0001 and of 0010 are {00, 01, 10}, those of 0110
        # all four and those of 000 only 00; the graph is W x {0, 1} for
        # the first W, so only the sequence tells the three apart
        obj = generated_subdigraph(parse_sequence("0001", 2), 3).to_json()
        same = {"kind": "generated", "sequence": "0010"}
        assert Digraph.from_json({**obj, "provenance": same}).windows == (0, 1, 2)
        for seq in ("0110", "000"):
            provenance = {"kind": "generated", "sequence": seq}
            with pytest.raises(DomainError, match="^graph is not the subdigraph its"):
                Digraph.from_json({**obj, "provenance": provenance})
        short = {"kind": "generated", "sequence": "01"}
        with pytest.raises(DomainError, match="^provenance sequence: sequence shorter"):
            Digraph.from_json({**obj, "provenance": short})

    def test_schema_keys(self):
        obj = build_de_bruijn_graph(2, 2).to_json()
        assert set(obj) == {"alphabet", "order", "vertices", "arcs", "provenance"}
        assert obj["vertices"] == ["00", "01", "10", "11"]
        assert all(len(arc) == 2 for arc in obj["arcs"])
        assert obj["provenance"] == {"kind": "de_bruijn"}

    def test_missing_field(self):
        with pytest.raises(DomainError, match="vertices"):
            Digraph.from_json({"alphabet": 2, "order": 2, "arcs": []})

    def test_bad_vertex_length(self):
        with pytest.raises(DomainError):
            Digraph.from_json(
                {"alphabet": 2, "order": 2, "vertices": ["000"], "arcs": []}
            )

    def test_bad_arc(self):
        with pytest.raises(DomainError):
            Digraph.from_json(
                {"alphabet": 2, "order": 1, "vertices": ["0"], "arcs": [[0, 5]]}
            )

    def test_non_shift_arc_rejected_unless_custom(self):
        base = {"alphabet": 2, "order": 2, "vertices": ["00", "11"], "arcs": [[0, 1]]}
        with pytest.raises(DomainError, match="left shift"):
            Digraph.from_json({**base, "provenance": {"kind": "de_bruijn"}})
        g = Digraph.from_json({**base, "provenance": {"kind": "custom"}})
        assert g.arcs == {(0, 1)}

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError, match="distinct"):
            Digraph.from_json(
                {"alphabet": 2, "order": 1, "vertices": ["0", "0"], "arcs": []}
            )

    def test_generated_provenance_requires_sequence(self):
        with pytest.raises(DomainError):
            Provenance("generated")

    def test_order_is_capped_before_any_label_is_ranked(self, monkeypatch):
        cap = graphcore.DEFAULT_SIZE_CAP
        ranked = []
        monkeypatch.setattr(graphcore, "_text_rank", lambda t, al: ranked.append(t))
        obj = {"alphabet": 36, "order": cap + 1, "vertices": ["Z" * (cap + 1)]}
        message = f"^order {cap + 1} exceeds cap {cap}$"
        with pytest.raises(ResourceCapError, match=message):
            Digraph.from_json({**obj, "arcs": []})
        assert ranked == []


class TestConstructor:
    def test_vertices_are_ranks(self):
        g = Digraph(Alphabet(3), 2, [5, 0], [(1, 0)])
        assert g.labels == ("12", "00")
        assert g.label(0) == "12"
        assert g.index("00") == 1
        assert g.provenance.kind == "custom"

    @pytest.mark.parametrize("rank", [-1, 4, 1.0, True, "1", None])
    def test_rejects_bad_ranks(self, rank):
        with pytest.raises(DomainError, match="vertex rank"):
            Digraph(Alphabet(2), 2, [0, rank], [])

    @pytest.mark.parametrize("order", [0, -1, True, 1.0])
    def test_rejects_bad_orders(self, order):
        with pytest.raises(DomainError, match="order must be a positive integer"):
            Digraph(Alphabet(2), order, [0], [])

    def test_rejects_no_vertices_and_duplicates(self):
        with pytest.raises(DomainError, match="at least one vertex"):
            Digraph(Alphabet(2), 2, [], [])
        with pytest.raises(DomainError, match="distinct"):
            Digraph(Alphabet(2), 2, [1, 1], [])

    @pytest.mark.parametrize(
        "arc", [(0.5, 1.9), (True, 0), (0, False), (0, "1"), (0,), 5, (0, 1, 2)]
    )
    def test_rejects_arc_endpoints_that_are_not_integers(self, arc):
        with pytest.raises(DomainError, match="must be a pair of vertex indices"):
            Digraph(Alphabet(2), 2, [0, 1], [arc])

    @pytest.mark.parametrize("arc", [(0, 2), (-1, 0)])
    def test_rejects_arc_endpoints_out_of_range(self, arc):
        with pytest.raises(DomainError, match="references an unknown vertex"):
            Digraph(Alphabet(2), 2, [0, 1], [arc])

    # str() of an int of more than 4,300 digits raises ValueError, so each
    # message names a**order and a long int's digit count instead
    @pytest.mark.parametrize(
        "a,order,ranks,arcs,message",
        [
            (36, 4096, [-1], [], r"vertex rank -1 is not an integer in \[0, 36\*\*4096\)$"),
            (2, 3, [10**5000], [], r"vertex rank <an integer of 5001 digits> is not"),
            (36, 4096, [0], [(0, 10**5000)], r"arc \(0, <an integer of 5001 digits>\) ref"),
        ],
    )
    def test_messages_never_print_a_long_int(self, a, order, ranks, arcs, message):
        with pytest.raises(DomainError, match=message):
            Digraph(Alphabet(a), order, ranks, arcs)

    @pytest.mark.parametrize("digits", [80, 100, 1000, 4300, 4301])
    def test_a_long_int_is_named_by_its_exact_digit_count(self, digits):
        for rank, count in [
            (10 ** (digits - 1), digits),
            (10**digits - 1, digits),
            (-(10**digits), digits + 1),
        ]:
            sign = "a negative" if rank < 0 else "an"
            with pytest.raises(DomainError, match=f"<{sign} integer of {count} digits>"):
                Digraph(Alphabet(2), 3, [rank], [])
            with pytest.raises(DomainError, match=f"<{sign} integer of {count} digits>"):
                Digraph(Alphabet(2), 3, [0], [[rank, "x"]])

    @pytest.mark.parametrize("kind", ["custom", "generated", "de_bruijn"])
    @pytest.mark.parametrize("sequence", [5, [1, {"x": None}], {"s": "01"}, 1.5, True])
    def test_rejects_a_provenance_sequence_that_is_not_a_string(self, kind, sequence):
        with pytest.raises(DomainError, match="provenance sequence must be a string"):
            Provenance(kind, sequence)
        obj = {
            "alphabet": 2,
            "order": 1,
            "vertices": ["0", "1"],
            "arcs": [],
            "provenance": {"kind": kind, "sequence": sequence},
        }
        with pytest.raises(DomainError, match="provenance sequence must be a string"):
            Digraph.from_json(obj)

    @pytest.mark.parametrize("arc", [[0.5, 1], [True, 0], [0], [0, 1, 1], "01", 0])
    def test_from_json_rejects_malformed_arcs(self, arc):
        obj = {"alphabet": 2, "order": 2, "vertices": ["00", "01"], "arcs": [arc]}
        with pytest.raises(DomainError, match="must be a pair of vertex indices"):
            Digraph.from_json(obj)


class TestWindows:
    """``Digraph.windows`` is W, the distinct prefixes r // a of the
    vertex ranks in ascending order: the W a non-custom graph is W x
    {0..a-1} on."""

    def test_full_graph_has_every_prefix(self):
        for a, k in SMALL_PAIRS:
            g = build_de_bruijn_graph(a, k)
            assert g.windows == tuple(range(a ** (k - 1))), (a, k)

    def test_generated_subdigraph_keeps_its_window_set(self):
        rng = random.Random(2042)
        for _ in range(300):
            a, n = rng.randint(2, 4), rng.randint(1, 12)
            d = CyclicSequence(tuple(rng.randrange(a) for _ in range(n)), Alphabet(a))
            k = rng.randint(1, n)
            g = generated_subdigraph(d, k)
            assert g.windows == window_set(d, k), (d.text, k)
            assert g.windows == tuple(sorted({r // a for r in g.ranks}))

    def test_custom_copy_keeps_the_windows(self):
        for g in (
            build_de_bruijn_graph(3, 2),
            generated_subdigraph(parse_sequence("01210123", 4), 3),
        ):
            copy = Digraph(g.alphabet, g.order, g.ranks, g.arcs)
            assert copy.provenance.kind == "custom"
            assert copy.windows == g.windows
            assert Digraph.from_json(g.to_json()).windows == g.windows

    def test_custom_graph_has_its_distinct_prefixes(self):
        g = Digraph(Alphabet(2), 3, [5, 4, 1], [])  # 101 100 001
        assert g.windows == (0, 2)  # 00 and 10
        with pytest.raises(AttributeError):
            g.windows = (0,)


def shift_digraph(ranks, kind, a=2, k=3, missing=None):
    """The digraph on ``ranks``, in the order given, with every left shift
    among them as an arc except ``missing``, under provenance ``kind``."""
    index = {r: i for i, r in enumerate(ranks)}
    drop = a ** (k - 1)
    arcs = [
        (i, index[r % drop * a + c])
        for i, r in enumerate(ranks)
        for c in range(a)
        if r % drop * a + c in index and (i, index[r % drop * a + c]) != missing
    ]
    provenance = Provenance(kind, "0001" if kind == "generated" else None)
    return Digraph(Alphabet(a), k, ranks, arcs, provenance)


class TestWindowDigraphInvariant:
    """A digraph of generated or de Bruijn provenance is the left-shift
    digraph on W x {0..a-1}, W = {r // a}, with its vertices in rank
    order; the constructor refuses any other."""

    MESSAGES = {
        "generated": "^graph is not the subdigraph its provenance sequence generates$",
        "de_bruijn": r"^graph is not the de Bruijn graph G\(2,3\)$",
    }

    @pytest.mark.parametrize("kind", ["generated", "de_bruijn"])
    def test_the_shift_digraph_on_w_times_sigma_is_accepted(self, kind):
        # 0001 at order 3: W = {00, 01, 10}; for de Bruijn, every 2-string
        ranks = list(range(6 if kind == "generated" else 8))
        g = shift_digraph(ranks, kind)
        assert g.ranks == tuple(ranks) and g.provenance.kind == kind
        assert shift_digraph(ranks, "custom").adjacency == g.adjacency

    @pytest.mark.parametrize("kind", ["generated", "de_bruijn"])
    @pytest.mark.parametrize(
        "cause",
        ["missing vertex", "out of rank order", "missing shift arc"],
    )
    def test_each_cause_is_refused_with_the_kinds_message(self, kind, cause):
        ranks = list(range(6 if kind == "generated" else 8))
        missing = None
        if cause == "missing vertex":
            ranks.remove(3)  # 011: its block {010, 011} is half there
        elif cause == "out of rank order":
            ranks[0], ranks[1] = ranks[1], ranks[0]
        else:
            missing = (1, 2)  # 001 -> 010
        shift_digraph(ranks, "custom", missing=missing)  # a valid custom graph
        with pytest.raises(DomainError, match=self.MESSAGES[kind]):
            shift_digraph(ranks, kind, missing=missing)

    def test_a_de_bruijn_graph_of_another_size_is_refused(self):
        # W x {0, 1} with W = {00, 01, 10}, all 6 vertices' shifts present
        assert shift_digraph(list(range(6)), "generated").vertex_count == 6
        with pytest.raises(DomainError, match=self.MESSAGES["de_bruijn"]):
            shift_digraph(list(range(6)), "de_bruijn")

    def test_accepted_iff_the_window_digraph_on_its_w(self):
        rng = random.Random(2038)
        outcomes = Counter()
        provenances = {
            "generated": Provenance("generated", "0"),
            "de_bruijn": Provenance("de_bruijn"),
        }
        for _ in range(1500):
            a, k = rng.choice((2, 3)), rng.randint(1, 4)
            drop = a ** (k - 1)
            windows = sorted(rng.sample(range(drop), rng.randint(1, drop)))
            ref = graphcore._window_digraph(
                Alphabet(a), k, windows, Provenance("custom")
            )
            ranks, arcs = list(ref.ranks), sorted(ref.arcs)
            change = rng.randrange(6)
            if change == 1 and len(ranks) > 1:  # drop a vertex and its arcs
                gone = rng.randrange(len(ranks))
                ranks.pop(gone)
                arcs = [
                    (u - (u > gone), v - (v > gone))
                    for u, v in arcs
                    if gone not in (u, v)
                ]
            elif change == 2:  # add a vertex
                extra = rng.randrange(a**k)
                if extra not in ranks:
                    ranks.append(extra)
            elif change == 3:  # shuffle the vertex order
                perm = list(range(len(ranks)))
                rng.shuffle(perm)
                ranks = [ranks[i] for i in perm]
                where = {old: new for new, old in enumerate(perm)}
                arcs = [(where[u], where[v]) for u, v in arcs]
            elif change == 4 and arcs:  # drop an arc
                arcs.pop(rng.randrange(len(arcs)))
            elif change == 5:  # add an arc, a shift or not
                arcs.append((rng.randrange(len(ranks)), rng.randrange(len(ranks))))
            g = Digraph(Alphabet(a), k, ranks, arcs)
            w = sorted({r // a for r in ranks})
            same = graphcore._window_digraph(Alphabet(a), k, w, Provenance("custom"))
            equal = (g.ranks, g.adjacency) == (same.ranks, same.adjacency)
            for kind in ("generated", "de_bruijn"):
                expected = equal and (kind == "generated" or len(w) == drop)
                try:
                    Digraph(Alphabet(a), k, ranks, arcs, provenances[kind])
                    accepted = True
                except DomainError:
                    accepted = False
                assert accepted == expected, (a, k, ranks, arcs, kind)
                outcomes[kind, accepted] += 1
        assert min(outcomes.values()) > 100  # each kind both accepted and refused

    def test_every_builder_graph_round_trips_through_json(self):
        graphs = [
            build_de_bruijn_graph(a, k)
            for a in range(2, 7)
            for k in range(1, 6)
            if a**k <= 1296
        ]
        for a, k in [(2, 1), (2, 3), (3, 2), (3, 3), (4, 3)]:
            for n in range(k, 6):
                for symbols in itertools.product(range(a), repeat=n):
                    graphs.append(
                        generated_subdigraph(CyclicSequence(symbols, Alphabet(a)), k)
                    )
        for g in graphs:
            back = Digraph.from_json(json.loads(json.dumps(g.to_json())))
            assert (back.ranks, back.adjacency) == (g.ranks, g.adjacency)
            assert back.provenance == g.provenance
        assert len(graphs) == 2_196


def assert_matches_text_graph(g, labels, arcs, a, k, provenance):
    assert list(g.labels) == labels
    assert {(g.label(u), g.label(v)) for u, v in g.arcs} == arcs
    assert g.to_json() == oracles.text_graph_json(labels, arcs, a, k, provenance)
    assert to_dot(g) == oracles.text_graph_dot(labels, arcs)
    ranks = [int(text, a) for text in labels]  # base-a reading by Python's int
    assert list(g.ranks) == ranks
    for i, text in enumerate(labels):
        assert g.index(text) == i
    back = Digraph.from_json(json.loads(json.dumps(g.to_json())))
    assert back.to_json() == g.to_json()
    rebuilt = Digraph(Alphabet(a), k, ranks, g.arcs, g.provenance)
    assert rebuilt.to_json() == g.to_json()


class TestRankConstructionMatchesStrings:
    """The rank-built graphs against oracles' string-built references.

    A rotation of a sequence has the same windows, so the sequences are
    taken one per rotation class; test_seqcore checks window_ranks on
    every sequence.
    """

    @pytest.mark.parametrize("a", [2, 3])
    def test_every_short_sequence(self, a):
        for n in range(1, 9):
            for syms in itertools.product(oracles.SYMBOL_TEXT[:a], repeat=n):
                text = "".join(syms)
                if text != min(text[i:] + text[:i] for i in range(n)):
                    continue
                for k in range(1, min(n, 3) + 1):
                    g = generated_subdigraph(parse_sequence(text, a), k)
                    labels, arcs = oracles.text_generated_subdigraph(text, a, k)
                    provenance = {"kind": "generated", "sequence": text}
                    assert_matches_text_graph(g, labels, arcs, a, k, provenance)

    def test_random_quaternary_sequences(self):
        rng = random.Random(3)
        for _ in range(300):
            text = "".join(rng.choice("0123") for _ in range(rng.randint(4, 12)))
            k = rng.randint(1, 4)
            g = generated_subdigraph(parse_sequence(text, 4), k)
            labels, arcs = oracles.text_generated_subdigraph(text, 4, k)
            provenance = {"kind": "generated", "sequence": text}
            assert_matches_text_graph(g, labels, arcs, 4, k, provenance)

    def test_long_binary_sequence_at_a_large_order(self):
        # labels of 200 symbols, where rank-to-text conversion costs most
        rng = random.Random(200)
        text = "".join(rng.choice("01") for _ in range(600))
        g = generated_subdigraph(parse_sequence(text, 2), 200)
        labels, arcs = oracles.text_generated_subdigraph(text, 2, 200)
        provenance = {"kind": "generated", "sequence": text}
        assert_matches_text_graph(g, labels, arcs, 2, 200, provenance)

    @pytest.mark.parametrize("a,k", SMALL_PAIRS)
    def test_full_graphs(self, a, k):
        labels, arcs = oracles.text_de_bruijn_graph(a, k)
        g = build_de_bruijn_graph(a, k)
        assert_matches_text_graph(g, labels, arcs, a, k, {"kind": "de_bruijn"})

    def test_index_rejects_labels_of_another_order_or_alphabet(self):
        g = build_de_bruijn_graph(2, 3)
        assert g.index("011") == 3
        assert g.index_of_rank(3) == 3
        for ref in ["01", "0001"]:
            with pytest.raises(DomainError, match="unknown vertex"):
                g.index(ref)
        with pytest.raises(DomainError, match="'2' is not a symbol of an alphabet of size 2"):
            g.index("002")
        with pytest.raises(DomainError, match="unknown vertex 110"):
            generated_subdigraph(parse_sequence("0001", 2), 3).index_of_rank(6)

    @pytest.mark.parametrize(
        "ref", [True, False, None, 1.0, b"011", list("011")], ids=repr
    )
    def test_index_rejects_what_is_neither_an_index_nor_a_label(self, ref):
        g = build_de_bruijn_graph(2, 3)
        with pytest.raises(DomainError, match="a vertex is an index or a label text"):
            g.index(ref)
        assert not g.has_vertex(ref)

    def test_index_checks_a_label_length_before_ranking_it(self, monkeypatch):
        g = build_de_bruijn_graph(2, 3)

        def no_ranking(text, alphabet):
            raise AssertionError("ranked a label of the wrong length")

        monkeypatch.setattr(graphcore, "_text_rank", no_ranking)
        for ref in ["0" * 200_000, "01", "x"]:
            with pytest.raises(DomainError, match="unknown vertex") as info:
                g.index(ref)
            assert len(str(info.value)) < 100  # names the length, not the label
            assert not g.has_vertex(ref)

    @pytest.mark.parametrize("kind", ["generated", "de_bruijn"])
    def test_non_shift_arc_names_both_labels(self, kind):
        # W x {0,1,2}, W the 2-windows of 012 or every 2-string
        if kind == "generated":
            g = generated_subdigraph(parse_sequence("012", 3), 3)
        else:
            g = build_de_bruijn_graph(3, 3)
        ranks, arcs = g.ranks, sorted(g.arcs)
        assert Digraph(Alphabet(3), 3, ranks, arcs, g.provenance).arcs == g.arcs
        bad = (g.index("012"), g.index("201"))
        with pytest.raises(DomainError, match="arc 012 -> 201 is not a left shift"):
            Digraph(Alphabet(3), 3, ranks, arcs + [bad], g.provenance)
        obj = g.to_json()
        obj["arcs"].append([g.index("201"), g.index("120")])
        with pytest.raises(DomainError, match="arc 201 -> 120 is not a left shift"):
            Digraph.from_json(obj)
