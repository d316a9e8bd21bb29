import copy
import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from debruijn import (
    DomainError,
    Provenance,
    ResourceCapError,
    SolveResult,
    SweepReport,
    VerificationRecord,
    Walk,
    build_de_bruijn_graph,
    seqcore,
    sweep,
    verify,
)
from debruijn.seqcore import (
    SYMBOL_CHARS,
    Alphabet,
    CyclicSequence,
    _distinct,
    _first_appearance,
    _shift_arcs,
    gen_eulerian,
    gen_fkm,
    gen_greedy,
    is_de_bruijn_sequence,
    k_tour,
    necklaces,
    parse_sequence,
    read_sequences,
    window_ranks,
    window_set,
)

from oracles import (
    cyclic_windows,
    is_least_rotation,
    naive_fkm,
    naive_is_de_bruijn,
    parse_symbols,
    rank_symbols,
    read_symbols,
    rotate,
    rotations,
    symbols_rank,
    symbols_text,
)


@st.composite
def sequences(draw, max_a=6):
    a = draw(st.integers(2, max_a))
    n = draw(st.integers(1, 12))
    syms = tuple(draw(st.integers(0, a - 1)) for _ in range(n))
    return CyclicSequence(syms, Alphabet(a))


class TestAlphabet:
    def test_bounds(self):
        Alphabet(2)
        Alphabet(36)
        with pytest.raises(DomainError):
            Alphabet(1)
        with pytest.raises(DomainError):
            Alphabet(37)

    def test_char_rendering(self):
        a = Alphabet(36)
        assert CyclicSequence((0, 9, 10, 35), a).text == "09AZ"
        assert [a.decode(ch) for ch in "09AZ"] == [0, 9, 10, 35]

    def test_decode_rejects_foreign_characters(self):
        with pytest.raises(DomainError):
            Alphabet(2).decode("2")
        with pytest.raises(DomainError):
            Alphabet(2).decode("x")


class TestParse:
    def test_binary_example(self):
        assert parse_sequence("1001", 2).symbols == (1, 0, 0, 1)

    def test_single_symbol(self):
        assert parse_sequence("0", 2).symbols == (0,)

    def test_error_names_position(self):
        with pytest.raises(DomainError, match="position 2"):
            parse_sequence("102", 2)

    def test_empty_text(self):
        with pytest.raises(DomainError):
            parse_sequence("", 2)

    def test_text_round_trip(self):
        assert parse_sequence("220011210", 3).text == "220011210"

    def test_read_sequences_skips_comments_and_blanks(self):
        text = "# header\n1001\n\n0110\n"
        seqs = read_sequences(text, 2)
        assert [s.text for s in seqs] == ["1001", "0110"]

    def test_read_sequences_reports_line(self):
        with pytest.raises(DomainError, match="line 2"):
            read_sequences("11\n12\n", 2)


# characters a decoder must refuse or must not confuse with a symbol:
# lowercase letters (int() reads them as digits), signs, "_", NUL, a
# space, a non-ASCII letter, a full-width digit and lone surrogates
FOREIGN_CHARS = "abcxyz+-_\x00 \t\u00e9\uff10\ud800\udfff"


@st.composite
def texts(draw, chars):
    """An alphabet size and a text: a prefix of its symbols, then any
    characters of SYMBOL_CHARS (symbols >= a included) and ``chars``."""
    a = draw(st.integers(2, 36))
    prefix = draw(st.text(st.sampled_from(SYMBOL_CHARS[:a]), max_size=40))
    rest = draw(st.text(st.sampled_from(SYMBOL_CHARS + chars), max_size=8))
    return a, prefix + rest


def _message(call):
    try:
        return call()
    except DomainError as exc:
        return str(exc)


class TestDecoder:
    """The codec's decoder against a per-character reference."""

    @given(texts(FOREIGN_CHARS))
    def test_parse_matches_the_per_character_reference(self, case):
        a, text = case
        expected = parse_symbols(text, a) if text else "empty sequence text"
        got = _message(lambda: parse_sequence(text, a))
        assert (got if isinstance(got, str) else got.symbols) == expected

    @given(texts(FOREIGN_CHARS + "\n\r#"))
    def test_read_matches_the_per_character_reference(self, case):
        a, text = case
        got = _message(lambda: read_sequences(text, a))
        if not isinstance(got, str):
            got = [d.symbols for d in got]
        assert got == read_symbols(text, a)

    @given(texts(FOREIGN_CHARS))
    def test_label_rank_names_the_same_character(self, case):
        a, text = case
        alphabet = Alphabet(a)
        expected = symbols_rank([SYMBOL_CHARS.find(ch) for ch in text], a)
        for ch in text:
            if not 0 <= SYMBOL_CHARS.find(ch) < a:
                expected = (
                    f"character {ch!r} is not a symbol of an alphabet of size {a}"
                )
                break
        assert _message(lambda: seqcore._text_rank(text, alphabet)) == expected

    @given(sequences(max_a=36))
    def test_text_round_trip(self, d):
        assert d.text == symbols_text(d.symbols)
        assert parse_sequence(d.text, d.alphabet.size) == d

    def test_long_text_names_the_last_position(self):
        text = "Z" * 999_999 + "z"
        with pytest.raises(DomainError) as err:
            read_sequences(text + "\n", 36)
        assert str(err.value) == (
            "line 1: invalid symbol 'z' at position 999999 for alphabet size 36"
        )
        assert parse_sequence(text[:-1], 36).symbols == (35,) * 999_999


class TestRanks:
    @pytest.mark.parametrize("a", [2, 3, 36])
    @pytest.mark.parametrize("k", [1, 63, 64, 65, 200, 4096, 16384])
    def test_ranks_match_the_per_symbol_reference(self, a, k):
        rng = random.Random(a * 100_003 + k)
        words = [(0,) * k, (a - 1,) * k, tuple(rng.randrange(a) for _ in range(k))]
        for word in words:
            rank = symbols_rank(word, a)
            text = symbols_text(word)
            assert rank_symbols(rank, a, k) == word
            assert seqcore._rank(word, a) == rank
            assert seqcore._text_rank(text, Alphabet(a)) == rank
            assert seqcore._unrank(rank, a, k) == word
            assert seqcore._rank_text(rank, a, k) == text
        assert seqcore._rank(words[1], a) == a**k - 1


class TestKTour:
    def test_binary_example(self):
        assert k_tour(parse_sequence("1001", 2), 3) == ("100", "001", "011", "110")

    def test_constant_sequence(self):
        assert k_tour(parse_sequence("00", 2), 2) == ("00", "00")

    def test_quaternary_unroll(self):
        assert k_tour(parse_sequence("01210123", 4), 3) == (
            "012", "121", "210", "101", "012", "123", "230", "301",
        )

    def test_too_short(self):
        with pytest.raises(DomainError, match="shorter than order"):
            k_tour(parse_sequence("10", 2), 3)

    @given(sequences(), st.integers(1, 6))
    def test_windows_chain_by_left_shift(self, seq, k):
        if len(seq) < k:
            with pytest.raises(DomainError):
                k_tour(seq, k)
            return
        tour = k_tour(seq, k)
        assert len(tour) == len(seq)
        for i, w in enumerate(tour):
            assert w == "".join(seq.text[(i + j) % len(seq)] for j in range(k))
            nxt = tour[(i + 1) % len(seq)]
            assert nxt[:-1] == w[1:]


class TestWindowRanks:
    def test_quaternary_unroll(self):
        ranks = window_ranks(parse_sequence("01210123", 4), 3)
        assert ranks == [6, 25, 36, 17, 6, 27, 44, 49]

    def test_errors_match_k_tour(self):
        with pytest.raises(DomainError, match="shorter than order"):
            window_ranks(parse_sequence("10", 2), 3)
        with pytest.raises(DomainError, match="at least 1"):
            window_ranks(parse_sequence("10", 2), 0)

    @pytest.mark.parametrize("a", [2, 3])
    def test_every_short_sequence_against_text_windows(self, a):
        for n in range(1, 9):
            for syms in itertools.product(range(a), repeat=n):
                seq = CyclicSequence(syms, Alphabet(a))
                for k in range(1, min(n, 4) + 1):
                    expected = [
                        int("".join(map(str, w)), a) for w in cyclic_windows(syms, k)
                    ]
                    assert window_ranks(seq, k) == expected


class TestWindowSet:
    """``window_set`` is W in ascending order, each rank once."""

    @staticmethod
    def assert_sorted_distinct_every_order(d):
        for k in range(1, len(d) + 1):
            brute = tuple(sorted(set(window_ranks(d, k - 1)))) if k > 1 else (0,)
            assert window_set(d, k) == brute, (d.text, k)

    def test_order_one_has_the_one_empty_window(self):
        for text in ("0", "0110", "21"):
            assert window_set(parse_sequence(text, 3), 1) == (0,)

    def test_the_ascending_distinct_previous_order_ranks(self):
        seq = parse_sequence("01210123", 4)
        # the 2-windows 01 12 21 10 01 12 23 30, each once, in base 4
        assert window_set(seq, 3) == (1, 4, 6, 9, 11, 12)
        self.assert_sorted_distinct_every_order(seq)

    @pytest.mark.parametrize(
        "text,a",
        [
            ("0", 2),
            ("1111111", 2),
            ("2222", 3),  # constant runs: one window at every order
            ("10000000", 2),
            ("000000100", 2),  # a single 1 in zeros: n windows from k = 2
            ("0101010101", 2),
            ("012012012", 3),
            ("0011001100", 2),  # periodic words: the period's windows
        ],
    )
    def test_equals_the_brute_force_on_structured_words(self, text, a):
        self.assert_sorted_distinct_every_order(parse_sequence(text, a))

    def test_equals_the_brute_force_on_random_sequences(self):
        rng = random.Random(2039)
        for _ in range(300):
            a = rng.randint(2, 5)
            symbols = tuple(rng.randrange(a) for _ in range(rng.randint(1, 24)))
            self.assert_sorted_distinct_every_order(CyclicSequence(symbols, Alphabet(a)))

    def test_checks_the_order_against_the_sequence(self):
        # k = len(d) + 1 has (k-1)-windows, but no k-windows to generate
        with pytest.raises(DomainError, match="shorter than order"):
            window_set(parse_sequence("10", 2), 3)
        with pytest.raises(DomainError, match="at least 1"):
            window_set(parse_sequence("10", 2), 0)


class TestDistinct:
    """``_distinct`` sorts and drops repeats, comparing items and never
    hashing one."""

    class Unhashable(int):
        def __hash__(self):
            raise AssertionError("hashed an item")

    def test_dedupes_items_whose_hash_raises(self):
        items = [self.Unhashable(x) for x in (5, 2, 5, 9, 2, 2)]
        with pytest.raises(AssertionError, match="hashed"):
            hash(items[0])
        assert _distinct(items) == (2, 5, 9)
        assert _distinct([[3], [1], [3]]) == ([1], [3])  # lists have no hash


class TestValidator:
    def test_known_sequences(self):
        assert is_de_bruijn_sequence(parse_sequence("1001", 2), 2)
        assert is_de_bruijn_sequence(parse_sequence("220011210", 3), 2)
        assert not is_de_bruijn_sequence(parse_sequence("1101", 2), 2)

    def test_wrong_length_is_false_not_error(self):
        assert not is_de_bruijn_sequence(parse_sequence("0", 2), 2)
        assert not is_de_bruijn_sequence(parse_sequence("00110", 2), 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_order_below_one_is_an_error(self, k):
        with pytest.raises(DomainError, match="^order must be at least 1$"):
            is_de_bruijn_sequence(parse_sequence("01", 2), k)

    def test_agrees_with_counting_oracle_exhaustively(self):
        # every binary sequence of length <= 8, orders 1..4
        for n in range(1, 9):
            for syms in itertools.product(range(2), repeat=n):
                seq = CyclicSequence(syms, Alphabet(2))
                for k in range(1, 5):
                    assert is_de_bruijn_sequence(seq, k) == naive_is_de_bruijn(
                        syms, 2, k
                    )


class TestGenerators:
    def test_fkm_known_outputs(self):
        assert gen_fkm(2, 2).text == "0011"
        assert gen_fkm(2, 3).text == "00010111"
        assert gen_fkm(2, 1).text == "01"

    def test_fkm_is_least_valid_sequence_of_its_length(self):
        best = min(
            "".join(map(str, syms))
            for syms in itertools.product(range(2), repeat=8)
            if naive_is_de_bruijn(syms, 2, 3)
        )
        assert gen_fkm(2, 3).text == best

    def test_greedy_known_outputs(self):
        assert gen_greedy(2, 2).text == "1100"
        assert gen_greedy(2, 1).text == "10"

    @pytest.mark.parametrize(
        "a,k", [(a, k) for a in range(2, 7) for k in range(1, 9) if a**k <= 256]
    )
    def test_both_generators_validate_and_rotate(self, a, k):
        assert gen_fkm(a, k).symbols == naive_fkm(a, k)
        for gen in (gen_fkm, gen_greedy):
            seq = gen(a, k)
            assert len(seq) == a**k
            assert is_de_bruijn_sequence(seq, k)
            # cyclic invariance: every offset for small instances, a
            # sample of offsets for the rest
            offsets = range(1, len(seq)) if a**k <= 64 else range(1, 8)
            for r in offsets:
                assert is_de_bruijn_sequence(rotate(seq, r), k)

    def test_greedy_and_euler_are_rotations_of_fkm(self):
        # every a and k with a**k within the default size cap (106 cases)
        cases = [(a, k) for a in range(2, 37) for k in range(1, 13) if a**k <= 4096]
        assert len(cases) == 106
        for a, k in cases:
            fkm = gen_fkm(a, k)
            assert gen_greedy(a, k) == rotate(fkm, -k), (a, k)
            assert gen_eulerian(a, k) == rotate(fkm, k - 1), (a, k)

    def test_size_cap(self):
        with pytest.raises(ResourceCapError):
            gen_fkm(2, 13)
        with pytest.raises(ResourceCapError):
            gen_greedy(2, 5, size_cap=16)
        assert gen_greedy(2, 4, size_cap=16).text  # boundary is inclusive

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            gen_fkm(1, 3)
        with pytest.raises(DomainError):
            gen_fkm(2, 0)


class TestShiftArcs:
    def test_vertices_are_numbered_by_first_appearance(self):
        # 101 is the arc 10 -> 01, then 010 the arc 01 -> 10
        assert _shift_arcs([5, 2], 2, 3) == ([0, 1], [1, 0])
        # 0112 and 1120 over 3 symbols: 011 -> 112 -> 120
        assert _shift_arcs([14, 42], 3, 4) == ([0, 1], [1, 2])

    # at m = 1 every arc is a loop on the one empty string, vertex 0
    @pytest.mark.parametrize("a,m", [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2)])
    def test_every_m_string_gives_the_graph_on_ranks(self, a, m):
        arcs = range(a**m)
        assert _shift_arcs(arcs, a, m) == (
            [w // a for w in arcs],
            [w % a ** (m - 1) for w in arcs],
        )


class TestNecklaces:
    @pytest.mark.parametrize(
        "a,n",
        [(a, n) for a in range(2, 6) for n in range(1, 9)]
        + [(36, n) for n in range(1, 4)],
    )
    def test_form_is_the_first_appearance_form(self, a, n):
        # the generator updates the form at each successor step; the
        # reference relabels each yielded word from scratch
        for word, p, form in necklaces(a, n):
            assert type(form) is bytes and type(word) is tuple
            assert form == _first_appearance(word), word
            assert word == word[:p] * (n // p)


class TestValueTypes:
    def test_kstring_rejects_bad_symbols(self):
        with pytest.raises(DomainError, match="symbol 2 out of range"):
            CyclicSequence((0, 2), Alphabet(2))
        with pytest.raises(DomainError, match="at least one symbol"):
            CyclicSequence((), Alphabet(2))

    @pytest.mark.parametrize(
        "symbols,bad",
        [((0, 5, 1), 5), ((0, 300, 2), 300), ((0, 2, -1), 2), ((1, -1), -1)],
    )
    def test_symbol_check_names_the_first_bad_symbol(self, symbols, bad):
        with pytest.raises(DomainError) as err:
            CyclicSequence(symbols, Alphabet(2))
        assert str(err.value) == f"symbol {bad} out of range for alphabet of size 2"

    @pytest.mark.parametrize("text,a", [("0", 2), ("0011", 2), ("0Z9A", 36)])
    def test_str_is_the_text(self, text, a):
        d = parse_sequence(text, a)
        assert str(d) == d.text == text

    def test_sequence_indexing_is_cyclic(self):
        seq = parse_sequence("012", 3)
        assert window_ranks(seq, 2)[2] == 2 * 3 + 0
        assert k_tour(seq, 2)[2] == "20"

    def test_rotation_helpers(self):
        seq = parse_sequence("0011", 2)
        assert rotate(seq, 1).text == "0110"
        assert rotate(seq, -1).text == "1001"
        assert is_least_rotation(seq.symbols)
        assert not is_least_rotation(rotate(seq, 1).symbols)
        assert [rotate(seq, r).symbols for r in range(4)] == rotations(seq.symbols)


def test_every_public_name_resolves():
    import debruijn

    assert len(set(debruijn.__all__)) == len(debruijn.__all__)
    for name in debruijn.__all__:
        assert getattr(debruijn, name) is not None, name
    assert not {"KString", "KTour"} & set(dir(debruijn))


# Each value type with one constructor call and its fields, in order.
_GRAPH = build_de_bruijn_graph(2, 2)
_WALK = Walk(_GRAPH, (0, 1, 3, 2))
VALUE_TYPES = {
    "Alphabet": (lambda: Alphabet(3), ("size",)),
    "CyclicSequence": (
        lambda: CyclicSequence((0, 1, 1, 2), Alphabet(3)),
        ("symbols", "alphabet"),
    ),
    "Provenance": (lambda: Provenance("generated", "0112"), ("kind", "sequence")),
    "VerificationRecord": (
        lambda: verify(parse_sequence("0112", 3), 3),
        (
            "sequence",
            "order",
            "classification",
            "induced_length",
            "oracle_optimum",
            "is_watchman",
            "constant_run_seam_only",
        ),
    ),
    "SolveResult": (
        lambda: SolveResult(4, _WALK, 10),
        ("optimum_length", "witness", "explored_states"),
    ),
    "Walk": (
        lambda: Walk(_GRAPH, (0, 1, 3, 2)),
        ("digraph", "vertex_indices", "closed"),
    ),
}


class TestValueContract:
    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_fields_refuse_assignment_and_deletion(self, name):
        build, fields = VALUE_TYPES[name]
        value = build()
        for field in fields:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_equal_fields_give_equal_values(self, name):
        build, fields = VALUE_TYPES[name]
        value, twin = build(), build()
        assert type(value).__name__ == name
        shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in fields)
        assert repr(value) == f"{name}({shown})"
        assert value == value and value != object()
        if name == "Walk":  # walks compare by identity
            assert value != twin and hash(value) != hash(twin)
            return
        assert value == twin and hash(value) == hash(twin)
        copies = [copy.copy(value)]
        if name != "SolveResult":  # a deep copy of its witness is another walk
            copies += (copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
        for copied in copies:
            assert copied == value and hash(copied) == hash(value)

    def test_unequal_fields_give_unequal_values(self):
        assert Alphabet(2) != Alphabet(3)
        assert Provenance("generated", "01") != Provenance("generated", "10")
        assert parse_sequence("01", 2) != parse_sequence("01", 3)
        assert SolveResult(4, _WALK, 10) != SolveResult(4, Walk(_GRAPH, (0,)), 10)

    @pytest.mark.parametrize("name", [*VALUE_TYPES, "SweepReport"])
    def test_the_fields_in_order_rebuild_the_value(self, name):
        if name == "SweepReport":
            value = sweep(2, 3, range(3, 5))
        else:
            value = VALUE_TYPES[name][0]()
        rebuilt = type(value)(*value._key())
        assert rebuilt._key() == value._key()
        if name != "Walk":  # walks compare by identity
            assert rebuilt == value

    @pytest.mark.parametrize("cls", [SolveResult, VerificationRecord, SweepReport])
    def test_plain_types_take_exactly_their_fields_positionally(self, cls):
        assert "__init__" not in vars(cls)  # the base sets every field
        fields = cls._fields
        shown = re.escape(f"{cls.__name__} takes its fields {fields} positionally")
        for values in (fields[:-1], fields + ("extra",), ()):
            with pytest.raises(TypeError, match=shown):
                cls(*values)
        with pytest.raises(TypeError, match=shown):
            cls(*fields[:-1], **{fields[-1]: fields[-1]})
        with pytest.raises(TypeError, match=shown):
            cls(**dict(zip(fields, fields)))

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Alphabet(1), "alphabet size must be between 2 and 36, got 1"),
            (lambda: Alphabet(37), "alphabet size must be between 2 and 36, got 37"),
            (
                lambda: CyclicSequence((), Alphabet(2)),
                "a cyclic sequence needs at least one symbol",
            ),
            (
                lambda: CyclicSequence((0, 2), Alphabet(2)),
                "symbol 2 out of range for alphabet of size 2",
            ),
            (lambda: Provenance("made"), "unknown provenance kind 'made'"),
            (
                lambda: Provenance("generated"),
                "generated provenance must record its sequence",
            ),
            (
                lambda: Provenance("custom", 5),
                "provenance sequence must be a string, got 5",
            ),
            (lambda: Walk(_GRAPH, ()), "a walk needs at least one vertex"),
            (lambda: Walk(_GRAPH, (0, 4)), "walk vertex index 4 out of range"),
        ],
    )
    def test_validating_types_keep_their_messages(self, build, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build()

    def test_validating_types_keep_their_defaults(self):
        assert Provenance("custom")._key() == ("custom", None)
        assert Walk(_GRAPH, (0,))._key() == (_GRAPH, (0,), True)
        assert Walk(_GRAPH, (0, 1), closed=False)._key() == (_GRAPH, (0, 1), False)

    def test_sweep_report_is_unhashable_and_compares_its_fields(self):
        report = sweep(2, 3, range(3, 6))
        with pytest.raises(TypeError):
            hash(report)
        assert report == sweep(2, 3, range(3, 6))
        assert report != sweep(2, 3, range(3, 5))
        shown = f"rows={report.rows!r}, summary={report.summary!r}"
        assert repr(report) == f"SweepReport({shown})"
        assert report.records is report.records
