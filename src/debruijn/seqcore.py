"""Alphabets, cyclic symbol sequences, k-tours, base-``a`` ranks, and
de Bruijn sequence validation and generation (``gen_fkm``, with
``gen_greedy`` and ``gen_eulerian`` as two rotations of its output).

Symbols are integer indices ``0..a-1`` rendered as the characters 0-9
then A-Z, so every sequence has an exact one-character-per-symbol text
form; the two convert through one pair of byte translation tables.
Sequences are always read cyclically; there is no linear mode.
All values are immutable after construction. This module is the only
place that converts between symbols or text and base-``a`` ranks: a
k-string's rank is its symbols read as a base-``a`` number, so for a
fixed ``k`` rank order is lexicographic order. It is the one place that
makes a window set W (``window_set``: an ascending tuple of ranks,
sorted and never hashed), and the one place that builds a shift
digraph on ranks (``_shift_arcs``: the arc prefix(w) -> suffix(w) of
each rank w, as tail and head lists), on whose arc lists the postman
flow (``watchman._postman``) runs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

from .errors import DomainError, ResourceCapError

SYMBOL_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# The symbol/text codec: one translation table each way between the bytes
# of symbols 0..35 and the ASCII bytes of SYMBOL_CHARS. Every other byte
# maps to itself, so a text is checked against the first ``a`` characters
# before its bytes are translated (``_decode``).
_SYMBOL_BYTES = bytes(range(len(SYMBOL_CHARS)))
_SYMBOL_ASCII = SYMBOL_CHARS.encode("ascii")
_TO_TEXT = bytes.maketrans(_SYMBOL_BYTES, _SYMBOL_ASCII)
_TO_SYMBOLS = bytes.maketrans(_SYMBOL_ASCII, _SYMBOL_BYTES)

#: Generators and graph builders refuse instances with a**k above this cap
#: unless the caller passes a larger one explicitly.
DEFAULT_SIZE_CAP = 4096


_set_field = object.__setattr__  # bypasses _Value.__setattr__, which refuses


class _Value:
    """Base of the immutable value types: the fields are the names in
    ``__slots__``, and the constructor takes them positionally, in that
    order. This ``__init__`` is the only one that sets fields, each
    once; a subclass defines its own only to give defaults or to
    validate, and calls this one first.

    Two values are equal when they are of one class with equal fields,
    the hash is that of the field tuple and the repr reads
    ``Name(field=value, ...)``. Assigning or deleting an attribute raises
    AttributeError. A class that needs a ``__dict__`` (for a
    ``cached_property``) lists it in its slots; it is no field.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *values: object, **keywords: object) -> None:
        if keywords or len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__qualname__} takes its fields {self._fields} "
                f"positionally, got {len(values)} values and keywords {tuple(keywords)}"
            )
        for name, value in zip(self._fields, values):
            _set_field(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle through the constructor
        return type(self), self._key()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_Value):
    """The symbol set {0, ..., size-1} with its canonical character form."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        super().__init__(size)
        if not 2 <= size <= len(SYMBOL_CHARS):
            raise DomainError(
                f"alphabet size must be between 2 and {len(SYMBOL_CHARS)}, "
                f"got {size}"
            )

    def decode(self, ch: str) -> int:
        symbol = SYMBOL_CHARS.find(ch) if len(ch) == 1 else -1
        if not 0 <= symbol < self.size:
            raise DomainError(
                f"character {ch!r} is not a symbol of an alphabet of size {self.size}"
            )
        return symbol


def _check_symbols(symbols: tuple[int, ...], alphabet: Alphabet) -> None:
    try:  # the common case in C: every symbol is a byte below a
        if not bytes(symbols).translate(None, _SYMBOL_BYTES[: alphabet.size]):
            return
    except (TypeError, ValueError):  # a symbol that is no byte
        pass
    for s in symbols:  # name the first symbol out of range
        if not 0 <= s < alphabet.size:
            raise DomainError(
                f"symbol {s} out of range for alphabet of size {alphabet.size}"
            )


class CyclicSequence(_Value):
    """A symbol string read cyclically: its windows wrap past the end."""

    __slots__ = ("symbols", "alphabet")

    def __init__(self, symbols: tuple[int, ...], alphabet: Alphabet) -> None:
        super().__init__(symbols, alphabet)
        if len(symbols) < 1:
            raise DomainError("a cyclic sequence needs at least one symbol")
        _check_symbols(symbols, alphabet)

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def text(self) -> str:
        return _symbols_text(self.symbols)

    def __str__(self) -> str:
        return self.text


def _symbols_text(symbols: Sequence[int]) -> str:
    """The text of a symbol string, one character of SYMBOL_CHARS per symbol."""
    return bytes(symbols).translate(_TO_TEXT).decode("ascii")


def _decode(text: str, a: int) -> bytes | None:
    """The symbols of ``text`` over ``a`` symbols, one byte each, or None
    if some character is not among the first ``a`` of SYMBOL_CHARS."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    if raw.translate(None, _SYMBOL_ASCII[:a]):  # a character that is no symbol
        return None
    return raw.translate(_TO_SYMBOLS)


def parse_sequence(text: str, a: int) -> CyclicSequence:
    """Decode a character string into a cyclic sequence over ``a`` symbols."""
    alphabet = Alphabet(a)
    if not text:
        raise DomainError("empty sequence text")
    symbols = _decode(text, a)
    if symbols is None:
        for pos, ch in enumerate(text):  # name the first bad character
            if not 0 <= SYMBOL_CHARS.find(ch) < a:
                raise DomainError(
                    f"invalid symbol {ch!r} at position {pos} for alphabet size {a}"
                )
    return CyclicSequence(tuple(symbols), alphabet)


def read_sequences(text: str, a: int) -> list[CyclicSequence]:
    """Parse the sequence file format: one sequence per line, ``#`` comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_sequence(line, a))
        except DomainError as exc:
            raise DomainError(f"line {lineno}: {exc}") from exc
    return out


# _rank and _unrank convert a k-string of more symbols than this by
# halves, so a long label costs a few big-integer products or divisions,
# not one per symbol; up to this length they run symbol by symbol
_RANK_LEAF = 64


@lru_cache(maxsize=128)
def _power(a: int, h: int) -> int:
    return a**h


def _rank(symbols: Sequence[int], a: int) -> int:
    k = len(symbols)
    if k > _RANK_LEAF:
        h = k // 2
        return _rank(symbols[: k - h], a) * _power(a, h) + _rank(symbols[k - h :], a)
    rank = 0
    for sym in symbols:
        rank = rank * a + sym
    return rank


def _unrank(rank: int, a: int, k: int) -> tuple[int, ...]:
    if k > _RANK_LEAF:
        h = k // 2
        high, low = divmod(rank, _power(a, h))
        return _unrank(high, a, k - h) + _unrank(low, a, h)
    syms = [0] * k
    for i in range(k - 1, -1, -1):
        rank, syms[i] = divmod(rank, a)
    return tuple(syms)


def _rank_text(rank: int, a: int, k: int) -> str:
    """The text of the k-string whose base-``a`` rank is ``rank``."""
    return _symbols_text(_unrank(rank, a, k))


def _text_rank(text: str, alphabet: Alphabet) -> int:
    """The base-``a`` rank of a k-string's text; a foreign character is an error."""
    symbols = _decode(text, alphabet.size)
    if symbols is None:
        for ch in text:  # name the first foreign character
            alphabet.decode(ch)
    return _rank(symbols, alphabet.size)


def _check_tour_args(d: CyclicSequence, k: int) -> None:
    if k < 1:
        raise DomainError("order must be at least 1")
    if len(d) < k:
        raise DomainError(f"sequence shorter than order: length {len(d)} < k = {k}")


def k_tour(d: CyclicSequence, k: int) -> tuple[str, ...]:
    """The text of every cyclic window of length ``k``, starting at position 0."""
    a = d.alphabet.size
    return tuple(_rank_text(r, a, k) for r in window_ranks(d, k))


def window_ranks(d: CyclicSequence, k: int) -> list[int]:
    """Base-``a`` rank of each k-tour window of ``d``, in tour order.

    One rolling pass: the next rank drops the leading digit and appends
    one symbol.
    """
    _check_tour_args(d, k)
    a = d.alphabet.size
    syms = d.symbols
    n = len(syms)
    rank = _rank(syms[:k], a)
    ranks = [rank]
    drop = a ** (k - 1)
    for i in range(k, k + n - 1):
        rank = rank % drop * a + syms[i % n]
        ranks.append(rank)
    return ranks


def _distinct(items: Iterable) -> tuple:
    """The distinct ``items``, at least one, in ascending order: sorted,
    then the first and each that differs from the one before it.

    The items are compared, never hashed: the ranks of long windows can
    share few hash buckets (powers of two, say), where building a set of
    them takes quadratic time.
    """
    items = sorted(items)
    return (items[0], *[y for x, y in zip(items, items[1:]) if x != y])


def window_set(d: CyclicSequence, k: int) -> tuple[int, ...]:
    """The window set W of ``d`` at order k: the distinct ranks of its
    cyclic (k-1)-windows, in ascending order.

    For k = 1, W holds the one empty window, of rank 0. The subdigraph
    that ``d`` generates at order k depends on W alone (see the README).
    """
    _check_tour_args(d, k)
    return _distinct(window_ranks(d, k - 1)) if k > 1 else (0,)


def is_de_bruijn_sequence(s: CyclicSequence, k: int) -> bool:
    """True iff ``s`` has length a**k and its k-tour windows are all distinct.

    Equivalently: every k-tuple over the alphabet occurs exactly once.
    Wrong-length input yields False, never an error.
    """
    if k < 1:
        raise DomainError("order must be at least 1")
    # a**k > k, so a sequence shorter than k is no de Bruijn sequence, and
    # testing that first never builds a huge power; its k-windows are its
    # window set at order k + 1
    return k <= len(s) == s.alphabet.size**k and len(window_set(s, k + 1)) == len(s)


def _check_generator_args(a: int, k: int, size_cap: int) -> Alphabet:
    alphabet = Alphabet(a)
    if k < 1:
        raise DomainError("order must be at least 1")
    # a >= 2, so a**k >= 2**k > size_cap once k reaches the cap's bit
    # length; testing that first never builds a huge power
    if k >= size_cap.bit_length() or a**k > size_cap:
        raise ResourceCapError(f"a^k = {a}^{k} exceeds size cap {size_cap}")
    return alphabet


def _first_appearance(word: tuple[int, ...]) -> bytes:
    """``word`` with each symbol relabelled by the order of its first
    appearance, so 2110 becomes 0112: the form ``necklaces`` yields,
    one byte per label. A form is bytes, not a tuple, so that a table
    keyed by forms holds one byte per symbol, not one pointer."""
    labels: dict[int, int] = {}
    for s in word:
        if s not in labels:
            labels[s] = len(labels)
    return bytes(map(labels.__getitem__, word))


def necklaces(a: int, n: int):
    """Every length-n necklace over ``a`` symbols, in lexicographic order.

    A necklace is the lexicographically least rotation of its class.
    Yields (word, p, form) where p is the length of the word's longest
    Lyndon prefix, so the necklace is word[:p] repeated n // p times,
    and form is the word's first-appearance form as bytes: each symbol
    relabelled by the order of first appearance, so 2110 has form
    bytes((0, 1, 1, 2)). The word is a tuple. Iterative
    FKM successor rule (Ruskey, Savage & Wang 1992): bump the last
    symbol below a - 1, then extend the new prefix periodically; the
    result is a prenecklace with period p, and a necklace iff p divides n.
    The form is kept beside the word: only the bumped symbol gets a new
    label (that of its first occurrence, or the next unused one), and
    the suffix copies the form's prefix as it copies the word's, since
    each copied symbol already occurs, with its label, in that prefix.
    """
    word = [0] * n
    form = [0] * n
    p = 1
    while True:
        if n % p == 0:
            yield tuple(word), p, bytes(form)
        i = n - 1
        while i >= 0 and word[i] == a - 1:
            i -= 1
        if i < 0:
            return
        word[i] += 1
        first = word.index(word[i])
        form[i] = form[first] if first < i else max(form[:i], default=-1) + 1
        p = i + 1
        for j in range(p, n):
            word[j] = word[j - p]
            form[j] = form[j - p]


def gen_fkm(a: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> CyclicSequence:
    """Lexicographically least de Bruijn sequence of order ``k``.

    Concatenates, in lexicographic order, every Lyndon word over the
    alphabet whose length divides ``k``: the Lyndon prefixes of the
    order-k necklaces. Deterministic; the canonical reference generator.
    """
    alphabet = _check_generator_args(a, k, size_cap)
    seq: list[int] = []
    for word, p, _ in necklaces(a, k):
        seq.extend(word[:p])
    return CyclicSequence(tuple(seq), alphabet)


def _rotated(d: CyclicSequence, r: int) -> CyclicSequence:
    """``d`` rotated left by ``r`` symbols, right by ``-r`` when r < 0."""
    return CyclicSequence(d.symbols[r:] + d.symbols[:r], d.alphabet)


def gen_greedy(a: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> CyclicSequence:
    """Martin's greedy de Bruijn sequence: gen_fkm rotated right by k.

    Martin's rule (1934) starts from k copies of the largest symbol and
    appends the smallest symbol whose new k-window is unused. Its output
    is (a-1)^k followed by a prefix of L = gen_fkm(a, k), and L ends in
    (a-1)^k, so it is L rotated right by k (see the README); e.g.
    (2,2) -> 1100.
    """
    return _rotated(gen_fkm(a, k, size_cap), -k)


def gen_eulerian(a: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> CyclicSequence:
    """The de Bruijn sequence of Hierholzer's Euler circuit of G(a, k-1):
    gen_fkm rotated left by k-1.

    From 0^(k-1), trying arcs least symbol first, Hierholzer's algorithm
    returns the lexicographically least Euler circuit, whose symbols are
    the least de Bruijn sequence ending in 0^(k-1). With L = 0^k Y =
    gen_fkm(a, k) that is 0 Y 0^(k-1), L rotated left by k-1 (see the
    README). For k = 1 it is L itself, each symbol once.
    """
    return _rotated(gen_fkm(a, k, size_cap), k - 1)


def _shift_arcs(windows: Iterable[int], a: int, m: int) -> tuple[list[int], list[int]]:
    """The shift digraph of m-string ranks, as the tails and heads of its
    arcs: one arc prefix(w) -> suffix(w), from w // a to w % a**(m-1),
    for each rank w in the order given.

    Vertices are the (m-1)-strings met, numbered 0, 1, ... in order of
    first appearance, a tail before its head. On a window set W of
    order k this is B_D (``watchman._postman_optimum``, m = k-1); on
    every m-string it is G(a, m-1), whose vertex numbers are then its
    ranks. At m = 1 every arc is a loop on the one empty string.
    """
    drop = a ** (m - 1)
    index: dict[int, int] = {}  # an (m-1)-string's rank -> its vertex
    tails, heads = [], []
    for w in windows:
        tails.append(index.setdefault(w // a, len(index)))
        heads.append(index.setdefault(w % drop, len(index)))
    return tails, heads
