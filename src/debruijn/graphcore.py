"""Directed graph representation, de Bruijn graph and generated-subdigraph
construction, the closed-dominating-walk predicate, and DOT/JSON export.

A vertex is a k-string, stored as its base-``a`` rank: the successors of
rank ``r`` are ``(r*a + c) % a**k``, and for a fixed ``k`` rank order is
lexicographic order. The builders work on ranks alone; a label is the
k-string's text, made from the rank only when a caller asks for it
(``labels``, ``label``, ``to_json``, ``to_dot``, ``Walk.label_texts``).
Digraphs are immutable after construction and keep only their sorted
out-adjacency; the arc set and in-degrees are read off it. Builders list
vertices in lexicographic order, so every export and every derived walk
is deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import DomainError, ResourceCapError
from .seqcore import (
    DEFAULT_SIZE_CAP,
    Alphabet,
    CyclicSequence,
    _Value,
    _check_generator_args,
    _distinct,
    _rank_text,
    _text_rank,
    parse_sequence,
    window_set,
)

PROVENANCE_KINDS = ("de_bruijn", "generated", "custom")

_NOT_GENERATED = "graph is not the subdigraph its provenance sequence generates"

VertexRef = int | str


class Provenance(_Value):
    """How a digraph came to be; generated graphs record their source text."""

    __slots__ = ("kind", "sequence")

    def __init__(self, kind: str, sequence: str | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sequence", sequence)
        if kind not in PROVENANCE_KINDS:
            raise DomainError(f"unknown provenance kind {kind!r}")
        if kind == "generated" and sequence is None:
            raise DomainError("generated provenance must record its sequence")
        if sequence is not None and not isinstance(sequence, str):
            raise DomainError(
                f"provenance sequence must be a string, got {sequence!r}"
            )

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.sequence is not None:
            obj["sequence"] = self.sequence
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Provenance":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise DomainError("provenance must be an object with a 'kind' field")
        return cls(obj["kind"], obj.get("sequence"))


class Digraph:
    """A digraph on k-strings, stored as its sorted out-adjacency.

    Vertex ``i`` is the k-string whose base-``a`` rank is ``ranks[i]``;
    its label text is built from the rank when asked for. A repeated arc
    is kept once. Self-loops are permitted. Unless the provenance is
    custom, every arc (u, v) must be a left shift: label(v) drops the
    first symbol of label(u) and appends one symbol. Such a graph must
    also be the left-shift digraph on W x {0..a-1} (``_window_digraph``),
    W being ``windows``: its a*|W| vertices in rank order, with all a
    shifts out of each vertex whose (k-1)-suffix is in W; a de Bruijn
    graph must have all a**k vertices.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        order: int,
        ranks: Iterable[int],
        arcs: Iterable[tuple[int, int]],
        provenance: Provenance = Provenance("custom"),
    ) -> None:
        if not _is_int(order) or order < 1:
            raise DomainError("order must be a positive integer")
        ranks = tuple(ranks)
        if not ranks:
            raise DomainError("a digraph needs at least one vertex")
        a = alphabet.size
        size = a**order
        for r in ranks:
            if not (_is_int(r) and 0 <= r < size):
                raise DomainError(
                    f"vertex rank {_show(r)} is not an integer in [0, {a}**{order})"
                )
        index = {r: i for i, r in enumerate(ranks)}
        if len(index) != len(ranks):
            raise DomainError("vertex labels must be pairwise distinct")
        self._alphabet = alphabet
        self._order = order
        self._ranks = ranks
        self._index = index
        self._windows = _distinct(r // a for r in ranks)

        n = len(ranks)
        out: list[list[int]] = [[] for _ in range(n)]
        for arc in arcs:
            try:
                u, v = arc
            except (TypeError, ValueError):  # not a pair: rejected just below
                u = v = None
            if not (_is_int(u) and _is_int(v)):
                raise DomainError(f"arc {_show(arc)} must be a pair of vertex indices")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"arc {_show(arc)} references an unknown vertex")
            out[u].append(v)
        self._out = tuple(tuple(sorted(set(ts))) for ts in out)
        if provenance.kind != "custom":
            drop = a ** (order - 1)
            for u, ts in enumerate(self._out):
                for v in ts:
                    if ranks[v] // a != ranks[u] % drop:
                        raise DomainError(
                            f"arc {self._text(ranks[u])} -> {self._text(ranks[v])} "
                            "is not a left shift"
                        )
            # W x {0..a-1} in rank order; every arc is a shift, so a vertex
            # whose suffix s is not in W, and so has no vertex s*a, has none,
            # and the others must have all a
            if (
                list(ranks) != [s * a + c for s in self._windows for c in range(a)]
                or list(map(len, self._out)) != [a * (r % drop * a in index) for r in ranks]
                or provenance.kind == "de_bruijn" and n != size
            ):
                raise DomainError(
                    _NOT_GENERATED
                    if provenance.kind == "generated"
                    else f"graph is not the de Bruijn graph G({a},{order})"
                )
        self._provenance = provenance

    def _text(self, rank: int) -> str:
        return _rank_text(rank, self._alphabet.size, self._order)

    @property
    def labels(self) -> tuple[str, ...]:
        """The label text of each vertex, by vertex index."""
        return tuple(map(self._text, self._ranks))

    @property
    def ranks(self) -> tuple[int, ...]:
        """The base-``a`` rank of each vertex label, by vertex index."""
        return self._ranks

    @property
    def windows(self) -> tuple[int, ...]:
        """W, the distinct (k-1)-prefixes r // a of the vertex ranks, in
        ascending order: for a non-custom graph, the window set it is
        built on (``seqcore.window_set``)."""
        return self._windows

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The sorted out-neighbour indices of each vertex, by vertex index."""
        return self._out

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """Every arc as a ``(u, v)`` index pair, read off the adjacency."""
        return frozenset((u, v) for u, ts in enumerate(self._out) for v in ts)

    @property
    def provenance(self) -> Provenance:
        return self._provenance

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def order(self) -> int:
        return self._order

    @property
    def vertex_count(self) -> int:
        return len(self._ranks)

    def label(self, i: int) -> str:
        if not 0 <= i < len(self._ranks):
            raise DomainError(f"vertex index {i} out of range")
        return self._text(self._ranks[i])

    def index(self, v: VertexRef) -> int:
        """Resolve an index or a label text to a vertex index.

        Anything else, a bool included, is a DomainError, and so is a
        label of the wrong length, which is rejected before it is ranked.
        """
        if _is_int(v):
            if not 0 <= v < len(self._ranks):
                raise DomainError(f"vertex index {v} out of range")
            return v
        if not isinstance(v, str):
            raise DomainError(
                f"a vertex is an index or a label text, not a {type(v).__name__}"
            )
        if len(v) != self._order:
            raise DomainError(
                f"unknown vertex: a label of length {len(v)}, not {self._order}"
            )
        idx = self._index.get(_text_rank(v, self._alphabet))
        if idx is None:
            raise DomainError(f"unknown vertex {v}")
        return idx

    def index_of_rank(self, rank: int) -> int:
        """The index of the vertex whose label has base-``a`` rank ``rank``."""
        idx = self._index.get(rank)
        if idx is None:
            raise DomainError(f"unknown vertex {self._text(rank)}")
        return idx

    def has_vertex(self, v: VertexRef) -> bool:
        try:
            self.index(v)
        except DomainError:
            return False
        return True

    def to_json(self) -> dict:
        return {
            "alphabet": self._alphabet.size,
            "order": self._order,
            "vertices": list(self.labels),
            "arcs": [[u, v] for u, ts in enumerate(self._out) for v in ts],
            "provenance": self._provenance.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Digraph":
        if not isinstance(obj, dict):
            raise DomainError("digraph JSON must be an object")
        for key in ("alphabet", "order", "vertices", "arcs"):
            if key not in obj:
                raise DomainError(f"digraph JSON is missing the {key!r} field")
        if not _is_int(obj["alphabet"]):
            raise DomainError("alphabet must be an integer")
        alphabet = Alphabet(obj["alphabet"])
        order = obj["order"]
        if not _is_int(order) or order < 1:
            raise DomainError("order must be a positive integer")
        # the order is capped before any label is ranked
        if order > DEFAULT_SIZE_CAP:
            raise ResourceCapError(f"order {order} exceeds cap {DEFAULT_SIZE_CAP}")
        if not isinstance(obj["vertices"], list) or not isinstance(obj["arcs"], list):
            raise DomainError("'vertices' and 'arcs' must be lists")
        ranks = []
        for text in obj["vertices"]:
            if not isinstance(text, str) or len(text) != order:
                raise DomainError(
                    f"vertex {text!r} must be a string of length {order}"
                )
            ranks.append(_text_rank(text, alphabet))
        provenance = Provenance.from_json(obj.get("provenance", {"kind": "custom"}))
        g = cls(alphabet, order, ranks, obj["arcs"], provenance)
        if provenance.kind == "generated":
            # the constructor has made g the subdigraph on g.windows x
            # {0..a-1}, so the sequence generates it iff its W is that one
            try:
                d = parse_sequence(provenance.sequence, alphabet.size)
                windows = window_set(d, order)
            except DomainError as exc:
                raise DomainError(f"provenance sequence: {exc}") from exc
            if windows != g.windows:
                raise DomainError(_NOT_GENERATED)
        return g


def _is_int(x: object) -> bool:
    # JSON true/false decode to bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


# in an error message, an int of more bits than this is named by its digit count
_SHOWN_BITS = 256


def _show(x: object) -> str:
    """``repr(x)`` for an error message, except that a long int, alone or
    as an item of a tuple or list (an arc), is named by its digit count:
    ``str`` of an int with more digits than
    ``sys.get_int_max_str_digits()`` raises ValueError."""
    if isinstance(x, int) and abs(x).bit_length() > _SHOWN_BITS:
        n = abs(x)
        # a lower bound from the bit length, counted up to the exact count
        digits = int((n.bit_length() - 1) * math.log10(2))
        while n >= 10**digits:
            digits += 1
        return f"<{'a negative' if x < 0 else 'an'} integer of {digits} digits>"
    if type(x) is list:
        return "[" + ", ".join(map(_show, x)) + "]"
    if type(x) is tuple:
        return "(" + ", ".join(map(_show, x)) + ("," if len(x) == 1 else "") + ")"
    return repr(x)


class Walk(_Value):
    """An ordered vertex sequence in a digraph, possibly closed.

    Length counts arcs traversed: a closed walk on m >= 2 vertices has m
    arcs (including the wraparound), an open walk has m - 1, and a closed
    walk on a single vertex is the stationary walk of length 0.
    Construction checks only index validity; whether consecutive pairs
    are arcs is the business of is_closed_dominating_walk. Two walks are
    equal only when they are one object.
    """

    __slots__ = ("digraph", "vertex_indices", "closed")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, digraph: Digraph, vertex_indices: tuple[int, ...], closed: bool = True
    ) -> None:
        object.__setattr__(self, "digraph", digraph)
        object.__setattr__(self, "vertex_indices", vertex_indices)
        object.__setattr__(self, "closed", closed)
        if not vertex_indices:
            raise DomainError("a walk needs at least one vertex")
        n = digraph.vertex_count
        for i in vertex_indices:
            if not 0 <= i < n:
                raise DomainError(f"walk vertex index {i} out of range")

    @property
    def length(self) -> int:
        m = len(self.vertex_indices)
        if self.closed:
            return m if m > 1 else 0
        return m - 1

    @property
    def label_texts(self) -> tuple[str, ...]:
        return tuple(map(self.digraph.label, self.vertex_indices))

    def arc_steps(self) -> list[tuple[int, int]]:
        """Arcs traversed in order, with multiplicity."""
        vi = self.vertex_indices
        steps = [(vi[i], vi[i + 1]) for i in range(len(vi) - 1)]
        if self.closed and len(vi) > 1:
            steps.append((vi[-1], vi[0]))
        return steps


def least_rotation(t: tuple[int, ...]) -> tuple[int, ...]:
    return min(t[i:] + t[:i] for i in range(len(t)))


def _window_digraph(
    alphabet: Alphabet, k: int, windows: Iterable[int], provenance: Provenance
) -> Digraph:
    """The left-shift digraph on W x {0..a-1}, W being ``windows``,
    distinct (k-1)-string ranks in ascending order.

    Vertex ``s*a + c`` exists for each ``s`` in W, in that order, and
    each symbol ``c``, so vertices come in rank order. The a left
    shifts of a vertex are the block of its (k-1)-suffix, so a vertex
    whose suffix is in W has arcs to all a of them and any other vertex
    has none.
    """
    a = alphabet.size
    drop = a ** (k - 1)
    # block[s] is the index of vertex s*a, and vertex s*a + c is at block[s] + c
    block = {s: i * a for i, s in enumerate(windows)}
    ranks = [s * a + c for s in block for c in range(a)]
    heads = [block.get(r % drop) for r in ranks]
    arcs = [(i, j + c) for i, j in enumerate(heads) if j is not None for c in range(a)]
    return Digraph(alphabet, k, ranks, arcs, provenance)


def build_de_bruijn_graph(a: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> Digraph:
    """The digraph on all a**k k-strings with an arc per left shift.

    It is the left-shift digraph on W x {0..a-1} with W every
    (k-1)-string. Vertices appear in lexicographic order, so vertex i has
    rank i; every vertex has out-degree and in-degree exactly a.
    """
    alphabet = _check_generator_args(a, k, size_cap)
    return _window_digraph(alphabet, k, range(a ** (k - 1)), Provenance("de_bruijn"))


def generated_subdigraph(d: CyclicSequence, k: int) -> Digraph:
    """The subdigraph generated by a sequence of length >= k.

    Its vertices are the distinct k-tour windows of ``d`` plus every left
    shift of those windows, and its arcs are all left shifts between
    them (the arc-induced subdigraph of the full de Bruijn graph). The
    README proves these vertices are W x {0..a-1} for the set W of
    cyclic (k-1)-windows of ``d``.
    """
    windows = window_set(d, k)  # rejects k > len(d) before a**k
    return _window_digraph(d.alphabet, k, windows, Provenance("generated", d.text))


def is_closed_dominating_walk(g: Digraph, walk: Walk) -> bool:
    """True iff the walk is closed, follows arcs, and its vertices dominate.

    A malformed walk (missing arc, not closed) yields False, never an
    error; a walk built on a different digraph instance is rejected.
    """
    if walk.digraph is not g:
        raise DomainError("walk does not reference this digraph")
    if not walk.closed:
        return False
    out = g.adjacency
    for u, v in walk.arc_steps():
        if v not in out[u]:
            return False
    # a vertex dominates itself and its out-neighbours
    visited = set(walk.vertex_indices)
    return len(visited.union(*(out[v] for v in visited))) == g.vertex_count


def to_dot(g: Digraph, highlight: Walk | None = None) -> str:
    """Deterministic DOT text; highlighted walk arcs bold, the rest grey."""
    if highlight is not None and highlight.digraph is not g:
        raise DomainError("highlight walk does not reference this digraph")
    bold = set(highlight.arc_steps()) if highlight is not None else set()
    texts = g.labels
    lines = ["digraph debruijn {"]
    for text in texts:
        lines.append(f'  "{text}";')
    arcs = ((u, v) for u, ts in enumerate(g.adjacency) for v in ts)
    for u, v in arcs:
        if highlight is None:
            attr = ""
        elif (u, v) in bold:
            attr = " [style=bold, color=black]"
        else:
            attr = " [color=grey]"
        lines.append(f'  "{texts[u]}" -> "{texts[v]}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
