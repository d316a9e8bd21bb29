"""Watchman numbers and minimum closed dominating walks.

The closed-form watchman number of the full de Bruijn graph is a**(k-1);
construct_watchman_walk builds a walk attaining it by lifting a de Bruijn
sequence of order k-1. solve_min_walk is the exact oracle: a per-start
breadth-first search over (vertex, dominated-bitset) states, pruned by
each start's cover masks, so it needs no formula and works on any
digraph within the vertex cap. _postman_optimum gives the same optimum
for a subdigraph a sequence generates in polynomial time, as a directed
Chinese postman tour; it finds no walk. It runs the min-cost flow
kernel _postman on the arc lists of the window digraph
(``seqcore._shift_arcs``) and checks the flow's primal-dual certificate
before it answers; solve_min_walk starts the deepening of every
non-custom digraph one round below that optimum.
"""

from __future__ import annotations

import heapq
import math

from .errors import DomainError, InvariantViolation, ResourceCapError
from .graphcore import (
    Digraph,
    Walk,
    build_de_bruijn_graph,
    least_rotation,
)
from .seqcore import (
    DEFAULT_SIZE_CAP,
    Alphabet,
    CyclicSequence,
    _Value,
    _distinct,
    _shift_arcs,
    gen_fkm,
    is_de_bruijn_sequence,
    window_ranks,
)

#: The oracle refuses digraphs with more vertices than this unless the
#: caller raises the cap; the state space is bounded by n * 2**n.
DEFAULT_VERTEX_CAP = 24

# Mask bits one start's cover table may hold. A layer holds n masks of
# n bits and a long sparse digraph needs about n layers, so without a
# bound its table grows as n**3 bits (127 MiB for a 1,100-vertex cycle).
_COVER_BITS = 1 << 24


class SolveResult(_Value):
    """Outcome of the exact oracle.

    optimum_length and witness are None when the digraph admits no closed
    dominating walk at all. explored_states counts states expanded by the
    search, for diagnostics only.
    """

    __slots__ = ("optimum_length", "witness", "explored_states")

    @property
    def feasible(self) -> bool:
        return self.optimum_length is not None

    def to_json(self) -> dict:
        return {
            "optimum": self.optimum_length,
            "witness": list(self.witness.label_texts) if self.witness else None,
            "explored_states": self.explored_states,
        }


def construct_watchman_walk(
    a: int,
    k: int,
    seed: CyclicSequence | None = None,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Walk:
    """A minimum closed dominating walk of the full order-k graph.

    The walk visits the k-tour windows of a de Bruijn sequence of order
    k-1 (the given ``seed``, or the canonical gen_fkm one). Its a**(k-1)
    visited vertices have pairwise disjoint out-neighborhoods covering
    all a**k vertices, so the walk dominates, and its length is the
    watchman number a**(k-1) of that graph.
    """
    Alphabet(a)
    if k < 2:
        raise DomainError("watchman walk construction needs order k >= 2")
    if seed is None:
        seed = gen_fkm(a, k - 1, size_cap)
    else:
        if seed.alphabet.size != a:
            raise DomainError(
                f"seed alphabet size {seed.alphabet.size} does not match a = {a}"
            )
        if not is_de_bruijn_sequence(seed, k - 1):
            raise DomainError(f"seed is not a de Bruijn sequence of order {k - 1}")
    return induced_walk(seed, k, build_de_bruijn_graph(a, k, size_cap))


def induced_walk(d: CyclicSequence, k: int, graph: Digraph) -> Walk:
    """The closed walk visiting the k-tour windows of ``d`` in tour order.

    Repeated windows are revisited, not skipped, so the length is
    len(d), except that a length-1 sequence gives the stationary walk on
    its one window, of length 0. ``graph`` is a digraph over the same
    alphabet and order that holds every window, such as
    ``generated_subdigraph(d, k)``.
    """
    if graph.alphabet != d.alphabet or graph.order != k:
        raise DomainError("graph alphabet and order do not match the sequence")
    return Walk(graph, tuple(map(graph.index_of_rank, window_ranks(d, k))), closed=True)


def _check_vertex_cap(n: int, vertex_cap: int) -> None:
    """Refuse a digraph of ``n`` vertices when ``n`` exceeds the oracle cap."""
    if n > vertex_cap:
        raise ResourceCapError(
            f"digraph has {n} vertices, oracle cap is {vertex_cap} "
            f"(worst-case state space ~{n} * 2^{n})"
        )


def _closed_dominating_ranks(
    walk: list[int], windows: tuple[int, ...], a: int, k: int
) -> bool:
    """True iff the closed walk on the vertex ranks ``walk`` is a closed
    dominating walk of the left-shift digraph on W x {0..a-1}, W being
    ``windows`` (``graphcore._window_digraph``), which is not built.

    A rank x is a vertex iff its prefix x // a is in W. The arcs out of
    a vertex x go to the block of its suffix s = x % a**(k-1), the a
    vertices s*a + c, when s is in W; so between two vertices, x -> y is
    an arc iff y // a == s. Each x dominates itself and that block, so
    the walk dominates iff each s in W is the suffix of a walk vertex or
    all a vertices of its block are on the walk. Once every cyclic step
    is an arc, the walk's prefixes are its suffixes (each vertex's prefix
    is its predecessor's suffix), and the second case implies the first.
    So the walk is a closed dominating walk iff every step is a shift and
    its prefixes are exactly W: "within" for being vertices, "all of" for
    dominating. A one-vertex walk is stationary, yet testing its "step"
    x -> x changes nothing: with W = {x // a}, x dominates iff
    x % a**(k-1) is in W, which is that step's test. The prefixes are
    sorted, not hashed (``seqcore._distinct``), as W is.
    """
    drop = a ** (k - 1)
    return _distinct([x // a for x in walk]) == windows and all(
        y // a == x % drop for x, y in zip(walk, walk[1:] + walk[:1])
    )


def _postman_optimum(windows: tuple[int, ...], a: int, k: int) -> int:
    """The watchman number of the subdigraph a sequence generates at
    order k, from its window set W (``seqcore.window_set``).

    It is 0 when W holds one window, so for k = 1 and for constant
    sequences. Otherwise it is the directed Chinese postman tour of B_D,
    the digraph on (k-2)-strings with one arc prefix(w) -> suffix(w) per
    w in W (``seqcore._shift_arcs``): |W| plus the least number of extra
    arc copies that balance every vertex (the README proves this), which
    ``_postman`` routes as a min-cost flow.

    The answer is checked against the flow's primal-dual certificate
    before it is returned, in one pass over the arcs. The tour x_w = 1 +
    copies[w] must balance every vertex, and the potentials p must give
    every reduced cost r_w = 1 + p(prefix w) - p(suffix w) >= 0, with
    sum(x) = sum(r) = |W| + extra. That proves the answer least: every
    balanced x' >= 1 has sum(x') = sum(x'_w * r_w) >= sum(r), as the p
    terms cancel at each balanced vertex. A failed check raises
    InvariantViolation; a passed one returns sum(r).
    """
    if len(windows) == 1:
        return 0
    tails, heads = _shift_arcs(windows, a, k - 1)
    extra, copies, potential = _postman(tails, heads)
    balance = [0] * len(potential)  # arcs out minus arcs in, under x
    reduced = 0  # the sum of the reduced costs r
    for u, v, c in zip(tails, heads, copies):
        r = 1 + potential[u] - potential[v]
        if r < 0 or c < 0:
            break
        reduced += r
        balance[u] += 1 + c
        balance[v] -= 1 + c
    else:  # every r_w >= 0 and x_w >= 1
        if not any(balance) and sum(copies) == extra == reduced - len(windows):
            return reduced
    raise InvariantViolation(f"postman certificate fails on |W| = {len(windows)}")


def _postman(tails: list[int], heads: list[int]) -> tuple[int, list[int], list[int]]:
    """A least-cost set of extra arc copies that balances the strongly
    connected digraph with arcs tails[i] -> heads[i] (vertices 0..n-1;
    loops and parallel arcs allowed): their total, the copies of each
    arc, and the final vertex potentials. Each copy costs 1 and has no
    capacity limit; the copies are a min-cost flow from the vertices
    with more arcs in than out to those with more out than in.

    Successive shortest paths: each round runs Dijkstra on the reduced
    costs of the residual graph from every vertex with supply left at
    once, then augments along the path to the nearest vertex with demand
    left by the path's bottleneck. A residual arc adds a copy (cost 1,
    unbounded) or removes an added one (cost -1). Each vertex's
    potential is its distance in the last round, from a source joined at
    cost 0 to every vertex with supply left, which keeps every reduced
    cost non-negative; a vertex with supply starts a round at minus its
    potential, the reduced cost of its arc from that source. Strong
    connection lets each round reach every vertex. An arc is listed for
    walking back once it gets a copy (again, if its copies ran out and
    came back, which only relaxes it twice). A balanced digraph needs no
    copies and returns before any residual arc is built.
    """
    n = max(tails) + 1  # every vertex has an arc out
    excess = [0] * n  # in-degree minus out-degree, then what is left to route
    for u, v in zip(tails, heads):
        excess[u] -= 1
        excess[v] += 1
    copies = [0] * len(tails)  # extra copies of each arc
    potential = [0] * n
    if max(excess) == 0:  # balanced already: no copies
        return 0, copies, potential
    out: list[list[int]] = [[] for _ in range(n)]  # arcs by tail
    for i, u in enumerate(tails):
        out[u].append(i)
    into: list[list[int]] = [[] for _ in range(n)]  # arcs given copies, by head
    extra = 0
    while max(excess) > 0:
        dist = [math.inf] * n
        pred: list[int | None] = [None] * n  # arc that reached each vertex
        heap = [(-potential[s], s) for s in range(n) if excess[s] > 0]
        for d, s in heap:
            dist[s] = d
        heapq.heapify(heap)
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            base = d + potential[u]
            for i in out[u]:
                v = heads[i]
                dv = base + 1 - potential[v]
                if dv < dist[v]:
                    dist[v], pred[v] = dv, i
                    heapq.heappush(heap, (dv, v))
            for i in into[u]:
                if copies[i]:
                    v = tails[i]
                    dv = base - 1 - potential[v]
                    if dv < dist[v]:
                        dist[v], pred[v] = dv, i
                        heapq.heappush(heap, (dv, v))
        for v in range(n):
            potential[v] += dist[v]
        sink = min((v for v in range(n) if excess[v] < 0), key=potential.__getitem__)
        path = []  # (arc, +1 to add a copy or -1 to remove one), sink first
        v = sink
        while pred[v] is not None:
            i = pred[v]
            step = 1 if heads[i] == v else -1
            path.append((i, step))
            v = tails[i] if step == 1 else heads[i]
        flow = min(excess[v], -excess[sink], *(copies[i] for i, s in path if s < 0))
        for i, step in path:
            if not copies[i]:  # it gets a copy, so it can now be walked back
                into[heads[i]].append(i)
            copies[i] += step * flow
        excess[v] -= flow
        excess[sink] += flow
        extra += flow * potential[sink]
    return extra, copies, potential


def _search_inputs(
    g: Digraph, vertex_cap: int
) -> tuple[list[list[int]], list[int], int]:
    """The exact search's inputs for ``g``: its out-lists, the closed
    out-neighbourhood of each vertex as a bitset, and the full mask.
    A ``g`` over the vertex cap is refused before any mask is built.
    """
    n = g.vertex_count
    _check_vertex_cap(n, vertex_cap)
    out = g.adjacency
    nb = [sum(1 << u for u in {v, *targets}) for v, targets in enumerate(out)]
    return out, nb, (1 << n) - 1


def _starts(
    out: list[list[int]], nb: list[int], full: int
) -> list[tuple[int, int, list[int], list[list[int]]]]:
    """Every start whose walks could dominate, as ``(vertex, bound,
    dist_back, layers)``.

    The search kernels read only successor lists ``out``, one mask
    ``nb[u]`` per vertex (the set a visit to ``u`` dominates, which need
    not hold ``u``) and the mask ``full`` a walk must reach. Both
    searches find each closed walk from its least vertex: the search
    from a start never steps to a smaller vertex, so every walk is met
    from exactly one start.

    dist_back[u] is the arc-distance from u back to the start through
    vertices >= start, or -1 if there is no such path; the searches skip
    vertices at -1, which covers every vertex below the start. A walk
    from the start stays in its strong component among the vertices >=
    start, so a start whose component cannot dominate is left out.

    cover(t) = layers[min(t, len(layers) - 1)] is the start's cover
    table: cover(t)[u] is the union of nb[y] over the y with d(u, y) +
    dist_back[y] <= t, where d is the arc distance through the vertices
    that can return to the start. Every walk from u that gets back to
    the start within t arcs visits only such y, so it dominates only
    vertices in cover(t)[u]: a state (u, m) with t arcs left is dead
    unless m | cover(t)[u] is full, and no closed dominating walk through
    the start is shorter than ``bound``, the least t with
    cover(t)[vertex] full. The table is built here in full, one bitset
    recurrence per layer: cover(t)[u] = (nb[u] if dist_back[u] <= t) |
    OR of cover(t-1)[v] over the out-neighbours v of u. cover(t)[u] is
    empty exactly while t < dist_back[u], so a layer equal to the one
    before it comes after every return distance and the recurrence has
    reached its fixed point, where the table ends. A table that reaches
    _COVER_BITS // n**2 layers first ends instead with a layer that
    prunes nothing, which is still admissible.
    """
    n = len(out)
    horizon = _COVER_BITS // (n * n)
    no_cover = [full] * n  # a layer that prunes nothing
    in_adj: list[list[int]] = [[] for _ in range(n)]
    for u, targets in enumerate(out):
        for v in targets:
            in_adj[v].append(u)
    starts = []
    for start in range(n):
        dist_back = [-1] * n
        dist_back[start] = 0
        returning = [start]  # breadth-first, so by return distance
        for u in returning:
            for p in in_adj[u]:
                if p >= start and dist_back[p] < 0:
                    dist_back[p] = dist_back[u] + 1
                    returning.append(p)
        # the component is what start reaches among the vertices that
        # can return to it
        potential = nb[start]
        component = {start}
        stack = [start]
        while stack:
            for u in out[stack.pop()]:
                if dist_back[u] >= 0 and u not in component:
                    component.add(u)
                    potential |= nb[u]
                    stack.append(u)
        if potential != full:
            continue
        # the cover table, to its fixed point or its horizon
        prev = [0] * n
        prev[start] = nb[start]
        layers = [prev]
        while len(layers) <= horizon:
            layer = prev.copy()
            for u in returning:
                if dist_back[u] > len(layers):
                    break  # the covers of u onwards are still empty
                if prev[u] == full:
                    continue
                m = nb[u]
                for v in out[u]:
                    m |= prev[v]
                layer[u] = m
            if layer == prev:
                break
            layers.append(layer)
            prev = layer
        else:
            layers.append(no_cover)
        bound = next(t for t, layer in enumerate(layers) if layer[start] == full)
        starts.append((start, bound, dist_back, layers))
    return starts


def _bounded_bfs(
    out: list[list[int]],
    nb: list[int],
    full: int,
    start: tuple[int, int, list[int], list[list[int]]],
    limit: int,
) -> tuple[list[int] | None, int]:
    """Shortest closed dominating walk through ``start`` (one of
    ``_starts(out, nb, full)``) of length <= limit.

    Breadth-first over (vertex, dominated-bitset) states; returns the
    walk's vertex list (start first) or None, plus the number of states
    expanded. A state (u, m) with t arcs left is pruned by two checks
    read from the start's cover table, both admissible: its return
    distance exceeds t (exactly where cover(t)[u] is empty, and the only
    bound past the table's horizon), or m | cover(t)[u] is not the full
    set. So a goal within the limit is never missed. The first parent to
    reach a state keeps it and out-neighbors are tried in ascending
    order, so of all such walks the lexicographically least is found.
    """
    vertex, _, dist_back, layers = start
    explored = 0
    init = (vertex, nb[vertex])
    parent: dict[tuple[int, int], tuple[int, int] | None] = {init: None}
    frontier = [init]
    depth = 0
    while frontier and depth < limit:
        slack = limit - depth - 1  # arcs left after the next step
        cover = layers[min(slack, len(layers) - 1)]
        nxt: list[tuple[int, int]] = []
        for state in frontier:
            v, m = state
            explored += 1
            for u in out[v]:
                m2 = m | nb[u]
                if u == vertex and m2 == full:
                    seq = []
                    s: tuple[int, int] | None = state
                    while s is not None:
                        seq.append(s[0])
                        s = parent[s]
                    seq.reverse()
                    return seq, explored
                key = (u, m2)
                if key in parent:
                    continue
                db = dist_back[u]
                if db < 0 or db > slack or m2 | cover[u] != full:
                    continue
                parent[key] = state
                nxt.append(key)
        frontier = nxt
        depth += 1
    return None, explored


def solve_min_walk(g: Digraph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> SolveResult:
    """Exact minimum closed dominating walk by state-space search.

    States are (current vertex, bitset of dominated vertices), reached by
    breadth-first search with transitions along out-arcs; the goal is
    being back at the start with everything dominated. All arc costs are
    1, so breadth-first order is uniform-cost order. The target length is
    iteratively deepened from the global counting bound ceil(n / max
    closed-neighborhood size): a walk of L >= 1 arcs visits at most L
    vertices, each dominating at most that many. Within a round, each
    state is pruned by the two checks of _bounded_bfs, both read from its
    start's cover table.

    Each walk is searched from its least vertex only: the search from a
    start never steps to a smaller vertex, and starts whose strong
    component among the vertices >= start cannot dominate are skipped;
    if no start survives, the instance is infeasible. Within a deepening
    round the starts are tried in ascending order and the first walk
    found is returned; a start whose bound (_starts) exceeds the round's
    limit has no walk through it that fits, and is skipped, so the
    first round that searches at all is the least such bound over the
    starts. A stationary length-0 walk is returned iff some single
    vertex dominates the whole graph, the least such vertex.

    The witness is therefore the least canonical minimum walk: it starts
    at its least vertex, is the lexicographically least rotation of
    itself, and equals ``enumerate_min_walks(g, optimum)[0]``. The cover
    masks only cut states that lie on no walk completing within the
    limit, so they change explored_states and never the witness.

    A non-custom ``g`` is the left-shift digraph on W x {0..a-1}, W =
    ``g.windows`` (``Digraph``); once the search has found a start, W is the
    window set of some sequence (``_seed``). So its optimum is known in
    advance: the postman optimum of W (``_postman_optimum``). The
    deepening then starts at max(counting bound, optimum - 1) instead.
    One round at limit L finds any walk of at most L arcs, so that first
    round finding nothing proves the optimum is not below the seed; the
    next round, at the seed, is the round that ends the unseeded
    deepening too, so the witness is the same and only explored_states
    falls. A walk shorter than the seed, or none of its length, raises
    InvariantViolation. A custom graph, even one with the same vertices
    and arcs, is searched unseeded, and so is an infeasible one.
    """
    out, nb, full = _search_inputs(g, vertex_cap)
    for v, m in enumerate(nb):
        if m == full:
            _check_seed(_seed(g), 0)
            return SolveResult(0, Walk(g, (v,), closed=True), 0)

    starts = _starts(out, nb, full)
    if not starts:
        return SolveResult(None, None, 0)

    optimum = _seed(g)
    n = len(out)
    explored = 0
    limit = max(2, -(-n // max(m.bit_count() for m in nb)))
    if optimum is not None:
        limit = max(limit, optimum - 1)
    while True:
        for start in starts:
            if start[1] > limit:
                continue
            found, expanded = _bounded_bfs(out, nb, full, start, limit)
            explored += expanded
            if found is not None:
                _check_seed(optimum, len(found))
                witness = Walk(g, tuple(found), closed=True)
                return SolveResult(len(found), witness, explored)
        if optimum is not None and limit >= optimum:
            _check_seed(optimum, None)
        limit += 1
        if limit > n * n:  # pragma: no cover - feasibility precheck forbids this
            raise InvariantViolation("iterative deepening exceeded the n^2 bound")


def _seed(g: Digraph) -> int | None:
    """The optimum solve_min_walk seeds a feasible ``g`` with: None for
    a custom graph, else the postman optimum of its W, ``g.windows``.

    The flow needs W to be the window set of some sequence, which the
    ``Digraph`` constructor does not check for a graph built directly.
    A W x {0..a-1} digraph has a closed dominating walk iff it is: the
    prefixes along such a walk are a closed walk through every member
    of W on the shift digraph of W, and reading one symbol per step of
    it gives a sequence whose window set is W. So an infeasible graph
    is never seeded.
    """
    if g.provenance.kind == "custom":
        return None
    return _postman_optimum(g.windows, g.alphabet.size, g.order)


def _check_seed(seed: int | None, found: int | None) -> None:
    """Refuse a search whose optimum ``found`` (None: no walk within the
    seed) is not the ``seed`` it was given; no seed accepts anything."""
    if seed is not None and found != seed:
        raise InvariantViolation(
            f"seeded optimum {seed}, but the search found "
            + ("no walk of that length" if found is None else f"one of length {found}")
        )


def enumerate_min_walks(
    g: Digraph, length: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> list[Walk]:
    """All closed dominating walks of exactly ``length`` arcs, up to rotation.

    Each rotation class is returned once, as its lexicographically least
    rotation, in deterministic sorted order. Vertices may repeat within a
    walk. Asking below the optimum yields an empty list.
    """
    if length < 0:
        raise DomainError("walk length cannot be negative")
    out, nb, full = _search_inputs(g, vertex_cap)
    if length == 0:
        return [Walk(g, (v,), closed=True) for v, m in enumerate(nb) if m == full]
    if length == 1:
        # a one-arc circuit is a self-loop whose vertex set equals the
        # stationary walk's; under the single-vertex-closed-walk = length 0
        # convention it has no distinct representation (and can never be
        # optimal: the stationary walk dominates the same set)
        return []

    found: set[tuple[int, ...]] = set()

    for vertex, bound, dist_back, layers in _starts(out, nb, full):
        if bound > length:
            continue
        covers = [layers[min(t, len(layers) - 1)] for t in range(length)]
        # depth-first with one frame per path vertex: its out-neighbours
        # not yet tried and the vertices dominated so far
        path = [vertex]
        frames = [(iter(out[vertex]), nb[vertex])]
        while frames:
            succ, dom = frames[-1]
            remaining = length - len(path)  # arcs left after stepping on
            cover = covers[remaining]
            for u in succ:
                db = dist_back[u]
                if db < 0 or db > remaining:
                    continue
                dom2 = dom | nb[u]
                if dom2 | cover[u] != full:
                    continue
                path.append(u)
                if len(path) < length:
                    frames.append((iter(out[u]), dom2))
                    break
                if dom2 == full and vertex in out[u]:
                    found.add(least_rotation(tuple(path)))
                path.pop()
            else:
                frames.pop()
                path.pop()

    return [Walk(g, t, closed=True) for t in sorted(found)]
