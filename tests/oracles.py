"""Slow, independent reference implementations used to cross-check the
package's fast paths. These deliberately avoid the package's adjacency
and search machinery: they read only vertex_count and the raw arc set,
and enumerate by brute force.
"""

import itertools
import math

from debruijn.seqcore import SYMBOL_CHARS, CyclicSequence


def naive_fkm(a, k):
    """Every Lyndon word whose length divides k, concatenated in the
    lexicographic order of the necklaces they repeat to, found by
    filtering all a**k words."""
    seq = []
    for word in itertools.product(range(a), repeat=k):
        rotations = [word[i:] + word[:i] for i in range(k)]
        if word == min(rotations):
            period = next(p for p in range(1, k + 1) if rotations[p % k] == word)
            seq.extend(word[:period])
    return tuple(seq)


def rotations(word):
    """Every rotation of a tuple, starting with the tuple itself."""
    return [word[i:] + word[:i] for i in range(len(word))]


def rotate(seq, offset):
    """The cyclic sequence ``seq`` read from position ``offset``."""
    off = offset % len(seq.symbols)
    return CyclicSequence(seq.symbols[off:] + seq.symbols[:off], seq.alphabet)


def is_least_rotation(word):
    """No rotation of ``word`` is lexicographically smaller."""
    return word == min(rotations(word))


def canonical_rotation(walk):
    """The least rotation of a closed walk's vertex indices."""
    assert walk.closed, "canonical rotation is defined for closed walks"
    return min(rotations(walk.vertex_indices))


def brute_orbit_key(word, a):
    """The least image of ``word`` under every rotation and every one of
    the a! permutations of the symbols 0..a-1."""
    return min(
        tuple(perm[s] for s in rotated)
        for perm in itertools.permutations(range(a))
        for rotated in rotations(word)
    )


def symbol_orbit_key(word):
    """brute_orbit_key for any alphabet, in time free of ``a``. A
    permutation's image of a word depends only on where it sends the
    word's own m symbols, and the least image sends them onto 0..m-1; so
    the m! orders of those symbols stand in for the a! permutations."""
    labels = [
        {s: i for i, s in enumerate(order)}
        for order in itertools.permutations(sorted(set(word)))
    ]
    return min(
        tuple(label[s] for s in rotated)
        for label in labels
        for rotated in rotations(word)
    )


def burnside_orbit_count(a, n):
    """Orbits of the length-n words over ``a`` symbols under rotation and
    symbol permutation, by Burnside's lemma: the mean over all pairs
    (rotation by r, permutation p) of the words they fix. Rotation by r
    splits the positions into gcd(n, r) cycles of length L = n / gcd; a
    fixed word has w[i + r] = p(w[i]), so each cycle is fixed by its
    first symbol, which must satisfy p^L(s) = s."""
    total = 0
    perms = list(itertools.permutations(range(a)))
    for r in range(n):
        g = math.gcd(n, r)
        for p in perms:
            fixed_symbols = 0
            for s in range(a):
                t = s
                for _ in range(n // g):
                    t = p[t]
                fixed_symbols += t == s
            total += fixed_symbols**g
    assert total % (n * len(perms)) == 0
    return total // (n * len(perms))


def symbols_text(symbols):
    """The text of a symbol string, looked up one symbol at a time."""
    return "".join([SYMBOL_CHARS[s] for s in symbols])


def parse_symbols(text, a):
    """The symbols of ``text`` over ``a`` symbols, looked up one
    character at a time, or the message that names its first bad one."""
    symbols = []
    for pos, ch in enumerate(text):
        s = SYMBOL_CHARS.find(ch)
        if not 0 <= s < a:
            return f"invalid symbol {ch!r} at position {pos} for alphabet size {a}"
        symbols.append(s)
    return tuple(symbols)


def read_symbols(text, a):
    """parse_symbols over the sequence file format: each line stripped,
    blank and ``#`` lines skipped, a message prefixed with its line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        got = parse_symbols(line, a)
        if isinstance(got, str):
            return f"line {lineno}: {got}"
        out.append(got)
    return out


def symbols_rank(symbols, a):
    """The base-``a`` rank of a symbol string, one symbol at a time."""
    rank = 0
    for s in symbols:
        rank = rank * a + s
    return rank


def rank_symbols(rank, a, k):
    """The k symbols of a base-``a`` rank, one division per symbol."""
    symbols = []
    for _ in range(k):
        rank, s = divmod(rank, a)
        symbols.append(s)
    return tuple(reversed(symbols))


def longest_runs(symbols):
    """The longest linear and cyclic runs of equal symbols, from the
    list of every run's length."""
    runs = [len(list(group)) for _, group in itertools.groupby(symbols)]
    linear = max(runs)
    if len(runs) > 1 and symbols[0] == symbols[-1]:
        return linear, max(linear, runs[0] + runs[-1])
    return linear, linear


def cyclic_windows(symbols, k):
    n = len(symbols)
    return [tuple(symbols[(i + j) % n] for j in range(k)) for i in range(n)]


def has_constant_window(symbols, k, cyclic):
    """Some length-k window, cyclic or linear, holds one symbol only."""
    if cyclic:
        windows = cyclic_windows(symbols, k)
    else:
        windows = [tuple(symbols[i : i + k]) for i in range(len(symbols) - k + 1)]
    return any(len(set(w)) == 1 for w in windows)


def naive_is_de_bruijn(symbols, a, k):
    """Every k-tuple over the alphabet occurs exactly once as a cyclic window."""
    counts = {t: 0 for t in itertools.product(range(a), repeat=k)}
    for w in cyclic_windows(symbols, k):
        counts[w] += 1
    return all(c == 1 for c in counts.values())


def out_lists(g):
    out = [[] for _ in range(g.vertex_count)]
    for u, v in sorted(g.arcs):
        out[u].append(v)
    return out


def dominates(out, n, visited):
    covered = set()
    for v in visited:
        covered.add(v)
        covered.update(out[v])
    return len(covered) == n


def closed_dominating_walks(g, length):
    """Canonical rotations of every closed dominating walk of exactly
    ``length`` arcs, found by raw depth-first enumeration over arcs."""
    out = out_lists(g)
    n = g.vertex_count
    if length == 0:
        return {(v,) for v in range(n) if dominates(out, n, [v])}
    found = set()

    def rec(path):
        if len(path) == length:
            if path[0] in out[path[-1]] and dominates(out, n, set(path)):
                found.add(min(rotations(tuple(path))))
            return
        for u in out[path[-1]]:
            path.append(u)
            rec(path)
            path.pop()

    for start in range(n):
        rec([start])
    return found


def cover_detours(g, start):
    """Return distances and detour lengths of the search from ``start``.

    back[u] is the BFS arc distance from u back to start through the
    vertices >= start, for each u that has one. detour[u][x], for each
    such u, is the least d(u, y) + back[y] over the y with x in N^+[y]
    (y = x, or an arc y -> x), where d is the BFS distance from u
    through the vertices >= start; x is missing when no such y exists.
    """
    out = out_lists(g)
    into = [[] for _ in range(g.vertex_count)]
    for u, v in g.arcs:
        into[v].append(u)

    def bfs(source, adjacency):
        dist = {source: 0}
        queue = [source]
        for v in queue:
            for w in adjacency[v]:
                if w >= start and w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    back = bfs(start, into)
    detour = {}
    for u in back:
        best = {}
        for y, d in bfs(u, out).items():
            if y in back:
                for x in [y, *out[y]]:
                    best[x] = min(best.get(x, d + back[y]), d + back[y])
        detour[u] = best
    return back, detour


def min_walk_length(g, max_length):
    """Least L <= max_length with a closed dominating walk, else None."""
    for length in range(max_length + 1):
        if closed_dominating_walks(g, length):
            return length
    return None


def has_closed_dominating_walk(g):
    """True iff some vertex dominates alone, or some vertex lies on a cycle
    whose strong component dominates (a closed walk can tour all of it)."""
    out = out_lists(g)
    n = g.vertex_count
    reach = []
    for v in range(n):
        seen, stack = set(), list(out[v])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(out[u])
        reach.append(seen)
    for v in range(n):
        if dominates(out, n, [v]):
            return True
        if v in reach[v]:
            component = [u for u in reach[v] if v in reach[u]]
            if dominates(out, n, component):
                return True
    return False


def postman_optimum(d, k):
    """The watchman number of the subdigraph generated by ``d`` (k >= 2),
    as the directed Chinese postman tour of B_D.

    B_D's vertices are (k-2)-strings, with one uncapacitated unit-cost
    arc prefix(w) -> suffix(w) for each distinct cyclic (k-1)-window w.
    The answer is 0 when there is one window, and otherwise the number
    of windows plus the least number of extra arc copies that balance
    every in-degree against its out-degree. That least number is a
    min-cost flow from the vertices with more arcs in than out to those
    with more out than in, found one unit at a time along a shortest
    path of the residual graph (successive shortest paths, Bellman-Ford
    from every vertex that still has excess).
    """
    windows = set(cyclic_windows(d.symbols, k - 1))
    if len(windows) == 1:
        return 0
    arcs = [(w[:-1], w[1:]) for w in windows]
    excess = {}  # in-degree minus out-degree
    for u, v in arcs:
        excess[u] = excess.get(u, 0) - 1
        excess[v] = excess.get(v, 0) + 1
    flow = [0] * len(arcs)  # extra copies of each arc
    extra = 0
    while any(x > 0 for x in excess.values()):
        dist = {v: 0 if x > 0 else math.inf for v, x in excess.items()}
        pred = {}
        for _ in range(len(excess)):
            for i, (u, v) in enumerate(arcs):
                if dist[u] + 1 < dist[v]:  # one more copy of arc i
                    dist[v], pred[v] = dist[u] + 1, (i, u, 1)
                if flow[i] and dist[v] - 1 < dist[u]:  # one copy fewer
                    dist[u], pred[u] = dist[v] - 1, (i, v, -1)
        sink = min((v for v, x in excess.items() if x < 0), key=dist.__getitem__)
        extra += dist[sink]
        v = sink
        while v in pred:  # back to the source the path starts at
            i, v, step = pred[v]
            flow[i] += step
        excess[v] -= 1
        excess[sink] += 1
    return len(windows) + extra


SYMBOL_TEXT = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _shift_arcs(labels):
    """Every pair (u, v) of label texts with v a left shift of u."""
    return {(u, v) for u in labels for v in labels if u[1:] == v[:-1]}


def text_generated_subdigraph(text, a, k):
    """Sorted label texts and text arcs of the subdigraph generated by
    ``text``: its cyclic text windows plus their text shifts, with arcs
    found by string comparison."""
    doubled = text * (k // len(text) + 2)
    windows = {doubled[i : i + k] for i in range(len(text))}
    labels = sorted(windows | {w[1:] + c for w in windows for c in SYMBOL_TEXT[:a]})
    return labels, _shift_arcs(labels)


def text_de_bruijn_graph(a, k):
    """Sorted label texts and text arcs of the full order-k graph."""
    labels = sorted(
        "".join(p) for p in itertools.product(SYMBOL_TEXT[:a], repeat=k)
    )
    return labels, _shift_arcs(labels)


def text_graph_json(labels, arcs, a, k, provenance):
    """The expected to_json() of a graph on sorted ``labels``."""
    where = {t: i for i, t in enumerate(labels)}
    return {
        "alphabet": a,
        "order": k,
        "vertices": list(labels),
        "arcs": sorted([where[u], where[v]] for u, v in arcs),
        "provenance": provenance,
    }


def text_graph_dot(labels, arcs):
    """The expected to_dot() of a graph on sorted ``labels``: with equal
    length labels in sorted order, text order of arcs is index order."""
    lines = ["digraph debruijn {"]
    lines += [f'  "{t}";' for t in labels]
    lines += [f'  "{u}" -> "{v}";' for u, v in sorted(arcs)]
    return "\n".join(lines + ["}"]) + "\n"
