"""Slow, independent reference implementations used to cross-check the
package's fast paths. These deliberately avoid the package's adjacency
and search machinery: they read only vertex_count and the raw arc set,
and enumerate by brute force.
"""

import itertools


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


def cyclic_windows(symbols, k):
    n = len(symbols)
    return [tuple(symbols[(i + j) % n] for j in range(k)) for i in range(n)]


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
                t = tuple(path)
                found.add(min(t[i:] + t[:i] for i in range(length)))
            return
        for u in out[path[-1]]:
            path.append(u)
            rec(path)
            path.pop()

    for start in range(n):
        rec([start])
    return found


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
