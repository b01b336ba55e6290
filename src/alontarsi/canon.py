"""Tiny-instance canonical forms and exhaustive small-graph catalogs.

The canonical key of a connected graph is the lexicographically largest
column-by-column adjacency encoding over all vertex orderings, found by a
pruned ordering search (invariant-restricted roots, greedy column maxima with
tie branching, and twin collapsing).  Disconnected graphs key on the sorted
multiset of component keys.  Keys of isomorphic graphs are equal, keys of
non-isomorphic graphs differ, and everything here is deterministic.

Desk scale only: the catalogs below top out around nine vertices per
component, which is all the verification campaigns need.
"""

from __future__ import annotations

from itertools import combinations

from .errors import SizeGuardExceeded
from .graphs import Graph, disjoint_union

# all_graphs enumerates 2^C(n,2) edge subsets per n; it refuses n past this
ALL_GRAPHS_GUARD = 6


def _invariants(adj: list[frozenset]) -> list[tuple]:
    """Two refinement rounds of (degree, sorted neighbor invariants)."""
    inv = [len(s) for s in adj]
    for _ in range(2):
        inv = [(inv[v], tuple(sorted(inv[w] for w in adj[v]))) for v in range(len(adj))]
    return inv


def _are_twins(adj, u: int, w: int) -> bool:
    return adj[u] - {w} == adj[w] - {u}


def _connected_key(g: Graph) -> tuple:
    n = g.n
    if n <= 1:
        return (n,)
    adj = list(g.adjacency())
    inv = _invariants(adj)
    best_inv = max(inv)
    roots = [v for v in range(n) if inv[v] == best_inv]

    def collapse(cands: list[int]) -> list[int]:
        kept: list[int] = []
        for c in cands:
            if not any(_are_twins(adj, c, k) for k in kept):
                kept.append(c)
        return kept

    best: list[int] | None = None

    def extend(order: list[int], placed: set, cols: list[int]):
        nonlocal best
        i = len(order)
        if i == n:
            if best is None or cols > best:
                best = list(cols)
            return
        cands = []
        top = -1
        for w in range(n):
            if w in placed:
                continue
            col = 0
            for pos, p in enumerate(order):
                if w in adj[p]:
                    col |= 1 << pos
            if col > top:
                top = col
                cands = [w]
            elif col == top:
                cands.append(w)
        for w in collapse(cands):
            order.append(w)
            placed.add(w)
            cols.append(top)
            extend(order, placed, cols)
            cols.pop()
            placed.remove(w)
            order.pop()

    for r in collapse(roots):
        extend([r], {r}, [])
    return (n, *best)


def _union_key(keys: list[tuple]) -> tuple:
    """The key of a graph whose components have the connected keys `keys`."""
    if len(keys) == 1:
        return ("c", keys[0])
    return ("d", tuple(sorted(keys)))


def canonical_key(g: Graph) -> tuple:
    """Isomorphism-invariant key; equal exactly for isomorphic graphs."""
    comps = g.components()
    parts = [g.induced(comp)[0] for comp in comps] if len(comps) > 1 else [g]
    return _union_key([_connected_key(part) for part in parts])


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """Backtracking isomorphism test, independent of canonical_key.

    Used to cross-check the canonical machinery and for second-route recounts
    in tests; not meant for anything beyond desk-scale graphs.
    """
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    adj_a, adj_b = a.adjacency(), b.adjacency()
    inv_a, inv_b = _invariants(list(adj_a)), _invariants(list(adj_b))
    if sorted(inv_a) != sorted(inv_b):
        return False
    # map vertices of a in order of decreasing constraint
    order = sorted(range(a.n), key=lambda v: (-len(adj_a[v]), v))
    image = [-1] * a.n
    used = [False] * b.n

    def rec(i: int) -> bool:
        if i == a.n:
            return True
        u = order[i]
        for w in range(b.n):
            if used[w] or inv_a[u] != inv_b[w]:
                continue
            ok = True
            for p in order[:i]:
                if (p in adj_a[u]) != (image[p] in adj_b[w]):
                    ok = False
                    break
            if ok:
                image[u] = w
                used[w] = True
                if rec(i + 1):
                    return True
                used[w] = False
                image[u] = -1
        return False

    return rec(0)


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------


def _connected_catalog(
    max_edges: int, max_vertices: int | None = None
) -> list[tuple[tuple, Graph]]:
    """connected_graphs' graphs paired with their connected keys."""
    start = Graph(1, [])
    seen = {_connected_key(start): start}
    level = [start]
    for _ in range(max_edges):
        nxt = []
        for g in level:
            cands = []
            adj = g.adjacency()
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if v not in adj[u]:
                        cands.append(Graph(g.n, list(g.edges) + [(u, v)]))
            if max_vertices is None or g.n < max_vertices:
                for u in range(g.n):
                    cands.append(Graph(g.n + 1, list(g.edges) + [(u, g.n)]))
            for h in cands:
                key = _connected_key(h)
                if key not in seen:
                    seen[key] = h
                    nxt.append(h)
        level = nxt
    return sorted(seen.items(), key=lambda kg: (kg[1].m, kg[1].n, kg[0]))


def connected_graphs(max_edges: int, max_vertices: int | None = None) -> list[Graph]:
    """All connected graphs with at most max_edges edges, up to isomorphism.

    Grown edge by edge: every connected graph with m+1 edges arises from a
    connected m-edge graph either by joining two existing vertices (undoing a
    non-cut edge) or by attaching a pendant vertex (undoing a leaf).  Includes
    the one-vertex graph.  Deterministic output order.
    """
    return [g for _, g in _connected_catalog(max_edges, max_vertices)]


def all_graphs(max_vertices: int) -> list[Graph]:
    """Every graph on 1..max_vertices vertices up to isomorphism.

    Isolated vertices count: a graph and the same graph plus an isolated
    vertex are distinct entries.  Enumerates edge subsets per vertex count and
    dedups by canonical key; max_vertices past ALL_GRAPHS_GUARD is refused.
    """
    if max_vertices > ALL_GRAPHS_GUARD:
        raise SizeGuardExceeded(
            f"catalog guard: all_graphs n={max_vertices} > {ALL_GRAPHS_GUARD}"
        )
    out = []
    for n in range(1, max_vertices + 1):
        seen = {}
        pairs = list(combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for sub in combinations(pairs, r):
                g = Graph(n, list(sub))
                key = canonical_key(g)
                if key not in seen:
                    seen[key] = g
        ordered = sorted(seen.items(), key=lambda kg: (kg[1].m, kg[0]))
        out.extend(g for _, g in ordered)
    return out


def graphs_with_edge_budget(max_edges: int) -> list[Graph]:
    """All graphs with at most max_edges edges and no isolated vertices.

    Assembled as multisets of connected components (each with at least one
    edge), so the per-component catalog above does the isomorphism work.
    Each union is grown by one component at a time, and its sort key is
    built from the component keys the catalog already computed; no union is
    canonicalized again.  Sorted by (m, n, canonical_key).  Includes the
    empty graph on zero vertices.
    """
    comps = [(key, g) for key, g in _connected_catalog(max_edges) if g.m >= 1]
    out: list[tuple[tuple, Graph]] = []

    def rec(start: int, budget: int, acc: Graph, keys: list[tuple]):
        out.append((_union_key(keys), acc))
        for i in range(start, len(comps)):
            key, part = comps[i]
            if part.m <= budget:
                rec(i, budget - part.m, disjoint_union(acc, part), keys + [key])

    rec(0, max_edges, Graph(0, []), [])
    out.sort(key=lambda kg: (kg[1].m, kg[1].n, kg[0]))
    return [g for _, g in out]
