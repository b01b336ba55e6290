"""Tiny-instance canonical forms and exhaustive small-graph catalogs.

The canonical key of a connected graph is the lexicographically largest
column-by-column adjacency encoding over all vertex orderings, found by a
pruned ordering search (invariant-restricted roots, greedy column maxima with
tie branching, twin collapsing, and a prefix bound that drops a branch whose
columns are already lex-smaller than the best leaf's; B. D. McKay,
"Practical graph isomorphism", Congr. Numer. 30 (1981)).  Each unplaced
vertex keeps its column as a running bitmask, updated as its neighbours are
placed and taken back, so a search node costs one scan for the largest
column.  The roots are the argmax of two refinement rounds of (degree,
sorted neighbour invariants); as that order compares the degree first and
each round's tuple starts with the last round's value, the argmax is found
by narrowing the vertices of largest degree one round at a time, computing
a round only on the vertices still tied and their neighbours.
Disconnected graphs key on the sorted multiset of component keys.  Keys of
isomorphic graphs are equal, keys of non-isomorphic graphs differ, and
everything here is deterministic.

The catalogs grow graphs one edge at a time and key one move per orbit of
a group of automorphisms: the twin swaps and the automorphisms that the
key search's tied best leaves show.  An automorphism carries each move to
one giving an isomorphic graph, so the skipped moves' keys are always
seen already (McKay, "Isomorph-free exhaustive generation", J. Algorithms
26 (1998)).

Desk scale only: the catalogs below top out around nine vertices per
component, which is all the verification campaigns need.
"""

from __future__ import annotations

from .errors import SizeGuardExceeded
from .graphs import Graph, disjoint_union, first_twins

# all_graphs grows its 1,252 graphs in about 0.75 s at n = 7; it refuses n past this
ALL_GRAPHS_GUARD = 7
# a grown catalog refuses to keep more graphs than this; each extra edge of
# connected_graphs multiplies its count by about 3.2 and its time by about 4
CATALOG_GUARD = 5000


def _invariants(adj: list[frozenset]) -> list[tuple]:
    """Two refinement rounds of (degree, sorted neighbor invariants).

    is_isomorphic matches vertices by these.  The key search roots at their
    argmax, which _roots finds without computing them all (the tests check
    that the two agree), so is_isomorphic shares no code with canonical_key.
    """
    inv = [len(s) for s in adj]
    for _ in range(2):
        inv = [(inv[v], tuple(sorted(inv[w] for w in adj[v]))) for v in range(len(adj))]
    return inv


def _argmax(cands, score) -> list:
    """The candidates of largest score, in their given order."""
    scores = [score(v) for v in cands]
    top = max(scores)
    return [v for v, s in zip(cands, scores) if s == top]


def _roots(adj: list[frozenset]) -> list[int]:
    """The vertices where _invariants is largest, refined only where tied.

    _invariants compares the degree first, then the sorted degrees of the
    neighbours, then the neighbours' sorted first-round invariants, so its
    argmax is the vertices of largest degree narrowed by each round in turn,
    and a round need only be computed on the vertices still tied and, for
    the second, on their neighbours.
    """
    deg = [len(s) for s in adj]
    roots = _argmax(range(len(adj)), deg.__getitem__)
    if len(roots) > 1:
        roots = _argmax(roots, lambda v: sorted(deg[w] for w in adj[v]))
    if len(roots) > 1:
        first_round: dict[int, tuple] = {}
        for v in roots:
            for w in adj[v]:
                if w not in first_round:
                    first_round[w] = (deg[w], sorted(deg[x] for x in adj[w]))
        roots = _argmax(roots, lambda v: sorted(first_round[w] for w in adj[v]))
    return roots


def _key_and_automorphisms(g: Graph) -> tuple[tuple, list[list[int]]]:
    """(n, column 1, ..., column n-1) of the lex-largest ordering of g, and
    the automorphisms that its tied best leaves show.

    The column at position i is the bitmask of positions before i that hold
    a neighbour of the vertex placed there.  Every unplaced vertex w keeps
    col[w], the column it would have if placed next: placing a vertex at
    position i flips bit i on in its neighbours' columns, and taking it back
    flips the bit off again.  A node places one of the unplaced vertices of
    largest column, branching over ties but only once per twin class, so
    the search tree is that of recomputing every column from the order.

    Two orderings with the best columns give g the same adjacency matrix, so
    the map from the first best leaf's vertex at each position to another's
    vertex there is an automorphism, listed as its image of each vertex.
    """
    n = g.n
    if n <= 1:
        return (n,), []
    adj = list(g.adjacency())
    first = first_twins(adj)

    def collapse(cands: list[int]) -> list[int]:
        kept: dict[int, int] = {}  # the first candidate per twin class
        for c in cands:
            kept.setdefault(first[c], c)
        return list(kept.values())

    # a placed vertex holds a negative value, which flipping its bits keeps
    # negative, so the largest value is always an unplaced vertex's column
    col = [0] * n
    cols: list[int] = []  # the chosen columns at positions 1..i-1
    order = [0] * n  # the vertex placed at each position
    best: list[int] | None = None
    leaves: list[list[int]] = []  # the orderings whose columns are best

    def extend(w: int, i: int):
        """Place w at position i, search every branch below it, take it out."""
        nonlocal best
        saved, col[w] = col[w], -1
        order[i] = w
        bit = 1 << i
        nbrs = adj[w]
        for x in nbrs:
            col[x] ^= bit
        i += 1
        if i == n:
            if best is None or cols > best:
                best = list(cols)
                leaves[:] = [list(order)]
            elif cols == best:
                leaves.append(list(order))
        else:
            top, cands = 0, []
            for v, c in enumerate(col):
                if c > top:
                    top = c
                    cands = [v]
                elif c == top:
                    cands.append(v)
            cols.append(top)
            # a branch already lex-smaller than the best leaf cannot finish larger
            if best is None or cols >= best[:i]:
                for v in collapse(cands) if len(cands) > 1 else cands:
                    extend(v, i)
            cols.pop()
        for x in nbrs:
            col[x] ^= bit
        col[w] = saved

    try:
        for r in collapse(_roots(adj)):
            extend(r, 0)
    finally:
        del extend  # extend holds itself through its closure; this breaks the cycle
    autos = []
    for leaf in leaves[1:]:
        sigma = [0] * n
        for u, v in zip(leaves[0], leaf):
            sigma[u] = v
        autos.append(sigma)
    return (n, *best), autos


def _connected_key(g: Graph) -> tuple:
    """(n, column 1, ..., column n-1) of the lex-largest ordering of g."""
    return _key_and_automorphisms(g)[0]


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

    try:
        return rec(0)
    finally:
        del rec  # rec holds itself through its closure; this breaks the cycle


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------


def _first_of_orbits(moves: list[tuple[int, int]], perms) -> list[tuple[int, int]]:
    """The moves that come first in their orbits under the group perms generate.

    A move is a vertex pair, and a permutation p carries (u, v) to the pair
    {p[u], p[v]}; every image of a listed move must be listed.
    """
    done: set[tuple[int, int]] = set()
    kept = []
    for move in moves:
        if move in done:
            continue
        kept.append(move)
        done.add(move)
        orbit = [move]
        for u, v in orbit:  # orbit grows as the loop walks it
            for p in perms:
                a, b = p[u], p[v]
                image = (a, b) if a < b else (b, a)
                if image not in done:
                    done.add(image)
                    orbit.append(image)
    return kept


def _grown_catalog(
    name: str, start: Graph, max_edges: int, key, max_vertices
) -> list[tuple[tuple, Graph]]:
    """Graphs grown from start by up to max_edges one-edge moves, one per key.

    A move joins two non-adjacent vertices u < v or, below max_vertices
    vertices, attaches a pendant vertex to u, written as the pair (u, n).
    Growth goes level by level and keeps the first graph found per key;
    pairs come back sorted by (m, n, key).  Keeping more than CATALOG_GUARD
    graphs raises SizeGuardExceeded.  key(h) gives h's key and a list of
    automorphisms of h, each as its image of every vertex.

    Only the first move of each orbit is keyed, under the group that the
    twin swaps (permuting a twin class is an automorphism) and the
    automorphisms key reported for the graph generate.  An automorphism σ
    carries g + (u, v) onto g + (σ(u), σ(v)), with σ fixing the new vertex
    n, so every move of an orbit gives the same key, and the first of them
    is the one the move list meets first: a skipped move's key was always
    already seen.  So the first graph found per key, the level order and
    the guard's trip point are those of keying every move.
    """
    k, autos = key(start)
    seen = {k: start}
    level = [(start, autos)]
    for _ in range(max_edges):
        nxt = []
        for g, autos in level:
            n = g.n
            adj = g.adjacency()
            moves = [(u, v) for u in range(n) for v in range(u + 1, n) if v not in adj[u]]
            if max_vertices is None or n < max_vertices:
                moves += [(u, n) for u in range(n)]
            perms = [sigma + [n] for sigma in autos]
            for v, f in enumerate(first_twins(adj)):
                if f != v:
                    swap = list(range(n + 1))
                    swap[f], swap[v] = v, f
                    perms.append(swap)
            for u, v in _first_of_orbits(moves, perms):
                h = Graph(max(n, v + 1), g.edges + ((u, v),))
                k, h_autos = key(h)
                if k not in seen:
                    seen[k] = h
                    nxt.append((h, h_autos))
                    if len(seen) > CATALOG_GUARD:
                        raise SizeGuardExceeded(
                            f"catalog guard: {len(seen)} {name} > {CATALOG_GUARD}"
                            f" at max_edges={max_edges}"
                        )
        level = nxt
    return sorted(seen.items(), key=lambda kg: (kg[1].m, kg[1].n, kg[0]))


def _connected_catalog(max_edges: int, max_vertices=None) -> list[tuple[tuple, Graph]]:
    """connected_graphs' graphs paired with their connected keys."""
    return _grown_catalog(
        "connected graphs", Graph(1, []), max_edges, _key_and_automorphisms, max_vertices
    )


def connected_graphs(max_edges: int, max_vertices: int | None = None) -> list[Graph]:
    """All connected graphs with at most max_edges edges, up to isomorphism.

    Grown edge by edge from K1: every connected graph with m+1 edges arises
    from a connected m-edge graph either by joining two existing vertices
    (undoing a non-cut edge) or by attaching a pendant vertex (undoing a
    leaf).  Includes the one-vertex graph.  Deterministic output order.  A
    negative max_edges or a max_vertices below 1 raises ValueError.
    """
    if max_edges < 0:
        raise ValueError(f"edge budget must be non-negative, got {max_edges}")
    if max_vertices is not None and max_vertices < 1:
        raise ValueError(f"vertex bound must be positive, got {max_vertices}")
    return [g for _, g in _connected_catalog(max_edges, max_vertices)]


def all_graphs(max_vertices: int) -> list[Graph]:
    """Every graph on 1..max_vertices vertices up to isomorphism, by (n, m, key).

    Isolated vertices count: a graph and the same graph plus an isolated
    vertex are distinct entries.  Each n is grown from the edgeless graph by
    joins alone, as every graph with m+1 edges is an m-edge graph plus an
    edge.  Past ALL_GRAPHS_GUARD is refused; below 1 raises ValueError.
    """
    if max_vertices > ALL_GRAPHS_GUARD:
        raise SizeGuardExceeded(f"catalog guard: all_graphs n={max_vertices} > {ALL_GRAPHS_GUARD}")
    if max_vertices < 1:
        raise ValueError(f"vertex bound must be positive, got {max_vertices}")
    return [
        g
        for n in range(1, max_vertices + 1)
        for _, g in _grown_catalog(
            f"graphs on {n} vertices",
            Graph(n, []),
            n * (n - 1) // 2,
            lambda h: (canonical_key(h), []),
            n,
        )
    ]


def graphs_with_edge_budget(max_edges: int) -> list[Graph]:
    """All graphs with at most max_edges edges and no isolated vertices.

    Assembled as multisets of connected components (each with at least one
    edge), so the per-component catalog above does the isomorphism work.
    Each union is grown by one component at a time, and its sort key is
    built from the component keys the catalog already computed; no union is
    canonicalized again.  Sorted by (m, n, canonical_key).  Includes the
    empty graph on zero vertices.  A negative max_edges raises ValueError.
    """
    if max_edges < 0:
        raise ValueError(f"edge budget must be non-negative, got {max_edges}")
    comps = [(key, g) for key, g in _connected_catalog(max_edges) if g.m >= 1]
    out: list[tuple[tuple, Graph]] = []
    # an explicit stack, not a recursive closure: the closure's reference
    # cycle would keep the whole catalog alive until a full collection
    stack = [(0, max_edges, Graph(0, []), [])]
    while stack:
        start, budget, acc, keys = stack.pop()
        out.append((_union_key(keys), acc))
        for i in range(start, len(comps)):
            key, part = comps[i]
            if part.m > budget:
                break  # comps is sorted by m, so no later component fits
            stack.append((i, budget - part.m, disjoint_union(acc, part), keys + [key]))
    out.sort(key=lambda kg: (kg[1].m, kg[1].n, kg[0]))
    return [g for _, g in out]
