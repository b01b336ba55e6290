"""Undirected simple graphs and the constructions everything else consumes.

Vertices are the integers 0..n-1.  Edges are pairs (u, v) with u < v, stored
sorted lexicographically.  That single canonical order propagates everywhere:
line-graph vertex numbering, polynomial factor order, orientation bit order,
so results are reproducible byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SizeGuardExceeded

# Guards for the exact searches in this module: they fail loudly rather than
# run away.  Only edge_coloring and one_factorization let a caller raise theirs.
EDGE_COLOR_GUARD = 24
FACTORIZATION_GUARD = 12

Edge = tuple[int, int]


class Graph:
    """Immutable simple graph on vertices 0..n-1 with a canonical edge list."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = []
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            canon.append((u, v))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        self.n = n
        self.edges = tuple(canon)

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> tuple[frozenset, ...]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def is_regular(self) -> bool:
        degs = self.degrees()
        return len(set(degs)) <= 1

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by minimum vertex."""
        seen = [False] * self.n
        adj = self.adjacency()
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
            out.append(sorted(comp))
        return out

    def induced(self, vertices) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph plus the old->new vertex map."""
        vs = sorted(set(vertices))
        remap = {v: i for i, v in enumerate(vs)}
        sub = [(remap[u], remap[v]) for u, v in self.edges if u in remap and v in remap]
        return Graph(len(vs), sub), remap

    def relabel(self, perm) -> "Graph":
        """Image under the vertex permutation perm (old index -> new index)."""
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class OneFactorization:
    """Partition of a regular graph's edges into perfect matchings."""

    factors: tuple[tuple[Edge, ...], ...]

    def validate(self, graph: Graph) -> bool:
        """Re-check the defining properties against graph, post hoc."""
        adj = graph.adjacency()
        seen = set()
        for factor in self.factors:
            touched = set()
            for u, v in factor:
                if (u, v) in seen or not (0 <= u < graph.n and v in adj[u]):
                    return False
                seen.add((u, v))
                if u in touched or v in touched:
                    return False
                touched.update((u, v))
            if len(touched) != graph.n:
                return False
        return len(seen) == graph.m


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def line_graph(g: Graph) -> Graph:
    """Line graph of g: vertex i is g.edges[i].

    Two vertices are adjacent exactly when the edges share an endpoint.
    """
    edges_of_g = g.edges
    out = []
    for i in range(len(edges_of_g)):
        a, b = edges_of_g[i]
        for j in range(i + 1, len(edges_of_g)):
            c, d = edges_of_g[j]
            if a == c or a == d or b == c or b == d:
                out.append((i, j))
    return Graph(len(edges_of_g), out)


def subdivision_graph(g: Graph) -> Graph:
    """Replace every edge of g with a path of length two through a new vertex.

    Vertices 0..n-1 are g's vertices; vertex n+i is the edge-vertex of
    g.edges[i].  The result is bipartite with every edge-vertex of degree 2.
    """
    n = g.n
    out = []
    for i, (u, v) in enumerate(g.edges):
        out.append((u, n + i))
        out.append((v, n + i))
    return Graph(n + g.m, out)


def total_graph(g: Graph) -> Graph:
    """Square of the subdivision graph, numbered as subdivision_graph.

    Induced on 0..n-1 it is g; induced on n..n+m-1 it is the line graph;
    the cross edges are exactly the subdivision's edges.
    """
    n = g.n
    out = list(subdivision_graph(g).edges)
    out.extend(g.edges)
    out.extend((n + a, n + b) for a, b in line_graph(g).edges)
    return Graph(n + g.m, out)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """a on 0..a.n-1, then b shifted to a.n..a.n+b.n-1."""
    shifted = [(a.n + u, a.n + v) for u, v in b.edges]
    return Graph(a.n + b.n, list(a.edges) + shifted)


def first_twins(adj) -> list[int]:
    """Each vertex's first twin: the smallest u with N(u) - {v} == N(v) - {u},
    so v itself when v has no smaller twin.

    Non-adjacent twins share their open neighbourhood and adjacent twins
    their closed one, so the vertices are grouped by each, and v's first
    twin is the smaller first member of its two groups.  Being twins is an
    equivalence relation, since no vertex has both a true twin and a false
    twin: one of v's two groups is {v} alone, every permutation of a class
    is an automorphism, and two vertices are twins exactly when their first
    twins are equal.
    """
    by_open: dict[frozenset, int] = {}
    by_closed: dict[frozenset, int] = {}
    return [
        min(by_open.setdefault(s, v), by_closed.setdefault(s | {v}, v))
        for v, s in enumerate(adj)
    ]


def max_clique(g: Graph) -> tuple[int, ...]:
    """A maximum clique, sorted: Bron-Kerbosch with pivoting over bitsets,
    depth-first on an explicit stack.  A maximal clique inside the
    candidates holds the pivot or a non-neighbour of it, so branching on
    those covers every maximal clique; only a maximum one is wanted, so
    there is no excluded set, and a branch that cannot beat the best clique
    so far is dropped.  Branches go in increasing vertex order and the first
    maximum clique found wins.  ATN >= the clique number, so the polynomial
    engine starts its cap search there and the orientation engine stops its
    walk there."""
    nbrs = [0] * g.n
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    best: tuple[int, ...] = ()
    stack = [((), (1 << g.n) - 1)]  # (clique, candidate bitset)
    while stack:
        clique, cands = stack.pop()
        if not cands:
            if len(clique) > len(best):
                best = clique
            continue
        if len(clique) + cands.bit_count() <= len(best):
            continue
        members = [v for v in range(g.n) if cands >> v & 1]
        pivot = max(members, key=lambda v: (cands & nbrs[v]).bit_count())
        children = []
        for v in members:
            if not nbrs[pivot] >> v & 1:
                children.append((clique + (v,), cands & nbrs[v]))
                cands &= ~(1 << v)
        stack.extend(reversed(children))
    return tuple(sorted(best))


def round_robin_factorization(c: int) -> list[list[Edge]]:
    """The circle-method one-factorization of the complete graph K_c, c even.

    Factor r pairs c-1 with r and folds the remaining indices symmetrically
    around r.  Deterministic, and the c-1 factors partition all pairs.
    """
    if c % 2 != 0 or c < 2:
        raise ValueError("round robin needs an even number of players")
    factors = []
    for r in range(c - 1):
        pairs = [tuple(sorted((c - 1, r)))]
        for i in range(1, c // 2):
            x = (r + i) % (c - 1)
            y = (r - i) % (c - 1)
            pairs.append(tuple(sorted((x, y))))
        factors.append(sorted(pairs))
    return factors


def regular_embed_class1(g: Graph) -> Graph:
    """A Delta-regular host holding the class-1 graph g on vertices 0..n-1.

    Takes c disjoint copies of g (c = Delta, or Delta+1 if Delta is odd, so c
    is even), copy j on j*n..j*n+n-1, and repairs every deficient vertex with
    cross edges: vertex v with deficiency d gets, across its c copies, the
    first d factors of the round-robin one-factorization of the copy-index
    set.  Each copy of v gains exactly d edges, so the host is Delta-regular,
    and g is the induced subgraph on copy 0.
    """
    degs = g.degrees()
    d = g.max_degree()
    if d < 1:
        raise ValueError("need at least one edge")
    if 0 in degs:
        raise ValueError("isolated vertices cannot be repaired to degree Delta")
    if chromatic_index_class(g) != 1:
        raise ValueError("input must be class 1")
    c = d if d % 2 == 0 else d + 1
    n = g.n
    out = []
    for j in range(c):
        out.extend((j * n + u, j * n + v) for u, v in g.edges)
    factors = round_robin_factorization(c) if c >= 2 else []
    for v in range(n):
        need = d - degs[v]
        for factor in factors[:need]:
            out.extend((a * n + v, b * n + v) for a, b in factor)
    return Graph(c * n, out)


def class2_augment(g: Graph) -> tuple[Graph, int]:
    """Attach a pendant vertex n to a maximum-degree vertex of a class-2 graph,
    and return the result with that attachment point.

    The attachment point is the smallest-index vertex of degree Delta, which
    forces the result to have maximum degree Delta+1; a (Delta+1)-edge-coloring
    of g leaves a free color there, so the result is class 1.
    """
    if chromatic_index_class(g) != 2:
        raise ValueError("input is class 1; augmentation is for class-2 graphs only")
    degs = g.degrees()
    v = degs.index(max(degs))
    return Graph(g.n + 1, list(g.edges) + [(v, g.n)]), v


# ---------------------------------------------------------------------------
# exact edge coloring and one-factorization
# ---------------------------------------------------------------------------


def edge_coloring(g: Graph, k: int, max_edges: int = EDGE_COLOR_GUARD):
    """A proper k-edge-coloring as a per-edge color tuple, or None.

    Backtracking over edges in canonical order, smallest feasible color first,
    with new colors introduced in order (color symmetry breaking).
    """
    if g.m > max_edges:
        raise SizeGuardExceeded(f"edge coloring guard: m={g.m} > {max_edges}")
    if k < 0:
        return None
    m = g.m
    if m == 0:
        return ()
    used = [0] * g.n  # bitmask of colors present at each vertex
    colors = [-1] * m
    edges = g.edges

    def rec(i: int, introduced: int) -> bool:
        if i == m:
            return True
        u, v = edges[i]
        occupied = used[u] | used[v]
        top = min(k, introduced + 1)
        for c in range(top):
            bit = 1 << c
            if occupied & bit:
                continue
            used[u] |= bit
            used[v] |= bit
            colors[i] = c
            if rec(i + 1, max(introduced, c + 1)):
                return True
            used[u] &= ~bit
            used[v] &= ~bit
            colors[i] = -1
        return False

    try:
        return tuple(colors) if rec(0, 0) else None
    finally:
        del rec  # rec holds itself through its closure; this breaks the cycle


def chromatic_index_class(g: Graph) -> int:
    """Class 1 or 2, by exact search for a Delta-edge-coloring.

    By Vizing the chromatic index is Delta or Delta+1, so one search settles
    it: the index is Delta + class - 1, and the class-1 witness is
    edge_coloring(g, Delta).
    """
    witness = edge_coloring(g, g.max_degree(), max_edges=EDGE_COLOR_GUARD)
    return 1 if witness is not None else 2


def one_factorization(
    g: Graph, max_n: int = FACTORIZATION_GUARD
) -> OneFactorization | None:
    """A one-factorization read off a Delta-edge-coloring, or None if none exists.

    A Delta-regular graph of even order is one-factorizable exactly when it
    has a proper Delta-edge-coloring: each color class meets every vertex
    once, so it is a perfect matching.  The factors are the color classes of
    edge_coloring, which takes edges in canonical order and introduces colors
    in order, so each factor is sorted and the factors are ordered by their
    smallest edge.  None is the definitive negative for regular graphs of
    even order, and is returned immediately for odd order or irregular input.
    max_n is the only guard: the edge coloring gets max_edges=g.m, so
    EDGE_COLOR_GUARD does not refuse K12 or the embedding hosts.
    """
    if g.n > max_n:
        raise SizeGuardExceeded(f"factorization guard: n={g.n} > {max_n}")
    if not g.is_regular() or g.n % 2 == 1:
        return None
    d = g.max_degree()
    colors = edge_coloring(g, d, max_edges=g.m)
    if colors is None:
        return None
    factors: list[list[Edge]] = [[] for _ in range(d)]
    for e, c in zip(g.edges, colors):
        factors[c].append(e)
    return OneFactorization(tuple(tuple(f) for f in factors))


# ---------------------------------------------------------------------------
# small named graphs
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


_SPECIALS = {
    "petersen": petersen_graph,
    "paw": lambda: Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "diamond": lambda: Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "bull": lambda: Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)]),
}


def named_graph(name: str) -> Graph:
    """Small-graph registry: K5, C4, P3, K2,3, 2K2, petersen, paw, ..."""
    key = name.strip()
    if key.lower() in _SPECIALS:
        return _SPECIALS[key.lower()]()
    mm = re.fullmatch(r"(\d+)K(\d+)", key)
    if mm:
        copies, size = int(mm.group(1)), int(mm.group(2))
        g = complete_graph(size)
        out = Graph(0, [])
        for _ in range(copies):
            out = disjoint_union(out, g)
        return out
    mm = re.fullmatch(r"K(\d+),(\d+)", key)
    if mm:
        return complete_bipartite(int(mm.group(1)), int(mm.group(2)))
    mm = re.fullmatch(r"([KCP])(\d+)", key)
    if mm:
        kind, size = mm.group(1), int(mm.group(2))
        if kind == "K":
            return complete_graph(size)
        if kind == "C":
            return cycle_graph(size)
        return path_graph(size)
    raise ValueError(f"unknown graph name: {name!r}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def to_edge_list_text(g: Graph) -> str:
    """Canonical edge-list text: 'n m' then one 'u v' line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list_text(text: str) -> Graph:
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)
