"""Brute-force coloring ground truth: chromatic number, choosability, and
choice number.

One search decides every coloring question here: list_colorings, plain
backtracking in vertex order that yields every proper coloring from the
given lists.  proper_coloring_from_lists takes its first coloring, and
chromatic_number hands that the lists range(min(k, v + 1)) for increasing k.
is_k_choosable walks the colorings of the core minus its last vertex at
every last-level node of its list-assignment enumeration.

Choosability checking is doubly exponential, so each call of
chromatic_number or is_k_choosable spends one budget, COLORING_GUARD search
nodes (a list assignment tried or a color placed), across all its walks.
Three exact reductions keep the interesting cases reachable without
weakening the oracle:

  * peeling: a vertex with degree below k can always be colored last, so
    is_k_choosable(G, k) equals is_k_choosable on the k-core.  In particular
    a graph with an empty k-core is k-choosable outright (the greedy
    argument), which is what terminates choice_number by k = Delta + 1.
  * list assignments are enumerated up to color renaming, as restricted
    growth sequences over the universe {0, ..., k*n - 1}: fresh colors enter
    in increasing order.  A violating assignment uses at most k*n colors, so
    this enumeration is complete.
  * the last vertex v is decided in closed form: with the lists on the
    other core vertices fixed, a list L for v is bad exactly when L lies
    inside the intersection, over every proper list-coloring c of core - v,
    of the neighbour colors c(N(v)).  Fresh colors are never in it, and the
    walk stops as soon as fewer than k colors remain.

The enumeration order reuses old colors before fresh ones, so non-choosable
instances fail fast with a concrete bad assignment.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import SizeGuardExceeded
from .graphs import Graph

COLORING_GUARD = 10**6


def _k_core(g: Graph, k: int) -> tuple[Graph, list[int]]:
    """Repeatedly delete vertices of degree < k; returns (core, vertex ids)."""
    keep = list(range(g.n))
    while True:
        core, _ = g.induced(keep)
        low = {keep[v] for v, d in enumerate(core.degrees()) if d < k}
        if not low:
            return core, keep
        keep = [v for v in keep if v not in low]


def list_colorings(g: Graph, lists, budget=None):
    """Every proper coloring picking each vertex's color from its list, as
    tuples, in the order the lists are iterated (lexicographic for sorted
    lists).  Plain backtracking in vertex order on an explicit stack of list
    iterators, yielded lazily.  budget, a one-item list of the nodes left,
    is kept current at each yield and at the end."""
    n = g.n
    earlier: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        earlier[v].append(u)
    chosen = [-1] * n
    budget = budget or [float("inf")]
    left = budget[0]
    if not n:
        yield ()
    choices = [iter(lists[0])] if n else []  # choices[v] iterates v's list
    while choices:
        v = len(choices) - 1
        before = earlier[v]
        for c in choices[v]:
            if all(chosen[w] != c for w in before):
                left -= 1
                if left < 0:
                    raise SizeGuardExceeded("list_colorings: node budget spent")
                chosen[v] = c
                if v + 1 < n:
                    choices.append(iter(lists[v + 1]))
                    break
                budget[0] = left
                yield tuple(chosen)
        else:
            choices.pop()
    budget[0] = left


def proper_coloring_from_lists(g: Graph, lists, budget=None) -> tuple[int, ...] | None:
    """The first coloring of list_colorings, or None if there is none."""
    return next(list_colorings(g, lists, budget), None)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the least k for which the list search finds a
    proper coloring with list range(min(k, v + 1)) at vertex v.

    The lists lose no coloring: rename the colors of any proper k-coloring
    by first appearance in vertex order, and vertex v gets a color <= v.
    """
    limit = COLORING_GUARD
    budget = [limit]
    try:
        for k in range(g.n + 1):
            lists = [range(min(k, v + 1)) for v in range(g.n)]
            if proper_coloring_from_lists(g, lists, budget) is not None:
                return k
    except SizeGuardExceeded:
        raise SizeGuardExceeded(
            f"chromatic_number: nodes {limit + 1} exceed guard {limit} (n={g.n})"
        ) from None
    raise AssertionError("n colors always suffice")


def _candidate_lists(used: int, k: int):
    """k-subsets of {0..used-1} plus a contiguous block of fresh colors,
    in lexicographic order (old colors first)."""
    for cand in combinations(range(used + k), k):
        fresh = [c for c in cand if c >= used]
        if fresh != list(range(used, used + len(fresh))):
            continue
        yield cand


def _bad_last_list(rest: Graph, lists, nbrs, used: int, k: int, budget):
    """The first candidate list of the last core vertex that no coloring of
    the rest from lists leaves room in (the closed form above), or None."""
    common = set(range(used))
    for c in list_colorings(rest, lists, budget):
        common.intersection_update(c[w] for w in nbrs)
        if len(common) < k:
            return None
    return next(l for l in _candidate_lists(used, k) if common.issuperset(l))


def is_k_choosable(
    g: Graph, k: int, max_nodes: int | None = None
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Whether every assignment of k-element lists admits a proper coloring.

    Returns (True, None) or (False, bad_assignment), after at most max_nodes
    (default COLORING_GUARD) search nodes; peeled instances of any size
    resolve exactly without search.  A negative k or max_nodes is a ValueError.
    """
    limit = COLORING_GUARD if max_nodes is None else max_nodes
    if k < 0 or limit < 0:
        raise ValueError(f"k and max_nodes must be non-negative, got {k}, {limit}")
    if k == 0:
        return (g.n == 0, tuple(() for _ in range(g.n)) if g.n else None)
    core, keep = _k_core(g, k)
    if core.n == 0:
        return True, None

    last = core.n - 1
    rest, _ = core.induced(range(last))
    last_nbrs = core.adjacency()[last]
    assigned: list[tuple[int, ...]] = []
    budget = [limit]
    # depth first on an explicit stack: levels[i] iterates core vertex i's
    # candidate lists, after the used[i] colors of vertices 0..i-1
    levels, used = [_candidate_lists(0, k)], [0]
    bad = None
    try:
        while levels and bad is None:
            i = len(levels) - 1
            for cand in levels[i]:
                budget[0] -= 1
                if budget[0] < 0:
                    raise SizeGuardExceeded("is_k_choosable: node budget spent")
                assigned[i:] = [cand]
                now = max(used[i], cand[-1] + 1)
                if i + 1 < last:
                    levels.append(_candidate_lists(now, k))
                    used.append(now)
                    break
                bad = _bad_last_list(rest, assigned, last_nbrs, now, k, budget)
                if bad is not None:
                    break
            else:
                levels.pop()
                used.pop()
    except SizeGuardExceeded:
        raise SizeGuardExceeded(
            f"is_k_choosable: nodes {limit + 1} exceed guard {limit} (core n={core.n}, k={k})"
        ) from None
    if bad is None:
        return True, None
    # lift the core counterexample back to g: peeled vertices are always
    # colorable, so any list there keeps the assignment bad
    filler = tuple(range(k))
    lists = [filler] * g.n
    for orig_v, core_list in zip(keep, (*assigned, bad)):
        lists[orig_v] = core_list
    return False, tuple(lists)


def choice_number(g: Graph) -> int:
    """Least k such that g is k-choosable; monotone, so scan k upward.

    Terminates by k = Delta + 1, where the k-core is always empty.
    """
    if g.n == 0:
        return 0
    for k in range(1, g.max_degree() + 2):
        ok, _ = is_k_choosable(g, k)
        if ok:
            return k
    raise AssertionError("Delta + 1 lists always suffice")


def brute_force_k_choosable(g: Graph, k: int, universe: int | None = None) -> bool:
    """Independent route: try every assignment over the universe, no
    canonicalization, no reductions, and a plain product over each
    assignment's colorings instead of the search's leaf check.  Only for
    tiny cross-validation runs."""
    colors = range(universe if universe is not None else k * g.n)
    pool = list(combinations(colors, k))
    for lists in product(pool, repeat=g.n):
        if not any(all(c[u] != c[v] for u, v in g.edges) for c in product(*lists)):
            return False
    return True
