"""Brute-force coloring ground truth: chromatic number, choosability, and
choice number.

One search decides every coloring question here: list_colorings, plain
backtracking in vertex order that yields every proper coloring from the
given lists.  proper_coloring_from_lists takes its first coloring, and
chromatic_number hands that the lists range(min(k, v + 1)) for increasing k.
is_k_choosable walks the colorings of the core minus its last vertex at
every last-level node of its list-assignment enumeration.

Choosability checking is doubly exponential, so the guards here are strict
and loud.  Three exact reductions keep the interesting cases reachable
without weakening the oracle:

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

CHROMATIC_GUARD = 12
CHOOSABLE_N_GUARD = 6
CHOOSABLE_K_GUARD = 3


def _k_core(g: Graph, k: int) -> tuple[Graph, list[int]]:
    """Repeatedly delete vertices of degree < k; returns (core, vertex ids)."""
    keep = list(range(g.n))
    while True:
        core, _ = g.induced(keep)
        low = {keep[v] for v, d in enumerate(core.degrees()) if d < k}
        if not low:
            return core, keep
        keep = [v for v in keep if v not in low]


def list_colorings(g: Graph, lists):
    """Every proper coloring picking each vertex's color from its list, as
    tuples, in the order the lists are iterated (lexicographic for sorted
    lists).  Plain backtracking in vertex order, yielded lazily."""
    earlier: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        earlier[v].append(u)
    chosen = [-1] * g.n

    def rec(v: int):
        if v == g.n:
            yield tuple(chosen)
            return
        for c in lists[v]:
            if all(chosen[w] != c for w in earlier[v]):
                chosen[v] = c
                yield from rec(v + 1)

    try:
        yield from rec(0)
    finally:
        del rec  # rec holds itself through its closure; this breaks the cycle


def proper_coloring_from_lists(g: Graph, lists) -> tuple[int, ...] | None:
    """The first coloring of list_colorings, or None if there is none."""
    return next(list_colorings(g, lists), None)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the least k for which the list search finds a
    proper coloring with list range(min(k, v + 1)) at vertex v.

    The lists lose no coloring: rename the colors of any proper k-coloring
    by first appearance in vertex order, and vertex v gets a color <= v.
    """
    if g.n > CHROMATIC_GUARD:
        raise SizeGuardExceeded(f"chromatic guard: n={g.n} > {CHROMATIC_GUARD}")
    for k in range(g.n + 1):
        lists = [range(min(k, v + 1)) for v in range(g.n)]
        if proper_coloring_from_lists(g, lists) is not None:
            return k
    raise AssertionError("n colors always suffice")


def _candidate_lists(used: int, k: int):
    """k-subsets of {0..used-1} plus a contiguous block of fresh colors,
    in lexicographic order (old colors first)."""
    for cand in combinations(range(used + k), k):
        fresh = [c for c in cand if c >= used]
        if fresh != list(range(used, used + len(fresh))):
            continue
        yield cand


def is_k_choosable(
    g: Graph,
    k: int,
    max_n: int = CHOOSABLE_N_GUARD,
    max_k: int = CHOOSABLE_K_GUARD,
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Whether every assignment of k-element lists admits a proper coloring.

    Returns (True, None) or (False, bad_assignment).  The guard applies only
    when enumeration is actually needed, i.e. to the k-core; peeled instances
    of any size resolve exactly without search.  Raises ValueError for k < 0.
    """
    if k < 0:
        raise ValueError(f"list size k must be at least 0, got {k}")
    if k == 0:
        return (g.n == 0, tuple(() for _ in range(g.n)) if g.n else None)
    core, keep = _k_core(g, k)
    if core.n == 0:
        return True, None
    if core.n > max_n or k > max_k:
        raise SizeGuardExceeded(
            f"choosability guard: core n={core.n} (max {max_n}), k={k} (max {max_k})"
        )

    last = core.n - 1
    rest, _ = core.induced(range(last))
    last_nbrs = core.adjacency()[last]
    assigned: list[tuple[int, ...]] = []

    def search(used: int):
        if len(assigned) == last:
            # the colors every coloring of core - last puts on last's
            # neighbours; a list is bad exactly when it lies inside them
            common = set(range(used))
            for c in list_colorings(rest, assigned):
                common.intersection_update(c[w] for w in last_nbrs)
                if len(common) < k:
                    return None
            first_bad = next(l for l in _candidate_lists(used, k) if common.issuperset(l))
            return assigned + [first_bad]
        for cand in _candidate_lists(used, k):
            assigned.append(cand)
            bad = search(max(used, cand[-1] + 1))
            if bad is not None:
                return bad
            assigned.pop()
        return None

    try:
        bad = search(0)
    finally:
        del search  # search holds itself through its closure; this breaks the cycle
    if bad is None:
        return True, None
    # lift the core counterexample back to g: peeled vertices are always
    # colorable, so any list there keeps the assignment bad
    filler = tuple(range(k))
    lists = [filler] * g.n
    for core_v, orig_v in enumerate(keep):
        lists[orig_v] = bad[core_v]
    return False, tuple(lists)


def choice_number(g: Graph, max_k: int = CHOOSABLE_K_GUARD) -> int:
    """Least k such that g is k-choosable; monotone, so scan k upward.

    Terminates by k = Delta + 1, where the k-core is always empty.
    """
    if g.n == 0:
        return 0
    for k in range(1, g.max_degree() + 2):
        ok, _ = is_k_choosable(g, k, max_k=max_k)
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

