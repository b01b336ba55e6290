"""Canonical keys and the exhaustive small-graph catalogs."""

import random
from collections import Counter
from functools import cache
from itertools import combinations, permutations

import pytest

from alontarsi import (
    Graph,
    SizeGuardExceeded,
    all_graphs,
    canonical_key,
    complete_graph,
    connected_graphs,
    cycle_graph,
    graphs_with_edge_budget,
    is_isomorphic,
    named_graph,
    path_graph,
    star_graph,
)
from alontarsi import canon
from alontarsi.canon import (
    ALL_GRAPHS_GUARD,
    _connected_catalog,
    _connected_key,
    _invariants,
    _key_and_automorphisms,
    _roots,
)
from alontarsi.graphs import first_twins


@cache
def _graphs_by_edge_subsets(max_n):
    """all_graphs by a second route: every edge subset on n <= max_n vertices,
    the first subset per canonical key, ordered by (n, m, key)."""
    out = []
    for n in range(1, max_n + 1):
        seen = {}
        pairs = list(combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for sub in combinations(pairs, r):
                g = Graph(n, sub)
                seen.setdefault(canonical_key(g), g)
        out.extend(g for _, g in sorted(seen.items(), key=lambda kg: (kg[1].m, kg[0])))
    return tuple(out)


def _are_twins(adj, u, w):
    return adj[u] - {w} == adj[w] - {u}


def _unpruned_connected_key(g):
    """_connected_key without the prefix bound: every greedy branch runs to
    its leaf, and the key is the lex-largest leaf."""
    n = g.n
    if n <= 1:
        return (n,)
    adj = list(g.adjacency())
    inv = _invariants(adj)
    best_inv = max(inv)
    roots = [v for v in range(n) if inv[v] == best_inv]

    def collapse(cands):
        kept = []
        for c in cands:
            if not any(_are_twins(adj, c, k) for k in kept):
                kept.append(c)
        return kept

    best = None

    def extend(order, placed, cols):
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


def _grown_by_every_move(start, max_edges, key, max_vertices):
    """Catalog growth that keys every join and every pendant, with no twin
    rule: (key, graph) pairs, first graph per key, sorted by (m, n, key)."""
    seen = {key(start): start}
    level = [start]
    for _ in range(max_edges):
        nxt = []
        for g in level:
            adj = g.adjacency()
            joins = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if v not in adj[u]]
            cands = [Graph(g.n, g.edges + (e,)) for e in joins]
            if max_vertices is None or g.n < max_vertices:
                cands += [Graph(g.n + 1, g.edges + ((u, g.n),)) for u in range(g.n)]
            for h in cands:
                k = key(h)
                if k not in seen:
                    seen[k] = h
                    nxt.append(h)
        level = nxt
    return sorted(seen.items(), key=lambda kg: (kg[1].m, kg[1].n, kg[0]))


class TestCanonicalKey:
    def test_relabel_invariance(self):
        rng = random.Random(7)
        pool = [
            cycle_graph(6),
            complete_graph(5),
            star_graph(8),
            named_graph("petersen"),
            path_graph(9),
            named_graph("bull"),
            Graph(6, [(0, 1), (2, 3), (4, 5)]),
        ]
        for g in pool:
            key = canonical_key(g)
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_key(g.relabel(perm)) == key

    def test_distinguishes_same_degree_sequence(self):
        # C6 and 2K3 are both 2-regular on six vertices
        c6 = cycle_graph(6)
        two_k3 = named_graph("2K3")
        assert canonical_key(c6) != canonical_key(two_k3)

    def test_distinguishes_trees(self):
        assert canonical_key(path_graph(4)) != canonical_key(star_graph(3))

    def test_agrees_with_matcher_on_pairs(self):
        fam = connected_graphs(5)
        for i, a in enumerate(fam):
            for b in fam[i + 1 :]:
                same_key = canonical_key(a) == canonical_key(b)
                assert same_key == is_isomorphic(a, b)


class TestConnectedCatalog:
    def test_counts_by_edges(self):
        # OEIS A002905
        counts = Counter(g.m for g in connected_graphs(9))
        assert dict(counts) == {
            0: 1, 1: 1, 2: 1, 3: 3, 4: 5, 5: 12, 6: 30, 7: 79, 8: 227, 9: 710
        }

    def test_tree_counts(self):
        # connected graphs with m = n-1 edges are trees
        fam = connected_graphs(8)
        trees = Counter(g.n for g in fam if g.m == g.n - 1)
        assert dict(trees) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}

    def test_max_vertices_filter(self):
        fam = connected_graphs(10, max_vertices=5)
        assert all(g.n <= 5 for g in fam)
        assert complete_graph(5) in fam
        assert len(fam) == 31  # connected graphs on at most 5 vertices

    def test_all_connected(self):
        assert all(len(g.components()) == 1 for g in connected_graphs(6))

    def test_pairwise_non_isomorphic(self):
        fam = connected_graphs(6)
        keys = [canonical_key(g) for g in fam]
        assert len(set(keys)) == len(fam)

    def test_deterministic(self):
        a = [g.edges for g in connected_graphs(6)]
        b = [g.edges for g in connected_graphs(6)]
        assert a == b


class TestPrunesKeepOutputs:
    """The prefix bound and the twin-orbit rule only skip work: keys, stored
    graphs and their order match the search and growth without them."""

    def test_keys_match_unpruned_search(self):
        rng = random.Random(9)
        for _, g in _connected_catalog(9):
            perm = list(range(g.n))
            rng.shuffle(perm)
            for h in (g, g.relabel(perm)):
                assert _connected_key(h) == _unpruned_connected_key(h)

    def test_connected_catalog_matches_growth_by_every_move(self):
        by_every_move = _grown_by_every_move(Graph(1, []), 8, _unpruned_connected_key, None)
        assert [(k, g.n, g.edges) for k, g in _connected_catalog(8)] == [
            (k, g.n, g.edges) for k, g in by_every_move
        ]

    def test_all_graphs_matches_growth_by_every_move(self):
        by_every_move = [
            (g.n, g.edges)
            for n in range(1, 7)
            for _, g in _grown_by_every_move(Graph(n, []), n * (n - 1) // 2, canonical_key, n)
        ]
        assert [(g.n, g.edges) for g in all_graphs(6)] == by_every_move

    def test_twins_are_transitive(self):
        # the twin-orbit rule needs twin classes, i.e. an equivalence relation
        for g in all_graphs(6):
            adj = g.adjacency()
            for u, v, w in permutations(range(g.n), 3):
                if _are_twins(adj, u, v) and _are_twins(adj, v, w):
                    assert _are_twins(adj, u, w)

    def test_first_twin_is_the_smallest_twin(self):
        # 1, 4, 6 are true twins on 3, 2 and 5 false twins on {3, 7}, and 0
        # and 8 isolated, so both kinds of class interleave with each other
        mixed = Graph(9, [(1, 4), (1, 6), (4, 6), (1, 3), (4, 3), (6, 3),
                          (2, 3), (2, 7), (5, 3), (5, 7), (3, 7)])
        assert first_twins(mixed.adjacency()) == [0, 1, 2, 3, 1, 2, 1, 7, 0]
        for g in all_graphs(7) + [mixed]:
            adj = g.adjacency()
            first = first_twins(adj)
            for v in range(g.n):
                assert first[v] == min(u for u in range(g.n) if u == v or _are_twins(adj, u, v))
        # a cycle past four vertices has no twins
        assert first_twins(cycle_graph(1001).adjacency()) == list(range(1001))

    def test_catalog_key_calls_are_pinned(self, monkeypatch):
        # growing the nine-edge catalog keys 4,997 candidate graphs (6,065
        # under the twin swaps alone); a change to the key search's cost per
        # node must not change how many it keys
        calls = []
        key = canon._key_and_automorphisms
        monkeypatch.setattr(canon, "_key_and_automorphisms", lambda g: calls.append(g) or key(g))
        assert len(_connected_catalog(9)) == 1069
        assert len(calls) == 4997

    def test_reported_automorphisms_keep_the_edges(self):
        rng = random.Random(11)
        for _, g in _connected_catalog(8):
            perm = list(range(g.n))
            rng.shuffle(perm)
            for h in (g, g.relabel(perm)):
                edges = set(h.edges)
                for sigma in _key_and_automorphisms(h)[1]:
                    assert sorted(sigma) == list(range(h.n))
                    assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in edges} == edges

    def test_automorphisms_are_reported(self):
        # C5's ten automorphisms, less the identity, all show as tied leaves;
        # a path's reversal does too, and an asymmetric tree shows none
        assert len(_key_and_automorphisms(cycle_graph(5))[1]) == 9
        assert _key_and_automorphisms(path_graph(4))[1] == [[3, 2, 1, 0]]
        spider = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        assert _key_and_automorphisms(spider)[1] == []

    def test_roots_are_the_argmax_of_the_invariants(self, monkeypatch):
        def argmax(adj):
            inv = _invariants(adj)
            top = max(inv)
            return [v for v in range(len(adj)) if inv[v] == top]

        keyed = []
        key = canon._key_and_automorphisms
        monkeypatch.setattr(canon, "_key_and_automorphisms", lambda g: keyed.append(g) or key(g))
        _connected_catalog(9)
        for g in all_graphs(7) + keyed:
            adj = list(g.adjacency())
            assert _roots(adj) == argmax(adj)


class TestAllGraphs:
    def test_counts_by_vertices(self):
        # OEIS A000088, through the guard
        counts = Counter(g.n for g in all_graphs(7))
        assert dict(counts) == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}

    def test_matches_edge_subset_enumeration(self):
        # same representatives in the same order, so the sandwich instances
        # are pinned edge list for edge list
        by_growth = [(g.n, g.edges) for g in all_graphs(5)]
        assert by_growth == [(g.n, g.edges) for g in _graphs_by_edge_subsets(5)]

    def test_includes_isolated_vertex_variants(self):
        fam = all_graphs(3)
        keys = {canonical_key(g) for g in fam}
        assert canonical_key(Graph(3, [(0, 1)])) in keys
        assert canonical_key(Graph(2, [(0, 1)])) in keys

    def test_guard_refuses_past_seven_vertices(self):
        with pytest.raises(SizeGuardExceeded, match="n=8 > 7"):
            all_graphs(ALL_GRAPHS_GUARD + 1)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_nonpositive_vertex_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="vertex bound must be positive"):
            all_graphs(bound)
        with pytest.raises(ValueError, match="vertex bound must be positive"):
            connected_graphs(3, max_vertices=bound)

    def test_negative_edge_budget_rejected(self):
        # a budget of 0 is the smallest catalog, not an error
        for catalog in (connected_graphs, graphs_with_edge_budget):
            with pytest.raises(ValueError, match="edge budget must be non-negative, got -1"):
                catalog(-1)
        assert [g.n for g in connected_graphs(0)] == [1]
        assert [g.n for g in graphs_with_edge_budget(0)] == [0]


class TestEdgeBudgetCatalog:
    def test_counts_by_edges(self):
        counts = Counter(g.m for g in graphs_with_edge_budget(8))
        assert dict(counts) == {0: 1, 1: 1, 2: 2, 3: 5, 4: 11, 5: 26, 6: 68, 7: 177, 8: 497}

    def test_sorted_by_size_then_canonical_key(self):
        fam = graphs_with_edge_budget(8)
        assert fam == sorted(fam, key=lambda g: (g.m, g.n, canonical_key(g)))

    def test_no_isolated_vertices(self):
        assert all(0 not in g.degrees() for g in graphs_with_edge_budget(6) if g.n)

    def test_cross_route_against_edge_subset_enumeration(self):
        # independent route: for n <= 5, enumerate all edge subsets directly
        by_subsets = {
            canonical_key(g)
            for g in _graphs_by_edge_subsets(5)
            if 0 not in g.degrees() and g.m <= 8
        }
        by_budget = {
            canonical_key(g) for g in graphs_with_edge_budget(8) if 1 <= g.n <= 5
        }
        assert by_subsets == by_budget

    def test_pairwise_non_isomorphic_spot(self):
        fam = [g for g in graphs_with_edge_budget(5)]
        for i, a in enumerate(fam):
            for b in fam[i + 1 :]:
                if (a.n, a.m, sorted(a.degrees())) == (b.n, b.m, sorted(b.degrees())):
                    assert not is_isomorphic(a, b)


class TestIsIsomorphic:
    def test_positive(self):
        g = named_graph("petersen")
        perm = [4, 0, 3, 7, 9, 2, 8, 5, 1, 6]
        assert is_isomorphic(g, g.relabel(perm))

    def test_negative_same_degrees(self):
        assert not is_isomorphic(cycle_graph(6), named_graph("2K3"))


def _automorphism_count(g):
    from itertools import permutations

    adj = set(g.edges)
    count = 0
    for perm in permutations(range(g.n)):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in adj for u, v in g.edges
        ):
            count += 1
    return count


class TestCountingIdentities:
    """Orbit counting proves the catalogs complete and duplicate-free: the
    identity sum n!/|Aut| = number of labeled graphs can only hold when every
    isomorphism class appears exactly once."""

    def test_all_graphs_by_burnside(self):
        from math import comb, factorial

        fam = all_graphs(6)
        for n in range(1, 7):
            labeled = sum(
                factorial(n) // _automorphism_count(g) for g in fam if g.n == n
            )
            assert labeled == 2 ** comb(n, 2)

    def test_connected_catalog_against_recurrence(self):
        from math import comb, factorial

        # labeled connected counts from the classical recurrence, a route
        # with no isomorphism machinery at all
        memo = {}

        def labeled_connected(n):
            if n in memo:
                return memo[n]
            total = 2 ** comb(n, 2)
            for k in range(1, n):
                total -= (
                    comb(n - 1, k - 1) * labeled_connected(k) * 2 ** comb(n - k, 2)
                )
            memo[n] = total
            return total

        fam = connected_graphs(10, max_vertices=5)
        for n in range(1, 6):
            labeled = sum(
                factorial(n) // _automorphism_count(g) for g in fam if g.n == n
            )
            assert labeled == labeled_connected(n)
