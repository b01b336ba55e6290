"""Coloring oracles: chromatic number, choosability, choice number."""

from itertools import product

import pytest

from alontarsi import (
    Graph,
    SizeGuardExceeded,
    atn_from_polynomial,
    choice_number,
    chromatic_number,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_k_choosable,
    line_graph,
    named_graph,
    path_graph,
    proper_coloring_from_lists,
    star_graph,
)
from alontarsi import coloring
from alontarsi.canon import all_graphs, canonical_key, connected_graphs
from alontarsi.coloring import _candidate_lists, _k_core, brute_force_k_choosable, list_colorings

W4 = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)])


def _assert_no_coloring(g, witness, k):
    """Re-check a bad assignment over raw color tuples, with no search."""
    assert len(witness) == g.n
    assert all(len(set(l)) == len(l) == k for l in witness)
    for pick in product(*witness):
        assert any(pick[u] == pick[v] for u, v in g.edges), (g.edges, witness, pick)


def _two_choosable_by_erdos_rubin_taylor(g):
    """Erdos-Rubin-Taylor (1979): a connected graph is 2-choosable iff its
    core (delete degree-1 vertices until none is left) is K1, an even cycle,
    or theta(2, 2, 2m)."""
    adj = [set(s) for s in g.adjacency()]
    alive = set(range(g.n))
    leaves = [v for v in alive if len(adj[v]) == 1]
    while leaves:
        v = leaves.pop()
        if len(adj[v]) != 1:  # its neighbor was peeled first
            continue
        alive.discard(v)
        (w,) = adj[v]
        adj[w].discard(v)
        adj[v].clear()
        if len(adj[w]) == 1:
            leaves.append(w)
    degrees = sorted(len(adj[v]) for v in alive)
    if len(alive) == 1:
        return True
    if all(d == 2 for d in degrees):
        return len(alive) % 2 == 0
    if degrees != [2] * (len(alive) - 2) + [3, 3]:
        return False
    # two branch vertices: theta(a, b, c) iff all three walks from one end
    # reach the other; record the three path lengths
    u, v = (x for x in alive if len(adj[x]) == 3)
    lengths = []
    for first in adj[u]:
        prev, cur, length = u, first, 1
        while len(adj[cur]) == 2:
            prev, cur = cur, next(w for w in adj[cur] if w != prev)
            length += 1
        if cur != v:
            return False
        lengths.append(length)
    a, b, c = sorted(lengths)
    return (a, b) == (2, 2) and c % 2 == 0


def _reference_is_k_choosable(g, k):
    """The choosability search without the last-vertex criterion: the same
    restricted-growth enumeration, with a list-coloring search at every
    full assignment of the core."""
    core, keep = _k_core(g, k)
    assigned = []

    def search(used):
        if len(assigned) == core.n:
            if proper_coloring_from_lists(core, assigned) is None:
                return list(assigned)
            return None
        for cand in _candidate_lists(used, k):
            assigned.append(cand)
            bad = search(max(used, cand[-1] + 1))
            if bad is not None:
                return bad
            assigned.pop()
        return None

    bad = search(0) if core.n else None
    if bad is None:
        return True, None
    lists = [tuple(range(k))] * g.n
    for core_v, orig_v in enumerate(keep):
        lists[orig_v] = bad[core_v]
    return False, tuple(lists)


class TestListColorings:
    @pytest.mark.parametrize(
        "g,lists",
        [
            (cycle_graph(5), [range(3)] * 5),
            (named_graph("paw"), [(0, 1), (1,), (0, 1, 2), (0, 2)]),
            (complete_graph(3), [(0, 1)] * 3),
        ],
    )
    def test_yields_exactly_the_proper_picks_in_order(self, g, lists):
        proper = [c for c in product(*lists) if all(c[u] != c[v] for u, v in g.edges)]
        assert list(list_colorings(g, lists)) == proper
        assert proper == sorted(set(proper))
        assert proper_coloring_from_lists(g, lists) == (proper[0] if proper else None)


class TestChromaticNumber:
    @pytest.mark.parametrize(
        "g,chi",
        [
            (complete_graph(4), 4),
            (cycle_graph(5), 3),
            (cycle_graph(6), 2),
            (complete_bipartite(3, 3), 2),
            (path_graph(4), 2),
            (Graph(3, []), 1),
            (Graph(0, []), 0),
            (named_graph("petersen"), 3),
        ],
    )
    def test_values(self, g, chi):
        assert chromatic_number(g) == chi

    def test_line_graph_of_k4_is_octahedron(self):
        lg = line_graph(complete_graph(4))
        assert chromatic_number(lg) == 3

    def test_guard(self, monkeypatch):
        # no vertex bound: C101's walks for k = 1, 2, 3 place 1, 100 and 101
        # colors, 202 nodes in all
        assert chromatic_number(cycle_graph(101)) == 3
        monkeypatch.setattr(coloring, "COLORING_GUARD", 202)
        assert chromatic_number(cycle_graph(101)) == 3
        monkeypatch.setattr(coloring, "COLORING_GUARD", 201)
        with pytest.raises(
            SizeGuardExceeded,
            match=r"^chromatic_number: nodes 202 exceed guard 201 \(n=101\)$",
        ):
            chromatic_number(cycle_graph(101))

    def test_no_recursion_limit(self):
        # the walk keeps its own stack, so Python's recursion limit does not
        # bound n
        assert chromatic_number(cycle_graph(2001)) == 3

    def test_guard_is_read_when_called(self, monkeypatch):
        # K_n places k colors for each k <= n before the walk for k = n
        # succeeds: 10 nodes for K4, 15 for K5
        monkeypatch.setattr(coloring, "COLORING_GUARD", 14)
        assert chromatic_number(complete_graph(4)) == 4
        with pytest.raises(
            SizeGuardExceeded, match=r"chromatic_number: nodes 15 exceed guard 14 \(n=5\)"
        ):
            chromatic_number(complete_graph(5))

    def test_matches_brute_force_over_vertex_maps(self):
        # the least k with a proper map V -> range(k), by plain enumeration
        for g in all_graphs(5):
            chi = next(
                k
                for k in range(g.n + 1)
                if any(
                    all(c[u] != c[v] for u, v in g.edges)
                    for c in product(range(k), repeat=g.n)
                )
            )
            assert chromatic_number(g) == chi, g.edges

    def test_grotzsch_is_4(self):
        # Mycielskian of C5: triangle-free with chromatic number 4
        rim = [(i, (i + 1) % 5) for i in range(5)]
        shadows = [(i + 5, j) for i, j in rim] + [(j + 5, i) for i, j in rim]
        hub = [(i + 5, 10) for i in range(5)]
        assert chromatic_number(Graph(11, rim + shadows + hub)) == 4


class TestIsKChoosable:
    def test_k2_two_lists(self):
        ok, witness = is_k_choosable(complete_graph(2), 2)
        assert ok and witness is None

    def test_c4_two_choosable(self):
        ok, _ = is_k_choosable(cycle_graph(4), 2)
        assert ok

    def test_triangle_not_two_choosable(self):
        ok, witness = is_k_choosable(complete_graph(3), 2)
        assert not ok
        assert witness == ((0, 1), (0, 1), (0, 1))

    def test_witness_reverifies_unsatisfiable(self):
        ok, witness = is_k_choosable(complete_graph(3), 2)
        assert not ok
        assert proper_coloring_from_lists(complete_graph(3), witness) is None
        # independent exhaustive re-check over raw color tuples
        g = complete_graph(3)
        adj = g.adjacency()
        for pick in product(*witness):
            assert any(pick[u] == pick[v] for u in range(g.n) for v in adj[u])

    def test_k33_not_two_choosable(self):
        g = complete_bipartite(3, 3)
        ok, witness = is_k_choosable(g, 2)
        assert not ok
        # pinned: the first bad assignment in restricted-growth order
        assert witness == ((0, 1), (0, 2), (1, 2), (0, 1), (0, 2), (1, 2))
        _assert_no_coloring(g, witness, 2)

    def test_two_choosability_matches_closed_form(self):
        family = connected_graphs(15, max_vertices=6)
        assert len(family) == 143
        for g in family:
            ok, witness = is_k_choosable(g, 2)
            assert ok == _two_choosable_by_erdos_rubin_taylor(g), g.edges
            if not ok:
                _assert_no_coloring(g, witness, 2)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            is_k_choosable(complete_graph(2), -1)
        with pytest.raises(ValueError, match="k and max_nodes must be non-negative, got 2, -1"):
            is_k_choosable(complete_graph(3), 2, max_nodes=-1)
        assert is_k_choosable(Graph(0, []), 0) == (True, None)
        assert is_k_choosable(Graph(2, []), 0) == (False, ((), ()))

    def test_peeling_resolves_beyond_guard(self):
        # a tree on 10 vertices peels completely at k = 2; no guard hit
        ok, _ = is_k_choosable(path_graph(10), 2)
        assert ok

    def test_guard_on_core(self):
        with pytest.raises(SizeGuardExceeded, match=r"\(core n=8, k=3\)"):
            is_k_choosable(complete_bipartite(4, 4), 3, max_nodes=1000)

    def test_budget_boundary(self):
        # C4 at k = 2 tries its list assignments and walks their colorings
        # in exactly 150 nodes
        assert is_k_choosable(cycle_graph(4), 2, max_nodes=150) == (True, None)
        with pytest.raises(
            SizeGuardExceeded,
            match=r"^is_k_choosable: nodes 150 exceed guard 149 \(core n=4, k=2\)$",
        ):
            is_k_choosable(cycle_graph(4), 2, max_nodes=149)

    def test_budget_is_shared_by_the_leaf_walks(self, monkeypatch):
        # every leaf walk of C4 at k = 2 fits in 20 nodes on its own budget,
        # but the call's walks and assignments together pass 100
        leaves = []
        real = coloring.list_colorings

        def recorded(g, lists, budget=None):
            leaves.append((g, [tuple(l) for l in lists]))
            return real(g, lists, budget)

        monkeypatch.setattr(coloring, "list_colorings", recorded)
        with pytest.raises(SizeGuardExceeded, match="exceed guard 100 "):
            is_k_choosable(cycle_graph(4), 2, max_nodes=100)
        assert len(leaves) > 5
        for g, lists in leaves:
            list(real(g, lists, [20]))  # raises past 20 nodes

    def test_no_recursion_limit(self):
        # the enumeration keeps its own stack: the first full assignment of
        # C2001, (0, 1) everywhere, already leaves the last vertex no color
        ok, witness = is_k_choosable(cycle_graph(2001), 2)
        assert not ok and witness == ((0, 1),) * 2001


    def test_matches_brute_force_on_tiny_instances(self):
        tiny = [
            Graph(2, []),
            complete_graph(2),
            path_graph(3),
            complete_graph(3),
        ]
        for g in tiny:
            for k in (1, 2):
                ok, _ = is_k_choosable(g, k)
                assert ok == brute_force_k_choosable(g, k), (g.edges, k)

    def test_c4_matches_brute_force(self):
        ok, _ = is_k_choosable(cycle_graph(4), 2)
        assert ok == brute_force_k_choosable(cycle_graph(4), 2)

    def test_matches_reference_search(self):
        # verdict and witness as the search that colors every full assignment
        for g in all_graphs(5):
            for k in (1, 2, 3):
                if k == 3 and canonical_key(g) == canonical_key(W4):
                    continue  # ~5 s for the reference; test_wheel pins ch(W4) = 3
                assert is_k_choosable(g, k) == _reference_is_k_choosable(g, k), (g.edges, k)

    def test_uncolorable_rest_makes_the_first_list_bad(self):
        # K5 minus its last vertex is K4, which (0, 1, 2) everywhere cannot color
        assert is_k_choosable(complete_graph(5), 3) == (False, ((0, 1, 2),) * 5)

    def test_w5_witness(self):
        w5 = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
        assert is_k_choosable(w5, 3) == (False, ((0, 1, 2),) * 6)

    def test_monotone_in_k(self):
        for g in [cycle_graph(5), complete_graph(4), named_graph("paw")]:
            seen_true = False
            for k in range(1, g.max_degree() + 2):
                ok, _ = is_k_choosable(g, k)
                if seen_true:
                    assert ok
                seen_true = seen_true or ok


class TestChoiceNumber:
    @pytest.mark.parametrize(
        "g,ch",
        [
            (complete_graph(3), 3),
            (cycle_graph(4), 2),
            (path_graph(4), 2),
            (complete_graph(2), 2),
            (cycle_graph(5), 3),
            (Graph(3, []), 1),
            (complete_graph(4), 4),
        ],
    )
    def test_values(self, g, ch):
        assert choice_number(g) == ch

    def test_k5_needs_five(self):
        assert choice_number(complete_graph(5)) == 5

    def test_wheel(self):
        assert choice_number(W4) == 3

    def test_equals_chi_for_complete_graphs(self):
        for n in (2, 3, 4):
            assert choice_number(complete_graph(n)) == chromatic_number(
                complete_graph(n)
            )


@pytest.mark.parametrize(
    "g, expected",
    [
        (path_graph(3), (2, 2, 2)),
        (complete_graph(3), (3, 3, 3)),
        (cycle_graph(4), (2, 2, 2)),
        # L(K_{1,4}) = K_4
        (star_graph(4), (4, 4, 4)),
    ],
    ids=["P3", "K3", "C4", "K1,4"],
)
def test_line_graph_chi_ch_atn(g, expected):
    lg = line_graph(g)
    atn, _ = atn_from_polynomial(lg)
    assert (chromatic_number(lg), choice_number(lg), atn) == expected
