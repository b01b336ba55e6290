"""Graph type, constructions, factorization, and edge coloring."""

from itertools import combinations

import pytest

from alontarsi import (
    Graph,
    SizeGuardExceeded,
    canonical_key,
    chromatic_index_class,
    class2_augment,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_coloring,
    line_graph,
    named_graph,
    one_factorization,
    parse_edge_list_text,
    path_graph,
    petersen_graph,
    regular_embed_class1,
    star_graph,
    subdivision_graph,
    to_edge_list_text,
    total_graph,
)
from alontarsi import graphs
from alontarsi.canon import all_graphs
from alontarsi.graphs import round_robin_factorization


class TestGraphType:
    def test_canonical_edge_order(self):
        g = Graph(4, [(3, 1), (0, 2), (1, 0)])
        assert g.edges == ((0, 1), (0, 2), (1, 3))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_degrees_and_components(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert g.degrees() == (1, 2, 1, 1, 1)
        assert g.max_degree() == 2
        assert g.components() == [[0, 1, 2], [3, 4]]
        assert len(g.components()) == 2

    def test_induced(self):
        g = complete_graph(4)
        sub, remap = g.induced([1, 3])
        assert sub.n == 2 and sub.edges == ((0, 1),)
        assert remap == {1: 0, 3: 1}


class TestLineGraph:
    def test_triangle_self_dual(self):
        lg = line_graph(complete_graph(3))
        assert canonical_key(lg) == canonical_key(complete_graph(3))
        assert lg.n == 3

    def test_path3_gives_single_edge(self):
        lg = line_graph(path_graph(3))
        assert (lg.n, lg.m) == (2, 1)

    def test_k4_gives_octahedron(self):
        lg = line_graph(complete_graph(4))
        assert (lg.n, lg.m) == (6, 12)
        assert set(lg.degrees()) == {4}
        # independent oracle: adjacency from shared endpoints
        edges = complete_graph(4).edges
        expect = set()
        for i in range(6):
            for j in range(i + 1, 6):
                if set(edges[i]) & set(edges[j]):
                    expect.add((i, j))
        assert set(lg.edges) == expect

    def test_degree_identity(self):
        for g in [complete_graph(4), path_graph(5), star_graph(4), petersen_graph()]:
            lg = line_graph(g)
            assert lg.n == g.m
            deg, ldeg = g.degrees(), lg.degrees()
            for i, (u, v) in enumerate(g.edges):
                assert ldeg[i] == deg[u] + deg[v] - 2

    def test_empty_graph(self):
        lg = line_graph(Graph(3, []))
        assert (lg.n, lg.m) == (0, 0)


class TestSubdivision:
    def test_k2_gives_p3(self):
        s = subdivision_graph(complete_graph(2))
        assert canonical_key(s) == canonical_key(path_graph(3))

    def test_c3_gives_c6(self):
        s = subdivision_graph(cycle_graph(3))
        assert canonical_key(s) == canonical_key(cycle_graph(6))

    def test_k4_counts(self):
        s = subdivision_graph(complete_graph(4))
        assert (s.n, s.m) == (10, 12)
        assert s.degrees() == (3,) * 4 + (2,) * 6

    @pytest.mark.parametrize("g", [complete_graph(4), star_graph(3), cycle_graph(5)])
    def test_bipartite_and_edge_vertex_degree(self, g):
        s = subdivision_graph(g)
        assert s.n == g.n + g.m
        adj = s.adjacency()
        for i, e in enumerate(g.edges):
            assert adj[g.n + i] == frozenset(e)
        # bipartite: 2-color by BFS
        color = {}
        for comp in s.components():
            color[comp[0]] = 0
            stack = [comp[0]]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in color:
                        color[y] = 1 - color[x]
                        stack.append(y)
        assert all(color[u] != color[v] for u, v in s.edges)


class TestTotalGraph:
    def test_k2_gives_triangle(self):
        t = total_graph(complete_graph(2))
        assert canonical_key(t) == canonical_key(complete_graph(3))

    def test_c3_is_4_regular_on_6(self):
        t = total_graph(cycle_graph(3))
        assert (t.n, t.m) == (6, 12)
        assert set(t.degrees()) == {4}

    def test_c4_counts_and_degree_formulas(self):
        g = cycle_graph(4)
        t = total_graph(g)
        assert (t.n, t.m) == (8, 16)
        deg, tdeg = g.degrees(), t.degrees()
        for v in range(g.n):
            assert tdeg[v] == 2 * deg[v]
        for i, (u, v) in enumerate(g.edges):
            assert tdeg[g.n + i] == deg[u] + deg[v]

    @pytest.mark.parametrize("g", [cycle_graph(4), complete_graph(3), path_graph(4)])
    def test_total_is_square_of_subdivision(self, g):
        s = subdivision_graph(g)
        t = total_graph(g)
        # oracle: vertices at distance <= 2 in S(G) become adjacent
        adj = s.adjacency()
        expect = set()
        for u in range(s.n):
            reach = set(adj[u])
            for x in adj[u]:
                reach |= adj[x]
            reach.discard(u)
            expect.update((min(u, w), max(u, w)) for w in reach)
        assert set(t.edges) == expect

    def test_half_squares(self):
        g = complete_graph(4)
        t = total_graph(g)
        half_orig, _ = t.induced(range(g.n))
        assert half_orig.edges == g.edges
        half_edge, _ = t.induced(range(g.n, t.n))
        assert half_edge.edges == line_graph(g).edges


class TestDisjointDouble:
    def test_k2(self):
        d = disjoint_union(complete_graph(2), complete_graph(2))
        assert canonical_key(d) == canonical_key(named_graph("2K2"))

    def test_c3(self):
        d = disjoint_union(cycle_graph(3), cycle_graph(3))
        assert d.n == 6
        comps = d.components()
        assert len(comps) == 2
        for comp in comps:
            sub, _ = d.induced(comp)
            assert canonical_key(sub) == canonical_key(cycle_graph(3))

    def test_doubles_n_2_mod_4_to_multiple_of_4(self):
        g = cycle_graph(6)
        assert g.n % 4 == 2
        assert disjoint_union(g, g).n % 4 == 0

    def test_second_copy_offset(self):
        g = path_graph(3)
        d = disjoint_union(g, g)
        assert (3, 4) in d.edges and (4, 5) in d.edges


class TestMaxClique:
    def test_matches_brute_force_clique_number(self):
        # the clique number by trying every vertex subset
        for g in all_graphs(6):
            adj = g.adjacency()
            omega = max(
                k
                for k in range(g.n + 1)
                for s in combinations(range(g.n), k)
                if all(w in adj[u] for u, w in combinations(s, 2))
            )
            clique = graphs.max_clique(g)
            assert len(clique) == omega, g.edges
            assert list(clique) == sorted(set(clique)), g.edges
            assert all(w in adj[u] for u, w in combinations(clique, 2)), g.edges

    @pytest.mark.parametrize(
        "name, size", [("petersen", 2), ("K4,4", 2), ("K9", 9), ("4K4", 4)]
    )
    def test_named(self, name, size):
        assert len(graphs.max_clique(named_graph(name))) == size

    def test_empty_graph(self):
        assert graphs.max_clique(Graph(0, [])) == ()


class TestRoundRobin:
    @pytest.mark.parametrize("c", [2, 4, 6, 8])
    def test_partitions_all_pairs(self, c):
        factors = round_robin_factorization(c)
        assert len(factors) == c - 1
        seen = set()
        for factor in factors:
            touched = set()
            for a, b in factor:
                assert a not in touched and b not in touched
                touched.update((a, b))
                seen.add((a, b))
            assert touched == set(range(c))
        assert len(seen) == c * (c - 1) // 2

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            round_robin_factorization(3)


class TestRegularEmbed:
    def test_already_regular_adds_nothing(self):
        g = cycle_graph(4)
        host = regular_embed_class1(g)
        assert host.n == 2 * g.n and host.m == 2 * g.m
        assert set(host.degrees()) == {2}

    def test_p3_becomes_c6(self):
        host = regular_embed_class1(path_graph(3))
        assert set(host.degrees()) == {2}
        assert canonical_key(host) == canonical_key(cycle_graph(6))

    def test_star_k13(self):
        host = regular_embed_class1(star_graph(3))
        assert host.n == 16
        assert set(host.degrees()) == {3}

    @pytest.mark.parametrize("g", [path_graph(4), star_graph(4), complete_graph(4)])
    def test_base_is_induced_subgraph(self, g):
        host = regular_embed_class1(g)
        copy0, _ = host.induced(range(g.n))
        assert copy0.edges == g.edges
        assert set(host.degrees()) == {g.max_degree()}

    def test_rejects_class2(self):
        with pytest.raises(ValueError):
            regular_embed_class1(cycle_graph(3))

    def test_rejects_isolated_vertex(self):
        with pytest.raises(ValueError):
            regular_embed_class1(Graph(3, [(0, 1)]))

    def test_edge_color_guard_is_read_when_called(self, monkeypatch):
        monkeypatch.setattr(graphs, "EDGE_COLOR_GUARD", 2)
        assert regular_embed_class1(path_graph(3)).n == 6
        with pytest.raises(SizeGuardExceeded, match="edge coloring guard: m=3 > 2"):
            regular_embed_class1(path_graph(4))


class TestClass2Augment:
    def test_c3_becomes_paw(self):
        out, attach = class2_augment(cycle_graph(3))
        assert canonical_key(out) == canonical_key(named_graph("paw"))
        assert out.max_degree() == 3
        assert edge_coloring(out, 3) is not None

    def test_c5(self):
        out, _ = class2_augment(cycle_graph(5))
        assert out.max_degree() == 3
        assert chromatic_index_class(out) == 1

    def test_petersen(self):
        out, _ = class2_augment(petersen_graph())
        assert out.m == 16 and out.max_degree() == 4
        assert chromatic_index_class(out) == 1

    def test_rejects_class1(self):
        with pytest.raises(ValueError):
            class2_augment(complete_graph(4))

    def test_edge_color_guard_is_read_when_called(self, monkeypatch):
        monkeypatch.setattr(graphs, "EDGE_COLOR_GUARD", 3)
        assert class2_augment(cycle_graph(3))[0].m == 4
        with pytest.raises(SizeGuardExceeded, match="edge coloring guard: m=5 > 3"):
            class2_augment(cycle_graph(5))


class TestOneFactorization:
    def test_k4_exact(self):
        f = one_factorization(complete_graph(4))
        assert f.factors == (
            ((0, 1), (2, 3)),
            ((0, 2), (1, 3)),
            ((0, 3), (1, 2)),
        )
        assert f.validate(complete_graph(4))

    def test_k4_has_exactly_one_factorization(self):
        # oracle: enumerate unordered partitions of E(K4) into perfect matchings
        g = complete_graph(4)
        pms = [
            frozenset(p)
            for p in [
                [(0, 1), (2, 3)],
                [(0, 2), (1, 3)],
                [(0, 3), (1, 2)],
            ]
        ]
        from itertools import permutations

        partitions = set()
        for order in permutations(pms):
            union = set()
            for p in order:
                union |= p
            if union == set(g.edges):
                partitions.add(frozenset(order))
        assert len(partitions) == 1

    def test_k33(self):
        g = complete_bipartite(3, 3)
        f = one_factorization(g)
        assert len(f.factors) == 3
        assert f.validate(g)

    def test_c5_odd_order(self):
        assert one_factorization(cycle_graph(5)) is None

    def test_irregular(self):
        assert one_factorization(path_graph(4)) is None

    def test_c6(self):
        f = one_factorization(cycle_graph(6))
        assert f is not None and f.validate(cycle_graph(6))

    def test_petersen_negative(self):
        assert one_factorization(petersen_graph()) is None

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            one_factorization(complete_graph(14))

    def test_k12_past_edge_coloring_guard(self):
        # 66 edges, far past EDGE_COLOR_GUARD; only the vertex guard applies
        g = complete_graph(12)
        f = one_factorization(g)
        assert f is not None and f.validate(g)


def brute_perfect_matchings(g):
    """Every perfect matching of g as a frozenset of edges: match the lowest
    unmatched vertex with each unmatched neighbour in turn."""
    adj = g.adjacency()
    out = []

    def rec(free, chosen):
        if not free:
            out.append(frozenset(chosen))
            return
        u = min(free)
        for v in adj[u] & free:
            rec(free - {u, v}, chosen + [(u, v)])

    rec(frozenset(range(g.n)), [])
    return out


def brute_one_factorizable(g):
    """Exact cover of E by perfect matchings: the smallest uncovered edge
    lies in one of the matchings still disjoint from the cover, so try each."""
    pms = brute_perfect_matchings(g)

    def rec(uncovered, pool):
        if not uncovered:
            return True
        e = min(uncovered)
        return any(
            rec(uncovered - pm, [q for q in pool if not q & pm])
            for pm in pool
            if e in pm
        )

    return rec(frozenset(g.edges), pms)


def hypercube(d):
    return Graph(
        1 << d,
        [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1],
    )


class TestOneFactorizationOracle:
    """one_factorization against a test-side exact cover that uses neither
    edge_coloring nor one_factorization."""

    CASES = [g for g in all_graphs(6) if g.is_regular() and g.n % 2 == 0] + [
        complete_graph(8),
        complete_bipartite(6, 6),
        hypercube(3),
        hypercube(4),
        petersen_graph(),
    ]

    @pytest.mark.parametrize(
        "g", CASES, ids=[f"{g.n}v{g.m}e-{i}" for i, g in enumerate(CASES)]
    )
    def test_matches_exact_cover(self, g):
        f = one_factorization(g, max_n=16)
        assert (f is not None) == brute_one_factorizable(g)
        if f is None:
            return
        assert f.validate(g)
        colors = edge_coloring(g, g.max_degree(), max_edges=g.m)
        classes = {}
        for e, c in zip(g.edges, colors):
            classes.setdefault(c, []).append(e)
        assert f.factors == tuple(tuple(classes[c]) for c in sorted(classes))

    def test_negatives_are_two_triangles_and_petersen(self):
        negatives = [g for g in self.CASES if not brute_one_factorizable(g)]
        assert [canonical_key(g) for g in negatives] == [
            canonical_key(named_graph("2K3")),
            canonical_key(petersen_graph()),
        ]


class TestChromaticIndex:
    def test_k4(self):
        g = complete_graph(4)
        assert chromatic_index_class(g) == 1
        # the class-1 witness is a proper Delta-edge-coloring
        coloring = edge_coloring(g, g.max_degree())
        assert set(coloring) == {0, 1, 2}
        for i, (u, v) in enumerate(g.edges):
            for j, (x, y) in enumerate(g.edges):
                if i < j and {u, v} & {x, y}:
                    assert coloring[i] != coloring[j]

    def test_c5(self):
        g = cycle_graph(5)
        assert chromatic_index_class(g) == 2
        assert edge_coloring(g, g.max_degree()) is None
        assert edge_coloring(g, g.max_degree() + 1) is not None

    def test_k33_bipartite(self):
        assert chromatic_index_class(complete_bipartite(3, 3)) == 1

    def test_k5_class2(self):
        assert chromatic_index_class(complete_graph(5)) == 2

    def test_petersen_class2(self):
        assert chromatic_index_class(petersen_graph()) == 2

    def test_edgeless(self):
        g = Graph(3, [])
        assert chromatic_index_class(g) == 1
        assert edge_coloring(g, g.max_degree()) == ()

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            chromatic_index_class(complete_graph(8))


class TestNamedGraphs:
    @pytest.mark.parametrize(
        "name,n,m",
        [
            ("K4", 4, 6),
            ("C5", 5, 5),
            ("P4", 4, 3),
            ("K1,3", 4, 3),
            ("K2,3", 5, 6),
            ("2K2", 4, 2),
            ("petersen", 10, 15),
            ("paw", 4, 4),
            ("diamond", 4, 5),
            ("bull", 5, 5),
        ],
    )
    def test_registry(self, name, n, m):
        g = named_graph(name)
        assert (g.n, g.m) == (n, m)

    def test_unknown(self):
        with pytest.raises(ValueError):
            named_graph("Q3?")


class TestSerialization:
    def test_round_trip(self):
        g = named_graph("petersen")
        assert parse_edge_list_text(to_edge_list_text(g)) == g

    def test_text_format(self):
        assert to_edge_list_text(path_graph(3)) == "3 2\n0 1\n1 2\n"

    @pytest.mark.parametrize(
        "text", ["", "3\n", "2 1\n", "2 1\n0 1\n1 0\n", "2 1\n0 2\n", "1 1\n0 0\n"]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_edge_list_text(text)
