"""Polynomial engine against brute-force oracles and frozen hand expansions."""

import random
from itertools import permutations, product

import pytest

from alontarsi import (
    Graph,
    LowerBound,
    SizeGuardExceeded,
    all_graphs,
    atn_from_orientations,
    atn_from_polynomial,
    coefficient_of,
    complete_bipartite,
    complete_graph,
    connected_graphs,
    cycle_graph,
    disjoint_union,
    expand_capped,
    full_expansion,
    line_graph,
    path_graph,
    petersen_graph,
    star_graph,
    total_graph,
)
from alontarsi import polynomials


def naive_expansion(g):
    """Oracle: multiply out with tuple-keyed dicts, no caps, no packing."""
    terms = {(0,) * g.n: 1}
    for u, v in g.edges:
        new = {}
        for exps, c in terms.items():
            for w, sign in ((u, 1), (v, -1)):
                bumped = list(exps)
                bumped[w] += 1
                key = tuple(bumped)
                new[key] = new.get(key, 0) + sign * c
        terms = {k: c for k, c in new.items() if c}
    return terms


def whole_expansion_atn(g):
    """Oracle: the first b whose whole (b-1)-capped expansion is nonzero,
    with that expansion's smallest key."""
    for b in range(1, g.m + 2):
        poly = expand_capped(g.edges, g.n, b - 1)
        if poly.terms:
            key = min(poly.terms)
            return b, poly.unpack(key), poly.terms[key]
    raise AssertionError("zero at full cap")


def search_from_cap_zero(g):
    """The search of `atn_from_polynomial` with no lower bound: every cap
    from 0 up, as (b, exponents, coefficient)."""
    blocks = polynomials._finishing_blocks(g)
    for b in range(1, g.m + 2):
        poly = polynomials._first_nonzero_group(g, blocks, b - 1)
        if poly is not None:
            key = min(poly.terms)
            return b, poly.unpack(key), poly.terms[key]
    raise AssertionError("zero at full cap")


def evaluation_through_unpack(poly, point):
    total = 0
    for key, coeff in poly.terms.items():
        for x, e in zip(point, poly.unpack(key)):
            coeff *= x**e
        total += coeff
    return total


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


# frozen by hand: (x0-x1)(x0-x2)(x1-x2)
K3_EXPANSION = {
    (2, 1, 0): 1,
    (2, 0, 1): -1,
    (1, 2, 0): -1,
    (1, 0, 2): 1,
    (0, 2, 1): 1,
    (0, 1, 2): -1,
}


class TestExpandCapped:
    def test_k2_cap1(self):
        poly = expand_capped([(0, 1)], 2, 1)
        assert dict(poly.items()) == {(1, 0): 1, (0, 1): -1}

    def test_k3_cap2_matches_hand_expansion(self):
        poly = expand_capped(complete_graph(3).edges, 3, 2)
        assert dict(poly.items()) == K3_EXPANSION

    def test_k3_cap1_is_zero(self):
        poly = expand_capped(complete_graph(3).edges, 3, 1)
        assert not poly.terms

    def test_full_expansion_matches_naive(self):
        for g in connected_graphs(5):
            assert dict(full_expansion(g).items()) == naive_expansion(g)

    def test_full_expansion_reads_the_guard_when_called(self, monkeypatch):
        # K4's full expansion peaks at 24 live terms, after its last factor
        g = complete_graph(4)
        monkeypatch.setattr(polynomials, "TERM_GUARD", 24)
        assert full_expansion(g).num_terms() == 24
        monkeypatch.setattr(polynomials, "TERM_GUARD", 23)
        with pytest.raises(SizeGuardExceeded, match="live terms 24 exceed guard 23"):
            full_expansion(g)

    def test_cap_correctness_against_naive(self):
        # capped result = full expansion restricted to exponents <= cap
        graphs = [g for g in connected_graphs(6) if g.m >= 1][:20]
        graphs += [complete_graph(5), cycle_graph(5)]
        for g in graphs:
            assert g.m <= 10
            naive = naive_expansion(g)
            for cap in range(g.m + 1):
                want = {e: c for e, c in naive.items() if max(e) <= cap}
                got = dict(expand_capped(g.edges, g.n, cap).items())
                assert got == want, (g.edges, cap)

    def test_homogeneity(self):
        for g in [complete_graph(4), cycle_graph(5), star_graph(4)]:
            for exps, _ in full_expansion(g).items():
                assert sum(exps) == g.m

    def test_memory_guard(self, monkeypatch):
        monkeypatch.setattr(polynomials, "TERM_GUARD", 10)
        with pytest.raises(SizeGuardExceeded):
            expand_capped(complete_graph(5).edges, 5, 4)

    def test_memory_guard_propagates_through_atn(self, monkeypatch):
        monkeypatch.setattr(polynomials, "TERM_GUARD", 5)
        with pytest.raises(SizeGuardExceeded):
            atn_from_polynomial(complete_graph(5))

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError, match="cap must be non-negative, got -1"):
            expand_capped(complete_graph(2).edges, 2, -1)

    def test_guard_counts_held_terms(self, monkeypatch):
        monkeypatch.setattr(polynomials, "TERM_GUARD", 4)
        expand_capped([(0, 1)], 2, 1, held=2)
        monkeypatch.setattr(polynomials, "TERM_GUARD", 3)
        with pytest.raises(SizeGuardExceeded, match="live terms 4 exceed guard 3"):
            expand_capped([(0, 1)], 2, 1, held=2)

    def test_start_continues_a_product(self):
        edges = complete_graph(4).edges
        head = expand_capped(edges[:2], 4, 2)
        rest = expand_capped(edges[2:], 4, 2, start=head.terms)
        assert dict(rest.items()) == dict(expand_capped(edges, 4, 2).items())

    def test_start_at_the_cap_is_still_capped(self):
        # start is x0, already at cap 1, so (x0 - x1) must drop the x0^2 it makes
        start = {expand_capped([], 2, 1).pack((1, 0)): 1}
        poly = expand_capped([(0, 1)], 2, 1, start=start)
        assert dict(poly.items()) == {(1, 1): -1}
        # the same on K4 at cap 2: the head, the star at x0, already holds
        # terms at the cap, and the rest's triangle on x1, x2, x3 must still
        # delete the terms it pushes past it
        g = complete_graph(4)
        head = expand_capped(g.edges[:3], 4, 2)
        assert max(e[0] for e, _ in head.items()) == 2
        rest = expand_capped(g.edges[3:], 4, 2, start=head.terms)
        naive = naive_expansion(g)
        assert any(e[0] <= 2 < max(e) for e in naive)
        want = {e: c for e, c in naive.items() if max(e) <= 2}
        assert dict(rest.items()) == want

    def test_empty_factor_list_is_one(self):
        poly = expand_capped([], 3, 0)
        assert dict(poly.items()) == {(0, 0, 0): 1}


class TestAtnFromPolynomial:
    def test_edgeless(self):
        value, cert = atn_from_polynomial(Graph(5, []))
        assert value == 1
        assert cert.exponents == (0, 0, 0, 0, 0) and cert.coefficient == 1

    def test_k3(self):
        value, cert = atn_from_polynomial(complete_graph(3))
        assert value == 3
        # lexicographically smallest survivor at cap 2
        assert cert.exponents == (0, 1, 2)
        assert cert.coefficient == K3_EXPANSION[(0, 1, 2)]
        # the x0^2 x1 monomial named alongside the value has coefficient +1
        assert coefficient_of(complete_graph(3), (2, 1, 0)) == 1

    def test_c4(self):
        value, cert = atn_from_polynomial(cycle_graph(4))
        assert value == 2
        assert cert.exponents == (1, 1, 1, 1)
        assert abs(cert.coefficient) == 2

    def test_certificate_max_exponent_is_atn_minus_1(self):
        for g in [g for g in connected_graphs(6) if g.m >= 1][:25]:
            value, cert = atn_from_polynomial(g)
            assert max(cert.exponents) == value - 1
            assert coefficient_of(g, cert.exponents) == cert.coefficient != 0

    def test_monomial_json(self):
        _, cert = atn_from_polynomial(complete_graph(3))
        obj = cert.to_json_obj()
        assert obj == {
            "kind": "monomial",
            "atn": 3,
            "exponents": [0, 1, 2],
            "coefficient": -1,
            "lower_bound": {"kind": "clique", "vertices": [0, 1, 2], "bound": 3},
        }


class TestLexFirstSearch:
    """The depth-first search against the whole capped expansion."""

    def assert_matches_whole_expansion(self, g):
        value, cert = atn_from_polynomial(g)
        assert (value, cert.exponents, cert.coefficient) == whole_expansion_atn(g), g.edges

    def test_all_graphs_on_five_vertices(self):
        # includes disconnected graphs and isolated vertices
        for g in all_graphs(5):
            self.assert_matches_whole_expansion(g)

    def test_connected_graphs_up_to_eight_edges(self):
        for g in connected_graphs(8):
            self.assert_matches_whole_expansion(g)

    def test_path_finishing_before_a_lower_vertex(self):
        # vertex 1 finishes after the first factor, vertex 0 only after both
        self.assert_matches_whole_expansion(Graph(3, [(0, 1), (0, 2)]))

    @pytest.mark.parametrize(
        "base, seed",
        [("K5,5", 1), ("K5,5", 8), ("K5,5", 9), ("T(C5)", 2), ("T(C5)", 3), ("T(C5)", 4)],
    )
    def test_relabelled_finishing_orders(self, base, seed):
        g = complete_bipartite(5, 5) if base == "K5,5" else total_graph(cycle_graph(5))
        g = relabelled(g, seed)
        last = [-1] * g.n
        for i, (u, v) in enumerate(g.edges):
            last[u] = last[v] = i
        # some vertex finishes before a lower-indexed one
        assert any(last[y] < last[x] for x in range(g.n) for y in range(x + 1, g.n))
        self.assert_matches_whole_expansion(g)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete_graphs(self, n):
        # the Vandermonde determinant: its monomials are the permutations of
        # 0..n-1, so every group whose finished prefix repeats an exponent
        # ends at zero
        self.assert_matches_whole_expansion(complete_graph(n))

    @pytest.mark.parametrize("size", [2, 3], ids=["K2,2,2", "K3,3,3"])
    def test_complete_tripartite(self, size):
        # symmetric graphs; on K3,3,3 the bound is 4 and the ATN is 5, so the
        # search expands past a zero cap
        parts = [range(i * size, (i + 1) * size) for i in range(3)]
        edges = [(u, v) for i, a in enumerate(parts) for b in parts[i + 1 :] for u in a for v in b]
        self.assert_matches_whole_expansion(Graph(3 * size, edges))

    @pytest.mark.parametrize("clone_edge", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_cloned_vertex(self, seed, clone_edge):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        base = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        v = rng.randrange(n)
        # vertex n copies v's neighbourhood: random graphs with a symmetry,
        # relabelled so that v and its copy sit anywhere in the order
        edges = list(base.edges) + [(x, n) for x in sorted(base.adjacency()[v])]
        if clone_edge:
            edges.append((v, n))
        self.assert_matches_whole_expansion(relabelled(Graph(n + 1, edges), seed))

    @pytest.mark.parametrize("n, coefficient", [(9, 1), (10, -1), (12, 1)])
    def test_large_complete_graphs(self, n, coefficient):
        value, cert = atn_from_polynomial(complete_graph(n))
        assert value == n
        assert cert.exponents == tuple(range(n)) and cert.coefficient == coefficient

    def count_expansions(self, monkeypatch, search):
        calls = 0
        expand = polynomials.expand_capped

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return expand(*args, **kwargs)

        monkeypatch.setattr(polynomials, "expand_capped", counting)
        value = search()
        return value, calls

    def test_k8_expansion_count_from_bound(self, monkeypatch):
        # the clique bound starts the search at cap 7, one expansion per block
        value, calls = self.count_expansions(
            monkeypatch, lambda: atn_from_polynomial(complete_graph(8))[0]
        )
        assert value == 8 and calls == 8

    def test_line_graph_of_petersen(self):
        g = line_graph(petersen_graph())
        value, cert = atn_from_polynomial(g)
        assert value == 4
        assert coefficient_of(g, cert.exponents) == cert.coefficient != 0

    def test_density_bound_is_met(self):
        # both have 15 vertices and 60 edges, so ATN >= 1 + ceil(60/15) = 5
        for g in [line_graph(complete_graph(6)), total_graph(complete_graph(5))]:
            assert (g.n, g.m) == (15, 60)
            value, cert = atn_from_polynomial(g)
            assert value == 5 and max(cert.exponents) == 4

    def test_relabelled_line_graph_of_k44(self):
        g = relabelled(line_graph(complete_bipartite(4, 4)), 0)
        value, _ = atn_from_polynomial(g)
        assert value == 4

    def test_lone_candidate_cap_expands_nothing(self, monkeypatch):
        # L(K4,4) is 6-regular with clique number 4: cap 3 holds only all-3
        g = line_graph(complete_bipartite(4, 4))
        (value, cert), calls = self.count_expansions(monkeypatch, lambda: atn_from_polynomial(g))
        assert (value, cert.exponents, cert.coefficient, calls) == (4, (3,) * 16, 576, 0)

    def test_total_graph_of_petersen(self):
        # all-3 has coefficient 0, so cap 4 is searched by expansion
        g = total_graph(petersen_graph())
        value, cert = atn_from_polynomial(g)
        assert value == 5
        assert cert.exponents == (0, 1, 1, 1, 2, 1, 1, 2) + (4,) * 10 + (3, 3) + (4,) * 5
        assert cert.coefficient == 2
        assert cert.lower_bound == LowerBound("clique", (0, 10, 11, 12), 4)

    def test_lone_candidate_on_disjoint_copies(self, monkeypatch):
        # L(3 K4,4): each copy has 576 colorings with a nonzero product, so a
        # walk across components would need 576**3 nodes; walked one at a
        # time they take 3 * 5,680
        k44 = complete_bipartite(4, 4)
        g = line_graph(disjoint_union(disjoint_union(k44, k44), k44))
        monkeypatch.setattr(polynomials, "TERM_GUARD", 20_000)
        (value, cert), calls = self.count_expansions(monkeypatch, lambda: atn_from_polynomial(g))
        assert (value, cert.exponents, cert.coefficient, calls) == (4, (3,) * 48, 576**3, 0)

    @pytest.mark.parametrize("n, value, coefficient", [(1000, 2, -2), (1001, 3, -1)])
    def test_long_cycles(self, n, value, coefficient):
        # a walk as deep as the graph is long: no recursion limit applies
        atn, cert = atn_from_polynomial(cycle_graph(n))
        assert (atn, cert.coefficient, max(cert.exponents)) == (value, coefficient, value - 1)


class TestLowerBound:
    """The bound the search starts from, and its witness."""

    def assert_sound(self, g):
        value, cert = atn_from_polynomial(g)
        assert (value, cert.exponents, cert.coefficient) == search_from_cap_zero(g), g.edges
        lb = cert.lower_bound
        assert lb.bound <= value
        assert list(lb.vertices) == sorted(set(lb.vertices))
        assert all(0 <= v < g.n for v in lb.vertices)
        h, _ = g.induced(lb.vertices)
        k = len(lb.vertices)
        if lb.kind == "clique":
            assert h.m == k * (k - 1) // 2 and lb.bound == k
        else:
            assert lb.kind == "density" and k and lb.bound == 1 + -(-h.m // k)
        return value, lb

    def test_all_graphs_on_six_vertices(self):
        for g in all_graphs(6):
            self.assert_sound(g)

    def test_connected_graphs_up_to_eight_edges(self):
        for g in connected_graphs(8):
            self.assert_sound(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_relabelled(self, seed):
        bases = [
            complete_bipartite(3, 3),
            complete_bipartite(4, 4),
            petersen_graph(),
            total_graph(cycle_graph(5)),
            line_graph(complete_graph(4)),
            Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)]),
        ]
        for g in bases:
            self.assert_sound(relabelled(g, seed))

    def test_empty_and_edgeless_graphs(self):
        # the empty clique bounds nothing; ATN of an edgeless graph is 1
        assert self.assert_sound(Graph(0, [])) == (1, LowerBound("clique", (), 0))
        assert self.assert_sound(Graph(4, [])) == (1, LowerBound("clique", (0,), 1))

    def test_witnesses(self):
        value, lb = self.assert_sound(complete_bipartite(5, 5))
        assert (value, lb) == (4, LowerBound("density", tuple(range(10)), 4))
        # a K4 beside a 3-regular graph: the clique beats density 1 + ceil(3/2) = 3
        g = disjoint_union(petersen_graph(), complete_graph(4))
        assert self.assert_sound(g) == (4, LowerBound("clique", (10, 11, 12, 13), 4))
        # one short: L(K5) is 6-regular with clique number 4, and ATN 5
        assert self.assert_sound(line_graph(complete_graph(5)))[1].bound == 4

    def test_peeling_matches_a_plain_scan(self):
        # oracle: find each vertex to delete by scanning the live ones for
        # the least (degree, vertex), with no heap and no stale entries
        def scanned(g):
            adj = [set(s) for s in g.adjacency()]
            alive, m = set(range(g.n)), g.m
            best, where = 0, ()
            while alive:
                b = 1 + -(-m // len(alive))
                if b > best:
                    best, where = b, tuple(sorted(alive))
                v = min(alive, key=lambda w: (len(adj[w]), w))
                for w in adj[v]:
                    adj[w].discard(v)
                m -= len(adj[v])
                alive.remove(v)
            return best, where

        rng = random.Random(7)
        graphs = list(all_graphs(6))
        for _ in range(200):
            n = rng.randint(1, 20)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            graphs.append(Graph(n, rng.sample(pairs, rng.randint(0, len(pairs)))))
        for g in graphs:
            assert polynomials._peeling_density(g) == scanned(g), g.edges


class TestCoefficientOf:
    def test_k3_all_ones_cancels(self):
        assert coefficient_of(complete_graph(3), (1, 1, 1)) == 0

    def test_c4_all_ones(self):
        assert abs(coefficient_of(cycle_graph(4), (1, 1, 1, 1))) == 2

    def test_k2(self):
        assert coefficient_of(complete_graph(2), (1, 0)) == 1
        assert coefficient_of(complete_graph(2), (0, 1)) == -1

    def test_off_degree_is_zero(self):
        assert coefficient_of(complete_graph(3), (1, 1, 0)) == 0
        assert coefficient_of(complete_graph(3), (3, 1, 1)) == 0

    def test_matches_full_expansion_everywhere(self):
        # every term, plus every degree-m target with entries up to one past
        # the maximum degree (mostly zeros), on every graph with <= 5 vertices
        for g in all_graphs(5):
            terms = dict(full_expansion(g).items())
            targets = {t for t in product(range(g.max_degree() + 2), repeat=g.n) if sum(t) == g.m}
            targets |= set(terms) | {(g.m,) + (0,) * (g.n - 1)}
            for t in targets:
                assert coefficient_of(g, t) == terms.get(t, 0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of(complete_graph(3), (1, 1))

    def test_guard_counts_live_terms(self, monkeypatch):
        # the all-2 monomial of K5 cancels; with zeros dropped and every
        # bump checked against the factors still ahead, at most 8 terms are
        # ever live at once
        g = complete_graph(5)
        monkeypatch.setattr(polynomials, "TERM_GUARD", 8)
        assert coefficient_of(g, (2,) * 5) == 0
        monkeypatch.setattr(polynomials, "TERM_GUARD", 7)
        with pytest.raises(SizeGuardExceeded, match="live terms 8 exceed guard 7"):
            coefficient_of(g, (2,) * 5)


def hypercube(k):
    return Graph(1 << k, [(v, v | 1 << b) for v in range(1 << k) for b in range(k) if not v >> b & 1])


class TestCoefficientByColorings:
    """The signed walk over proper colorings against the frontier expansion."""

    def test_matches_coefficient_of_on_random_monomials(self):
        # each edge gives its degree to a random endpoint, so every target has
        # degree m and d_v <= deg(v); the walk's early returns are skipped
        rng = random.Random(6)
        for g in all_graphs(6):
            for _ in range(3):
                d = [0] * g.n
                for u, v in g.edges:
                    d[rng.choice((u, v))] += 1
                assert polynomials._coefficient_by_colorings(g, d) == coefficient_of(g, d), (g.edges, d)

    def test_matches_every_certificate(self):
        for g in all_graphs(6):
            _, cert = atn_from_polynomial(g)
            coeff = polynomials._coefficient_by_colorings(g, cert.exponents)
            assert coeff == coefficient_of(g, cert.exponents) == cert.coefficient != 0

    @pytest.mark.parametrize(
        "name, g, value",
        [
            ("L(K4,4)", line_graph(complete_bipartite(4, 4)), 576),
            ("L(K6)", line_graph(complete_graph(6)), -720),
            ("T(Q3)", total_graph(hypercube(3)), 48),
            # thm2's counterexample: ELS(3) = OLS(3)
            ("L(K3,3)", line_graph(complete_bipartite(3, 3)), 0),
            ("T(Petersen)", total_graph(petersen_graph()), 0),
        ],
    )
    def test_lone_candidate_values(self, name, g, value):
        r, rem = divmod(g.m, g.n)
        assert rem == 0, name
        assert polynomials._coefficient_by_colorings(g, (r,) * g.n) == value

    def test_off_degree_and_over_degree_are_zero(self):
        g = cycle_graph(4)
        assert polynomials._coefficient_by_colorings(g, (1, 1, 1, 0)) == 0
        assert polynomials._coefficient_by_colorings(g, (3, 1, 0, 0)) == 0

    def test_components_are_walked_apart(self, monkeypatch):
        # the nodes add over components, each walked with one clique pinned:
        # 238 for one L(K4,4) (5,680 unpinned), 714 for three
        one = line_graph(complete_bipartite(4, 4))
        three = disjoint_union(disjoint_union(one, one), one)
        walk = polynomials._coefficient_by_colorings
        monkeypatch.setattr(polynomials, "TERM_GUARD", 238)
        assert walk(one, (3,) * 16) == 576
        monkeypatch.setattr(polynomials, "TERM_GUARD", 237)
        with pytest.raises(SizeGuardExceeded, match="exceed guard 237$"):
            walk(one, (3,) * 16)
        monkeypatch.setattr(polynomials, "TERM_GUARD", 714)
        assert walk(three, (3,) * 48) == 576**3
        with pytest.raises(SizeGuardExceeded, match="exceed guard 714$"):
            walk(disjoint_union(three, one), (3,) * 64)
        # a zero component ends the walk: L(K3,3) all-2 is 0
        g = disjoint_union(one, line_graph(complete_bipartite(3, 3)))
        assert walk(g, (3,) * 16 + (2,) * 9) == 0

    def test_guard_counts_walk_nodes(self, monkeypatch):
        g = line_graph(complete_bipartite(4, 4))
        monkeypatch.setattr(polynomials, "TERM_GUARD", 100)
        with pytest.raises(SizeGuardExceeded, match="exceed guard 100$"):
            polynomials._coefficient_by_colorings(g, (3,) * g.n)
        with pytest.raises(SizeGuardExceeded, match="exceed guard 100$"):
            atn_from_polynomial(g)


def unpinned_walk(monkeypatch, g, d):
    """The colorings walk with the clique split switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(polynomials, "_krausz_cliques", lambda g, d: None)
        return polynomials._coefficient_by_colorings(g, d)


class TestPinnedColoringsWalk:
    """The walk with one clique of a Krausz split pinned, against the
    frontier expansion and the unpinned walk."""

    def test_matches_on_line_graphs(self, monkeypatch):
        # every line graph regular of even degree 2r > 0 from all graphs on
        # at most 7 vertices but K7 (its value is pinned below) and from some
        # regular graphs past 7 vertices, under two seeded relabellings; the
        # frontier expansion checks those with at most 42 edges and the
        # unpinned walk the rest
        k4, k33 = complete_graph(4), complete_bipartite(3, 3)
        larger = [
            cycle_graph(8),
            hypercube(3),
            complete_bipartite(4, 4),
            petersen_graph(),
            disjoint_union(k4, k4),  # no split: L(K4) is the octahedron
            disjoint_union(k33, k4),
            disjoint_union(k33, hypercube(3)),  # two components, each pinned
        ]
        cases = split = 0
        for h in all_graphs(7) + larger:
            g = line_graph(h)
            if len(set(g.degrees())) != 1 or not g.m or g.m % g.n or h.m == 21:
                continue
            d = (g.m // g.n,) * g.n
            for seed in (0, 1):
                lg = relabelled(g, seed)
                cases += 1
                split += polynomials._krausz_cliques(lg, d) is not None
                want = coefficient_of(lg, d) if lg.m <= 42 else unpinned_walk(monkeypatch, lg, d)
                assert polynomials._coefficient_by_colorings(lg, d) == want, (h.edges, seed)
        assert (cases, split) == (100, 54)

    @pytest.mark.parametrize(
        "name, g",
        [
            ("L(K4)", line_graph(complete_graph(4))),  # each neighbourhood's complement is 2K2
            ("L(K2,4)", line_graph(complete_bipartite(2, 4))),  # its cliques are K4s and K2s
            ("T(C5)", total_graph(cycle_graph(5))),  # 10 triangles found: 30 memberships, not 20
            ("C3", complete_graph(3)),
            ("edgeless", Graph(4, [])),
            ("empty", Graph(0, [])),
        ],
    )
    def test_no_split(self, name, g):
        d = (g.m // g.n,) * g.n if g.n else ()
        assert polynomials._krausz_cliques(g, d) is None

    def test_split_of_a_line_graph(self):
        # L(K4,4): the two cliques at each vertex are the stars of its edge's ends
        h = complete_bipartite(4, 4)
        cliques = polynomials._krausz_cliques(line_graph(h), (3,) * 16)
        stars = [tuple(i for i, e in enumerate(h.edges) if x in e) for x in range(h.n)]
        for i, e in enumerate(h.edges):
            assert sorted(cliques[i]) == sorted(stars[x] for x in e)

    def test_split_needs_every_exponent_equal(self):
        g = line_graph(complete_bipartite(4, 4))
        assert polynomials._krausz_cliques(g, (2,) + (3,) * 14 + (4,)) is None

    @pytest.mark.parametrize(
        "name, g",
        [
            ("L(K5)", line_graph(complete_graph(5))),
            ("T(K4)", total_graph(complete_graph(4))),  # isomorphic to L(K5)
            ("L(K7)", line_graph(complete_graph(7))),
        ],
    )
    def test_odd_clique_count_is_zero_at_once(self, monkeypatch, name, g):
        # an odd number of cliques: K5 and K7 have no perfect matching, so
        # their line graphs have no proper Delta-coloring, and no node is walked
        d = (g.m // g.n,) * g.n
        assert polynomials._krausz_cliques(g, d) is not None
        monkeypatch.setattr(polynomials, "TERM_GUARD", 0)
        assert polynomials._coefficient_by_colorings(g, d) == 0

    def test_line_graph_of_k8(self, monkeypatch):
        # all-6 by the pinned walk in 131,056 nodes; K8 is class 1, so ATN(L(K8))
        # = 7 = Delta, as thm1 claims
        monkeypatch.setattr(polynomials, "TERM_GUARD", 150_000)
        value, cert = atn_from_polynomial(line_graph(complete_graph(8)))
        assert (value, cert.exponents, cert.coefficient) == (7, (6,) * 28, 21_772_800)


def is_bipartite(g):
    adj = g.adjacency()
    side = {}
    for root in range(g.n):
        if root in side:
            continue
        side[root] = 0
        queue = [root]
        for x in queue:
            for y in adj[x]:
                if y not in side:
                    side[y] = side[x] ^ 1
                    queue.append(y)
                elif side[y] == side[x]:
                    return False
    return True


def hakimi_atn(g):
    """1 + the least maximum outdegree over the orientations of g."""
    out = [set() for _ in range(g.n)]
    for u, v in g.edges:
        out[u].add(v)
    while True:
        top = max(map(len, out), default=0)
        parent = {v: None for v in range(g.n) if len(out[v]) == top}
        queue = list(parent)
        end = None
        for x in queue:  # breadth first along arcs, from every top vertex
            if len(out[x]) <= top - 2:
                end = x
                break
            for y in out[x]:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        if end is None:
            return top + 1
        while parent[end] is not None:  # reverse the path, arc by arc
            x = parent[end]
            out[x].remove(end)
            out[end].add(x)
            end = x


def grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


BIPARTITE_FAMILIES = [
    *((f"K{n},{n}", complete_bipartite(n, n), 1 + -(-n // 2)) for n in range(2, 6)),
    ("Q3", hypercube(3), 3),
    ("Q4", hypercube(4), 3),
    ("C16", cycle_graph(16), 2),
    ("4x4 grid", grid(4, 4), 3),
]


class TestHakimiOracle:
    """Alon-Tarsi numbers of bipartite graphs against Hakimi's closed form.

    In a bipartite graph every Eulerian subdigraph is a union of even cycles,
    so it has an even number of arcs, and every orientation is Alon-Tarsi.
    Hence ATN(G) = 1 + the least maximum outdegree over all orientations,
    which augmenting paths find: reverse a directed path from a vertex of
    maximum outdegree D to one of outdegree at most D - 2 while one exists.
    When none does, the vertices such paths reach have outdegree at least
    D - 1, one of them D, and no arc leaves them; so the subgraph H they
    induce has m(H) > (D - 1) n(H), and every orientation gives some vertex of
    H outdegree D (S. L. Hakimi, J. Franklin Inst. 279 (1965)).
    """

    def test_bipartite_graphs_on_at_most_7_vertices(self):
        # 142 graphs with an edge and the 7 edgeless ones, whose ATN is 1
        family = [g for g in all_graphs(7) if is_bipartite(g)]
        assert (len(family), sum(g.m >= 1 for g in family)) == (149, 142)
        for g in family:
            assert atn_from_polynomial(g)[0] == hakimi_atn(g), g.edges

    @pytest.mark.parametrize(
        "name, g, closed_form", BIPARTITE_FAMILIES, ids=[name for name, _, _ in BIPARTITE_FAMILIES]
    )
    def test_named_families(self, name, g, closed_form):
        # K_{n,n} gives 1 + ceil(n/2), Q_d 1 + ceil(d/2), an even cycle 2 and
        # the 4x4 grid 1 + ceil(24/16)
        assert is_bipartite(g)
        assert hakimi_atn(g) == closed_form
        assert atn_from_polynomial(g)[0] == closed_form
        if g.m <= 22:  # CENSUS_GUARD
            assert atn_from_orientations(g)[0] == closed_form


class TestVandermonde:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complete_graph_expansion(self, n):
        poly = full_expansion(complete_graph(n))
        terms = dict(poly.items())
        import math

        assert len(terms) == math.factorial(n)
        assert set(terms.keys()) == set(permutations(range(n)))
        assert set(map(abs, terms.values())) == {1}
        value, _ = atn_from_polynomial(complete_graph(n))
        assert value == n


class TestEvaluate:
    def test_binomial(self):
        poly = expand_capped([(0, 1)], 2, 1)
        assert poly.evaluate((5, 2)) == 3

    def test_k3_point(self):
        assert full_expansion(complete_graph(3)).evaluate((0, 1, 2)) == -2

    def test_vanishes_at_equal_point(self):
        for g in [complete_graph(4), path_graph(4)]:
            assert full_expansion(g).evaluate([9] * g.n) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            full_expansion(complete_graph(3)).evaluate((1, 2))

    @pytest.mark.parametrize(
        "g, cap, width",
        [
            (cycle_graph(8), 0, 1),
            (cycle_graph(8), 1, 2),
            (complete_graph(4), 3, 3),
            (complete_graph(5), 7, 4),
            (star_graph(8), None, 4),  # full cap 8: the centre's exponent fills the field
        ],
    )
    def test_matches_evaluation_through_unpack(self, g, cap, width):
        poly = full_expansion(g) if cap is None else expand_capped(g.edges, g.n, cap)
        assert poly.width == width and (cap == 0 or poly.num_terms() > 0)
        rng = random.Random(g.m)
        points = [[0] * g.n, [-1] * g.n, list(range(-3, g.n - 3)), [2] + [-1] * (g.n - 1)]
        points += [[rng.randint(-9, 9) for _ in range(g.n)] for _ in range(20)]
        for point in points:
            assert poly.evaluate(point) == evaluation_through_unpack(poly, point), point

    def test_empty_graph_is_one(self):
        poly = full_expansion(Graph(0, []))
        assert poly.nvars == 0 and poly.evaluate(()) == 1 == evaluation_through_unpack(poly, ())


class TestSparsePolynomial:
    def test_pack_inverts_unpack(self):
        poly = full_expansion(complete_graph(4))
        for key in poly.terms:
            assert poly.pack(poly.unpack(key)) == key
        assert poly.pack((1, 2, 0, 3)) + poly.pack((2, 0, 1, 0)) == poly.pack((3, 2, 1, 3))

