"""Orientation census against a brute-force oracle, plus engine agreement."""

import random
from itertools import combinations, product

import pytest

from alontarsi import (
    Graph,
    Orientation,
    SizeGuardExceeded,
    atn_from_orientations,
    atn_from_polynomial,
    coefficient_of,
    complete_graph,
    connected_graphs,
    cycle_graph,
    enumerated_census,
    eulerian_census,
    graphs_with_edge_budget,
    line_graph,
    named_graph,
    orientation_census_table,
    path_graph,
    subdivision_graph,
    total_graph,
)
from alontarsi import orientations
from alontarsi.graphs import first_twins


def brute_census(orient):
    """Oracle: try all 2^m arc subsets, keep the balanced ones."""
    arcs = orient.arcs()
    n = orient.graph.n
    even = odd = 0
    for mask in range(1 << len(arcs)):
        bal = [0] * n
        for i, (t, h) in enumerate(arcs):
            if (mask >> i) & 1:
                bal[t] += 1
                bal[h] -= 1
        if all(b == 0 for b in bal):
            if bin(mask).count("1") % 2:
                odd += 1
            else:
                even += 1
    return even, odd


def vector_keyed_search(g):
    """Reference for atn_from_orientations: the same search, keyed on the
    outdegree vector itself, one census per vector.  Returns (atn, bits,
    (even, odd))."""
    m = g.m
    edges = g.edges
    out = [0] * g.n
    rem = list(g.degrees())
    best_value = m + 2
    best = None
    bits = [0] * m
    censused = set()

    def rec(i, partial_max):
        nonlocal best_value, best
        if partial_max >= best_value:
            return
        if i == m:
            key = tuple(out)
            if key in censused:
                return
            censused.add(key)
            census = eulerian_census(Orientation(g, tuple(bits)))
            if census.alon_tarsi:
                best_value = partial_max
                best = (partial_max + 1, tuple(bits), (census.even, census.odd))
            return
        cap = best_value - 1
        if sum(min(cap - o, r) for o, r in zip(out, rem)) < m - i:
            return
        u, v = edges[i]
        rem[u] -= 1
        rem[v] -= 1
        for b, tail in ((0, u), (1, v)):
            out[tail] += 1
            if out[tail] < best_value:
                bits[i] = b
                rec(i + 1, max(partial_max, out[tail]))
            out[tail] -= 1
        rem[u] += 1
        rem[v] += 1
        bits[i] = 0

    rec(0, 0)
    return best


def grid_graph(rows, cols):
    def idx(i, j):
        return i * cols + j

    edges = [(idx(i, j), idx(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(idx(i, j), idx(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return Graph(rows * cols, edges)


def cube_graph(d):
    return Graph(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1])


def is_bipartite(g):
    side = [None] * g.n
    adj = g.adjacency()
    for root in range(g.n):
        if side[root] is not None:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if side[y] is None:
                    side[y] = 1 - side[x]
                    stack.append(y)
                elif side[y] == side[x]:
                    return False
    return True


def density_bound(g):
    """1 + ceil(max m_H / n_H) over induced subgraphs H, by brute force over
    vertex subsets.  Hakimi (1965): the least maximum outdegree over all
    orientations is ceil(max m_H / n_H), so this is a lower bound on ATN, and
    equals it on bipartite graphs, where every orientation is Alon-Tarsi
    because every Eulerian subdigraph has an even number of arcs."""
    best_m, best_n = 0, 1
    for mask in range(1, 1 << g.n):
        mh = sum(1 for u, v in g.edges if mask >> u & 1 and mask >> v & 1)
        nh = mask.bit_count()
        if mh * best_n > best_m * nh:
            best_m, best_n = mh, nh
    return 1 - (-best_m // best_n)


def degeneracy(g):
    adj = [set(s) for s in g.adjacency()]
    alive = set(range(g.n))
    worst = 0
    while alive:
        v = min(alive, key=lambda x: len(adj[x]))
        worst = max(worst, len(adj[v]))
        alive.discard(v)
        for w in adj[v]:
            adj[w].discard(v)
    return worst


# name -> (graph, whether the orientation engine also runs: K5,5 and the
# 4x4 grid exceed its 22-edge guard)
BIPARTITE = {
    "K3,3": (named_graph("K3,3"), True),
    "K4,4": (named_graph("K4,4"), True),
    "K2,6": (named_graph("K2,6"), True),
    "Q3": (cube_graph(3), True),
    "grid3x4": (grid_graph(3, 4), True),
    "S(K4)": (subdivision_graph(complete_graph(4)), True),
    "C8": (cycle_graph(8), True),
    "K5,5": (named_graph("K5,5"), False),
    "grid4x4": (grid_graph(4, 4), False),
    "S(K5)": (subdivision_graph(complete_graph(5)), True),
}

# 8 vertices, 22 edges, few twins: ATN 6 with a clique on 6 vertices
FEW_TWINS_22 = Graph(8, [
    (0, 1), (0, 3), (0, 4), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    (2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
])

# three K4s sharing vertex 0: 10 vertices, 18 edges, three twin triples
THREE_K4S = Graph(10, [
    e for block in [(0, 1, 2, 3), (0, 4, 5, 6), (0, 7, 8, 9)] for e in combinations(block, 2)
])

CYCLIC_K3 = (0, 1, 0)  # 0->1->2->0 over edges (0,1),(0,2),(1,2)
CYCLIC_C4 = (0, 1, 0, 0)  # 0->1->2->3->0 over edges (0,1),(0,3),(1,2),(2,3)


class TestOrientationType:
    def test_arcs_and_outdegrees(self):
        o = Orientation(complete_graph(3), CYCLIC_K3)
        assert o.arcs() == ((0, 1), (2, 0), (1, 2))
        assert o.outdegrees() == (1, 1, 1)

    def test_int_round_trip(self):
        g = complete_graph(4)
        for value in (0, 5, 63):
            assert Orientation.from_int(g, value).to_int() == value

    def test_hex(self):
        assert Orientation.from_int(complete_graph(4), 12).bits_hex() == "0xc"

    @pytest.mark.parametrize("value", [-1, 8, 0xFF])
    def test_from_int_out_of_range(self, value):
        with pytest.raises(ValueError):
            Orientation.from_int(complete_graph(3), value)

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            Orientation(complete_graph(3), (0, 1))


class TestEulerianCensus:
    def test_acyclic_only_empty(self):
        for g in [complete_graph(4), path_graph(4), cycle_graph(5)]:
            census = eulerian_census(Orientation.from_int(g, 0))
            assert (census.even, census.odd) == (1, 0)

    def test_cyclic_triangle(self):
        census = eulerian_census(Orientation(complete_graph(3), CYCLIC_K3))
        assert (census.even, census.odd) == (1, 1)

    def test_cyclic_c4(self):
        census = eulerian_census(Orientation(cycle_graph(4), CYCLIC_C4))
        assert (census.even, census.odd) == (2, 0)

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(3),
            cycle_graph(4),
            complete_graph(4),
            named_graph("paw"),
            named_graph("K2,3"),
        ],
    )
    def test_matches_brute_force_on_all_orientations(self, g):
        for value in range(1 << g.m):
            o = Orientation.from_int(g, value)
            census = eulerian_census(o)
            assert (census.even, census.odd) == brute_census(o)

    def test_empty_graph(self):
        census = eulerian_census(Orientation(Graph(0, []), ()))
        assert (census.even, census.odd) == (1, 0)

    def test_guard(self):
        g = complete_graph(7)
        with pytest.raises(SizeGuardExceeded):
            eulerian_census(Orientation.from_int(g, 0), max_edges=20)

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError, match="edge guard must be non-negative, got -1"):
            eulerian_census(Orientation.from_int(complete_graph(2), 0), max_edges=-1)


class TestFrontierCensus:
    """The walk's census, eulerian_census, against both naive routes."""

    def test_matches_census_table_exhaustively(self):
        seen = 0
        for g in graphs_with_edge_budget(7):
            even, odd = orientation_census_table(g)
            for value in range(1 << g.m):
                census = eulerian_census(Orientation.from_int(g, value))
                assert (census.even, census.odd) == (even[value], odd[value]), (g.edges, value)
                seen += 1
        assert seen == 28067

    def test_matches_recursive_census_exhaustively(self):
        seen = 0
        for g in graphs_with_edge_budget(6):
            for value in range(1 << g.m):
                o = Orientation.from_int(g, value)
                assert eulerian_census(o) == enumerated_census(o), (g.edges, value)
                seen += 1
        assert seen == 5411

    def test_naive_census_keeps_the_guard(self):
        with pytest.raises(SizeGuardExceeded, match="census guard: m=21 > 20"):
            enumerated_census(Orientation.from_int(complete_graph(7), 0), max_edges=20)
        with pytest.raises(ValueError, match="edge guard must be non-negative, got -1"):
            enumerated_census(Orientation.from_int(complete_graph(2), 0), max_edges=-1)

    @pytest.mark.parametrize(
        "g, max_edges, atn, bits, census",
        [
            # values from the walk with enumerated_census as its census
            (total_graph(complete_graph(4)), 30, 5, "0x4000430", (670, 668)),
            (line_graph(cube_graph(3)), 24, 3, "0x8dac4c", (288, 312)),
        ],
        ids=["T(K4)", "L(Q3)"],
    )
    def test_walk_past_the_guard(self, g, max_edges, atn, bits, census):
        value, cert = atn_from_orientations(g, max_edges=max_edges)
        got = (value, cert.orientation.bits_hex(), (cert.census.even, cert.census.odd))
        assert got == (atn, bits, census)


class TestAlonTarsi:
    def test_acyclic_is_alon_tarsi(self):
        for g in [complete_graph(4), cycle_graph(5)]:
            assert eulerian_census(Orientation.from_int(g, 0)).alon_tarsi

    def test_cyclic_triangle_is_not(self):
        assert not eulerian_census(Orientation(complete_graph(3), CYCLIC_K3)).alon_tarsi

    def test_cyclic_c4_is(self):
        assert eulerian_census(Orientation(cycle_graph(4), CYCLIC_C4)).alon_tarsi


class TestOutdegreeLemma:
    def test_difference_depends_only_on_outdegrees(self):
        # Alon & Tarsi 1992: orientations with one outdegree vector differ on
        # an Eulerian subdigraph, so |even - odd| is shared.  The orientation
        # search skips repeated vectors on the strength of this.
        graphs = graphs_with_edge_budget(8)
        seen = 0
        for g in graphs:
            first = {}
            for value in range(1 << g.m):
                o = Orientation.from_int(g, value)
                diff = eulerian_census(o).difference
                assert first.setdefault(o.outdegrees(), diff) == diff, (g.edges, value)
                seen += 1
        assert (len(graphs), seen) == (788, 155299)


def swap_twins(o, u, w):
    """The image of orientation o under the vertex swap u <-> w, which must
    be an automorphism of o's graph."""
    g = o.graph
    sigma = list(range(g.n))
    sigma[u], sigma[w] = w, u
    index = {e: i for i, e in enumerate(g.edges)}
    bits = [0] * g.m
    for t, h in o.arcs():
        t, h = sigma[t], sigma[h]
        bits[index[min(t, h), max(t, h)]] = int(t > h)
    return Orientation(g, tuple(bits))


class TestTwinSwapInvariance:
    def test_twin_swap_keeps_census(self):
        # swapping twins is an automorphism, so it carries the Eulerian
        # subdigraphs of an orientation one-to-one onto those of its image,
        # arc counts kept; the orientation search keys on twin orbits of
        # outdegree vectors on the strength of this
        graphs = graphs_with_edge_budget(6)
        pairs = orientations_seen = 0
        for g in graphs:
            first = first_twins(g.adjacency())
            twins = [(u, w) for u, w in combinations(range(g.n), 2) if first[u] == first[w]]
            pairs += len(twins)
            for u, w in twins:
                for value in range(1 << g.m):
                    o = Orientation.from_int(g, value)
                    image = swap_twins(o, u, w)
                    out = list(o.outdegrees())
                    out[u], out[w] = out[w], out[u]
                    assert image.outdegrees() == tuple(out)
                    a, b = eulerian_census(o), eulerian_census(image)
                    assert (a.even, a.odd) == (b.even, b.odd), (g.edges, u, w, value)
                    orientations_seen += 1
        assert (len(graphs), pairs, orientations_seen) == (114, 311, 15462)


class TestAtnFromOrientations:
    def test_k2(self):
        value, cert = atn_from_orientations(complete_graph(2))
        assert value == 2 and max(Orientation(complete_graph(2), cert.orientation.bits).outdegrees()) == 1

    def test_c4_via_cyclic(self):
        value, cert = atn_from_orientations(cycle_graph(4))
        assert value == 2
        census = eulerian_census(Orientation(cycle_graph(4), cert.orientation.bits))
        assert census.alon_tarsi

    def test_k3_needs_three(self):
        # both cyclic orientations have balanced censuses; acyclics reach
        # outdegree 2, so the optimum is 2 and the number is 3
        value, _ = atn_from_orientations(complete_graph(3))
        assert value == 3

    def test_edgeless(self):
        value, cert = atn_from_orientations(Graph(4, []))
        assert value == 1 and cert.orientation.bits == ()

    def test_certificate_is_first_in_bit_order(self):
        # lexicographic over the bit tuple, edge 0 first: the order of
        # itertools.product, which differs from integer order (P3 gives 0x2)
        for g in graphs_with_edge_budget(7):
            want = None
            for bits in product((0, 1), repeat=g.m):
                o = Orientation(g, bits)
                top = max(o.outdegrees(), default=0)
                if (want is None or top < want[0]) and enumerated_census(o).alon_tarsi:
                    want = (top, bits)
            value, cert = atn_from_orientations(g)
            assert (value, cert.orientation.bits) == (want[0] + 1, want[1]), g.edges

    @pytest.fixture
    def census_calls(self, monkeypatch):
        """One entry per eulerian_census call the search makes."""
        calls = []
        census_fn = orientations.eulerian_census

        def counted(*args, **kwargs):
            calls.append(None)
            return census_fn(*args, **kwargs)

        monkeypatch.setattr(orientations, "eulerian_census", counted)
        return calls

    @pytest.mark.parametrize(
        "g, atn, censuses, bits, census",
        [
            # the acyclic first leaf meets the clique bound and ends the walk
            (complete_graph(5), 5, 1, "0x0", (1, 0)),
            (complete_graph(6), 6, 1, "0x0", (1, 0)),
            (complete_graph(7), 7, 1, "0x0", (1, 0)),
            (total_graph(cycle_graph(5)), 4, 3, "0x8", (3, 2)),
            # the clique bound (2) is not tight, so the walk runs until the
            # all-2 census; it takes 3 censuses with or without the twin-orbit key
            (named_graph("K4,4"), 3, 3, "0x33cc", (90, 0)),
            # few twins: 1,936 censuses without the clique bound
            (FEW_TWINS_22, 6, 2, "0x400", (9, 8)),
            # the twin-orbit key: 71 censuses without it
            (THREE_K4S, 4, 19, "0x1f8", (1, 0)),
        ],
        ids=["K5", "K6", "K7", "T(C5)", "K4,4", "22-edge", "3K4-at-a-vertex"],
    )
    def test_one_census_per_outdegree_vector(self, g, atn, censuses, bits, census, census_calls):
        value, cert = atn_from_orientations(g)
        assert value == atn
        assert len(census_calls) == censuses
        assert cert.orientation.bits_hex() == bits
        assert (cert.census.even, cert.census.odd) == census

    @pytest.mark.parametrize(
        "g", [total_graph(cycle_graph(5)), named_graph("K4,4")], ids=["T(C5)", "K4,4"]
    )
    def test_all_balanced_vector_ends_the_walk(self, g, monkeypatch):
        # the clique bound is tight on neither, so only the stop after the
        # all-(m/n) census ends the walk early
        raised = []

        class Counted(orientations._Optimal):
            def __init__(self, *args):
                raised.append(None)
                super().__init__(*args)

        monkeypatch.setattr(orientations, "_Optimal", Counted)
        atn_from_orientations(g)
        assert len(raised) == 1

    def test_clique_bound_ends_the_walk_past_the_guard(self, census_calls):
        value, cert = atn_from_orientations(complete_graph(9), max_edges=36)
        assert (value, cert.orientation.bits_hex()) == (9, "0x0")
        assert len(census_calls) == 1

    def test_non_clique_from_the_finder_fails_loudly(self, monkeypatch):
        # C5 has no triangle; a finder that claims one would stop the walk
        # at maximum outdegree 2 if the search trusted it
        monkeypatch.setattr(orientations, "max_clique", lambda g: (0, 1, 2))
        with pytest.raises(AssertionError, match="non-clique"):
            atn_from_orientations(cycle_graph(5))

    def test_certificates_match_vector_keyed_search(self):
        # a walk memo keyed on the twin orbit of the partial outdegree vector
        # is unsound, and it shows only under some labellings, such as the
        # five-vertex graph (0,1),(0,2),(0,3),(0,4),(1,2),(1,4),(2,4); so the
        # families also run under one seeded relabelling each, and every
        # labelled graph on five vertices with at most 8 edges runs too
        graphs = list(graphs_with_edge_budget(8))
        graphs += [g for g in connected_graphs(15, max_vertices=6) if g.n == 6]
        # K4,4, T(C5) and cycles such as C8 have an integer m/n, so the stop
        # after the all-(m/n) census runs against the reference too
        graphs += [named_graph("K3,3"), named_graph("K4,4"), total_graph(cycle_graph(5))]
        rng = random.Random(2026)
        graphs += [g.relabel(rng.sample(range(g.n), g.n)) for g in graphs]
        pairs = list(combinations(range(5), 2))
        graphs += [Graph(5, s) for k in range(9) for s in combinations(pairs, k)]
        graphs += [complete_graph(5), complete_graph(6)]  # fixed by every relabelling
        for g in graphs:
            atn, cert = atn_from_orientations(g)
            got = (atn, cert.orientation.bits, (cert.census.even, cert.census.odd))
            assert got == vector_keyed_search(g), g.edges

    def test_four_disjoint_k4s_past_the_guard(self):
        value, _ = atn_from_orientations(named_graph("4K4"), max_edges=24)
        assert value == 4

    def test_orientation_json(self):
        _, cert = atn_from_orientations(cycle_graph(4))
        obj = cert.to_json_obj()
        assert obj["kind"] == "orientation" and obj["atn"] == 2
        assert set(obj) == {"kind", "atn", "bits", "arcs", "census"}

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            atn_from_orientations(complete_graph(7), max_edges=20)

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError, match="edge guard must be non-negative, got -1"):
            atn_from_orientations(complete_graph(2), max_edges=-1)


class TestDuality:
    """|coefficient of x^outdeg(D)| = |EE(D) - EO(D)| for every orientation D."""

    def test_spec_instances(self):
        for d in (
            Orientation(complete_graph(3), CYCLIC_K3),
            Orientation(cycle_graph(4), CYCLIC_C4),
            Orientation.from_int(complete_graph(3), 0),
        ):
            assert abs(coefficient_of(d.graph, d.outdegrees())) == eulerian_census(d).difference

    def test_exhaustive_small(self):
        for g in graphs_with_edge_budget(4):
            for value in range(1 << g.m):
                d = Orientation.from_int(g, value)
                assert abs(coefficient_of(g, d.outdegrees())) == eulerian_census(d).difference


class TestCensusTable:
    @pytest.mark.parametrize("max_edges", [7])
    def test_matches_recursive_census_exhaustively(self, max_edges):
        for g in graphs_with_edge_budget(max_edges):
            even, odd = orientation_census_table(g)
            for value in range(1 << g.m):
                census = enumerated_census(Orientation.from_int(g, value))
                assert (census.even, census.odd) == (even[value], odd[value]), (
                    g.edges,
                    value,
                )

    def test_arc_reversal_preserves_difference(self):
        for g in graphs_with_edge_budget(5):
            even, odd = orientation_census_table(g)
            full = (1 << g.m) - 1
            for value in range(1 << g.m):
                assert abs(even[value] - odd[value]) == abs(
                    even[full ^ value] - odd[full ^ value]
                )

    @pytest.mark.parametrize("name", ["Petersen", "K3,5", "K4,4"])
    def test_large_graphs_on_seeded_orientations(self, name):
        g = named_graph(name)
        even, odd = orientation_census_table(g)
        rng = random.Random(12)
        for _ in range(64):
            orient = Orientation.from_int(g, rng.getrandbits(g.m))
            value = orient.to_int()
            census = enumerated_census(orient)
            assert (census.even, census.odd) == (even[value], odd[value]), value
            coeff = coefficient_of(g, orient.outdegrees())
            assert abs(even[value] - odd[value]) == abs(coeff), value

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(orientations, "CENSUS_TABLE_GUARD", 10)
        assert len(orientation_census_table(path_graph(11))[0]) == 1 << 10
        with pytest.raises(SizeGuardExceeded, match="census table guard: m=21 > 10"):
            orientation_census_table(complete_graph(7))

    def test_guard_boundary_at_default(self):
        """A tree has only the empty Eulerian subdigraph, in every orientation."""
        assert orientation_census_table(path_graph(17)) == ([1] * (1 << 16), [0] * (1 << 16))
        with pytest.raises(SizeGuardExceeded):
            orientation_census_table(path_graph(18))


class TestEngineAgreement:
    def test_connected_up_to_4_vertices(self):
        for g in connected_graphs(6, max_vertices=4):
            assert atn_from_polynomial(g)[0] == atn_from_orientations(g)[0]

    def test_connected_on_6_vertices(self):
        graphs = [g for g in connected_graphs(15, max_vertices=6) if g.n == 6]
        assert len(graphs) == 112
        for g in graphs:
            assert atn_from_polynomial(g)[0] == atn_from_orientations(g)[0], g.edges

    def test_named_instances(self):
        for name in ["K4", "C5", "K2,3", "paw", "diamond", "bull"]:
            g = named_graph(name)
            assert atn_from_polynomial(g)[0] == atn_from_orientations(g)[0]

    def test_beyond_five_vertices(self):
        prism = Graph(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
        )
        for g in [named_graph("K3,3"), named_graph("C7"), named_graph("2K3"), prism]:
            assert atn_from_polynomial(g)[0] == atn_from_orientations(g)[0]

    @pytest.mark.parametrize("name", BIPARTITE)
    def test_bipartite_closed_form(self, name):
        g, both = BIPARTITE[name]
        assert is_bipartite(g)
        want = density_bound(g)
        assert atn_from_polynomial(g)[0] == want
        if both:
            assert atn_from_orientations(g)[0] == want

    def test_complete_graphs(self):
        for n in range(1, 8):
            assert atn_from_polynomial(complete_graph(n))[0] == n
        for n in range(1, 7):
            assert atn_from_orientations(complete_graph(n))[0] == n

    def test_cycles(self):
        for n in range(3, 12):
            want = 3 if n % 2 else 2
            g = cycle_graph(n)
            assert atn_from_polynomial(g)[0] == want == atn_from_orientations(g)[0], n

    def test_density_and_degeneracy_bounds(self):
        graphs = [g for g in connected_graphs(7) if g.m >= 1]
        assert len(graphs) == 131
        for g in graphs:
            atn_p, atn_o = atn_from_polynomial(g)[0], atn_from_orientations(g)[0]
            assert atn_p == atn_o, g.edges
            assert density_bound(g) <= atn_p <= degeneracy(g) + 1, g.edges

    def test_seeded_random_graphs(self):
        # m stays at most 15: some 20-edge instances take seconds each
        rng = random.Random(2026)
        for _ in range(200):
            n = rng.randint(2, 8)
            pairs = list(combinations(range(n), 2))
            g = Graph(n, rng.sample(pairs, rng.randint(0, min(15, len(pairs)))))
            atn_p, cert_p = atn_from_polynomial(g)
            atn_o, cert_o = atn_from_orientations(g)
            assert atn_p == atn_o, (n, g.edges)
            assert coefficient_of(g, cert_p.exponents) == cert_p.coefficient, g.edges
            assert enumerated_census(cert_o.orientation) == cert_o.census, g.edges

    def test_petersen_polynomial_route(self):
        value, cert = atn_from_polynomial(named_graph("petersen"))
        assert value == 3
        assert max(cert.exponents) == 2
