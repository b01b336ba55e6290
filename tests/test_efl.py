"""Clique configurations: validation, decomposition, generation, certification."""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from alontarsi import (
    EflConfig,
    InvalidConfig,
    SizeGuardExceeded,
    atn_from_polynomial,
    build_graph,
    canonical_config_key,
    canonical_key,
    chromatic_number,
    clique_degrees,
    contact_vertices,
    decompose,
    full_expansion,
    generate_all,
    hypothesis_check,
    named_graph,
    path_graph,
    run_campaign,
    star_graph,
    theorem4_certify,
)

SUNFLOWER = EflConfig(3, ((0, 1, 2), (0, 3, 4), (0, 5, 6)))
TRI_OF_TRI = EflConfig(3, ((0, 1, 2), (0, 3, 4), (1, 3, 5)))
DISJOINT3 = EflConfig(3, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))


class TestConfigValidation:
    def test_wrong_clique_count(self):
        with pytest.raises(InvalidConfig):
            EflConfig(3, ((0, 1, 2), (3, 4, 5)))

    def test_wrong_clique_size(self):
        with pytest.raises(InvalidConfig):
            EflConfig(3, ((0, 1), (2, 3, 4), (5, 6, 7)))

    def test_intersection_too_large(self):
        with pytest.raises(InvalidConfig):
            EflConfig(3, ((0, 1, 2), (0, 1, 3), (4, 5, 6)))

    def test_vertex_gap(self):
        with pytest.raises(InvalidConfig):
            EflConfig(2, ((0, 1), (3, 4)))

    def test_json_round_trip(self):
        obj = TRI_OF_TRI.to_json_obj()
        assert obj == {"k": 3, "cliques": [[0, 1, 2], [0, 3, 4], [1, 3, 5]]}
        assert EflConfig.from_json_obj(obj) == TRI_OF_TRI


class TestBuildGraph:
    def test_two_disjoint_edges(self):
        g = build_graph(EflConfig(2, ((0, 1), (2, 3))))
        assert canonical_key(g) == canonical_key(named_graph("2K2"))

    def test_two_sharing_edges_give_p3(self):
        g = build_graph(EflConfig(2, ((0, 1), (1, 2))))
        assert canonical_key(g) == canonical_key(path_graph(3))

    def test_triangle_of_triangles_counts(self):
        g = build_graph(TRI_OF_TRI)
        assert (g.n, g.m) == (6, 9)

    def test_edge_count_always_full(self):
        for k in (1, 2, 3):
            for cfg in generate_all(k):
                g = build_graph(cfg)
                assert g.m == k * (k * (k - 1) // 2)


class TestDecompose:
    def test_disjoint_cliques(self):
        dec = decompose(DISJOINT3)
        assert dec.contact_vertices == ()
        assert dec.c_edges == () and dec.connectors == ()
        assert len(dec.d_components) == 3
        # remnants of order k are flagged, not forced into the k-1 claim
        assert len(dec.oversized_components) == 3

    def test_triangle_of_triangles(self):
        dec = decompose(TRI_OF_TRI)
        assert dec.contact_vertices == (0, 1, 3)
        assert len(dec.c_edges) == 3  # contacts induce a triangle
        assert sorted(len(c) for c in dec.d_components) == [1, 1, 1]
        assert len(dec.connectors) == 6
        assert dec.oversized_components == ()

    def test_sunflower(self):
        dec = decompose(SUNFLOWER)
        assert dec.contact_vertices == (0,)
        assert dec.c_edges == ()
        assert sorted(len(c) for c in dec.d_components) == [2, 2, 2]
        assert len(dec.d_edges) == 3

    def test_partitions_edge_set(self):
        for k in (1, 2, 3):
            for cfg in generate_all(k):
                g = build_graph(cfg)
                dec = decompose(cfg)
                buckets = list(dec.c_edges) + list(dec.d_edges) + list(dec.connectors)
                assert sorted(buckets) == list(g.edges)

    def test_d_components_complete_of_bounded_order(self):
        for cfg in generate_all(3):
            dec = decompose(cfg)
            for comp in dec.d_components:
                if comp not in dec.oversized_components:
                    assert len(comp) <= cfg.k - 1


class TestHypothesisCheck:
    def test_sunflower(self):
        cases = hypothesis_check(SUNFLOWER)
        assert cases == {"caseA": True, "caseB": False}

    def test_triangle_of_triangles(self):
        cases = hypothesis_check(TRI_OF_TRI)
        assert cases == {"caseA": True, "caseB": True}

    def test_disjoint(self):
        cases = hypothesis_check(DISJOINT3)
        assert cases == {"caseA": True, "caseB": True}

    def test_clique_degrees(self):
        assert clique_degrees(SUNFLOWER) == (3, 1, 1, 1, 1, 1, 1)
        assert contact_vertices(SUNFLOWER) == (0,)


def configs_isomorphic(a, b):
    """Backtracking hypergraph matcher, independent of canonical_config_key."""
    if sorted(map(sorted, a)) == sorted(map(sorted, b)):
        return True

    def clique_degree_sequence(cliques):
        return sorted(Counter(v for c in cliques for v in c).values())

    if clique_degree_sequence(a) != clique_degree_sequence(b):
        return False

    def backtrack(order, mapping, free):
        # map the next clique of a onto a free clique of b, extending the
        # vertex map injectively
        if not order:
            return True
        clique = order[0]
        loose = sorted(v for v in clique if v not in mapping)
        used = set(mapping.values())
        for target in free:
            if any(mapping[v] not in target for v in clique if v in mapping):
                continue
            spare = [w for w in target if w not in used]
            if len(spare) != len(loose):
                continue
            for image in permutations(spare):
                trial = {**mapping, **dict(zip(loose, image))}
                if backtrack(order[1:], trial, free - {target}):
                    return True
        return False

    return backtrack([frozenset(c) for c in a], {}, frozenset(map(frozenset, b)))


def independent_recount(k):
    """Second enumeration route: exhaustive labeled configs over a fixed
    ground set, deduplicated by a backtracking hypergraph matcher."""
    ground = range(k * k)
    all_cliques = list(combinations(ground, k))
    first = tuple(range(k))
    found = []
    for rest in combinations([c for c in all_cliques if c != first], k - 1):
        # every class has a representative whose first clique is 0..k-1
        chosen = (first,) + rest
        if any(
            len(set(a) & set(b)) > 1 for a, b in combinations(chosen, 2)
        ):
            continue
        used = sorted({v for c in chosen for v in c})
        remap = {v: i for i, v in enumerate(used)}
        normal = tuple(tuple(sorted(remap[v] for v in c)) for c in chosen)
        if not any(configs_isomorphic(normal, seen) for seen in found):
            found.append(normal)
    return len(found)


class TestGenerateAll:
    def test_k1(self):
        assert len(generate_all(1)) == 1

    def test_k2(self):
        cfgs = generate_all(2)
        assert len(cfgs) == 2
        graphs = {canonical_key(build_graph(c)) for c in cfgs}
        assert graphs == {
            canonical_key(named_graph("2K2")),
            canonical_key(path_graph(3)),
        }

    def test_k3_frozen_count(self):
        # regression value, confirmed by the independent recount below
        assert len(generate_all(3)) == 5

    @pytest.mark.parametrize("k", [1, 2])
    def test_independent_recount_small(self, k):
        assert independent_recount(k) == len(generate_all(k))

    def test_independent_recount_k3(self):
        assert independent_recount(3) == 5

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            generate_all(6)

    def test_all_valid(self):
        for k in (1, 2, 3):
            for cfg in generate_all(k):
                assert len(cfg.cliques) == k
                for a, b in combinations(cfg.cliques, 2):
                    assert len(set(a) & set(b)) <= 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pinned_cliques_and_order(self, k):
        # thm4 numbers its instances in this order
        assert [cfg.cliques for cfg in generate_all(k)] == GENERATED[k]


GENERATED = {
    1: [((0,),)],
    2: [((0, 1), (0, 2)), ((0, 1), (2, 3))],
    3: [
        ((0, 1, 2), (0, 3, 4), (0, 5, 6)),
        ((0, 1, 2), (0, 3, 4), (1, 3, 5)),
        ((0, 1, 2), (3, 4, 5), (0, 3, 6)),
        ((0, 1, 2), (3, 4, 5), (0, 6, 7)),
        ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
    ],
}


@pytest.fixture(scope="module")
def k4_configs():
    return generate_all(4)


class TestGenerateK4:
    def test_count(self, k4_configs):
        assert len(k4_configs) == 16

    def test_pairwise_non_isomorphic(self, k4_configs):
        for a, b in combinations(k4_configs, 2):
            assert not configs_isomorphic(a.cliques, b.cliques)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_key_ignores_relabeling_and_clique_order(self, k4_configs, seed):
        rng = random.Random(seed)
        for cfg in k4_configs:
            perm = list(range(cfg.n))
            rng.shuffle(perm)
            cliques = [tuple(perm[v] for v in c) for c in cfg.cliques]
            rng.shuffle(cliques)
            moved = EflConfig(4, tuple(cliques))
            assert configs_isomorphic(moved.cliques, cfg.cliques)
            assert canonical_config_key(moved) == canonical_config_key(cfg)

    def test_atn_is_k_and_hypothesis_applies(self, k4_configs):
        for cfg in k4_configs:
            assert atn_from_polynomial(build_graph(cfg))[0] == 4
            assert any(hypothesis_check(cfg).values())

    def test_campaign_skips_only_the_orientation_engine(self):
        reports = run_campaign("thm4", {"max_k": 4})
        assert len(reports) == 24
        assert [r["instance"] for r in reports[8:]] == [f"thm4/k4-{j:03d}" for j in range(16)]
        for rep in reports[8:]:
            assert rep["claims"] == {"engines_agree": "SKIP", "conclusion_holds": True}
            assert rep["pass"] and rep["values"]["atn"] == 4
        default = [{k: v for k, v in r.items() if k != "wall_ms"} for r in run_campaign("thm4")]
        assert [{k: v for k, v in r.items() if k != "wall_ms"} for r in reports[:8]] == default


class TestCanonicalConfigKey:
    def test_relabel_invariance(self):
        perm = {0: 4, 1: 0, 2: 5, 3: 1, 4: 2, 5: 3}
        relabeled = EflConfig(
            3, tuple(tuple(perm[v] for v in c) for c in TRI_OF_TRI.cliques)
        )
        assert canonical_config_key(relabeled) == canonical_config_key(TRI_OF_TRI)

    def test_separates_classes(self):
        keys = {canonical_config_key(c) for c in generate_all(3)}
        assert len(keys) == 5


class TestStarMonomials:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_center_exponent_spread(self, r):
        # the star's expansion has, for each j in 0..r, a monomial where the
        # center carries exponent j
        poly = full_expansion(star_graph(r))
        center_exponents = {exps[0] for exps, _ in poly.items()}
        assert center_exponents == set(range(r + 1))


class TestCertify:
    def test_p3_config(self):
        rep = theorem4_certify(EflConfig(2, ((0, 1), (1, 2))))
        assert rep["atn"] == 2 and rep["atn_le_k"]
        assert rep["engines_agree"] and rep["conclusion_holds"]

    def test_triangle_of_triangles(self):
        rep = theorem4_certify(TRI_OF_TRI)
        assert rep["atn"] <= 3 and rep["conclusion_holds"]

    def test_sunflower_atn_exactly_3(self):
        rep = theorem4_certify(SUNFLOWER)
        assert rep["atn"] == 3
        # lower bound: the configuration contains a triangle
        assert chromatic_number(build_graph(SUNFLOWER)) == 3

    def test_report_fields(self):
        rep = theorem4_certify(DISJOINT3)
        assert set(rep) >= {
            "config",
            "atn",
            "engines_agree",
            "caseA",
            "caseB",
            "applicable",
            "atn_le_k",
            "conclusion_holds",
            "certificate",
        }
        assert rep["oversized_d_components"]
