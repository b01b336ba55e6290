"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every check is exact (integer equality / boolean claims); there are no
tolerances to tune.  The campaign fixtures are session-scoped, so criteria
sharing a campaign share one run.
"""

import math
from collections import Counter
from itertools import permutations

from alontarsi import atn_from_polynomial, complete_graph, full_expansion


def _finish(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def _claims_ok(reports):
    return all(r["pass"] for r in reports)


def test_criterion_01_duality_all_orientations(duality_reports):
    """|coefficient at outdegree vector| = |even - odd| for every orientation
    of every graph with m <= 8 and no isolated vertices; exact."""
    census = [r for r in duality_reports if "/census/" in r["instance"]]
    by_m = Counter(len(r["values"]["graph"]["edges"]) for r in census)
    family_complete = dict(by_m) == {0: 1, 1: 1, 2: 2, 3: 5, 4: 11, 5: 26, 6: 68, 7: 177, 8: 497}
    orientations = sum(r["values"]["orientations"] for r in census)
    ok = _claims_ok(census) and len(census) == 788 and family_complete
    _finish(1, "duality-census", ok, f"{len(census)} graphs, {orientations} orientations")


def test_criterion_02_engine_agreement(duality_reports):
    """atn_from_polynomial = atn_from_orientations on all connected n <= 5."""
    engines = [r for r in duality_reports if "/engines/" in r["instance"]]
    ok = (
        len(engines) == 31
        and _claims_ok(engines)
        and all(r["claims"]["engines_agree"] is True for r in engines)
    )
    _finish(2, "engine-agreement", ok, f"{len(engines)} connected graphs")


def test_criterion_03_sandwich(sandwich_reports):
    """chi <= ch <= ATN on all graphs with n <= 5; no skips below n = 5."""
    ok = _claims_ok(sandwich_reports) and len(sandwich_reports) == 52
    skips_small = 0
    skips_total = 0
    for r in sandwich_reports:
        skipped = any(v == "SKIP" for v in r["claims"].values())
        skips_total += skipped
        if r["values"]["graph"]["n"] <= 4:
            skips_small += skipped
    ok = ok and skips_small == 0
    _finish(3, "sandwich", ok, f"52 graphs, {skips_total} skipped (0 below n=5)")


def test_criterion_04_line_graph_of_k4():
    """ATN(L(K4)) = 3 with the full factor-pair structure on K4."""
    from alontarsi.verify import run_campaign

    reports = run_campaign("thm1", overrides={"graphs": ["K4"]})
    r = reports[0]
    ok = (
        r["pass"]
        and r["values"]["atn_line"] == 3
        and r["claims"]["factor_structure"] is True
        and r["claims"]["pair_all_ones_monomial"] is True
        and r["values"]["statement_form_agrees"] is True
    )
    _finish(4, "thm1-k4", ok, "ATN(L(K4)) = 3, factor pairs 2-regular bipartite")


def test_criterion_05_line_graph_bound(thm2_reports):
    """ATN(L(G)) <= Delta + 1 for connected 1 <= m <= 6; equality on class 1."""
    # a report whose guard tripped holds "guard" in its values, and fails
    skipped = sum("guard" in r["values"] for r in thm2_reports)
    ok = len(thm2_reports) == 52 and not skipped and _claims_ok(thm2_reports)
    class1 = [r for r in thm2_reports if r["values"].get("class") == 1]
    ok = ok and all(
        r["claims"]["class1_atn_line_equals_delta"] is True for r in class1
    )
    _finish(5, "thm2-bound", ok, f"52 graphs, {len(class1)} class 1, {skipped} skipped")


def test_criterion_06_embedding_pipeline(thm2_reports):
    """Every class-1 graph of the embed family (n <= EMBED_MAX_N, m <=
    EMBED_MAX_EDGES) embeds in a Delta-regular host containing it, and every
    class-2 one has a class-1 augmentation; host factorizability is reported
    (a False would be a finding, not a test failure)."""
    from alontarsi.verify import EMBED_MAX_EDGES, EMBED_MAX_N

    # a report whose guard tripped holds "guard" in its values, and fails
    skipped = sum("guard" in r["values"] for r in thm2_reports)
    family = [
        r
        for r in thm2_reports
        if "class" in r["values"]
        and r["values"]["graph"]["n"] <= EMBED_MAX_N
        and len(r["values"]["graph"]["edges"]) <= EMBED_MAX_EDGES
    ]
    embeds = [r for r in family if r["values"]["class"] == 1]
    augments = [r for r in family if r["values"]["class"] == 2]
    ok = not skipped and len(embeds) > 0 and len(augments) > 0
    ok = ok and all("host" in r["values"] for r in embeds)
    ok = ok and all("attachment" in r["values"] for r in augments)
    findings = []
    for r in embeds:
        ok = ok and r["claims"]["host_regular"] is True
        ok = ok and r["claims"]["base_induced_in_host"] is True
        reported = r["values"].get("host_one_factorizable")
        ok = ok and reported in (True, False)
        if reported is False:
            findings.append(r["instance"])
    for r in augments:
        ok = ok and r["claims"]["augment_max_degree"] is True
        ok = ok and r["claims"]["augment_class1"] is True
    detail = f"{len(embeds)} embeddings, {len(augments)} augmentations, {skipped} skipped"
    if findings:
        detail += f"; findings: {findings}"
    _finish(6, "thm2-embeddings", ok, detail)


def test_criterion_07_total_graph_bound():
    """ATN(T(G)) <= Delta + 3 for K2, P3, P4, K3, C4, K1,3; exact values."""
    from alontarsi.verify import run_campaign

    reports = run_campaign("cor3")
    ok = len(reports) == 6 and _claims_ok(reports)
    values = ", ".join(
        f"{r['instance'].split('-')[-1]}={r['values']['atn_total']}" for r in reports
    )
    _finish(7, "cor3-total-graphs", ok, values)


def test_criterion_08_efl_catalog():
    """Every k <= 3 configuration satisfying caseA or caseB has ATN <= k,
    by both engines, over the full generated catalog."""
    from alontarsi.verify import run_campaign

    reports = run_campaign("thm4")
    ok = len(reports) == 8 and _claims_ok(reports)
    applicable = sum(1 for r in reports if r["values"]["applicable"])
    ok = ok and all(r["claims"]["engines_agree"] is True for r in reports)
    _finish(8, "thm4-efl", ok, f"8 configs, {applicable} applicable")


def test_criterion_09_vandermonde():
    """K_n expansion has n! monomials, all coefficients +-1, exponent vectors
    the permutations of (0..n-1), and ATN(K_n) = n, for n <= 5."""
    ok = True
    for n in range(1, 6):
        poly = full_expansion(complete_graph(n))
        terms = dict(poly.items())
        ok = ok and len(terms) == math.factorial(n)
        ok = ok and set(terms.keys()) == set(permutations(range(n)))
        ok = ok and set(map(abs, terms.values())) == {1}
        ok = ok and atn_from_polynomial(complete_graph(n))[0] == n
    _finish(9, "vandermonde", ok, "K_1 .. K_5")


def test_criterion_10_evaluation_oracle(duality_reports):
    """100 random-point evaluations match the direct edge product, exactly,
    for every graph with m <= 10 in the test family."""
    evals = [r for r in duality_reports if "/eval/" in r["instance"]]
    ok = len(evals) == 31 and _claims_ok(evals)
    ok = ok and all(r["values"]["points"] == 100 for r in evals)
    points = sum(r["values"]["points"] for r in evals)
    _finish(10, "evaluation-oracle", ok, f"{len(evals)} graphs, {points} points")
