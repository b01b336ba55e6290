"""Verification campaigns: enumerate an instance family, run every claim on
every instance, and stream one report per instance.

A report is a plain dict: campaign, instance id, claims (each True, False, or
"SKIP" when a guard blocked the computation), values for human inspection,
and wall time.  A campaign passes when no claim is False; a guarded skip is
reported, never silently dropped, and never counted as a pass of anything.

Each campaign is one entry in _REGISTRY: its default config and the builder
of its instance family.  Config keys pick the instances or are set by a
verify flag; guards are module constants, each written once.  The builder
reads the config and puts what a worker needs into the worker's payload.
Reports are JSON-lines with sorted keys: byte-identical across runs except
for the wall-time field.  Adding a campaign means one registry entry.
"""

from __future__ import annotations

import copy
import json
import random
import time
from itertools import repeat
from operator import sub

from .canon import all_graphs, connected_graphs, graphs_with_edge_budget
from .coloring import chromatic_number, choice_number
from .efl import generate_up_to, theorem4_certify
from .errors import SizeGuardExceeded
from .graphs import (
    Graph,
    chromatic_index_class,
    class2_augment,
    line_graph,
    named_graph,
    one_factorization,
    regular_embed_class1,
    subdivision_graph,
    total_graph,
)
from .orientations import (
    atn_from_orientations,
    eulerian_census,
    orientation_census_table,
)
from .polynomials import (
    atn_from_polynomial,
    coefficient_of,
    full_expansion,
)


def report_line(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def report_passed(report: dict) -> bool:
    return all(v is not False for v in report["claims"].values())


def campaign_passed(reports: list[dict]) -> bool:
    return all(report_passed(r) for r in reports)


def _graph_descriptor(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


# ---------------------------------------------------------------------------
# per-instance workers: each takes the report's claims and values dicts plus
# its payload's arguments, and writes each claim and value once it is decided
# ---------------------------------------------------------------------------


def _run_thm1(claims: dict, values: dict, gname: str) -> None:
    g = named_graph(gname)
    values.update(graph=_graph_descriptor(g), delta=g.max_degree())
    factorization = None
    if g.is_regular() and g.n % 2 == 0:
        factorization = one_factorization(g)
    # Delta = 0 lies outside the theorem: the null line graph has ATN 1
    applicable = factorization is not None and g.n % 4 == 0 and g.m > 0
    values["applicable"] = applicable
    if not applicable:
        claims["factor_structure"] = "SKIP"
        claims["atn_line_equals_delta"] = "SKIP"
        return
    d = g.max_degree()
    lg = line_graph(g)
    classes = [sorted(map(g.edges.index, factor)) for factor in factorization.factors]
    ladj = lg.adjacency()
    ok_structure = factorization.validate(g)
    for cls in classes:
        if len(cls) != g.n // 2:
            ok_structure = False
        if any(b in ladj[a] for a in cls for b in cls):
            ok_structure = False
    pair_all_ones = True
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            pair, remap = lg.induced(classes[i] + classes[j])
            if set(pair.degrees()) != {2}:
                ok_structure = False
            left = {remap[v] for v in classes[i]}
            if any((u in left) == (v in left) for u, v in pair.edges):
                ok_structure = False
            if coefficient_of(pair, (1,) * pair.n) == 0:
                pair_all_ones = False
    claims["factor_structure"] = ok_structure
    claims["pair_all_ones_monomial"] = pair_all_ones
    atn_p, cert = atn_from_polynomial(lg)
    values["atn_line"] = atn_p
    values["certificate"] = cert.to_json_obj()
    # the statement's n-1 form agrees with the proof's Delta form only when
    # Delta = n-1; recorded, not gated
    values["statement_form_agrees"] = d == g.n - 1
    # a wrong polynomial value is False without asking the orientation engine
    claims["atn_line_equals_delta"] = atn_p == d and atn_from_orientations(lg)[0] == d


# thm2 checks the embedding and augmentation constructions on graphs this
# small.  With n <= 5, Delta <= 4 and a host has c <= 4 copies of the base,
# so at most 20 vertices: EMBED_HOST_GUARD does not trip on this family.
EMBED_MAX_N = 5
EMBED_MAX_EDGES = 6
EMBED_HOST_GUARD = 24


def _run_thm2(claims: dict, values: dict, g: Graph) -> None:
    d = g.max_degree()
    values.update(graph=_graph_descriptor(g), delta=d)
    cls = values["class"] = chromatic_index_class(g)
    atn = values["atn_line"] = atn_from_polynomial(line_graph(g))[0]
    claims["atn_line_le_delta_plus_1"] = atn <= d + 1
    if cls == 1:
        claims["class1_atn_line_equals_delta"] = atn == d
    in_embed_family = g.n <= EMBED_MAX_N and g.m <= EMBED_MAX_EDGES
    if in_embed_family and cls == 1:
        host = regular_embed_class1(g)
        values["host"] = {"n": host.n, "m": host.m}
        claims["host_regular"] = set(host.degrees()) == {d}
        copy0, _ = host.induced(range(g.n))
        claims["base_induced_in_host"] = copy0.edges == g.edges
        factorization = one_factorization(host, max_n=EMBED_HOST_GUARD)
        found = factorization is not None and factorization.validate(host)
        values["host_one_factorizable"] = found
        if not found:
            values["finding"] = "host not one-factorizable"
    elif in_embed_family and cls == 2:
        augmented, attach = class2_augment(g)
        values["attachment"] = attach
        claims["augment_max_degree"] = augmented.max_degree() == d + 1
        claims["augment_class1"] = chromatic_index_class(augmented) == 1


def _run_cor3(claims: dict, values: dict, gname: str) -> None:
    g = named_graph(gname)
    values.update(graph=_graph_descriptor(g), delta=g.max_degree())
    total = total_graph(g)
    values["total"] = {"n": total.n, "m": total.m}
    half_orig, _ = total.induced(range(g.n))
    half_edge, _ = total.induced(range(g.n, total.n))
    cross = tuple(e for e in total.edges if (e[0] < g.n) != (e[1] < g.n))
    claims["half_square_original_is_base"] = half_orig.edges == g.edges
    claims["half_square_edge_is_line"] = half_edge.edges == line_graph(g).edges
    claims["cross_edges_are_subdivision"] = cross == subdivision_graph(g).edges
    atn, cert = atn_from_polynomial(total)
    values["atn_total"] = atn
    values["certificate"] = cert.to_json_obj()
    claims["atn_total_le_delta_plus_3"] = atn <= g.max_degree() + 3


def _run_thm4(claims: dict, values: dict, config) -> None:
    rep = theorem4_certify(config)
    claims.update((k, rep[k]) for k in ("engines_agree", "conclusion_holds"))
    values.update((k, rep[k]) for k in ("config", "atn", "caseA", "caseB", "applicable",
                                        "oversized_d_components", "certificate"))


def _run_duality_census(claims: dict, values: dict, g: Graph) -> None:
    values["graph"] = _graph_descriptor(g)
    even, odd = orientation_census_table(g)
    poly = full_expansion(g)
    # keys[d] is the packed outdegree vector of orientation d.  Orientation 0
    # points every edge away from u; setting bit e moves one out-arc from u
    # to v.  Adding packed keys is safe: no outdegree passes m, the cap.
    unit = [poly.pack([int(x == y) for y in range(g.n)]) for x in range(g.n)]
    keys = [sum(unit[u] for u, _ in g.edges)]
    for u, v in g.edges:
        step = unit[v] - unit[u]
        keys += [key + step for key in keys]
    diffs = list(map(sub, even, odd))
    sizes = list(map(abs, diffs))
    claims["census_matches_coefficients"] = sizes == list(
        map(abs, map(poly.terms.get, keys, repeat(0)))
    )
    # orientation full ^ d = full - d reverses every arc of d
    claims["arc_reversal_symmetric"] = sizes == sizes[::-1]
    values["orientations"] = len(diffs)
    values["alon_tarsi_orientations"] = len(diffs) - diffs.count(0)


def _run_duality_engines(claims: dict, values: dict, g: Graph) -> None:
    values["graph"] = _graph_descriptor(g)
    atn_p, cert_p = atn_from_polynomial(g)
    values["atn"] = atn_p
    atn_o, cert_o = atn_from_orientations(g)
    values["certificates"] = {"poly": cert_p.to_json_obj(), "orient": cert_o.to_json_obj()}
    claims["engines_agree"] = atn_p == atn_o
    claims["monomial_certificate_sound"] = (
        max(cert_p.exponents, default=0) == atn_p - 1
        and cert_p.coefficient != 0
        and coefficient_of(g, cert_p.exponents) == cert_p.coefficient
    )
    orient = cert_o.orientation
    census = eulerian_census(orient)
    claims["orientation_certificate_sound"] = (
        census.alon_tarsi
        and census == cert_o.census
        and max(orient.outdegrees(), default=0) == atn_o - 1
    )


# duality evaluates each polynomial at this many seeded points, on graphs with
# at most EVAL_MAX_EDGES edges
EVAL_POINTS = 100
EVAL_MAX_EDGES = 10


def _run_duality_eval(claims: dict, values: dict, g: Graph, seed: int) -> None:
    values.update(graph=_graph_descriptor(g), points=EVAL_POINTS)
    rng = random.Random(seed)
    poly = full_expansion(g)
    points_ok = True
    for _ in range(EVAL_POINTS):
        point = [rng.randint(-50, 50) for _ in range(g.n)]
        direct = 1
        for u, v in g.edges:
            direct *= point[u] - point[v]
        if poly.evaluate(point) != direct:
            points_ok = False
            break
    claims["evaluation_matches_edge_product"] = points_ok
    claims["vanishes_at_equal_values"] = poly.evaluate([7] * g.n) == (0 if g.m else 1)


def _run_sandwich(claims: dict, values: dict, g: Graph) -> None:
    values["graph"] = _graph_descriptor(g)
    chi = values["chi"] = chromatic_number(g)
    atn = values["atn"] = atn_from_polynomial(g)[0]
    claims["chi_le_atn"] = chi <= atn
    ch = values["ch"] = choice_number(g)
    claims["chi_le_ch"] = chi <= ch
    claims["ch_le_atn"] = ch <= atn


# ---------------------------------------------------------------------------
# the campaign registry
# ---------------------------------------------------------------------------

# The claims each worker reports.  A guard that trips inside a worker turns
# every one of them not yet decided into "SKIP".  thm2's other claims depend
# on the graph's chromatic class, so only the claim every thm2 instance
# carries is listed.
_CLAIMS = {
    _run_thm1: ("factor_structure", "pair_all_ones_monomial", "atn_line_equals_delta"),
    _run_thm2: ("atn_line_le_delta_plus_1",),
    _run_cor3: ("half_square_original_is_base", "half_square_edge_is_line",
                "cross_edges_are_subdivision", "atn_total_le_delta_plus_3"),
    _run_thm4: ("engines_agree", "conclusion_holds"),
    _run_duality_census: ("census_matches_coefficients", "arc_reversal_symmetric"),
    _run_duality_engines: ("engines_agree", "monomial_certificate_sound",
                           "orientation_certificate_sound"),
    _run_duality_eval: ("evaluation_matches_edge_product", "vanishes_at_equal_values"),
    _run_sandwich: ("chi_le_ch", "ch_le_atn", "chi_le_atn"),
}


def _named_graphs(prefix: str, worker, gnames) -> list[tuple[str, tuple]]:
    return [
        (f"{prefix}/{i:03d}-{gname}", (worker, gname))
        for i, gname in enumerate(gnames)
    ]


def _graph_family(prefix: str, worker, graphs, digits: int = 3) -> list[tuple[str, tuple]]:
    return [
        (f"{prefix}/{i:0{digits}d}-{g.n}v{g.m}e", (worker, g))
        for i, g in enumerate(graphs)
    ]


def _duality_instances(cfg: dict) -> list[tuple[str, tuple]]:
    census = graphs_with_edge_budget(cfg["max_edges"])
    n = cfg["engine_max_n"]
    conn = connected_graphs(n * (n - 1) // 2, max_vertices=n)
    # eval instance i seeds its own RNG with seed * 1_000_003 + i
    seed = cfg["seed"] * 1_000_003
    evals = [
        (f"duality/eval/{i:03d}-{g.n}v{g.m}e", (_run_duality_eval, g, seed + i))
        for i, g in enumerate(conn)
        if g.m <= EVAL_MAX_EDGES
    ]
    return (
        _graph_family("duality/census", _run_duality_census, census, digits=4)
        + _graph_family("duality/engines", _run_duality_engines, conn)
        + evals
    )


# Campaign name -> (default config, builder), where a builder maps a config
# to [(instance id, payload)].  A payload is a module-level worker plus its
# arguments; the config itself never reaches a worker.  Builders call
# catalogs and engines by module global, which the bench tracer rebinds.
_REGISTRY = {
    "thm1": (
        {"graphs": ["2K2", "C4", "K4"]},
        lambda cfg: _named_graphs("thm1", _run_thm1, cfg["graphs"]),
    ),
    "thm2": (
        {"max_edges": 6},
        lambda cfg: _graph_family(
            "thm2", _run_thm2, [g for g in connected_graphs(cfg["max_edges"]) if g.m >= 1]
        ),
    ),
    "cor3": (
        {"graphs": ["K2", "P3", "P4", "K3", "C4", "K1,3"]},
        lambda cfg: _named_graphs("cor3", _run_cor3, cfg["graphs"]),
    ),
    "thm4": (
        {"max_k": 3},
        lambda cfg: [
            (f"thm4/k{k}-{j:03d}", (_run_thm4, c))
            for k, configs in enumerate(generate_up_to(cfg["max_k"]), 1)
            for j, c in enumerate(configs)
        ],
    ),
    "duality": ({"max_edges": 8, "engine_max_n": 5, "seed": 0}, _duality_instances),
    "sandwich": (
        {"max_n": 5},
        lambda cfg: _graph_family("sandwich", _run_sandwich, all_graphs(cfg["max_n"])),
    ),
}

CAMPAIGNS = tuple(_REGISTRY)


def default_config(name: str) -> dict:
    if name not in _REGISTRY:
        raise ValueError(f"unknown campaign {name!r}; choose from {CAMPAIGNS}")
    return copy.deepcopy(_REGISTRY[name][0])


def campaign_instances(name: str, cfg: dict) -> list[tuple[str, tuple]]:
    return _REGISTRY[name][1](cfg)


def run_instance(name: str, iid: str, payload: tuple) -> dict:
    started = time.perf_counter()
    worker, *args = payload
    claims: dict = {}
    values: dict = {}
    try:
        worker(claims, values, *args)
    except SizeGuardExceeded as exc:
        # what the worker decided before the guard tripped stands
        for claim in _CLAIMS[worker]:
            claims.setdefault(claim, "SKIP")
        values["guard"] = str(exc)
    report = {"campaign": name, "instance": iid, "claims": claims, "values": values}
    report["pass"] = report_passed(report)
    report["wall_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return report


def _typed_like(value, default) -> bool:
    """Exact JSON type of the default (true is not an int); a list's
    elements must have the types of the default's elements."""
    if type(value) is not type(default):
        return False
    return not isinstance(value, list) or {type(v) for v in value} <= {type(d) for d in default}


def run_campaign(name: str, overrides: dict | None = None, sink=None) -> list[dict]:
    """Run one campaign in this process; returns reports in instance order.

    sink, when given, receives each report dict as soon as it is built,
    which is how the CLI streams JSON-lines.  Overrides must name keys of
    the campaign's defaults, with values typed like them; None leaves a key
    at its default.  A config that selects no instance is a ValueError.
    """
    cfg = default_config(name)
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(cfg))
    if unknown:
        raise ValueError(f"unknown config keys for {name}: {unknown}; known: {sorted(cfg)}")
    for key, value in overrides.items():
        if value is not None and not _typed_like(value, cfg[key]):
            raise ValueError(f"{name} config {key!r} must be typed like {cfg[key]!r}: {value!r}")
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    instances = campaign_instances(name, cfg)
    if not instances:
        raise ValueError(f"{name} config selects no instance: {cfg}")
    reports = []
    for iid, payload in instances:
        report = run_instance(name, iid, payload)
        reports.append(report)
        if sink:
            sink(report)
    return reports
