"""Clique configurations of the Erdos-Faber-Lovasz kind: k cliques of order
k meeting pairwise in at most one vertex.

A configuration owns its vertex set (vertices are exactly the union of the
cliques, numbered 0..n-1).  The contact vertices are those lying in two or
more cliques; splitting the union graph at them yields the induced contact
graph C, the leftover clique remnants D, and the connecting edges, which is
the decomposition the certification report is organized around.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .errors import InvalidConfig, SizeGuardExceeded
from .graphs import Graph
from .orientations import CENSUS_GUARD, atn_from_orientations
from .polynomials import DEFAULT_TERM_GUARD, atn_from_polynomial

GENERATE_GUARD = 3


@dataclass(frozen=True)
class EflConfig:
    k: int
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = self.k
        cliques = tuple(tuple(sorted(c)) for c in self.cliques)
        object.__setattr__(self, "cliques", cliques)
        if k < 1:
            raise InvalidConfig(f"k must be positive, got {k}")
        if len(cliques) != k:
            raise InvalidConfig(f"expected {k} cliques, got {len(cliques)}")
        for c in cliques:
            if len(set(c)) != k:
                raise InvalidConfig(f"clique {c} must have {k} distinct vertices")
        for a, b in combinations(cliques, 2):
            if len(set(a) & set(b)) > 1:
                raise InvalidConfig(f"cliques {a} and {b} share more than one vertex")
        union = set()
        for c in cliques:
            union.update(c)
        if union != set(range(len(union))):
            raise InvalidConfig("vertices must be 0..n-1 with every vertex used")

    @property
    def n(self) -> int:
        return max(max(c) for c in self.cliques) + 1

    def to_json_obj(self):
        return {"k": self.k, "cliques": [list(c) for c in self.cliques]}

    @classmethod
    def from_json_obj(cls, obj) -> "EflConfig":
        """Parse {"k": int, "cliques": [[int, ...], ...]}; any other shape
        (a bool or float k included) raises InvalidConfig."""
        if not isinstance(obj, dict):
            raise InvalidConfig(f"config must be a JSON object, not {type(obj).__name__}")
        k, cliques = obj.get("k"), obj.get("cliques")
        if type(k) is not int:
            raise InvalidConfig(f'"k" must be an integer, got {k!r}')
        if not isinstance(cliques, list) or not all(
            isinstance(c, list) and all(type(v) is int for v in c) for c in cliques
        ):
            raise InvalidConfig(f'"cliques" must be a list of integer lists, got {cliques!r}')
        return cls(k, tuple(tuple(c) for c in cliques))

    @classmethod
    def from_json(cls, text: str) -> "EflConfig":
        return cls.from_json_obj(json.loads(text))


def clique_degrees(cfg: EflConfig) -> tuple[int, ...]:
    """Per vertex, the number of configured cliques containing it."""
    out = [0] * cfg.n
    for c in cfg.cliques:
        for v in c:
            out[v] += 1
    return tuple(out)


def contact_vertices(cfg: EflConfig) -> tuple[int, ...]:
    degs = clique_degrees(cfg)
    return tuple(v for v in range(cfg.n) if degs[v] >= 2)


def build_graph(cfg: EflConfig) -> Graph:
    """Union of the cliques as edge sets.

    Shared vertices never share edges (intersections have size at most one),
    so the edge count is always k * C(k, 2).
    """
    edges = set()
    for c in cfg.cliques:
        edges.update(combinations(c, 2))
    return Graph(cfg.n, sorted(edges))


@dataclass(frozen=True)
class EflDecomposition:
    contact_vertices: tuple[int, ...]
    c_edges: tuple[tuple[int, int], ...]
    d_components: tuple[tuple[int, ...], ...]
    d_edges: tuple[tuple[int, int], ...]
    connectors: tuple[tuple[int, int], ...]
    # D components of order k arise from cliques with no contact vertex;
    # they are reported rather than squeezed into the order <= k-1 claim.
    oversized_components: tuple[tuple[int, ...], ...]


def decompose(cfg: EflConfig) -> EflDecomposition:
    """Split the union graph at the contact vertices.

    C is induced on clique degree >= 2, D on the rest; D's components are
    complete remnants of single cliques (a degree-1 vertex is adjacent only
    within its unique clique), and the three edge classes partition the edge
    set exactly.
    """
    g = build_graph(cfg)
    contact = set(contact_vertices(cfg))
    c_edges, d_edges, connectors = [], [], []
    for u, v in g.edges:
        inside = (u in contact) + (v in contact)
        if inside == 2:
            c_edges.append((u, v))
        elif inside == 0:
            d_edges.append((u, v))
        else:
            connectors.append((u, v))
    d_vertices = [v for v in range(cfg.n) if v not in contact]
    sub, remap = g.induced(d_vertices)
    back = {new: old for old, new in remap.items()}
    comps = [tuple(back[x] for x in comp) for comp in sub.components()]
    for comp in comps:
        need = len(comp) * (len(comp) - 1) // 2
        have = sum(1 for u, v in d_edges if u in comp and v in comp)
        if have != need:
            raise AssertionError("a D component is not complete; config invalid")
    oversized = tuple(c for c in comps if len(c) >= cfg.k)
    return EflDecomposition(
        contact_vertices=tuple(sorted(contact)),
        c_edges=tuple(c_edges),
        d_components=tuple(comps),
        d_edges=tuple(d_edges),
        connectors=tuple(connectors),
        oversized_components=oversized,
    )


def hypothesis_check(cfg: EflConfig) -> dict[str, bool]:
    """The two alternative hypotheses on a configuration.

    caseA: the contact-induced graph has maximum degree at most k-1.
    caseB: every clique degree is 1 or 2.
    """
    dec = decompose(cfg)
    degs = {v: 0 for v in dec.contact_vertices}
    for u, v in dec.c_edges:
        degs[u] += 1
        degs[v] += 1
    case_a = max(degs.values(), default=0) <= cfg.k - 1
    case_b = all(d in (1, 2) for d in clique_degrees(cfg))
    return {"caseA": case_a, "caseB": case_b}


# ---------------------------------------------------------------------------
# exhaustive generation
# ---------------------------------------------------------------------------


def canonical_config_key(cfg: EflConfig) -> tuple:
    """Complete canonical form of a configuration under vertex relabeling.

    Minimum, over all clique orderings and all within-clique vertex
    orderings, of the configuration relabeled by first appearance along the
    traversal.  Every isomorphism is realized by some traversal, so equal
    keys mean isomorphic configurations and conversely.
    """
    best = None
    for order in permutations(range(cfg.k)):
        pools = [permutations(cfg.cliques[i]) for i in order]
        for arrangement in product(*pools):
            relabel: dict[int, int] = {}
            for clique in arrangement:
                for v in clique:
                    if v not in relabel:
                        relabel[v] = len(relabel)
            enc = tuple(
                sorted(tuple(sorted(relabel[v] for v in c)) for c in cfg.cliques)
            )
            if best is None or enc < best:
                best = enc
    return best


def generate_all(k: int, max_k: int = GENERATE_GUARD) -> list[EflConfig]:
    """Every configuration of k k-cliques up to isomorphism, k <= 3.

    Grows cliques one at a time: each new clique picks a set of already-used
    vertices (at most one from each earlier clique) and fills up with fresh
    ones.  Duplicates collapse under the canonical key; output order is the
    key order, so it is deterministic.
    """
    if k > max_k:
        raise SizeGuardExceeded(f"config generation guard: k={k} > {max_k}")
    if k < 1:
        raise ValueError("k must be positive")
    found: dict[tuple, EflConfig] = {}

    def grow(cliques: list[tuple[int, ...]], nverts: int):
        if len(cliques) == k:
            cfg = EflConfig(k, tuple(cliques))
            key = canonical_config_key(cfg)
            if key not in found:
                found[key] = cfg
            return
        for size in range(0, k + 1):
            for old in combinations(range(nverts), size):
                if any(len(set(old) & set(c)) > 1 for c in cliques):
                    continue
                fresh = tuple(range(nverts, nverts + k - size))
                grow(cliques + [old + fresh], nverts + k - size)

    grow([tuple(range(k))], k)
    return [found[key] for key in sorted(found)]


def theorem4_certify(
    cfg: EflConfig,
    max_terms: int = DEFAULT_TERM_GUARD,
    orientation_max_edges: int = CENSUS_GUARD,
) -> dict:
    """Certify one configuration: both Alon-Tarsi engines plus the case split.

    Rather than reconstructing an orientation argument for the connector
    edges, the certificate simply exhibits the computed optimum, which is
    stronger at this scale.
    """
    g = build_graph(cfg)
    atn_p, cert_p = atn_from_polynomial(g, max_terms=max_terms)
    atn_o, _cert_o = atn_from_orientations(g, max_edges=orientation_max_edges)
    cases = hypothesis_check(cfg)
    applicable = cases["caseA"] or cases["caseB"]
    dec = decompose(cfg)
    return {
        "config": cfg.to_json_obj(),
        "atn": atn_p,
        "engines_agree": atn_p == atn_o,
        "caseA": cases["caseA"],
        "caseB": cases["caseB"],
        "applicable": applicable,
        "atn_le_k": atn_p <= cfg.k,
        "conclusion_holds": (not applicable) or atn_p <= cfg.k,
        "oversized_d_components": [list(c) for c in dec.oversized_components],
        "certificate": cert_p.to_json_obj(),
    }
