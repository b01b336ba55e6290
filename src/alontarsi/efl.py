"""Clique configurations of the Erdos-Faber-Lovasz kind: k cliques of order
k meeting pairwise in at most one vertex.

A configuration owns its vertex set (vertices are exactly the union of the
cliques, numbered 0..n-1).  The contact vertices are those lying in two or
more cliques; splitting the union graph at them yields the induced contact
graph C, the leftover clique remnants D, and the connecting edges, which is
the decomposition the certification report is organized around.

Generation and the canonical key rest on one fact: a configuration is fixed
up to isomorphism by its vertices' clique memberships, up to a permutation
of the cliques.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import InvalidConfig, SizeGuardExceeded
from .graphs import Graph
from .orientations import atn_from_orientations
from .polynomials import atn_from_polynomial

GENERATE_GUARD = 5


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


def _membership_key(cliques) -> tuple:
    members: dict[int, list[int]] = {}
    for i, c in enumerate(cliques):
        for v in c:
            members.setdefault(v, []).append(i)
    return min(
        tuple(sorted((-len(m), tuple(sorted(pi[i] for i in m))) for m in members.values()))
        for pi in permutations(range(len(cliques)))
    )


def canonical_config_key(cfg: EflConfig) -> tuple:
    """Complete canonical form of a configuration under vertex relabeling.

    Vertices in the same cliques are interchangeable, so the multiset of
    membership sets (the cliques holding a vertex) fixes a configuration up
    to isomorphism and a permutation of the cliques.  The key is the minimum
    over the k! clique permutations of the sorted (-size, set) pairs; -size
    puts contact vertices first, which sets generate_all's output order.
    """
    return _membership_key(cfg.cliques)


def generate_all(k: int) -> list[EflConfig]:
    """Every configuration of k k-cliques up to isomorphism, k <= GENERATE_GUARD.

    Grows one clique per level: each new clique picks a set of already-used
    vertices (at most one from each earlier clique) and fills up with fresh
    ones.  An isomorphism between two partial configurations carries the
    extensions of one onto those of the other, so each level keeps only the
    first partial configuration with each canonical key.  Output order is
    the key order, so it is deterministic.
    """
    if k > GENERATE_GUARD:
        raise SizeGuardExceeded(f"config generation guard: k={k} > {GENERATE_GUARD}")
    if k < 1:
        raise ValueError("k must be positive")
    level = {(): (tuple(range(k)),)}  # the first level has one class
    for _ in range(k - 1):
        grown: dict[tuple, tuple] = {}
        for cliques in level.values():
            nverts = max(max(c) for c in cliques) + 1
            for size in range(0, k + 1):
                for old in combinations(range(nverts), size):
                    if any(len(set(old) & set(c)) > 1 for c in cliques):
                        continue
                    new = cliques + (old + tuple(range(nverts, nverts + k - size)),)
                    grown.setdefault(_membership_key(new), new)
        level = grown
    return [EflConfig(k, level[key]) for key in sorted(level)]


def generate_up_to(max_k: int) -> list[list[EflConfig]]:
    """generate_all(k) for k = 1..max_k; a max_k past the guard is refused first."""
    if max_k > GENERATE_GUARD:
        raise SizeGuardExceeded(f"config generation guard: k={max_k} > {GENERATE_GUARD}")
    if max_k < 1:
        raise ValueError("k must be positive")
    return [generate_all(k) for k in range(1, max_k + 1)]


def theorem4_certify(cfg: EflConfig) -> dict:
    """Certify one configuration: both Alon-Tarsi engines plus the case split.

    Rather than reconstructing an orientation argument for the connector
    edges, the certificate simply exhibits the computed optimum, which is
    stronger at this scale.  engines_agree is "SKIP" when the orientation
    guard trips (m > CENSUS_GUARD, as for every k >= 4 configuration).
    """
    g = build_graph(cfg)
    atn_p, cert_p = atn_from_polynomial(g)
    try:
        atn_o, _cert_o = atn_from_orientations(g)
        agree = atn_p == atn_o
    except SizeGuardExceeded:
        agree = "SKIP"
    cases = hypothesis_check(cfg)
    applicable = cases["caseA"] or cases["caseB"]
    dec = decompose(cfg)
    return {
        "config": cfg.to_json_obj(),
        "atn": atn_p,
        "engines_agree": agree,
        "caseA": cases["caseA"],
        "caseB": cases["caseB"],
        "applicable": applicable,
        "atn_le_k": atn_p <= cfg.k,
        "conclusion_holds": (not applicable) or atn_p <= cfg.k,
        "oversized_d_components": [list(c) for c in dec.oversized_components],
        "certificate": cert_p.to_json_obj(),
    }
