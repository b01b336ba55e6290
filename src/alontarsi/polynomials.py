"""Exact sparse multivariate polynomials over arbitrary-precision integers.

The only client is the graph polynomial: the product over edges (u, v), u < v,
of the binomial (x_u - x_v).  Expansion is capped: as factors multiply in,
any term in which some exponent exceeds the cap is deleted.  Exponents never
decrease during multiplication, so the capped result equals the full
expansion restricted to monomials with all exponents at or below the cap, and
a cap of m reproduces the full expansion.

Terms live in a dict keyed by the packed exponent vector: one fixed-width bit
field per variable, sized from the cap, so the hot loop is integer adds and
shifts.  Variable 0 sits in the most significant field, so integer order on
keys is lexicographic order on exponent vectors.  Other modules read and
write keys only through `SparsePolynomial.pack` and `unpack`.  Coefficients are plain
Python ints; exactness is the whole point, since everything downstream hinges
on zero versus nonzero.

The Alon-Tarsi number needs only the smallest cap whose capped expansion is
nonzero and that expansion's smallest key, so `atn_from_polynomial` never
builds a capped expansion whole.  In the canonical edge order a vertex is
finished once its last factor is in, and terms that differ on the finished
prefix 0..k-1 never combine again.  So the search expands block by block,
splits the live terms on their prefix fields wherever the finished prefix
grows, visits the groups depth-first in increasing prefix order (which is
lexicographic order), and stops at the first group still nonzero after the
last factor.  Splitting on a vertex that finishes before a lower-indexed one
would break the order, so only the prefix is split on.  A survivor has degree
m with every exponent at most the cap, so it leaves exactly cap*n - m
capacity unused; a group whose prefix alone leaves more is dropped.

The search over caps starts at a proven lower bound.  ATN is monotone under
subgraphs: P_G = (x_u - x_v) P_{G-e}, so the coefficient of x^d in P_G is
that of x^(d - e_u) in P_{G-e} minus that of x^(d - e_v), and a nonzero
coefficient of P_G with every exponent at most c forces one of P_{G-e} with
the same property.  Hence ATN(G) >= ATN(K_w) = w for a clique on w
vertices (`graphs.max_clique` finds a largest one), and ATN(G) >= 1 +
ceil(m(H)/n(H)) for every subgraph H, since each monomial of P_H has degree
m(H) over n(H) variables.  Every cap below the bound minus one is zero, so
skipping those caps changes neither the first nonzero cap nor its
lexicographically first survivor.

A cap c with c*n = m holds one candidate: the only exponent vector of degree
m with every entry at most c is all-c.  For Delta-regular G, L(G) is
2(Delta-1)-regular and T(G) is 2*Delta-regular, and the cliques at G's
vertices start their search at exactly such a cap.  One coefficient then
decides the cap, and the quantitative Combinatorial Nullstellensatz gives it
without expanding anything: for grids {0..d_v} with sum(d) = m,
coeff(x^d) * prod d_v! = sum over the grid of P(c) prod (-1)^(d_v-c_v) C(d_v, c_v),
where P(c) = prod (c_u - c_v) over the edges is 0 unless c is a proper
coloring (Alon, Combin. Probab. Comput. 8 (1999); Karasev and Petrov,
Israel J. Math. 192 (2012)).  So a signed walk over the proper colorings
with c_v <= d_v finds it in exact integers.  A nonzero all-c is the only
survivor, hence the lexicographically first, so the certificate is the one
the expansion would give; a zero one sends the search to the next cap.
On a line graph the walk is shorter still.  When the edges split into
(c+1)-cliques with every vertex in two, the Krausz form of L(H) for a
(c+1)-regular H, every proper coloring from {0..c} colors each clique
bijectively, a permutation of the colors keeps every term, and the walk
pins one clique per component and multiplies by (c+1)! (the line-graph form
of the Nullstellensatz: Ellingham and Goddyn, Combinatorica 16 (1996)).
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass

from .errors import SizeGuardExceeded
from .graphs import Edge, Graph, max_clique

TERM_GUARD = 10**7


class SparsePolynomial:
    """Map from exponent vectors to nonzero integer coefficients."""

    __slots__ = ("nvars", "width", "terms")

    def __init__(self, nvars: int, width: int, terms: dict[int, int]):
        self.nvars = nvars
        self.width = width  # bits per variable in the packed keys
        self.terms = terms

    def pack(self, exps) -> int:
        """The key of an exponent vector; the inverse of `unpack`.  Packing
        is additive, pack(a) + pack(b) == pack(a + b), while every field of
        a + b fits the width, as it does when no exponent passes the cap."""
        key = 0
        for e in exps:
            key = (key << self.width) + e
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        mask = (1 << self.width) - 1
        shifts = range((self.nvars - 1) * self.width, -1, -self.width)
        return tuple((key >> s) & mask for s in shifts)

    def items(self):
        for key, coeff in self.terms.items():
            yield self.unpack(key), coeff

    def num_terms(self) -> int:
        return len(self.terms)

    def evaluate(self, point) -> int:
        """Exact big-integer evaluation at an integer point.  Exponents are
        read straight from the packed keys, one field per variable."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        mask = (1 << self.width) - 1
        shifts = range((self.nvars - 1) * self.width, -1, -self.width)
        fields = list(zip(point, shifts))
        total = 0
        for key, term in self.terms.items():
            for x, s in fields:
                e = key >> s & mask
                if e:
                    term *= x**e
            total += term
        return total

    def __repr__(self):
        return f"SparsePolynomial(nvars={self.nvars}, terms={len(self.terms)})"


@dataclass(frozen=True)
class LowerBound:
    """Witness that ATN >= bound, checkable against the edge list: the
    vertices span a clique and bound is their count ("clique"), or they
    induce m edges on n vertices and bound = 1 + ceil(m/n) ("density")."""

    kind: str
    vertices: tuple[int, ...]
    bound: int

    def to_json_obj(self):
        return {"kind": self.kind, "vertices": list(self.vertices), "bound": self.bound}


@dataclass(frozen=True)
class MonomialCertificate:
    """Witness for an Alon-Tarsi number: an exponent vector with nonzero
    coefficient in the graph polynomial whose largest exponent is atn - 1,
    and the lower bound the search started from (tight when it equals atn)."""

    atn: int
    exponents: tuple[int, ...]
    coefficient: int
    lower_bound: LowerBound

    def to_json_obj(self):
        return {
            "kind": "monomial",
            "atn": self.atn,
            "exponents": list(self.exponents),
            "coefficient": self.coefficient,
            "lower_bound": self.lower_bound.to_json_obj(),
        }


def expand_capped(
    factors,
    nvars: int,
    cap: int,
    start: dict[int, int] | None = None,
    held: int = 0,
) -> SparsePolynomial:
    """Multiply the binomial factors, deleting terms with an exponent > cap.

    The product starts from `start`, packed at this cap's width with nonzero
    coefficients, or from 1.  Raises SizeGuardExceeded if the live terms
    plus the `held` terms the caller keeps elsewhere pass TERM_GUARD.

    reach[x] bounds x's exponent in every live term: 0 from 1, the cap from
    a given start.  A factor raises it by one up to the cap, and while it is
    below the cap that factor's test on x cannot delete a term, so it is
    skipped; a cap of m is never tested.  The u-shift maps distinct keys to
    distinct keys, so it fills the new dict without merging.
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    guard = TERM_GUARD
    # cap+1 must fit in a field: a single multiplication bumps one exponent
    # by one, and the violating value is inspected before it can grow again.
    width = (cap + 1).bit_length()
    mask = (1 << width) - 1
    top = nvars - 1  # variable 0 sits in the most significant field
    terms = {0: 1} if start is None else start
    reach = [0 if start is None else cap] * nvars
    for u, v in factors:
        su, sv = (top - u) * width, (top - v) * width
        bump_u, bump_v = 1 << su, 1 << sv
        if reach[u] < cap:
            reach[u] += 1
            new = {key + bump_u: c for key, c in terms.items()}
        else:
            new = {
                ku: c for key, c in terms.items() if ((ku := key + bump_u) >> su) & mask <= cap
            }
        get = new.get
        # every coefficient is nonzero, so a sum of zero had a key to delete
        if reach[v] < cap:
            reach[v] += 1
            for key, c in terms.items():
                kv = key + bump_v
                x = get(kv, 0) - c
                if x:
                    new[kv] = x
                else:
                    del new[kv]
        else:
            for key, c in terms.items():
                kv = key + bump_v
                if (kv >> sv) & mask <= cap:
                    x = get(kv, 0) - c
                    if x:
                        new[kv] = x
                    else:
                        del new[kv]
        if len(new) + held > guard:
            raise SizeGuardExceeded(f"live terms {len(new) + held} exceed guard {guard}")
        terms = new
    return SparsePolynomial(nvars, width, terms)


def full_expansion(g: Graph) -> SparsePolynomial:
    """The complete graph polynomial expansion (cap = m is no cap at all)."""
    return expand_capped(g.edges, g.n, g.m)


def _finishing_blocks(g: Graph) -> list[tuple[tuple[Edge, ...], int]]:
    """Split g's factors into blocks that end where the finished prefix grows.

    A vertex is finished once its last factor is in; the finished prefix is
    the longest run 0..k-1 of finished vertices.  Each block is paired with
    the prefix length k after it.  The first block is empty (leading
    isolated vertices are finished before any factor) and the last one ends
    with every vertex finished.
    """
    last = [-1] * g.n
    for i, (u, v) in enumerate(g.edges):
        last[u] = last[v] = i
    blocks, done, k = [], 0, 0
    for i in range(-1, g.m):
        before = k
        while k < g.n and last[k] <= i:
            k += 1
        if i < 0 or k > before:
            blocks.append((g.edges[done : i + 1], k))
            done = i + 1
    return blocks


def _first_nonzero_group(g: Graph, blocks, cap: int) -> SparsePolynomial | None:
    """The group of the cap-capped expansion that holds its smallest key,
    or None if that expansion is zero: the depth-first search over
    `blocks` that the module docstring describes."""
    n = g.n
    width = (cap + 1).bit_length()
    mask = (1 << width) - 1
    slack = cap * n - g.m
    stack = [(0, {0: 1})]  # (block index, group terms), smallest prefix last
    held = 1  # terms waiting on the stack, counted by the memory guard
    while stack:
        j, terms = stack.pop()
        held -= len(terms)
        factors, k = blocks[j]
        poly = expand_capped(factors, n, cap, start=terms, held=held)
        if j == len(blocks) - 1:
            if poly.terms:
                return poly
            continue
        shift = (n - k) * width
        groups: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for key, c in poly.terms.items():
            groups[key >> shift][key] = c
        for prefix in sorted(groups, reverse=True):
            unused = cap * k - sum(
                (prefix >> s) & mask for s in range(0, k * width, width)
            )
            if unused <= slack:
                stack.append((j + 1, groups[prefix]))
                held += len(groups[prefix])
    return None


def _peeling_density(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The largest 1 + ceil(m/n) over the subgraphs left while a vertex of
    least degree (the smallest such) is deleted at a time, with the first
    vertex set that reaches it; (0, ()) for the empty graph.  The next
    vertex comes off a heap of (degree, vertex); a degree only falls, so an
    entry whose degree is out of date is stale and skipped."""
    adj = [set(s) for s in g.adjacency()]
    heap = [(len(s), v) for v, s in enumerate(adj)]
    heapq.heapify(heap)
    alive = set(range(g.n))
    m = g.m
    best, where = 0, ()
    while alive:
        b = 1 + -(-m // len(alive))
        if b > best:
            best, where = b, tuple(sorted(alive))
        degree, v = heapq.heappop(heap)
        while v not in alive or degree != len(adj[v]):
            degree, v = heapq.heappop(heap)
        for w in adj[v]:
            adj[w].discard(v)
            heapq.heappush(heap, (len(adj[w]), w))
        m -= len(adj[v])
        alive.remove(v)
    return best, where


def _lower_bound(g: Graph) -> LowerBound:
    """The larger of the clique and peeling-density bounds on ATN, with its
    witness; the clique wins a tie."""
    clique = max_clique(g)
    density, dense = _peeling_density(g)
    if density > len(clique):
        return LowerBound("density", dense, density)
    return LowerBound("clique", clique, len(clique))


def _krausz_cliques(g: Graph, d) -> list[tuple[tuple[int, ...], ...]] | None:
    """The two (r+1)-cliques at each vertex, when d is all-r with r >= 1 and
    g's edges split into (r+1)-cliques with every vertex in exactly two of
    them (the Krausz form of L(H) for an (r+1)-regular H); otherwise None.

    Every vertex needs degree 2r.  Its neighbourhood splits into two cliques
    exactly when the complement of the graph it induces is bipartite, and
    the split is unique when that complement is connected, that is when the
    2-coloring grown from one neighbour reaches all 2r of them.  The two
    sides, each joined to the vertex, are then the only candidates, and
    they must hold r neighbours each; any other neighbourhood gives up.

    The cliques found are accepted only if every vertex lies in exactly two
    of them; as each lies in the two found at it, that is a count of
    (r+1)-sets against 2n.  That alone makes them a partition of the edges:
    the two cliques at v are the two found at v, which meet only in v and
    hold all of v's neighbours, so each edge vw lies in one of them, and an
    edge in two cliques would put both its ends in two cliques that meet in
    one vertex.
    """
    adj = g.adjacency()
    r = d[0] if d else 0
    if r < 1 or any(e != r or len(a) != 2 * r for e, a in zip(d, adj)):
        return None
    at = []
    for v, nbrs in enumerate(adj):
        start = min(nbrs)
        side = {start: 0}
        queue = [start]
        for x in queue:  # 2-color the non-edges among v's neighbours
            for y in nbrs - adj[x] - {x}:
                if y not in side:
                    side[y] = side[x] ^ 1
                    queue.append(y)
                elif side[y] == side[x]:
                    return None
        halves = tuple(
            tuple(sorted([v] + [x for x in nbrs if side.get(x) == s])) for s in (0, 1)
        )
        if any(len(h) != r + 1 for h in halves):
            return None  # the complement is not connected, or the sides differ
        at.append(halves)
    found = {c for pair in at for c in pair}
    return at if len(found) * (r + 1) == 2 * g.n else None


def _coefficient_by_colorings(g: Graph, d) -> int:
    """Exact coefficient of x^d by the quantitative Combinatorial
    Nullstellensatz: with grids {0..d_v} and sum(d) = m,
    coeff(x^d) * prod d_v! = sum over c of P(c) * prod (-1)^(d_v-c_v) C(d_v, c_v),
    where P(c) = prod over edges u < v of (c_u - c_v) vanishes unless c is a
    proper coloring.  So only proper colorings with c_v <= d_v are walked,
    depth-first on an explicit stack, in max-cardinality order (next is the
    vertex with the most colored neighbours, ties by (d_v, v)); each factor
    is multiplied in when its second endpoint is colored, and a branch dies
    at a zero factor.  Each connected component is walked on its own and the
    sums multiplied, since P factors over components in disjoint variables.

    When d is all-r and the edges split into (r+1)-cliques with every
    vertex in two (`_krausz_cliques`), each component is walked with one
    clique pinned.  Every proper coloring from {0..r} colors each clique
    bijectively, so each color lies on one vertex of each clique, and a
    component with k cliques gives each color k/2 vertices.  If k is odd no
    proper coloring exists and the coefficient is 0.  Otherwise the weights
    depend only on those counts, so a permutation pi of the colors keeps
    them, and it multiplies each clique's factors by sgn(pi), so P by
    sgn(pi)^k = 1.  Only the identity fixes the pinned clique's colors, so
    the colorings fall into orbits of (r+1)! with equal terms, one per orbit
    with the pinned clique colored 0..r in vertex order, and the
    component's sum is (r+1)! times the pinned one.

    Raises SizeGuardExceeded when the walk's nodes, summed over components,
    pass TERM_GUARD.  Expands nothing, so it shares no code with `expand_capped`
    or `coefficient_of`.
    """
    d = tuple(d)
    adj = g.adjacency()
    if sum(d) != g.m or any(not 0 <= e <= len(adj[v]) for v, e in enumerate(d)):
        return 0
    count = [0] * g.n  # colored neighbours, while v is still uncolored
    heap = [(0, e, v) for v, e in enumerate(d)]
    heapq.heapify(heap)
    pos = [-1] * g.n
    order = []
    starts = []  # the depths that start a component: no colored neighbour
    while heap:
        negc, _, v = heapq.heappop(heap)
        if pos[v] >= 0 or -negc != count[v]:
            continue  # a stale entry
        if not negc:
            starts.append(len(order))
        pos[v] = len(order)
        order.append(v)
        for w in adj[v]:
            if pos[w] < 0:
                count[w] += 1
                heapq.heappush(heap, (-count[w], d[w], w))
    starts.append(g.n)
    colors = [range(e + 1) for e in d]
    cliques = _krausz_cliques(g, d)
    if cliques is not None:
        for first, end in zip(starts, starts[1:]):
            if (end - first) % (d[0] + 1):
                return 0  # k (r+1) / 2 vertices with k odd
            # pin the clique of the component's first edge: the second
            # vertex in the order has a colored neighbour, the first
            u, w = order[first], order[first + 1]
            pinned = next(c for c in cliques[u] if w in c)
            for c, x in enumerate(pinned):
                colors[x] = (c,)
    # per depth: the depths of the colored neighbours, and each color with
    # its weight times the sign that writes every factor as (c_v - c_x); a
    # colored neighbour x < v contributes (c_x - c_v), so -1 each
    back, weights = [], []
    for v in order:
        earlier = [x for x in adj[v] if pos[x] < pos[v]]
        sign = -1 if sum(x < v for x in earlier) % 2 else 1
        back.append([pos[x] for x in earlier])
        weights.append(
            [(c, sign * (-1) ** (d[v] - c) * math.comb(d[v], c)) for c in colors[v]]
        )
    # P is the product of its components' polynomials in disjoint variables,
    # so the coefficient is the product of theirs; the order colors one
    # component whole before the next, and each component is walked on its
    # own so that the nodes add across components instead of multiplying
    color = [0] * g.n  # by depth
    total, nodes, guard = 1, 0, TERM_GUARD
    for first, end in zip(starts, starts[1:]):
        last = end - 1
        part = 0
        stack = [(first - 1, 0, 1)]  # (depth, its color, product so far)
        while stack:
            i, c, p = stack.pop()
            if i >= first:
                color[i] = c
            i += 1
            used = [color[j] for j in back[i]]
            children = []
            for c, q in weights[i]:
                if c in used:
                    continue
                for x in used:
                    q *= c - x
                children.append((i, c, q * p))
            nodes += len(children)
            if nodes > guard:
                raise SizeGuardExceeded(f"colorings walk: nodes {nodes} exceed guard {guard}")
            if i == last:
                part += sum(q for _, _, q in children)
            else:
                stack.extend(children)
        if not part:
            return 0
        total *= part
    if cliques is not None:  # each component walked one coloring per orbit
        total *= math.factorial(d[0] + 1) ** (len(starts) - 1)
    scale = math.prod(math.factorial(e) for e in d)
    coeff, rem = divmod(total, scale)
    assert not rem, (total, scale)
    return coeff


def atn_from_polynomial(g: Graph) -> tuple[int, MonomialCertificate]:
    """Alon-Tarsi number via capped expansions, with a monomial certificate.

    Finds the smallest b >= 1 whose (b-1)-capped expansion is nonzero; the
    capped expansion is monotone in the cap, so iterating b upward is sound.
    Every survivor at the first nonzero cap has maximum exponent exactly b-1
    (anything smaller would have survived the previous cap), and the
    certificate is the lexicographically smallest surviving exponent vector,
    which is the smallest packed key.

    b starts at a lower bound L, the larger of the clique number
    (`graphs.max_clique`) and the
    largest 1 + ceil(m/n) along the min-degree peeling sequence.  ATN is
    monotone under subgraphs, since P_G = (x_u - x_v) P_{G-e}, and ATN(K_w)
    = w while every monomial of P_H has degree m(H) over n(H) variables; so
    every cap below L - 1 is zero, and starting there changes neither b nor
    the certificate.  The certificate carries L with its witness.

    No cap's expansion is built whole: a depth-first search over factor
    blocks splits the live terms on the finished prefix of vertices, visits
    the groups in lexicographic order, drops groups that leave more capacity
    unused than a survivor can, and stops at the first group still nonzero
    after the last factor.  The blocks do not depend on the cap, so they
    are built once.  The memory guard counts every term held at once: the
    group being expanded plus the groups waiting their turn.

    A cap b-1 with (b-1)*n = m holds the one candidate all-(b-1), and
    `_coefficient_by_colorings` decides it instead: coeff(x^d) * prod d_v!
    is the sum over proper colorings c with c_v <= d_v of
    P(c) prod (-1)^(d_v-c_v) C(d_v, c_v).  A nonzero value is the lone, so
    lexicographically first, survivor, and the certificate is unchanged; a
    zero one moves on to cap b.  TERM_GUARD bounds the walk's nodes too.
    """
    bound = _lower_bound(g)
    blocks = _finishing_blocks(g)
    for b in range(max(bound.bound, 1), g.m + 2):
        if (b - 1) * g.n == g.m:
            lone = (b - 1,) * g.n
            coeff = _coefficient_by_colorings(g, lone)
            if coeff:
                return b, MonomialCertificate(b, lone, coeff, bound)
            continue
        poly = _first_nonzero_group(g, blocks, b - 1)
        if poly is not None:
            key = min(poly.terms)
            return b, MonomialCertificate(b, poly.unpack(key), poly.terms[key], bound)
    raise AssertionError("graph polynomial expanded to zero at full cap")


def coefficient_of(g: Graph, target) -> int:
    """Exact coefficient of one monomial, by a frontier expansion.

    The product is expanded factor by factor over plain exponent tuples,
    each factor (u, v) sending a term to its u-bump with +c and its v-bump
    with -c.  A bump is kept only while both endpoints can still reach their
    targets with the factors left, and zero coefficients are dropped.  A
    finished vertex is thus pinned at its target, so the live terms differ
    only on the unfinished vertices the factors so far touch: the frontier
    of the edge order.  Raises SizeGuardExceeded when the live terms pass
    TERM_GUARD.  Total degree is m, so off-degree targets are zero
    immediately.  Shares no code with `expand_capped`, whose certificates
    it rechecks.
    """
    target = tuple(target)
    if len(target) != g.n:
        raise ValueError("target length must equal the vertex count")
    if any(t < 0 for t in target) or sum(target) != g.m:
        return 0
    rem = list(g.degrees())  # factors not yet multiplied in, per vertex
    terms = {(0,) * g.n: 1}
    for u, v in g.edges:
        rem[u] -= 1
        rem[v] -= 1
        new: dict[tuple[int, ...], int] = {}
        for exps, c in terms.items():
            need_u, need_v = target[u] - exps[u], target[v] - exps[v]
            if 0 < need_u <= rem[u] + 1 and need_v <= rem[v]:
                key = exps[:u] + (exps[u] + 1,) + exps[u + 1 :]
                new[key] = new.get(key, 0) + c
            if 0 < need_v <= rem[v] + 1 and need_u <= rem[u]:
                key = exps[:v] + (exps[v] + 1,) + exps[v + 1 :]
                new[key] = new.get(key, 0) - c
        terms = {key: c for key, c in new.items() if c}
        if len(terms) > TERM_GUARD:
            raise SizeGuardExceeded(
                f"coefficient_of: live terms {len(terms)} exceed guard {TERM_GUARD}"
            )
    return terms.get(target, 0)
