"""Orientations, Eulerian subdigraph censuses, and the orientation route to
the Alon-Tarsi number.

An Eulerian subdigraph here is any arc subset with indegree equal to
outdegree at every vertex; it need not be connected, untouched vertices are
fine, and the empty subset counts (it is even).  An orientation is Alon-Tarsi
when its even and odd censuses differ; every acyclic orientation qualifies,
since only the empty subset balances.

This module is the trusted oracle the polynomial route is checked against.
eulerian_census, the census the orientation search takes, is a frontier
census: arc subsets that leave the same imbalances are merged.
enumerated_census stays naive: plain enumeration over arc subsets, with
feasibility pruning only, and it is the oracle that rechecks
eulerian_census.  Both decide the arcs in canonical order, and a branch of
enumerated_census after i arcs is tested later only through its imbalance
vector bal and the undecided counts, which depend on i alone.  So by
induction on i, the arc subsets of the first i arcs that eulerian_census
keeps under a code bal are exactly enumerated_census's live branches with
that bal, and its (even, odd) pair counts them by parity.  After the last
arc no arc is undecided, so the live branches are the balanced subsets,
all under the all-balanced code: the two censuses count the same subsets.
The orientation search relies on one lemma (Alon and Tarsi 1992): two
orientations with the same outdegree vector differ on an Eulerian
subdigraph F, and the symmetric difference with F maps the Eulerian
subdigraphs of one one-to-one onto those of the other, changing parity by
|F|.  So |even - odd| depends only on the outdegree vector.
Swapping two twins is an automorphism, which carries the Eulerian
subdigraphs of an orientation one-to-one onto those of its image with arc
counts kept, so the census is also shared by vectors that differ by a
permutation of twins, and the search runs one census per twin orbit of
outdegree vectors.  tests/test_orientations.py checks the lemma on every
orientation of every graph with at most 8 edges, and the twin swap on every
orientation of every graph with at most 6 edges.
The search also walks each partial outdegree vector once.  After i edges
the vector sums to i, so it is the whole state of the walk: two prefixes
that reach it have the same completions, with the same leaf vectors.  Every
prune only gets stricter as the incumbent falls, so each leaf under the
second prefix was either reached under the first, with its orbit censused,
or pruned there under a looser bound.  An Alon-Tarsi leaf among them would
already have lowered the incumbent below them.  So skipping the second
subtree keeps the value, the certificate and every census call.
The walk stops once the incumbent meets the clique bound.  An Alon-Tarsi
orientation with maximum outdegree k makes G (k+1)-choosable (Alon and
Tarsi 1992), hence (k+1)-colorable, so a clique on w vertices forces
k >= w - 1.  The walk goes in lexicographic bit order and replaces the
incumbent only on a strictly lower maximum outdegree, so once that reaches
w - 1 no later leaf can replace it: stopping keeps the value and the
certificate, and only the later censuses are left out.
The walk also stops once the all-(m/n) vector is censused, when m/n is an
integer and the incumbent's maximum outdegree k has (k - 1) n <= m.  A leaf
that replaces the incumbent has maximum outdegree at most k - 1 and
outdegrees summing to m, so (k - 1) n < m rules every leaf out, and
(k - 1) n = m leaves only the vector all-(k - 1) = all-(m/n).  By the lemma
every orientation with that vector shares the census just taken, which
either set the incumbent or was balanced; either way no later leaf can
replace the incumbent, and stopping keeps the value and the certificate.
orientation_census_table censuses all orientations at once under the same
prune rule as enumerated_census, in a recursion that shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeGuardExceeded
from .graphs import Graph, first_twins, max_clique

CENSUS_GUARD = 22
CENSUS_TABLE_GUARD = 16


@dataclass(frozen=True)
class Orientation:
    """Direction bits over the canonical edge list: 0 is u->v, 1 is v->u."""

    graph: Graph
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != self.graph.m:
            raise ValueError("one direction bit per edge required")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("direction bits must be 0 or 1")

    @classmethod
    def from_int(cls, graph: Graph, value: int) -> "Orientation":
        """Bit i of value is edge i's direction; raises ValueError unless
        0 <= value < 2^m."""
        if not 0 <= value < 1 << graph.m:
            raise ValueError(f"bit vector {value:#x} out of range for m={graph.m}")
        return cls(graph, tuple((value >> i) & 1 for i in range(graph.m)))

    def to_int(self) -> int:
        out = 0
        for i, b in enumerate(self.bits):
            out |= b << i
        return out

    def bits_hex(self) -> str:
        return format(self.to_int(), "#x")

    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Directed (tail, head) pairs in canonical edge order."""
        out = []
        for (u, v), b in zip(self.graph.edges, self.bits):
            out.append((v, u) if b else (u, v))
        return tuple(out)

    def outdegrees(self) -> tuple[int, ...]:
        degs = [0] * self.graph.n
        for tail, _ in self.arcs():
            degs[tail] += 1
        return tuple(degs)


@dataclass(frozen=True)
class EulerianCensus:
    even: int
    odd: int

    @property
    def difference(self) -> int:
        return abs(self.even - self.odd)

    @property
    def alon_tarsi(self) -> bool:
        return self.even != self.odd


@dataclass(frozen=True)
class OrientationCertificate:
    """Witness for an Alon-Tarsi number: an orientation whose maximum
    outdegree is atn - 1 and whose Eulerian census is unbalanced."""

    atn: int
    orientation: Orientation
    census: EulerianCensus

    def to_json_obj(self):
        return {
            "kind": "orientation",
            "atn": self.atn,
            "bits": self.orientation.bits_hex(),
            "arcs": [list(a) for a in self.orientation.arcs()],
            "census": {"even": self.census.even, "odd": self.census.odd},
        }


def _check_census_guard(m: int, max_edges: int) -> None:
    if max_edges < 0:
        raise ValueError(f"edge guard must be non-negative, got {max_edges}")
    if m > max_edges:
        raise SizeGuardExceeded(f"census guard: m={m} > {max_edges}")


def enumerated_census(d: Orientation, max_edges: int = CENSUS_GUARD) -> EulerianCensus:
    """Count even- and odd-arc Eulerian subdigraphs of the orientation, one
    arc subset at a time: the naive oracle for eulerian_census.

    Recursive arc-by-arc inclusion/exclusion.  bal tracks out minus in over
    included arcs; a branch dies as soon as some vertex's imbalance exceeds
    its count of still-undecided incident arcs, so every completion that
    survives is balanced.
    """
    m = d.graph.m
    _check_census_guard(m, max_edges)
    arcs = d.arcs()
    rem = list(d.graph.degrees())
    bal = [0] * d.graph.n
    counts = [0, 0]

    def rec(i: int, parity: int):
        if i == m:
            counts[parity] += 1
            return
        t, h = arcs[i]
        rem[t] -= 1
        rem[h] -= 1
        if abs(bal[t]) <= rem[t] and abs(bal[h]) <= rem[h]:
            rec(i + 1, parity)
        bal[t] += 1
        bal[h] -= 1
        if abs(bal[t]) <= rem[t] and abs(bal[h]) <= rem[h]:
            rec(i + 1, parity ^ 1)
        bal[t] -= 1
        bal[h] += 1
        rem[t] += 1
        rem[h] += 1

    try:
        rec(0, 0)
    finally:
        del rec  # rec holds itself through its closure; this breaks the cycle
    return EulerianCensus(counts[0], counts[1])


def eulerian_census(d: Orientation, max_edges: int = CENSUS_GUARD) -> EulerianCensus:
    """Count even- and odd-arc Eulerian subdigraphs of the orientation by a
    frontier census: enumerated_census's counts, with arc subsets that leave
    the same imbalances merged.

    Arc by arc in canonical order, states maps the imbalance vector of the
    decided arcs to the (even, odd) counts of the arc subsets reaching it.
    Each arc skips or joins, and a state dies under enumerated_census's
    rule: some |bal[v]| exceeds v's undecided arcs.  Such a state can never
    return to balance, so the rule only keeps states few; the count is read
    at the all-balanced code either way.  bal[v] + deg(v) is packed
    into v's field of width (2 max degree + 1).bit_length(); |bal[v]| never
    exceeds deg(v), so no field borrows from or carries into another.
    """
    _check_census_guard(d.graph.m, max_edges)
    deg = d.graph.degrees()
    width = (2 * max(deg, default=0) + 1).bit_length()
    mask = (1 << width) - 1
    balanced = sum(k << (width * v) for v, k in enumerate(deg))
    rem = list(deg)  # undecided arcs at each vertex
    states = {balanced: (1, 0)}
    for t, h in d.arcs():
        rem[t] -= 1
        rem[h] -= 1
        st, sh = width * t, width * h
        lo_t, hi_t = deg[t] - rem[t], deg[t] + rem[t]
        lo_h, hi_h = deg[h] - rem[h], deg[h] + rem[h]
        step = (1 << st) - (1 << sh)
        nxt: dict[int, tuple[int, int]] = {}
        for code, (even, odd) in states.items():
            ft, fh = (code >> st) & mask, (code >> sh) & mask
            if lo_t <= ft <= hi_t and lo_h <= fh <= hi_h:  # skip
                e, o = nxt.get(code, (0, 0))
                nxt[code] = (e + even, o + odd)
            if lo_t <= ft + 1 <= hi_t and lo_h <= fh - 1 <= hi_h:  # join: one more arc
                e, o = nxt.get(code + step, (0, 0))
                nxt[code + step] = (e + odd, o + even)
        states = nxt
    return EulerianCensus(*states.get(balanced, (0, 0)))


class _Optimal(Exception):
    """Ends the orientation walk once no later leaf can replace the incumbent."""


def atn_from_orientations(
    g: Graph, max_edges: int = CENSUS_GUARD
) -> tuple[int, OrientationCertificate]:
    """Alon-Tarsi number as 1 + the least maximum outdegree over Alon-Tarsi
    orientations, with the first such orientation as the certificate: first
    lexicographic over the bit tuple, edge 0 first.

    Walks the 2^m orientations as a binary tree in that order, pruning any
    subtree whose partial maximum outdegree already matches the incumbent,
    and any subtree whose vertices cannot absorb the undecided edges while
    staying below it.  It runs one census per twin orbit of outdegree
    vectors: a twin swap is an automorphism, so it keeps (even, odd), and
    by the lemma in the module docstring so does any orientation with the
    same vector.  A leaf whose orbit was censused before is therefore
    balanced if that census was, and if it was unbalanced it was accepted
    and the incumbent already prunes this leaf.  There is always an acyclic
    orientation, so an optimum exists.  Each census is eulerian_census's
    frontier census, which counts the subsets enumerated_census counts (the
    argument is in the module docstring); enumerated_census stays the naive
    oracle that rechecks it.

    The walk ends once the incumbent's maximum outdegree is w - 1 for the
    clique on w vertices that `max_clique` returns, or once the all-(m/n)
    vector is censused with the incumbent's maximum outdegree at most
    m/n + 1 (the arguments are in the module docstring).  The clique is
    checked edge by edge first, and a non-clique raises AssertionError, so
    the bound only ever ends the walk early and never supplies the value.

    A node whose partial outdegree vector was walked before returns at once
    (the argument is in the module docstring).  The vector is packed into
    one int, out[v] in bits shift*v and up, so walked holds at most one
    small int per distinct vector of an edge prefix, never more than the
    nodes the walk would visit without it.
    """
    m = g.m
    if max_edges < 0:
        raise ValueError(f"edge guard must be non-negative, got {max_edges}")
    if m > max_edges:
        raise SizeGuardExceeded(f"orientation guard: m={m} > {max_edges}")
    edges = g.edges
    out = [0] * g.n
    rem = list(g.degrees())  # undecided edges at each vertex
    best_value = m + 2
    best: OrientationCertificate | None = None
    bits = [0] * m
    adj = g.adjacency()
    clique = max_clique(g)
    if any(w not in adj[u] for i, u in enumerate(clique) for w in clique[i + 1 :]):
        raise AssertionError(f"max_clique returned a non-clique: {clique}")
    floor = len(clique) - 1  # no Alon-Tarsi orientation has a lower maximum outdegree
    first = first_twins(adj)
    censused: set[tuple[tuple[int, int], ...]] = set()
    shift = g.max_degree().bit_length()
    weight = [1 << (shift * v) for v in range(g.n)]  # out packed into one int
    walked: set[int] = set()
    # the code of the all-(m/n) vector, or -1, which no code equals
    level = m // g.n * sum(weight) if g.n and m % g.n == 0 else -1

    def rec(i: int, partial_max: int, code: int):
        nonlocal best_value, best
        if partial_max >= best_value or code in walked:
            return
        walked.add(code)
        if i == m:
            key = tuple(sorted(zip(first, out)))
            if key in censused:
                return
            censused.add(key)
            cand = Orientation(g, tuple(bits))
            census = eulerian_census(cand, max_edges=max_edges)
            if census.alon_tarsi:
                best_value = partial_max
                best = OrientationCertificate(partial_max + 1, cand, census)
                if best_value <= floor:
                    raise _Optimal
            if code == level and (best_value - 1) * g.n <= m:
                raise _Optimal
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
                rec(i + 1, max(partial_max, out[tail]), code + weight[tail])
            out[tail] -= 1
        rem[u] += 1
        rem[v] += 1
        bits[i] = 0

    try:
        rec(0, 0, 0)
    except _Optimal:
        pass
    finally:
        del rec  # rec holds itself through its closure; this breaks the cycle
    return best.atn, best


def orientation_census_table(g: Graph) -> tuple[list[int], list[int]]:
    """Eulerian censuses of every orientation at once: (even, odd) tables
    indexed by the orientation's bit-vector integer.

    One recursion over the edges in canonical order leaves each edge out or
    puts it in as u->v (bit 0) or v->u (bit 1).  bal tracks out minus in, and
    a branch dies as soon as some vertex's imbalance exceeds its count of
    undecided edges.  The empty arc set is Eulerian in every orientation, so
    even starts at all ones and the all-skip leaf adds nothing.  Every other
    leaf is a nonempty balanced arc set with support s and directions d on
    s, Eulerian in every orientation d | t with t inside ~s, and counted
    there in the table of parity |s|.  enumerated_census is the reference
    it is tested against.
    """
    m = g.m
    if m > CENSUS_TABLE_GUARD:
        raise SizeGuardExceeded(f"census table guard: m={m} > {CENSUS_TABLE_GUARD}")
    steps = [(u, v, 1 << i) for i, (u, v) in enumerate(g.edges)]
    full = (1 << m) - 1
    rem = list(g.degrees())  # undecided edges at each vertex
    bal = [0] * g.n
    even = [1] * (1 << m)  # the empty arc set, in every orientation
    odd = [0] * (1 << m)

    def rec(i: int, s: int, d: int):
        if i == m:
            if not s:
                return
            table = odd if s.bit_count() & 1 else even
            comp = full & ~s
            t = comp
            while True:
                table[d | t] += 1
                if t == 0:
                    break
                t = (t - 1) & comp
            return
        u, v, bit = steps[i]
        ru = rem[u] = rem[u] - 1
        rv = rem[v] = rem[v] - 1
        bu, bv = bal[u], bal[v]
        if -ru <= bu <= ru and -rv <= bv <= rv:
            rec(i + 1, s, d)
        if -ru <= bu + 1 <= ru and -rv <= bv - 1 <= rv:
            bal[u], bal[v] = bu + 1, bv - 1
            rec(i + 1, s | bit, d)
        if -ru <= bu - 1 <= ru and -rv <= bv + 1 <= rv:
            bal[u], bal[v] = bu - 1, bv + 1
            rec(i + 1, s | bit, d | bit)
        bal[u], bal[v] = bu, bv
        rem[u], rem[v] = ru + 1, rv + 1

    try:
        rec(0, 0, 0)
    finally:
        del rec  # rec holds itself through its closure; this breaks the cycle
    return even, odd
