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
keys is lexicographic order on exponent vectors.  Coefficients are plain
Python ints; exactness is the whole point, since everything downstream hinges
on zero versus nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MemoryGuardExceeded
from .graphs import Graph

DEFAULT_TERM_GUARD = 10**7


class SparsePolynomial:
    """Map from exponent vectors to nonzero integer coefficients."""

    __slots__ = ("nvars", "width", "terms")

    def __init__(self, nvars: int, width: int, terms: dict[int, int]):
        self.nvars = nvars
        self.width = width  # bits per variable in the packed keys
        self.terms = terms

    def unpack(self, key: int) -> tuple[int, ...]:
        mask = (1 << self.width) - 1
        shifts = range((self.nvars - 1) * self.width, -1, -self.width)
        return tuple((key >> s) & mask for s in shifts)

    def items(self):
        for key, coeff in self.terms.items():
            yield self.unpack(key), coeff

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return {exps: c for exps, c in self.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def num_terms(self) -> int:
        return len(self.terms)

    def evaluate(self, point) -> int:
        """Exact big-integer evaluation at an integer point."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        total = 0
        for exps, coeff in self.items():
            term = coeff
            for x, e in zip(point, exps):
                if e:
                    term *= x**e
            total += term
        return total

    def dump_lines(self) -> list[str]:
        """Debug/oracle format: 'coeff e_0 ... e_{n-1}', sorted by exponents."""
        rows = sorted(self.items())
        return [" ".join([str(c)] + [str(e) for e in exps]) for exps, c in rows]

    def __repr__(self):
        return f"SparsePolynomial(nvars={self.nvars}, terms={len(self.terms)})"


@dataclass(frozen=True)
class MonomialCertificate:
    """Witness for an Alon-Tarsi number: an exponent vector with nonzero
    coefficient in the graph polynomial whose largest exponent is atn - 1."""

    atn: int
    exponents: tuple[int, ...]
    coefficient: int

    def to_json_obj(self):
        return {
            "kind": "monomial",
            "atn": self.atn,
            "exponents": list(self.exponents),
            "coefficient": self.coefficient,
        }


def expand_capped(
    factors,
    nvars: int,
    cap: int,
    max_terms: int = DEFAULT_TERM_GUARD,
) -> SparsePolynomial:
    """Multiply the binomial factors, deleting terms with an exponent > cap.

    Raises MemoryGuardExceeded if the live term count passes max_terms.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    # cap+1 must fit in a field: a single multiplication bumps one exponent
    # by one, and the violating value is inspected before it can grow again.
    width = (cap + 1).bit_length()
    mask = (1 << width) - 1
    top = nvars - 1  # variable 0 sits in the most significant field
    terms = {0: 1}
    for u, v in factors:
        su, sv = (top - u) * width, (top - v) * width
        bump_u, bump_v = 1 << su, 1 << sv
        new: dict[int, int] = {}
        get = new.get
        for key, c in terms.items():
            ku = key + bump_u
            if (ku >> su) & mask <= cap:
                x = get(ku, 0) + c
                if x:
                    new[ku] = x
                elif ku in new:
                    del new[ku]
            kv = key + bump_v
            if (kv >> sv) & mask <= cap:
                x = get(kv, 0) - c
                if x:
                    new[kv] = x
                elif kv in new:
                    del new[kv]
        if len(new) > max_terms:
            raise MemoryGuardExceeded(
                f"live terms {len(new)} exceed guard {max_terms}"
            )
        terms = new
    return SparsePolynomial(nvars, width, terms)


def full_expansion(g: Graph, max_terms: int = DEFAULT_TERM_GUARD) -> SparsePolynomial:
    """The complete graph polynomial expansion (cap = m is no cap at all)."""
    return expand_capped(g.edges, g.n, max(g.m, 0), max_terms)


def atn_from_polynomial(
    g: Graph, max_terms: int = DEFAULT_TERM_GUARD
) -> tuple[int, MonomialCertificate]:
    """Alon-Tarsi number via capped expansions, with a monomial certificate.

    Finds the smallest b >= 1 whose (b-1)-capped expansion is nonzero; the
    capped expansion is monotone in the cap, so iterating b upward is sound.
    Every survivor at the first nonzero cap has maximum exponent exactly b-1
    (anything smaller would have survived the previous cap), and the
    certificate is the lexicographically smallest surviving exponent vector,
    which is the smallest packed key.
    """
    for b in range(1, g.m + 2):
        poly = expand_capped(g.edges, g.n, b - 1, max_terms)
        if not poly.is_zero():
            key = min(poly.terms)
            return b, MonomialCertificate(b, poly.unpack(key), poly.terms[key])
    raise AssertionError("graph polynomial expanded to zero at full cap")


def coefficient_of(g: Graph, target) -> int:
    """Exact coefficient of one monomial, by factor-by-factor descent.

    Each factor contributes its exponent bump to one endpoint; branches are
    pruned when an accumulated exponent passes its target or the factors
    still ahead cannot fill a vertex's remaining budget.  Total degree is m,
    so off-degree targets are zero immediately.
    """
    target = tuple(target)
    if len(target) != g.n:
        raise ValueError("target length must equal the vertex count")
    if any(t < 0 for t in target):
        return 0
    m = g.m
    if sum(target) != m:
        return 0
    factors = g.edges
    acc = [0] * g.n
    rem = [0] * g.n
    for u, v in factors:
        rem[u] += 1
        rem[v] += 1

    def rec(i: int) -> int:
        if i == m:
            return 1
        u, v = factors[i]
        rem[u] -= 1
        rem[v] -= 1
        total = 0
        if (
            acc[u] < target[u]
            and target[u] - acc[u] - 1 <= rem[u]
            and target[v] - acc[v] <= rem[v]
        ):
            acc[u] += 1
            total += rec(i + 1)
            acc[u] -= 1
        if (
            acc[v] < target[v]
            and target[v] - acc[v] - 1 <= rem[v]
            and target[u] - acc[u] <= rem[u]
        ):
            acc[v] += 1
            total -= rec(i + 1)
            acc[v] -= 1
        rem[u] += 1
        rem[v] += 1
        return total

    return rec(0)
