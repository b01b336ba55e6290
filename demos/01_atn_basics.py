"""Computing Alon-Tarsi numbers two independent ways.

The graph polynomial of G is the product of (x_u - x_v) over the edges,
u < v.  Its Alon-Tarsi number is one more than the smallest maximum exponent
over monomials with nonzero coefficient.  The same number falls out of
orientations: one more than the least maximum outdegree over orientations
whose even and odd Eulerian subdigraph counts differ.  This script walks
both routes on a triangle and a four-cycle and checks they agree.
"""

from alontarsi import (
    Orientation,
    atn_from_orientations,
    atn_from_polynomial,
    coefficient_of,
    complete_graph,
    cycle_graph,
    eulerian_census,
    expand_capped,
    full_expansion,
)

# ── the triangle, by hand ──────────────────────────────────────────────
K3 = complete_graph(3)
print("factors of the K3 polynomial, one (x_u - x_v) per edge:", K3.edges)

poly = full_expansion(K3)
print("full expansion, one line per monomial (coeff e0 e1 e2):")
for exps, coeff in sorted(poly.items()):
    print("   ", coeff, *exps)

# the all-ones monomial cancels, so no orientation with all outdegrees 1
# can be Alon-Tarsi, and the number is 3, not 2
print("coefficient of x0*x1*x2:", coefficient_of(K3, (1, 1, 1)))

value, cert = atn_from_polynomial(K3)
print(f"ATN(K3) = {value}, certificate monomial {cert.exponents} "
      f"with coefficient {cert.coefficient}")

# ── capping the expansion ──────────────────────────────────────────────
# expanding with a per-variable exponent cap keeps only the monomials the
# definition cares about; cap 1 kills everything for the triangle
capped = expand_capped(K3.edges, 3, 1)
print("K3 capped at exponent 1 is the zero polynomial:", not capped.terms)

# ── the same numbers from orientations ─────────────────────────────────
value, cert = atn_from_orientations(K3)
print(f"orientation route: ATN(K3) = {value}, orientation bits {cert.orientation.bits}, "
      f"census even={cert.census.even}, odd={cert.census.odd}")

C4 = cycle_graph(4)
cyclic = Orientation(C4, (0, 1, 0, 0))  # the directed four-cycle
census = eulerian_census(cyclic)
print(f"cyclic C4 census: even={census.even}, odd={census.odd} "
      f"(the empty subdigraph and the full cycle)")
print("cyclic C4 is Alon-Tarsi:", census.alon_tarsi)
print("ATN(C4) =", atn_from_orientations(C4)[0])

# ── the correspondence, orientation by orientation ─────────────────────
# for any orientation, |coefficient at its outdegree vector| equals
# |even - odd| of its census; this is the identity the duality campaign
# checks exhaustively for every graph with at most 8 edges
for bits in range(2 ** C4.m):
    d = Orientation.from_int(C4, bits)
    assert abs(coefficient_of(C4, d.outdegrees())) == eulerian_census(d).difference
print("duality identity holds for all 16 orientations of C4")
