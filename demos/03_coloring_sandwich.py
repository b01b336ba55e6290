"""The sandwich chi <= ch <= ATN, with brute-force coloring oracles.

The choice number sits between the chromatic number and the Alon-Tarsi
number.  The choosability oracle enumerates list assignments up to color
renaming and returns a concrete bad assignment when one exists.
"""

from alontarsi import (
    atn_from_polynomial,
    choice_number,
    chromatic_number,
    complete_graph,
    connected_graphs,
    cycle_graph,
    is_k_choosable,
    line_graph,
)

# ── a non-choosable instance with its witness ──────────────────────────
ok, witness = is_k_choosable(complete_graph(3), 2)
print("K3 is 2-choosable:", ok)
print("bad lists found:", witness, "(all equal, and chi(K3) = 3)")

ok, _ = is_k_choosable(cycle_graph(4), 2)
print("C4 is 2-choosable:", ok, "(even cycles are)")

# ── the sandwich on every connected graph with up to 4 vertices ────────
print(f"\n{'graph':<24} {'chi':>4} {'ch':>4} {'ATN':>4}")
for g in connected_graphs(6, max_vertices=4):
    chi = chromatic_number(g)
    ch = choice_number(g)
    atn, _ = atn_from_polynomial(g)
    assert chi <= ch <= atn
    print(f"{str(g.edges):<24} {chi:>4} {ch:>4} {atn:>4}")
print("chi <= ch <= ATN held on every instance")

# ── chromatic-choosability of line graphs ──────────────────────────────
# line graphs are conjectured chromatic-choosable (ch = chi), and the
# Alon-Tarsi bound is ATN(L(G)) <= Delta(G) + 1; L(C4) is C4 again
L = line_graph(cycle_graph(4))
chi = chromatic_number(L)
ch = choice_number(L)
atn, _ = atn_from_polynomial(L)
assert chi == ch and atn <= 2 + 1
print(f"\nL(C4): chi = {chi}, ch = {ch}, ATN = {atn} (Delta(C4) + 1 = 3)")
