"""Line, subdivision, and total graphs; factorizations and embeddings.

Everything downstream consumes these constructions. Each returns a plain
graph whose vertex numbering follows the canonical edge order: vertex i of
L(G) is G's i-th edge, and S(G) and T(G) keep G on 0..n-1 with edge i at n+i.
The total graph is the square of the subdivision graph: its two half-squares
are the original graph and the line graph, and the cross edges are the
subdivision's edges.
"""

from alontarsi import (
    chromatic_index_class,
    class2_augment,
    complete_graph,
    cycle_graph,
    edge_coloring,
    line_graph,
    one_factorization,
    petersen_graph,
    regular_embed_class1,
    star_graph,
    subdivision_graph,
    to_edge_list_text,
    total_graph,
)

K4 = complete_graph(4)

# ── line graph ─────────────────────────────────────────────────────────
L = line_graph(K4)
print(f"L(K4): {L.n} vertices, {L.m} edges, degrees {set(L.degrees())}")
print("edge (0,1) of K4 became vertex", K4.edges.index((0, 1)))

# ── subdivision and total ──────────────────────────────────────────────
S = subdivision_graph(K4)
print(f"S(K4): {S.n} vertices, {S.m} edges, "
      f"edge-vertices {K4.n}..{S.n - 1} of degree {set(S.degrees()[K4.n:])}")

T = total_graph(cycle_graph(4))
print(f"T(C4): {T.n} vertices, {T.m} edges, degrees {set(T.degrees())}")
print("an original vertex has degree 2*deg, an edge-vertex deg(u)+deg(v)")

# graphs serialize to a plain edge-list format
print("\nedge-list serialization of T(K2):")
print(to_edge_list_text(total_graph(complete_graph(2))), end="")

# ── one-factorizations ─────────────────────────────────────────────────
f = one_factorization(K4)
print("\nthe unique one-factorization of K4:")
for factor in f.factors:
    print("   ", factor)
print("petersen graph:", one_factorization(petersen_graph()),
      "(3-regular but not 1-factorizable)")

# ── chromatic index and the two repair constructions ───────────────────
# chi' = Delta + class - 1; a class-1 witness is edge_coloring(g, Delta)
C5 = cycle_graph(5)
print(f"\nC5 is class {chromatic_index_class(C5)}; "
      f"K4 is class {chromatic_index_class(K4)}, "
      f"witness {edge_coloring(K4, K4.max_degree())}")

# a class-1 graph embeds into a regular graph of the same maximum degree:
# take enough disjoint copies and repair deficiencies with cross matchings
host = regular_embed_class1(star_graph(3))
print(f"K1,3 embeds in a 3-regular host on {host.n} vertices, "
      f"induced on vertices 0..3: {host.induced(range(4))[0].edges}; "
      f"host 1-factorizable: {one_factorization(host, max_n=16) is not None}")

# a class-2 graph first gets a pendant at a maximum-degree vertex, which
# bumps the maximum degree and always lands in class 1
aug, attach = class2_augment(C5)
print(f"C5 + pendant vertex {C5.n} at vertex {attach}: "
      f"class {chromatic_index_class(aug)}")
