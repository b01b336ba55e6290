"""Exact Alon-Tarsi numbers of small graphs, two independent ways.

The polynomial route expands the graph polynomial (the product of x_u - x_v
over edges) with per-variable exponent caps and reads the number off the
surviving monomials; the orientation route enumerates orientations and
counts even and odd Eulerian subdigraphs.  Around them: the line,
subdivision, and total graph constructions, one-factorizations and
chromatic-index classification, brute-force coloring and choosability
oracles, clique configurations of the Erdos-Faber-Lovasz kind, and
verification campaigns that machine-check the bound claims on exhaustive
small-instance families.
"""

from .canon import (
    all_graphs,
    canonical_key,
    connected_graphs,
    graphs_with_edge_budget,
    is_isomorphic,
)
from .coloring import (
    chromatic_number,
    choice_number,
    is_k_choosable,
    proper_coloring_from_lists,
)
from .efl import (
    EflConfig,
    EflDecomposition,
    build_graph,
    canonical_config_key,
    clique_degrees,
    contact_vertices,
    decompose,
    generate_all,
    hypothesis_check,
    theorem4_certify,
)
from .errors import InvalidConfig, SizeGuardExceeded
from .graphs import (
    Graph,
    OneFactorization,
    chromatic_index_class,
    class2_augment,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_coloring,
    line_graph,
    named_graph,
    one_factorization,
    parse_edge_list_text,
    path_graph,
    petersen_graph,
    regular_embed_class1,
    star_graph,
    subdivision_graph,
    to_edge_list_text,
    total_graph,
)
from .orientations import (
    EulerianCensus,
    Orientation,
    OrientationCertificate,
    atn_from_orientations,
    eulerian_census,
    orientation_census_table,
)
from .polynomials import (
    LowerBound,
    MonomialCertificate,
    SparsePolynomial,
    atn_from_polynomial,
    coefficient_of,
    expand_capped,
    full_expansion,
)
from .verify import (
    CAMPAIGNS,
    campaign_passed,
    default_config,
    run_campaign,
)

__version__ = "0.1.0"
