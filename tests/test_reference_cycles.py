"""The recursive searches leave no garbage for the cyclic collector.

A nested function that calls itself holds itself through its closure, so
unless the cycle is broken every call leaves the function and the tables it
closes over for the collector, and peak memory depends on when that runs."""

import gc

import pytest

from alontarsi import (
    Orientation,
    atn_from_orientations,
    atn_from_polynomial,
    canonical_key,
    chromatic_number,
    complete_bipartite,
    connected_graphs,
    edge_coloring,
    enumerated_census,
    eulerian_census,
    is_isomorphic,
    is_k_choosable,
    orientation_census_table,
    petersen_graph,
)

PETERSEN = petersen_graph()

CALLS = {
    "eulerian_census": lambda: eulerian_census(Orientation.from_int(PETERSEN, 0x1234)),
    "enumerated_census": lambda: enumerated_census(Orientation.from_int(PETERSEN, 0x1234)),
    "atn_from_orientations": lambda: atn_from_orientations(PETERSEN),
    "orientation_census_table": lambda: orientation_census_table(PETERSEN),
    "canonical_key": lambda: canonical_key(PETERSEN),
    "connected_graphs": lambda: connected_graphs(6),
    "atn_from_polynomial": lambda: atn_from_polynomial(PETERSEN),
    "edge_coloring": lambda: edge_coloring(PETERSEN, 4),
    "is_isomorphic": lambda: is_isomorphic(PETERSEN, PETERSEN),
    "is_k_choosable": lambda: is_k_choosable(complete_bipartite(2, 2), 2),
    "chromatic_number": lambda: chromatic_number(PETERSEN),
}


@pytest.mark.parametrize("name", CALLS)
def test_call_leaves_no_cyclic_garbage(name):
    gc.collect()
    gc.disable()
    try:
        CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()
