"""Near-normal 4-edge-colourings of bridgeless cubic multigraphs.

The package constructs, for any connected bridgeless cubic (multi)graph, a
proper 4-edge-colouring with provably few medium edges, verifies the
construction by replaying an exact charge-accounting audit, and ships
brute-force oracles for cross-checking.
"""

from .colouring import (
    EdgeColouring,
    construct_colouring,
    medium_count,
    try_3_edge_colouring,
)
from .factor import TwoFactor, choose_two_factor, enumerate_perfect_matchings, two_factor_from_matching
from .graph import (
    Diagnosis,
    GraphError,
    MultiGraph,
    build_graph,
    validate_input,
)
from .oracle import exists_normal, min_medium_exact
from .pipeline import BoundViolation, colour_graph
from .selection import SComponent, find_optimal_selection, s_components

__all__ = [
    "BoundViolation",
    "Diagnosis",
    "EdgeColouring",
    "GraphError",
    "MultiGraph",
    "SComponent",
    "TwoFactor",
    "build_graph",
    "choose_two_factor",
    "colour_graph",
    "construct_colouring",
    "enumerate_perfect_matchings",
    "exists_normal",
    "find_optimal_selection",
    "medium_count",
    "min_medium_exact",
    "s_components",
    "try_3_edge_colouring",
    "two_factor_from_matching",
    "validate_input",
]

__version__ = "0.1.0"
