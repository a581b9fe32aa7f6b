"""Exact ground truth by exhaustive search: the minimum number of medium
edges over all proper k-edge-colourings, and existence of normal
k-colourings.

Both are ``colouring._min_medium_search``, the branch and bound behind the
3-colour shortcut: :func:`min_medium_exact` runs it with no bound and
:func:`exists_normal` with a bound of one medium edge.  Neither passes a
backtrack budget, so both always decide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import EdgeColouring, _min_medium_search, classify_all, MEDIUM
from .graph import GraphError, MultiGraph, validate_input


def _check_oracle_input(g: MultiGraph, k: int) -> None:
    if k < 3 or k > 6:
        raise GraphError("oracle palettes are limited to 3..6 colours")
    diag = validate_input(g)
    if not diag.ok:
        raise GraphError(f"oracle requires a validated input: {diag.reason}")


def min_medium_exact(g: MultiGraph, k: int) -> tuple[int, EdgeColouring]:
    """Exact minimum of medium edges over all proper k-edge-colourings,
    with the lexicographically first optimal witness in search order.

    Colour symmetry is broken by pinning the three colours at vertex 0
    (classes are invariant under colour renaming, so the count is exact).
    """
    _check_oracle_input(g, k)
    found = _min_medium_search(g, k)
    if found is None:
        raise GraphError(f"graph admits no proper {k}-edge-colouring")
    return found[0], EdgeColouring(k, found[1])


def exists_normal(g: MultiGraph, k: int) -> EdgeColouring | None:
    """A proper k-colouring with no medium edge, or None.

    The same search as :func:`min_medium_exact` with the bound set to one
    medium edge, so branches die the instant any frozen edge comes out
    medium, which is far faster.
    """
    _check_oracle_input(g, k)
    found = _min_medium_search(g, k, 1)
    return None if found is None else EdgeColouring(k, found[1])


@dataclass(frozen=True)
class ConjectureReport:
    normal_exists: bool
    petersen_map_valid: bool | None
    classification: str | None
    medium_edges_of_witness: int | None


def verify_conjecture_on(g: MultiGraph) -> ConjectureReport:
    """Search for a normal 5-colouring and cross-check the induced Petersen
    colouring.  Every bridgeless cubic graph is conjectured to admit one, so
    a graph where the search comes up empty would be a counterexample."""
    from .petersen import classify_petersen_colouring, normal_to_petersen

    witness = exists_normal(g, 5)
    if witness is None:
        return ConjectureReport(False, None, None, None)
    mediums = classify_all(g, witness).count(MEDIUM)
    pc = normal_to_petersen(g, witness)  # raises on an invalid map
    kind = classify_petersen_colouring(pc).kind
    return ConjectureReport(True, True, kind, mediums)
