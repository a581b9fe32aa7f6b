"""Exact ground truth by exhaustive search: the minimum number of medium
edges over all proper k-edge-colourings, and existence of normal
k-colourings.

Both are ``colouring._min_medium_search``, the branch and bound behind the
3-colour shortcut.  :func:`exists_normal` runs it with a bound of one medium
edge.  :func:`min_medium_exact` runs that same pass first and the unbounded
search only when it finds nothing, since the unbounded search reaches a
minimum of 0 slowly: its first complete colourings carry many medium edges,
and it lowers the bound one colouring at a time.  Neither passes a backtrack
budget, so both always decide.
"""

from __future__ import annotations

from .colouring import EdgeColouring, _min_medium_search
from .graph import GraphError, MultiGraph, validate_input


class NoColouringError(GraphError):
    """The graph has no proper k-edge-colouring.  A connected bridgeless
    cubic graph always has a proper 4-edge-colouring, so only k = 3 can
    raise it."""


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

    The search with a bound of one medium edge runs first; the unbounded
    search runs only when that finds nothing.  Both return the first
    colouring in search order with the minimum when that minimum is below
    their bound, so the witness is the unbounded search's either way.  For
    k = 3 the one pass decides, since every proper 3-edge-colouring has no
    medium edge.  Raises :class:`NoColouringError` when no proper
    k-edge-colouring exists.
    """
    _check_oracle_input(g, k)
    found = _min_medium_search(g, k, 1)
    if found is None and k > 3:
        found = _min_medium_search(g, k)
    if found is None:
        raise NoColouringError(f"graph admits no proper {k}-edge-colouring")
    return found[0], EdgeColouring(k, found[1])


def exists_normal(g: MultiGraph, k: int) -> EdgeColouring | None:
    """A proper k-colouring with no medium edge, or None.

    The first pass of :func:`min_medium_exact`: the search with the bound
    set to one medium edge, so a branch dies the moment one edge is counted
    medium (for k = 4, as soon as its coloured neighbours show three
    colours; for k >= 5, once its last neighbour is coloured).
    """
    _check_oracle_input(g, k)
    found = _min_medium_search(g, k, 1)
    return None if found is None else EdgeColouring(k, found[1])
