"""The 2-factor choice as it was made by enumerating perfect matchings,
kept as a test oracle for ``nearnormal.factor.choose_two_factor``.

It sorts the first ``limit`` enumerated matchings, so wherever a graph has
at most ``limit`` perfect matchings it is complete: its 2-factor has a cycle
of length other than 5 exactly when some 2-factor of the graph has one.
The tests check that ``choose_two_factor`` finds such a cycle exactly then.
:func:`is_perfect_matching` is the direct check that
``two_factor_from_matching`` replaced by the 2-regularity of G - M.
"""

from __future__ import annotations

from nearnormal.factor import (
    DEFAULT_MATCHING_LIMIT,
    TwoFactor,
    enumerate_perfect_matchings,
    two_factor_from_matching,
)
from nearnormal.graph import GraphError, MultiGraph


def is_perfect_matching(g: MultiGraph, m) -> bool:
    covered = set()
    for e in m:
        u, v = g.endpoints(e)
        if u in covered or v in covered:
            return False
        covered.add(u)
        covered.add(v)
    return len(covered) == g.n


def choose_two_factor(g: MultiGraph, limit: int = DEFAULT_MATCHING_LIMIT) -> TwoFactor:
    """Pick the 2-factor the construction starts from.

    Take the lexicographically first enumerated perfect matching whose
    2-factor contains a cycle of length other than 5; such a 2-factor exists
    for every connected bridgeless cubic graph except the Petersen graph, and
    it makes the final medium bound strict.  Above ``limit`` matchings the
    enumeration stops early, so the choice is the first among the ``limit``
    matchings found, not among all of them.
    """
    matchings = enumerate_perfect_matchings(g, limit)
    if not matchings:
        raise GraphError("graph has no perfect matching")
    fallback: TwoFactor | None = None
    for m in matchings:
        tf = two_factor_from_matching(g, m)
        if fallback is None:
            fallback = tf
        if any(len(cyc) != 5 for cyc in tf.cycles):
            return tf
    return fallback
