"""The exact two-pass selection search, kept as a test oracle for the
greedy ``selection.find_optimal_selection``.

Pass one finds the maximum selection size and pass two, restricted to that
size, the maximum number of degree-2 cycles.  Both passes are recursive
closures that recurse once per eligible edge, so they raise
``RecursionError`` with about a thousand eligible edges; the tests run them
on smaller 2-factors only.  The greedy pass never beats this optimum, and
it returns the same selection on the 2-factors the pipeline constructs
from (corpus bases, flower snarks and Petersen inflations).
"""

from __future__ import annotations

from nearnormal.colouring import ColouringError
from nearnormal.factor import TwoFactor
from nearnormal.graph import GraphError
from nearnormal.selection import _attachments, eligible_edges


def selection_violation(tf: TwoFactor, selected) -> str | None:
    """The first violated defining property of ``selected``, as
    ``selection._attachments`` names it, or None if the selection is valid."""
    try:
        _attachments(tf, selected)
    except ColouringError as exc:
        return str(exc).removeprefix("invalid selection: ")
    return None


def find_optimal_selection(tf: TwoFactor) -> frozenset[int]:
    """Exact branch-and-bound over the eligible edges.

    Pass one maximises the selection size; pass two, restricted to that
    size, maximises the number of degree-2 cycles.  Edges are branched in
    increasing id order with the include-branch first, so the first
    selection reaching the best score is the lexicographically smallest.
    """
    edges = sorted(eligible_edges(tf))
    g = tf.graph
    ncyc = len(tf.cycles)
    side: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for e in edges:
        u, v = g.endpoints(e)
        side.append(((tf.cycle_of_vertex[u], u), (tf.cycle_of_vertex[v], v)))

    deg = [0] * ncyc
    ends: list[list[int]] = [[] for _ in range(ncyc)]  # attachment vertices
    chosen: list[int] = []

    def fits(i: int) -> bool:
        for c, vertex in side[i]:
            if deg[c] == 2:
                return False
            if deg[c] == 1:
                p1 = tf.position_on_cycle(c, ends[c][0])
                p2 = tf.position_on_cycle(c, vertex)
                ell = tf.cycle_length(c)
                if (p1 - p2) % ell not in (1, ell - 1):
                    return False
        return True

    def push(i: int) -> None:
        chosen.append(edges[i])
        for c, vertex in side[i]:
            deg[c] += 1
            ends[c].append(vertex)

    def pop(i: int) -> None:
        chosen.pop()
        for c, _vertex in side[i]:
            deg[c] -= 1
            ends[c].pop()

    best_size = 0

    def max_size(i: int) -> None:
        nonlocal best_size
        best_size = max(best_size, len(chosen))
        if i == len(edges) or len(chosen) + (len(edges) - i) <= best_size:
            return
        if fits(i):
            push(i)
            max_size(i + 1)
            pop(i)
        max_size(i + 1)

    max_size(0)

    best: tuple[int, frozenset[int]] | None = None

    def max_deg2(i: int) -> None:
        nonlocal best
        remaining = len(edges) - i
        needed = best_size - len(chosen)
        if needed > remaining:
            return
        if needed == 0:
            score = sum(1 for d in deg if d == 2)
            if best is None or score > best[0]:
                best = (score, frozenset(chosen))
            return
        # each extra edge can raise at most two cycles to degree 2
        if best is not None:
            bound = sum(1 for d in deg if d == 2) + 2 * needed
            if bound < best[0]:
                return
        if fits(i):
            push(i)
            max_deg2(i + 1)
            pop(i)
        max_deg2(i + 1)

    max_deg2(0)
    assert best is not None
    selected = best[1]
    violation = selection_violation(tf, selected)
    if violation is not None:
        raise GraphError(f"search produced an invalid selection: {violation}")
    return selected
