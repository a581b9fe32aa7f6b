"""Reference colour searches: the three recursive backtrackers.

These are the searches that ``colouring._min_medium_search`` replaced, kept
as test oracles.  They recurse once per edge, so they raise
``RecursionError`` on graphs with about a thousand edges or more; the tests
run them on small graphs only and require the production searches to return
the same results and the same witnesses.
"""

from __future__ import annotations

from nearnormal.colouring import EdgeColouring, _search_order
from nearnormal.graph import GraphError, MultiGraph, validate_input


def search_order_choices(g: MultiGraph, order: list[int]) -> list[set[int]]:
    """Per position from 3 on, the edges that maximum cardinality search
    may take there after ``order``'s earlier positions, recounted from
    scratch at every step (O(m^2)): the unordered edges with the most
    ordered edges around it, one sharing both ends counted twice, or the
    lowest unordered id when no unordered edge touches an ordered one."""
    choices = []
    for i in range(3, g.m):
        done = set(order[:i])
        count = {
            f: sum(x != f and x in done for end in g.endpoints(f) for x in g.incident_edges(end))
            for f in range(g.m)
            if f not in done
        }
        top = max(count.values())
        choices.append({f for f, c in count.items() if c == top} if top else {min(count)})
    return choices


def try_3_edge_colouring(g: MultiGraph) -> EdgeColouring | None:
    """Exact backtracking; ``None`` when no proper 3-edge-colouring exists.

    Colour symmetry is broken by pinning the first vertex's edges to
    colours 1, 2, 3 in edge-id order (sound: any proper colouring can be
    renamed to match).
    """
    if g.m == 0:
        return EdgeColouring(3, ())
    order = _search_order(g)
    forced: dict[int, int] = {}
    if g.n and g.degree(0) == 3:
        for col, e in enumerate(sorted(g.incident_edges(0)), start=1):
            forced[e] = col
    nbr_ids = [{x for w in ends for x in g.incident_edges(w) if x != e} for e, ends in enumerate(g.edges)]
    colours = [0] * g.m

    def place(i: int) -> bool:
        if i == len(order):
            return True
        e = order[i]
        options = (forced[e],) if e in forced else (1, 2, 3)
        blocked = {colours[x] for x in nbr_ids[e] if colours[x]}
        for col in options:
            if col in blocked:
                continue
            colours[e] = col
            if place(i + 1):
                return True
            colours[e] = 0
        return False

    if place(0):
        return EdgeColouring(3, tuple(colours))
    return None


def _prepare(g: MultiGraph, symmetry_break: bool):
    order = _search_order(g)
    pos = {e: i for i, e in enumerate(order)}
    nbrs = [tuple({x for w in ends for x in g.incident_edges(w) if x != e}) for e, ends in enumerate(g.edges)]
    finalize_at: list[list[int]] = [[] for _ in range(g.m)]
    for e in range(g.m):
        finalize_at[max(pos[x] for x in nbrs[e])].append(e)
    forced: dict[int, int] = {}
    if symmetry_break and g.n and g.degree(0) == 3:
        for col, e in enumerate(sorted(g.incident_edges(0)), start=1):
            forced[e] = col
    return order, nbrs, finalize_at, forced


def min_medium_exact(
    g: MultiGraph, k: int, symmetry_break: bool = True
) -> tuple[int, EdgeColouring]:
    """Exact minimum of medium edges over all proper k-edge-colourings,
    with the lexicographically first optimal witness in search order.

    Colour symmetry is broken by pinning the three colours at vertex 0
    (classes are invariant under colour renaming, so the count is exact);
    disable it only to cross-check that very fact.
    """
    if k < 3 or k > 6:
        raise GraphError("oracle palettes are limited to 3..6 colours")
    diag = validate_input(g)
    if not diag.ok:
        raise GraphError(f"oracle requires a validated input: {diag.reason}")
    order, nbrs, finalize_at, forced = _prepare(g, symmetry_break)
    m = g.m
    colours = [0] * m
    best: int | None = None
    best_cols: tuple[int, ...] | None = None

    def search(i: int, frozen_medium: int) -> None:
        nonlocal best, best_cols
        if best is not None and frozen_medium >= best:
            return
        if i == m:
            best = frozen_medium
            best_cols = tuple(colours)
            return
        e = order[i]
        blocked = 0
        for x in nbrs[e]:
            if colours[x]:
                blocked |= 1 << colours[x]
        options = (forced[e],) if e in forced else range(1, k + 1)
        for col in options:
            if blocked >> col & 1:
                continue
            colours[e] = col
            newly = 0
            for f in finalize_at[i]:
                seen = set()
                for x in nbrs[f]:
                    seen.add(colours[x])
                if len(seen) == 3:
                    newly += 1
            search(i + 1, frozen_medium + newly)
            colours[e] = 0

    search(0, 0)
    if best is None:
        raise GraphError(f"graph admits no proper {k}-edge-colouring")
    witness = EdgeColouring(k, best_cols)
    return best, witness


def exists_normal(g: MultiGraph, k: int) -> EdgeColouring | None:
    """A proper k-colouring with no medium edge, or None.

    Equivalent to asking min_medium_exact for zero, but branches die the
    instant any frozen edge comes out medium, which is far faster.
    """
    if k < 3 or k > 6:
        raise GraphError("oracle palettes are limited to 3..6 colours")
    diag = validate_input(g)
    if not diag.ok:
        raise GraphError(f"oracle requires a validated input: {diag.reason}")
    order, nbrs, finalize_at, forced = _prepare(g, True)
    m = g.m
    colours = [0] * m

    def search(i: int) -> bool:
        if i == m:
            return True
        e = order[i]
        blocked = 0
        for x in nbrs[e]:
            if colours[x]:
                blocked |= 1 << colours[x]
        options = (forced[e],) if e in forced else range(1, k + 1)
        for col in options:
            if blocked >> col & 1:
                continue
            colours[e] = col
            ok = True
            for f in finalize_at[i]:
                seen = set()
                for x in nbrs[f]:
                    seen.add(colours[x])
                if len(seen) == 3:
                    ok = False
                    break
            if ok and search(i + 1):
                return True
            colours[e] = 0
        return False

    if search(0):
        return EdgeColouring(k, tuple(colours))
    return None
