"""Edge selections: sets of perfect-matching edge ids joining distinct odd
cycles, at most two per cycle and consecutive when two.  Each cycle's
attachments, and so its degree, are read off the set by :func:`_attachments`,
which checks the set as it builds them.

The selection is maximal, from one greedy pass, and not proven optimal
(maximum size, then most degree-2 cycles): the charge audit certifies the
4n/5 bound on each run, and on every 2-factor tried it needed no more than
a maximal selection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factor import TwoFactor

SINGLETON = "singleton"
PATH = "path"
CYCLE = "cycle"
DOUBLE_EDGE = "double_edge"


@dataclass(frozen=True)
class SComponent:
    """Maximal set of cycles connected through selected edges; ``shape``
    classifies the quotient multigraph on the member cycles."""

    cycles: frozenset[int]
    associated_edges: frozenset[int]
    shape: str


def eligible_edges(tf: TwoFactor) -> set[int]:
    """Matching edges whose endpoints lie on two distinct odd cycles."""
    odd = set(tf.odd_cycles())
    out = set()
    for e in tf.matching:
        u, v = tf.graph.edges[e]
        cu, cv = tf.cycle_of_vertex[u], tf.cycle_of_vertex[v]
        if cu != cv and cu in odd and cv in odd:
            out.add(e)
    return out


def _invalid(violation: str) -> Exception:
    from .colouring import ColouringError  # colouring imports this module

    return ColouringError(f"invalid selection: {violation}")


def _attachments(tf: TwoFactor, selected) -> dict[int, list[int]]:
    """Per cycle, the vertices where the selected edges attach, in edge-id
    order; the list's length is the cycle's selection degree.  The lists
    are checked as they are built: an invalid selection raises
    :class:`colouring.ColouringError` naming its first violated defining
    property."""
    odd = set(tf.odd_cycles())
    att: dict[int, list[int]] = {}
    for e in sorted(selected):
        if e not in tf.matching:
            raise _invalid(f"edge {e} is not a matching edge")
        u, v = tf.graph.edges[e]
        cu, cv = tf.cycle_of_vertex[u], tf.cycle_of_vertex[v]
        if cu == cv:
            raise _invalid(f"edge {e} is a chord")
        if cu not in odd or cv not in odd:
            raise _invalid(f"edge {e} touches an even cycle")
        att.setdefault(cu, []).append(u)
        att.setdefault(cv, []).append(v)
    for c, ends in att.items():
        if len(ends) > 2:
            raise _invalid(f"cycle {c} is incident to {len(ends)} selected edges")
        ell = tf.cycle_length(c)
        if len(ends) == 2 and (tf.position[ends[0]] - tf.position[ends[1]]) % ell not in (1, ell - 1):
            raise _invalid(f"selected edges at cycle {c} are not consecutive")
    return att


def find_optimal_selection(tf: TwoFactor) -> frozenset[int]:
    """A maximal selection, by one greedy pass over the eligible edges.

    An edge's load is the number of eligible edges at its two cycles, added
    together.  Edges are taken in increasing (load, id) order, and each one
    that still fits (its cycles have degree 0, or degree 1 with the new end
    next to the first one) is kept.  So no eligible edge can be added to
    the result, but it is not proven to be of maximum size or to have the
    most degree-2 cycles: the charge audit, not this pass, certifies the
    bound.  Taking low loads first matters: in plain id order an edge
    joining two long cycles can block two edges that each join one of them
    to a 5-cycle.
    The result is not checked here: :func:`colouring.construct_colouring`
    checks every selection it is handed with :func:`_attachments`.
    """
    edges = eligible_edges(tf)
    # per edge, the (cycle, position on it) of both endpoints
    ends = {e: [(tf.cycle_of_vertex[x], tf.position[x]) for x in tf.graph.edges[e]] for e in edges}
    at = [0] * len(tf.cycles)  # eligible edges per cycle
    for pair in ends.values():
        for c, _p in pair:
            at[c] += 1
    length = [len(cyc) for cyc in tf.cycles]
    deg = [0] * len(tf.cycles)
    first = [0] * len(tf.cycles)  # where a cycle's first selected edge attaches
    selected = []
    for e in sorted(edges, key=lambda e: (sum(at[c] for c, _p in ends[e]), e)):
        if all(deg[c] == 0 or (deg[c] == 1 and (first[c] - p) % length[c] in (1, length[c] - 1))
               for c, p in ends[e]):
            for c, p in ends[e]:
                deg[c] += 1
                first[c] = p  # read only while deg[c] == 1
            selected.append(e)
    return frozenset(selected)


def s_components(tf: TwoFactor, selected: frozenset[int]) -> list[SComponent]:
    """Partition of all cycles under selected-edge adjacency, with the shape
    of each component's quotient multigraph."""
    ncyc = len(tf.cycles)
    adj: dict[int, list[tuple[int, int]]] = {c: [] for c in range(ncyc)}
    for e in sorted(selected):
        u, v = tf.graph.endpoints(e)
        cu, cv = tf.cycle_of_vertex[u], tf.cycle_of_vertex[v]
        adj[cu].append((cv, e))
        adj[cv].append((cu, e))
    seen = [False] * ncyc
    out: list[SComponent] = []
    for start in range(ncyc):
        if seen[start]:
            continue
        comp = {start}
        edges: set[int] = set()
        stack = [start]
        seen[start] = True
        while stack:
            c = stack.pop()
            for d, e in adj[c]:
                edges.add(e)
                if not seen[d]:
                    seen[d] = True
                    comp.add(d)
                    stack.append(d)
        out.append(
            SComponent(
                cycles=frozenset(comp),
                associated_edges=frozenset(edges),
                shape=_shape(comp, edges, adj),
            )
        )
    return out


def _shape(comp: set[int], edges: set[int], adj) -> str:
    if len(comp) == 1:
        return SINGLETON
    if len(comp) == 2 and len(edges) == 2:
        return DOUBLE_EDGE
    if all(len(adj[c]) == 2 for c in comp):
        return CYCLE
    return PATH
