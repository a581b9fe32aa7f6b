"""The construction's cycle colouring as it was written before it read the
2-factor's positions directly, kept as a test oracle for
``colouring.construct_colouring``.

It places each odd cycle's colour-3 edge through the checked position
accessors, reads that edge's position off its two ends, colours each odd
cycle's {1,2} path in traversal order from just after that edge, ties the
phases together with one constraint per selected edge, and assembles the
matching, the even cycles, the colour-3 edges and the paths in separate
loops.  No benchmarked graph builds a degree-2 selection, so the report
digest cannot show the new code unchanged on that path; comparing the two
on the corpus 2-factors can.
"""

from __future__ import annotations

from collections import deque

from nearnormal.factor import TwoFactor
from nearnormal.selection import CYCLE, SComponent, _attachments, s_components


def place_colour_3(tf: TwoFactor, attachments: dict[int, list[int]]) -> dict[int, int]:
    """Choose the colour-3 edge of every odd cycle from the attachment
    vertices of a valid selection.

    The chosen edge must be adjacent to every selected edge at the cycle:
    for degree 2 that forces the edge between the two (consecutive)
    attachment vertices; for degree 1 we fix the successor edge at the
    attachment; for degree 0 the edge between positions 0 and 1.
    """
    placed: dict[int, int] = {}
    for c in tf.odd_cycles():
        ell = tf.cycle_length(c)
        points = attachments.get(c, [])
        if not points:
            placed[c] = tf.cycle_edges[c][0]
        elif len(points) == 1:
            p = tf.position_on_cycle(c, points[0])
            placed[c] = tf.cycle_edges[c][p]
        else:
            p1 = tf.position_on_cycle(c, points[0])
            p2 = tf.position_on_cycle(c, points[1])
            placed[c] = tf.cycle_edges[c][p1 if (p2 - p1) % ell == 1 else p2]
    return placed


def _path_edges(tf: TwoFactor, c: int, three_edge: int) -> list[int]:
    """Cycle edges of ``c`` minus the colour-3 edge, in traversal order
    starting just after it."""
    eids = tf.cycle_edges[c]
    ell = len(eids)
    u, v = tf.graph.edges[three_edge]
    i = tf.position[u] if (tf.position[v] - tf.position[u]) % ell == 1 else tf.position[v]
    return [eids[(i + 1 + t) % ell] for t in range(ell - 1)]


def _flank_parity(tf: TwoFactor, c: int, vertex: int, three_edge: int) -> int:
    """Position parity, along the {1,2} path, of the cycle edge at ``vertex``
    that is not the colour-3 edge."""
    ell = tf.cycle_length(c)
    p = tf.position_on_cycle(c, vertex)
    j = p - 1 if tf.cycle_edges[c][p] == three_edge else p
    u, v = tf.graph.edges[three_edge]
    i = tf.position[u] if (tf.position[v] - tf.position[u]) % ell == 1 else tf.position[v]
    return ((j - i - 1) % ell) & 1


def solve_path_phases(
    tf: TwoFactor, components: tuple[SComponent, ...], three_edges: dict[int, int]
) -> dict[int, int]:
    """The {1,2} colours of the odd-cycle paths: one phase per odd cycle,
    one equality constraint per selected edge, the smallest edge of an odd
    quotient cycle left out, phases spread by breadth-first search from the
    smallest cycle of each component."""
    g = tf.graph
    phase: dict[int, int] = {}
    for comp in components:
        if not comp.associated_edges:
            continue
        skip = None
        if comp.shape == CYCLE and len(comp.cycles) % 2 == 1:
            skip = min(comp.associated_edges)
        constraints: dict[int, list[tuple[int, int]]] = {c: [] for c in comp.cycles}
        for e in sorted(comp.associated_edges - {skip}):
            u, v = g.endpoints(e)
            cu, cv = tf.cycle_of_vertex[u], tf.cycle_of_vertex[v]
            rel = _flank_parity(tf, cu, u, three_edges[cu]) ^ _flank_parity(
                tf, cv, v, three_edges[cv]
            )
            constraints[cu].append((cv, rel))
            constraints[cv].append((cu, rel))
        root = min(comp.cycles)
        phase[root] = 0
        queue = deque([root])
        while queue:
            c = queue.popleft()
            for d, rel in constraints[c]:
                if d not in phase:
                    phase[d] = phase[c] ^ rel
                    queue.append(d)
    colours: dict[int, int] = {}
    for c in tf.odd_cycles():
        b = phase.get(c, 0)
        for t, e in enumerate(_path_edges(tf, c, three_edges[c])):
            colours[e] = 1 + ((t & 1) ^ b)
    return colours


def construct(tf: TwoFactor, selected: frozenset[int]) -> tuple[dict[int, int], tuple[int, ...]]:
    """The colour-3 edge of each odd cycle and the colour of every edge,
    for a valid selection on a simple triangle-free graph (not checked)."""
    cols = [0] * tf.graph.m
    for e in tf.matching:
        cols[e] = 4
    for c, cyc in enumerate(tf.cycles):
        if len(cyc) % 2 == 0:
            for t, e in enumerate(tf.cycle_edges[c]):
                cols[e] = 1 + (t & 1)
    three = place_colour_3(tf, _attachments(tf, selected))
    for e in three.values():
        cols[e] = 3
    for e, col in solve_path_phases(tf, tuple(s_components(tf, selected)), three).items():
        cols[e] = col
    return three, tuple(cols)
