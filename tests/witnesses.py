"""Hand-built cubic graphs that drive construction branches the small
corpus never reaches: an odd quotient-cycle component (forcing the single
medium selected edge) and configurations firing each cycle-to-cycle
discharging rule.

Each builder returns (graph, matching edge ids); the intended 2-factor is
recovered with two_factor_from_matching.  Matching edges are listed first in
the edge lists so tie-breaks on edge ids pick the intended selection.
"""

from __future__ import annotations

from nearnormal.factor import TwoFactor, two_factor_from_matching
from nearnormal.graph import MultiGraph, build_graph


def _cycle_edges(vertices: list[int]) -> list[tuple[int, int]]:
    return [
        (vertices[i], vertices[(i + 1) % len(vertices)])
        for i in range(len(vertices))
    ]


def odd_triangle_component() -> tuple[MultiGraph, list[int]]:
    """Three 5-cycles A, B, C pairwise joined by one matching edge (the
    quotient is a triangle), a degree-0 5-cycle D, and a 14-cycle E
    absorbing every remaining matching edge.

    Only the three A-B-C edges are eligible, so the optimal selection is
    forced and its unique component quotient is an odd cycle: exactly one
    selected edge must come out medium.  D fires rule R2 into E.
    """
    a = list(range(0, 5))
    b = list(range(5, 10))
    c = list(range(10, 15))
    d = list(range(15, 20))
    e = list(range(20, 34))
    matching = [
        (1, 5),    # A-B
        (6, 10),   # B-C
        (11, 0),   # C-A
        (2, 20), (3, 21), (4, 22),
        (7, 23), (8, 24), (9, 25),
        (12, 26), (13, 27), (14, 28),
        (15, 29), (16, 30), (17, 31), (18, 32), (19, 33),
    ]
    edges = matching + _cycle_edges(a) + _cycle_edges(b) + _cycle_edges(c) \
        + _cycle_edges(d) + _cycle_edges(e)
    g = build_graph(34, edges)
    return g, list(range(len(matching)))


def r3_pair() -> tuple[MultiGraph, list[int]]:
    """Two 5-cycles joined by one selected edge, everything else matched
    into an 8-cycle: both 5-cycles have degree 1 and their attachment
    neighbours point at the even cycle, so rule R3 fires from each."""
    a = list(range(0, 5))
    b = list(range(5, 10))
    e = list(range(10, 18))
    matching = [
        (0, 5),
        (1, 10), (2, 11), (3, 12), (4, 13),
        (6, 14), (7, 15), (8, 16), (9, 17),
    ]
    edges = matching + _cycle_edges(a) + _cycle_edges(b) + _cycle_edges(e)
    g = build_graph(18, edges)
    return g, list(range(len(matching)))


def r4_chain() -> tuple[MultiGraph, list[int]]:
    """The rule-R4 pattern: a degree-1 5-cycle C whose attachment neighbour
    reaches another degree-1 5-cycle D whose own attachment sits at distance
    two, pointing into the degree-2 cycle W.  A spare 5-cycle F keeps the
    odd-cycle count even and fires R2; the 14-cycle E absorbs the rest.

    Selections {(1,11),(7,10)} and {(1,11),(2,5)} tie on size and degree-2
    count; listing (7,10) before (2,5) makes the intended one win the
    lexicographic tie-break.
    """
    c = list(range(0, 5))     # v0..v4, attachment v1 = 1
    d = list(range(5, 10))    # d0..d4, d0 = partner of v2, attachment d2 = 7
    w = list(range(10, 15))   # w0, w1 carry the two selected edges
    f = list(range(15, 20))
    e = list(range(20, 34))
    matching = [
        (1, 11),   # C-W (selected)
        (7, 10),   # D-W (selected)
        (2, 5),    # C-D (eligible but not selected)
        (0, 20), (3, 21), (4, 22),
        (6, 23), (8, 24), (9, 25),
        (12, 26), (13, 27), (14, 28),
        (15, 29), (16, 30), (17, 31), (18, 32), (19, 33),
    ]
    edges = matching + _cycle_edges(c) + _cycle_edges(d) + _cycle_edges(w) \
        + _cycle_edges(f) + _cycle_edges(e)
    g = build_graph(34, edges)
    return g, list(range(len(matching)))


def r4_chain_adjacent() -> tuple[MultiGraph, list[int]]:
    """:func:`r4_chain` with D's selected edge moved from d2 to d1, next to
    d0 = 5, the partner of C's attachment neighbour v2.  Under the
    selection {(1,11),(6,10)} the partner sits one step from D's
    attachment, not two, so C sends nothing toward D on that side; likewise
    D toward C through d0's partner v2.  The greedy selection would also
    take (2,5), which then fits at both C and D, so tests pass the two
    edges (ids 0 and 1) themselves.
    """
    c = list(range(0, 5))
    d = list(range(5, 10))    # attachment d1 = 6
    w = list(range(10, 15))
    f = list(range(15, 20))
    e = list(range(20, 34))
    matching = [
        (1, 11),   # C-W (selected)
        (6, 10),   # D-W (selected)
        (2, 5),    # C-D (not selected)
        (0, 20), (3, 21), (4, 22),
        (7, 23), (8, 24), (9, 25),
        (12, 26), (13, 27), (14, 28),
        (15, 29), (16, 30), (17, 31), (18, 32), (19, 33),
    ]
    edges = matching + _cycle_edges(c) + _cycle_edges(d) + _cycle_edges(w) \
        + _cycle_edges(f) + _cycle_edges(e)
    g = build_graph(34, edges)
    return g, list(range(len(matching)))


def even_square_component() -> tuple[MultiGraph, list[int]]:
    """Four 5-cycles joined in a ring (quotient: a 4-cycle, even): the phase
    constraints around the ring close consistently and every selected edge
    must come out poor.  Leftovers feed a 12-cycle."""
    cycles = [list(range(5 * i, 5 * i + 5)) for i in range(4)]
    e = list(range(20, 32))
    ring = [
        (1, 5),    # A-B
        (6, 10),   # B-C
        (11, 15),  # C-D
        (16, 0),   # D-A
    ]
    leftovers = [v for cyc in cycles for v in cyc[2:]]
    matching = ring + [(v, 20 + i) for i, v in enumerate(leftovers)]
    edges = list(matching)
    for cyc in cycles:
        edges += _cycle_edges(cyc)
    edges += _cycle_edges(e)
    g = build_graph(32, edges)
    return g, list(range(len(matching)))


def odd_pentagon_ring() -> tuple[MultiGraph, list[int]]:
    """Five 5-cycles in a ring (quotient: an odd 5-cycle, so exactly one
    selected edge is medium), one spare degree-0 5-cycle firing the
    length-5 fan-out rule, and a 20-cycle absorbing the rest."""
    cycles = [list(range(5 * i, 5 * i + 5)) for i in range(5)]
    d = list(range(25, 30))
    e = list(range(30, 50))
    ring = [
        (1, 5),    # A-B
        (6, 10),   # B-C
        (11, 15),  # C-D
        (16, 20),  # D-E
        (21, 0),   # E-A
    ]
    leftovers = [v for cyc in cycles for v in cyc[2:]] + d
    matching = ring + [(v, 30 + i) for i, v in enumerate(leftovers)]
    edges = list(matching)
    for cyc in cycles:
        edges += _cycle_edges(cyc)
    edges += _cycle_edges(d) + _cycle_edges(e)
    g = build_graph(50, edges)
    return g, list(range(len(matching)))


def long_pair() -> tuple[MultiGraph, list[int]]:
    """Two 7-cycles joined by one selected edge: degree-1 odd cycles longer
    than 5, where none of the length-5 fan-out rules may fire."""
    a = list(range(0, 7))
    b = list(range(7, 14))
    e = list(range(14, 26))
    matching = [(0, 7)] + [(v, 14 + i) for i, v in enumerate(a[1:] + b[1:])]
    edges = matching + _cycle_edges(a) + _cycle_edges(b) + _cycle_edges(e)
    g = build_graph(26, edges)
    return g, list(range(len(matching)))


def medium_chord() -> tuple[MultiGraph, list[int]]:
    """A 7-cycle with a matching chord landing on the colour-3 edge.

    Both odd cycles (the C7 and a spare C5) have all their other matching
    edges into the even 10-cycle, so the selection is empty, the C7's
    colour-3 edge sits at positions (0, 1), and the chord (0, 3) picks up
    colours {1, 2, 3}: the rule-R1 chord case must send its whole unit to
    the C7.
    """
    c7 = list(range(0, 7))
    c5 = list(range(7, 12))
    e = list(range(12, 22))
    matching = [
        (0, 3),   # the chord
        (1, 12), (2, 13), (4, 14), (5, 15), (6, 16),
        (7, 17), (8, 18), (9, 19), (10, 20), (11, 21),
    ]
    edges = matching + _cycle_edges(c7) + _cycle_edges(c5) + _cycle_edges(e)
    g = build_graph(22, edges)
    return g, list(range(len(matching)))


def two_factor_of(g: MultiGraph, matching_ids: list[int]) -> TwoFactor:
    return two_factor_from_matching(g, frozenset(matching_ids))


def selection_degrees(tf: TwoFactor, selected) -> tuple[int, ...]:
    """Per cycle, how many ends of the selected edges lie on it, counted
    here from the edge set itself."""
    degree = [0] * len(tf.cycles)
    for e in selected:
        for x in tf.graph.endpoints(e):
            degree[tf.cycle_of_vertex[x]] += 1
    return tuple(degree)
