"""Induction-step rewrites: eliminate a parallel pair, or contract a
triangle, each shrinking the graph by two vertices.

Both rewrites come with a colour lift that turns any proper 4-edge-colouring
of the reduced graph into one of the original graph without increasing the
number of medium edges: the lifted edges all come out poor, and every
surviving edge keeps the colour multiset of its neighbourhood.

Ids.  :func:`reduce_fully` rewrites one mutable working graph.  Survivors
keep their ids, the input's included; a contracted triangle's vertex takes
the next unused vertex id and each new edge the next unused edge id.  A
reducer that rebuilt the graph at every step, relabelling the survivors in
order and appending the new vertex and edges, would give everything its rank
among the live working ids: both numberings order the graph alike.  A site
(the smallest doubled vertex pair while one exists, else the
lexicographically smallest triangle) depends on that order only, so the
sites are the same, and so is the base, compacted once with ranks as ids.

Candidates wait in heaps.  A step deletes edges only at the vertices it
deletes, so a candidate whose vertices live is still one, and only its new
edges are scanned for new ones: constant work per step besides the heaps.

Validity.  Each step checks that the vertices it touches keep degree 3.
Connectivity and bridges are not checked here: each step keeps both in both
directions, so the caller certifies the base, and with it the input, once
(:func:`pipeline.colour_graph` reads both off the base's 2-factor).  Write
c(H) for the number of components of H; an edge e is a bridge iff c(H - e) >
c(H).  A triangle step contracts the connected triangle T, which keeps c:
c(G) = c(G') and c(G - e) = c(G' - e) for every edge e off T (a spoke stands
for its star edge at x), and the edges of T lie on a cycle.  A pair step
replaces the subgraph D (v1, v2, the pair, spokes v1u1, v2u2) by an edge f =
u1u2; D meets the rest only at u1 and u2 and joins them, as f does, so again
c(G) = c(G') and c(G - e) = c(G' - e) for every edge e outside D.  G - v1u1
leaves v1, v2 hanging at u2, so c(G - v1u1) = c(G - {v1, v2}) = c(G' - f),
likewise for v2u2, and the pair lies on a 2-cycle.  So the base is connected
and bridgeless iff the input is.

Lifts.  A colouring is one list indexed by working edge id.  Removed and new
edges have different ids, so once :func:`lift` has written the removed edges
the list holds the colourings on both sides of the step.  A record keeps the
site's edges by role and the edges at each outside vertex (u1, u2 of a pair
step, u0, u1, u2 of a triangle step) before and after the step: the three
edges at each end of every removed and every new edge.  A lift ORs the
colours at each such site vertex into a bitmask.  Fewer than three bits is a
clash there, which the lift refuses as improper; else the edges around an
edge uv show (mask[u] | mask[v]).bit_count() - 1 colours, so uv is medium
iff that union has four bits.  A site edge can share a colour with an edge
around it only at a site vertex, so this is at least as strict as
classifying each site edge from its neighbours, and it also refuses a clash
between two surviving edges at an outside vertex; with no clash, both give
every site edge the same class.  The lift checks that the removed edges hold
no more medium edges than the new ones did, and that each spoke takes the
colour of the edge it replaces: the new edge, or its star edge at x.  That
is enough.  The lift leaves the colour of every surviving edge alone, so
with the spoke check each outside vertex sees the same multiset of colours
on both sides.  A surviving edge changes neighbours only if it ends at an
outside vertex, and its other end then either keeps its edges or is an
outside vertex too, so its class does not change.  Adding these unchanged
classes to both sides of the site inequality gives the inequality over the
site and every edge at an outside vertex, which is what a lift re-checking
all of those edges would establish.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .graph import ColouringError, GraphError, MultiGraph, _pairs_and_triangles

MULTI_EDGE = "multi_edge"
TRIANGLE = "triangle"


def _mask(colours: list[int], edges: tuple[int, ...]) -> int:
    """Bit c set for each colour c on a site vertex's three edges; raises on a clash."""
    a, b, c = edges
    mask = 1 << colours[a] | 1 << colours[b] | 1 << colours[c]
    if mask.bit_count() != 3:
        raise ColouringError(f"colouring is not proper at the edges {a}, {b}, {c}")
    return mask


class MultiEdgeRecord(NamedTuple):
    """A pair step in working edge ids: the pair v1v2 and the spokes v1u1,
    v2u2 gave way to the new edge u1u2.  ``outside_before`` and
    ``outside_after`` hold the edges at u1 and at u2 on either side."""

    spokes: tuple[int, int]
    pair: tuple[int, int]
    new_edge: int
    outside_before: tuple[tuple[int, ...], tuple[int, ...]]
    outside_after: tuple[tuple[int, ...], tuple[int, ...]]
    kind = MULTI_EDGE

    @property
    def replaced(self) -> tuple[int, int]:
        """The edge of the reduced graph whose colour each spoke takes."""
        return self.new_edge, self.new_edge

    def mediums_before(self, colours: list[int]) -> int:
        """The medium removed edges, from the masks at v1, v2, u1 and u2."""
        (s1, s2), (e1, e2), (at_u1, at_u2) = self.spokes, self.pair, self.outside_before
        v1, v2 = _mask(colours, (e1, e2, s1)), _mask(colours, (e1, e2, s2))
        u1, u2 = _mask(colours, at_u1), _mask(colours, at_u2)
        return 2 * ((v1 | v2).bit_count() == 4) + ((v1 | u1).bit_count() == 4) + ((v2 | u2).bit_count() == 4)

    def mediums_after(self, colours: list[int]) -> int:
        """Whether the new edge is medium, from the masks at u1 and u2."""
        at_u1, at_u2 = self.outside_after
        return (_mask(colours, at_u1) | _mask(colours, at_u2)).bit_count() == 4


class TriangleRecord(NamedTuple):
    """A triangle step in working edge ids: the triangle v0v1v2, with
    ``triangle_edges[i]`` = v_iv_{i+1} and ``spokes[i]`` = v_iu_i, became
    the vertex x with star edges ``x_edges[i]`` = xu_i.  ``outside_before``
    and ``outside_after`` hold the edges at u0, u1 and u2 on either side
    (the u_i need not be distinct)."""

    spokes: tuple[int, int, int]
    triangle_edges: tuple[int, int, int]
    x_edges: tuple[int, int, int]
    outside_before: tuple[tuple[int, ...], ...]
    outside_after: tuple[tuple[int, ...], ...]
    kind = TRIANGLE

    @property
    def replaced(self) -> tuple[int, int, int]:
        return self.x_edges

    def mediums_before(self, colours: list[int]) -> int:
        """The medium removed edges, from the masks at the v_i and the u_i."""
        (s0, s1, s2), (t0, t1, t2), (at_u0, at_u1, at_u2) = self.spokes, self.triangle_edges, self.outside_before
        v0, v1, v2 = _mask(colours, (t2, t0, s0)), _mask(colours, (t0, t1, s1)), _mask(colours, (t1, t2, s2))
        u0, u1, u2 = _mask(colours, at_u0), _mask(colours, at_u1), _mask(colours, at_u2)
        return (((v0 | v1).bit_count() == 4) + ((v1 | v2).bit_count() == 4) + ((v2 | v0).bit_count() == 4)
                + ((v0 | u0).bit_count() == 4) + ((v1 | u1).bit_count() == 4) + ((v2 | u2).bit_count() == 4))

    def mediums_after(self, colours: list[int]) -> int:
        """The medium star edges, from the masks at x and the u_i."""
        x, (at_u0, at_u1, at_u2) = _mask(colours, self.x_edges), self.outside_after
        u0, u1, u2 = _mask(colours, at_u0), _mask(colours, at_u1), _mask(colours, at_u2)
        return ((x | u0).bit_count() == 4) + ((x | u1).bit_count() == 4) + ((x | u2).bit_count() == 4)


ReductionRecord = MultiEdgeRecord | TriangleRecord


class _WorkingGraph:
    """Multigraph with stable ids; a deleted vertex's incidence list and a
    deleted edge's endpoint pair become None.  Incidence lists stay sorted,
    as edges are only deleted from them and new edges take the next id."""

    def __init__(self, g: MultiGraph) -> None:
        self.n = g.n
        self.edges: list[tuple[int, int] | None] = list(g.edges)
        self.incident: list[list[int] | None] = [list(es) for es in g._incident]

    def alive(self, triangle: tuple[int, int, int]) -> bool:
        incident, (v0, v1, v2) = self.incident, triangle
        return incident[v0] is not None and incident[v1] is not None and incident[v2] is not None

    def doubled(self, pair: tuple[int, int]) -> bool:
        incident, edges = self.incident, self.edges
        if incident[pair[0]] is None or incident[pair[1]] is None:
            return False
        a, b, c = incident[pair[0]]
        if edges[a] == edges[b] == edges[c]:
            raise GraphError("triple edge only occurs in the 2-vertex base case")
        return True

    def remove_pair(self, v1: int, v2: int) -> MultiEdgeRecord:
        """Remove the doubled pair v1, v2 and splice their outside
        neighbours u1, u2 together with a new edge."""
        edges, incident = self.edges, self.incident
        pair = (v1, v2)
        a, b, c = incident[v1]
        spoke1, e1, e2 = (a, b, c) if edges[a] != pair else (b, a, c) if edges[b] != pair else (c, a, b)
        a, b, c = incident[v2]
        spoke2 = a + b + c - e1 - e2
        (a1, b1), (a2, b2) = edges[spoke1], edges[spoke2]
        u1, u2 = a1 ^ b1 ^ v1, a2 ^ b2 ^ v2
        if u1 == u2:
            raise GraphError("outside neighbours coincide; graph cannot be bridgeless")
        at_u1, at_u2 = incident[u1], incident[u2]
        before = tuple(at_u1), tuple(at_u2)
        edges[e1] = edges[e2] = edges[spoke1] = edges[spoke2] = incident[v1] = incident[v2] = None
        self.n -= 2
        new_edge = len(edges)
        edges.append((u1, u2) if u1 < u2 else (u2, u1))
        at_u1.remove(spoke1)
        at_u1.append(new_edge)
        at_u2.remove(spoke2)
        at_u2.append(new_edge)
        if len(at_u1) != 3 or len(at_u2) != 3:
            raise GraphError("rewrite produced a non-cubic graph")
        return MultiEdgeRecord((spoke1, spoke2), (e1, e2), new_edge, before, (tuple(at_u1), tuple(at_u2)))

    def contract(self, v: tuple[int, int, int]) -> TriangleRecord:
        """Contract the triangle v into a new vertex x; this may create
        parallel edges.  The graph is simple here, as pair steps go first:
        two corners share one edge, and a corner's spoke is its third."""
        edges, incident = self.edges, self.incident
        v0, v1, v2 = v
        at_v0, at_v1, at_v2 = incident[v0], incident[v1], incident[v2]
        if len(at_v0) != 3 or len(at_v1) != 3 or len(at_v2) != 3:
            raise GraphError("rewrite produced a non-cubic graph")
        a, b, c = at_v0
        t0 = a if a in at_v1 else b if b in at_v1 else c
        t2 = a if a in at_v2 else b if b in at_v2 else c
        s0 = a + b + c - t0 - t2
        a, b, c = at_v1
        t1 = a if a in at_v2 else b if b in at_v2 else c
        s1, s2 = a + b + c - t0 - t1, sum(at_v2) - t1 - t2
        (a0, b0), (a1, b1), (a2, b2) = edges[s0], edges[s1], edges[s2]
        u0, u1, u2 = a0 ^ b0 ^ v0, a1 ^ b1 ^ v1, a2 ^ b2 ^ v2
        at_u0, at_u1, at_u2 = incident[u0], incident[u1], incident[u2]
        before = tuple(at_u0), tuple(at_u1), tuple(at_u2)
        edges[s0] = edges[s1] = edges[s2] = edges[t0] = edges[t1] = edges[t2] = None
        incident[v0] = incident[v1] = incident[v2] = None
        self.n -= 2
        x, m = len(incident), len(edges)
        incident.append([m, m + 1, m + 2])
        edges += (u0, x), (u1, x), (u2, x)
        for at_u, spoke, new in (at_u0, s0, m), (at_u1, s1, m + 1), (at_u2, s2, m + 2):
            at_u.remove(spoke)
            at_u.append(new)
        if len(at_u0) != 3 or len(at_u1) != 3 or len(at_u2) != 3:
            raise GraphError("rewrite produced a non-cubic graph")
        after = tuple(at_u0), tuple(at_u1), tuple(at_u2)
        return TriangleRecord((s0, s1, s2), (t0, t1, t2), (m, m + 1, m + 2), before, after)

    def push_candidates(self, e: int, pairs: list, triangles: list) -> None:
        """Push the parallel pair and the triangles that edge ``e`` = ab is
        on: b twice among a's neighbours, and each of them that b has too."""
        edges, incident = self.edges, self.incident
        a, b = ends = edges[e]
        f, g, h = incident[a]
        (x1, y1), (x2, y2), (x3, y3) = edges[f], edges[g], edges[h]
        n1, n2, n3 = x1 ^ y1 ^ a, x2 ^ y2 ^ a, x3 ^ y3 ^ a
        if (n1 == b) + (n2 == b) + (n3 == b) > 1:
            heapq.heappush(pairs, ends)
        f, g, h = incident[b]
        (x1, y1), (x2, y2), (x3, y3) = edges[f], edges[g], edges[h]
        near_b = x1 ^ y1 ^ b, x2 ^ y2 ^ b, x3 ^ y3 ^ b
        for w in n1, n2, n3:
            if w in near_b:
                heapq.heappush(triangles, (w, a, b) if w < a else (a, w, b) if w < b else (a, b, w))

    def compact(self) -> tuple[MultiGraph, tuple[int, ...]]:
        """The live graph with ranks as ids, and the working id of each of
        its edges."""
        live = [v for v, inc in enumerate(self.incident) if inc is not None]
        rank = {v: i for i, v in enumerate(live)}
        ids = tuple(e for e, ends in enumerate(self.edges) if ends is not None)
        return MultiGraph(len(rank), [(rank[self.edges[e][0]], rank[self.edges[e][1]]) for e in ids]), ids


def _next_site(heap: list, valid):
    while heap:
        site = heapq.heappop(heap)
        if valid(site):
            return site
    return None


def reduce_fully(g: MultiGraph) -> tuple[MultiGraph, list[ReductionRecord], tuple[int, ...]]:
    """Exhaust multi-edge reductions before triangle contractions (each
    contraction can create new parallel pairs, so the loop interleaves).
    ``g`` must be cubic.  The base is connected and bridgeless iff ``g`` is
    (see Validity above); certifying that is left to the caller.

    Returns the base, one record per rewrite, and the working id of each
    base edge; ids below ``g.m`` are the input's own edges.  An input with
    no parallel pair and no triangle, or with two vertices, is its own
    base: it comes back as the same object, with no records, and no working
    graph is built.  The one scan that decides this also seeds the
    candidate heaps.
    """
    pairs, triangles = _pairs_and_triangles(g)  # a sorted list is a heap
    if g.n <= 2 or not (pairs or triangles):
        return g, [], tuple(range(g.m))
    wg = _WorkingGraph(g)
    records: list[ReductionRecord] = []
    while wg.n > 2:
        site = _next_site(pairs, wg.doubled)
        if site is not None:
            rec = wg.remove_pair(*site)
            wg.push_candidates(rec.new_edge, pairs, triangles)
        else:
            site = _next_site(triangles, wg.alive)
            if site is None:
                break
            rec = wg.contract(site)
            for e in rec.x_edges:
                wg.push_candidates(e, pairs, triangles)
        records.append(rec)
    base, base_edges = wg.compact()
    return base, records, base_edges


def lift_multi_edge(record: MultiEdgeRecord, colours: list[int]) -> None:
    """Transfer a proper colouring across the splice: both spokes take the
    new edge's colour, the parallel pair takes the two other colours seen at
    the anchor endpoint (in increasing order)."""
    if not isinstance(record, MultiEdgeRecord):
        raise GraphError("record is not a multi-edge reduction")
    (s1, s2), (e1, e2), (a, b, _new) = record.spokes, record.pair, record.outside_after[0]  # new edge last
    colours[s1] = colours[s2] = colours[record.new_edge]
    a, b = colours[a], colours[b]
    colours[e1], colours[e2] = (a, b) if a < b else (b, a)


def lift_triangle(record: TriangleRecord, colours: list[int]) -> None:
    """Re-expand the contracted triangle: spoke i keeps the colour of the
    star edge at x it replaces, and triangle edge v_i v_{i+1} takes the
    colour of the opposite spoke (index i+2, modulo 3)."""
    if not isinstance(record, TriangleRecord):
        raise GraphError("record is not a triangle reduction")
    x0, x1, x2 = record.x_edges
    c0, c1, c2 = colours[x0], colours[x1], colours[x2]
    if c0 == c1 or c1 == c2 or c2 == c0:
        raise GraphError("star at the contracted vertex is not rainbow")
    (s0, s1, s2), (t0, t1, t2) = record.spokes, record.triangle_edges
    colours[s0], colours[s1], colours[s2] = c0, c1, c2
    colours[t0], colours[t1], colours[t2] = c2, c0, c1


def lift(record: ReductionRecord, colours: list[int]) -> None:
    """Lift ``colours``, a proper colouring of the graph after ``record``'s
    step, in place to the graph before it, and check the step's own edges
    on both sides (see the module docstring for why that suffices)."""
    reduced_mediums = record.mediums_after(colours)
    (lift_multi_edge if isinstance(record, MultiEdgeRecord) else lift_triangle)(record, colours)
    for spoke, e in zip(record.spokes, record.replaced):
        if colours[spoke] != colours[e]:
            raise GraphError(f"spoke {spoke} did not take the colour of edge {e}")
    if record.mediums_before(colours) > reduced_mediums:
        raise GraphError("lift increased the medium count")  # cannot happen
