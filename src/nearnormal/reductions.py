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
step, u0, u1, u2 of a triangle step) before and after the step; those give
the neighbours of every removed and every new edge.  A lift classifies only
these edges, which checks properness there, and checks that the removed
edges hold no more medium edges than the new ones did.  It also checks that
each spoke takes the colour of the edge it replaces: the new edge, or its
star edge at x.  That is enough.  The lift leaves the colour of every
surviving edge alone, so with the spoke check each outside vertex sees the
same multiset of colours on both sides.  A surviving edge changes neighbours
only if it ends at an outside vertex, and its other end then either keeps
its edges or is an outside vertex too, so its class does not change.
Adding these unchanged classes to both sides of the site inequality gives
the inequality over the site and every edge at an outside vertex, which is
what a lift re-checking all of those edges would establish.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import ClassVar

from .colouring import MEDIUM, _edge_class
from .graph import GraphError, MultiGraph, _pairs_and_triangles

MULTI_EDGE = "multi_edge"
TRIANGLE = "triangle"

Site = tuple[tuple[int, tuple[int, ...]], ...]  # (edge, the edges at its ends, maybe itself)


@dataclass(frozen=True, slots=True)
class MultiEdgeRecord:
    """A pair step in working edge ids: the pair v1v2 and the spokes v1u1,
    v2u2 gave way to the new edge u1u2.  ``outside_before`` and
    ``outside_after`` hold the edges at u1 and at u2 on either side."""

    kind: ClassVar[str] = MULTI_EDGE
    spokes: tuple[int, int]
    pair: tuple[int, int]
    new_edge: int
    outside_before: tuple[tuple[int, ...], tuple[int, ...]]
    outside_after: tuple[tuple[int, ...], tuple[int, ...]]

    @property
    def anchor_edges(self) -> tuple[int, ...]:
        """The other edges at u1; the new edge comes last at u1."""
        return self.outside_after[0][:-1]

    @property
    def replaced(self) -> tuple[int, int]:
        """The edge of the reduced graph whose colour each spoke takes."""
        return self.new_edge, self.new_edge

    def site_before(self) -> Site:
        """The removed edges, each with the edges around it before the step."""
        (s1, s2), (e1, e2) = self.spokes, self.pair
        at_u1, at_u2 = self.outside_before
        return (e1, (e2, s1, s2)), (e2, (e1, s1, s2)), (s1, (e1, e2, *at_u1)), (s2, (e1, e2, *at_u2))

    def site_after(self) -> Site:
        """The new edge with the edges around it after the step."""
        at_u1, at_u2 = self.outside_after
        return ((self.new_edge, at_u1 + at_u2),)


@dataclass(frozen=True, slots=True)
class TriangleRecord:
    """A triangle step in working edge ids: the triangle v0v1v2, with
    ``triangle_edges[i]`` = v_iv_{i+1} and ``spokes[i]`` = v_iu_i, became
    the vertex x with star edges ``x_edges[i]`` = xu_i.  ``outside_before``
    and ``outside_after`` hold the edges at u0, u1 and u2 on either side
    (the u_i need not be distinct)."""

    kind: ClassVar[str] = TRIANGLE
    spokes: tuple[int, int, int]
    triangle_edges: tuple[int, int, int]
    x_edges: tuple[int, int, int]
    outside_before: tuple[tuple[int, ...], ...]
    outside_after: tuple[tuple[int, ...], ...]

    @property
    def replaced(self) -> tuple[int, int, int]:
        return self.x_edges

    def site_before(self) -> Site:
        (s0, s1, s2), (t0, t1, t2) = self.spokes, self.triangle_edges
        at_u0, at_u1, at_u2 = self.outside_before
        return (
            (s0, (t2, t0, *at_u0)), (s1, (t0, t1, *at_u1)), (s2, (t1, t2, *at_u2)),
            (t0, (s0, s1, t1, t2)), (t1, (s1, s2, t2, t0)), (t2, (s2, s0, t0, t1)),
        )

    def site_after(self) -> Site:
        x = self.x_edges
        return tuple((e, x + at_u) for e, at_u in zip(x, self.outside_after))


ReductionRecord = MultiEdgeRecord | TriangleRecord


class _WorkingGraph:
    """Multigraph with stable ids; a deleted vertex's incidence list and a
    deleted edge's endpoint pair become None.  Incidence lists stay sorted,
    as edges are only deleted from them and new edges take the next id."""

    def __init__(self, g: MultiGraph) -> None:
        self.n = g.n
        self.edges: list[tuple[int, int] | None] = list(g.edges)
        self.incident: list[list[int] | None] = [list(es) for es in g._incident]

    def alive(self, site: tuple[int, ...]) -> bool:
        return all(self.incident[v] is not None for v in site)

    def doubled(self, pair: tuple[int, int]) -> bool:
        if not self.alive(pair):
            return False
        edges = self.edges
        if sum(edges[e] == pair for e in self.incident[pair[0]]) > 2:
            raise GraphError("triple edge only occurs in the 2-vertex base case")
        return True

    def _rewrite(self, doomed, removed, spokes, outside, new_ends):
        """Delete the ``doomed`` vertices with their ``removed`` edges, of
        which ``spokes[i]`` ends at ``outside[i]``, and add an edge for each
        (u, v) in ``new_ends``, u < v.  Returns the edges at the outside
        vertices before, the new edge ids, and the edges there after."""
        edges, incident = self.edges, self.incident
        before = tuple(tuple(incident[u]) for u in outside)
        for e, u in zip(spokes, outside):
            incident[u].remove(e)
        for e in removed:
            edges[e] = None
        for v in doomed:
            incident[v] = None
        self.n -= len(doomed)
        added = tuple(range(len(edges), len(edges) + len(new_ends)))
        for e, (u, v) in zip(added, new_ends):
            edges.append((u, v))
            incident[u].append(e)
            incident[v].append(e)
        if any(len(incident[w]) != 3 for ends in new_ends for w in ends):
            raise GraphError("rewrite produced a non-cubic graph")
        return before, added, tuple(tuple(incident[u]) for u in outside)

    def remove_pair(self, v1: int, v2: int) -> MultiEdgeRecord:
        """Remove the doubled pair v1, v2 and splice their outside
        neighbours u1, u2 together with a new edge."""
        edges, incident = self.edges, self.incident
        e1, e2 = (e for e in incident[v1] if edges[e] == (v1, v2))
        (spoke1,) = (e for e in incident[v1] if e != e1 and e != e2)
        (spoke2,) = (e for e in incident[v2] if e != e1 and e != e2)
        a, b = edges[spoke1]
        u1 = b if a == v1 else a
        a, b = edges[spoke2]
        u2 = b if a == v2 else a
        if u1 == u2:
            raise GraphError("outside neighbours coincide; graph cannot be bridgeless")
        before, (new_edge,), after = self._rewrite(
            (v1, v2), (e1, e2, spoke1, spoke2), (spoke1, spoke2), (u1, u2), [(min(u1, u2), max(u1, u2))]
        )
        return MultiEdgeRecord((spoke1, spoke2), (e1, e2), new_edge, before, after)

    def contract(self, v: tuple[int, int, int]) -> TriangleRecord:
        """Contract the triangle v into a new vertex x; this may create
        parallel edges.  The graph is simple here, as pair steps go first."""
        edges, incident = self.edges, self.incident
        spokes, outside, inner = [], [], {}
        for w in v:
            for e in incident[w]:
                a, b = ends = edges[e]
                u = b if a == w else a
                if u in v:
                    inner[ends] = e
                else:
                    spokes.append(e)
                    outside.append(u)
        v0, v1, v2 = v
        triangle_edges = (inner[v0, v1], inner[v1, v2], inner[v0, v2])
        x = len(incident)
        incident.append([])
        self.n += 1
        before, x_edges, after = self._rewrite(
            v, spokes + list(triangle_edges), spokes, outside, [(u, x) for u in outside]
        )
        return TriangleRecord(tuple(spokes), triangle_edges, x_edges, before, after)

    def push_candidates(self, e: int, pairs: list, triangles: list) -> None:
        """Push the parallel pair and the triangles that edge ``e`` is on."""
        edges, incident = self.edges, self.incident
        a, b = ends = edges[e]
        at_a = [edges[f] for f in incident[a]]
        if at_a.count(ends) > 1:
            heapq.heappush(pairs, ends)
        near_a = {w for f in at_a for w in f}
        near_a.discard(a)
        near_b = {w for f in incident[b] for w in edges[f]}
        near_b.discard(b)
        for w in near_a & near_b:
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


def _site_mediums(site: Site, colours: list[int]) -> int:
    return sum(_edge_class(colours, e, nbrs) == MEDIUM for e, nbrs in site)


def lift_multi_edge(record: MultiEdgeRecord, colours: list[int]) -> None:
    """Transfer a proper colouring across the splice: both spokes take the
    new edge's colour, the parallel pair takes the two other colours seen at
    the anchor endpoint (in increasing order)."""
    if not isinstance(record, MultiEdgeRecord):
        raise GraphError("record is not a multi-edge reduction")
    colours[record.spokes[0]] = colours[record.spokes[1]] = colours[record.new_edge]
    colours[record.pair[0]], colours[record.pair[1]] = sorted(colours[e] for e in record.anchor_edges)


def lift_triangle(record: TriangleRecord, colours: list[int]) -> None:
    """Re-expand the contracted triangle: spoke i keeps the colour of the
    star edge at x it replaces, and triangle edge v_i v_{i+1} takes the
    colour of the opposite spoke (index i+2, modulo 3)."""
    if not isinstance(record, TriangleRecord):
        raise GraphError("record is not a triangle reduction")
    star = [colours[e] for e in record.x_edges]
    if len(set(star)) != 3:
        raise GraphError("star at the contracted vertex is not rainbow")
    for i in range(3):
        colours[record.spokes[i]] = star[i]
        colours[record.triangle_edges[i]] = star[(i + 2) % 3]


def lift(record: ReductionRecord, colours: list[int]) -> None:
    """Lift ``colours``, a proper colouring of the graph after ``record``'s
    step, in place to the graph before it, and check the step's own edges
    on both sides (see the module docstring for why that suffices)."""
    reduced_mediums = _site_mediums(record.site_after(), colours)
    (lift_multi_edge if isinstance(record, MultiEdgeRecord) else lift_triangle)(record, colours)
    for spoke, e in zip(record.spokes, record.replaced):
        if colours[spoke] != colours[e]:
            raise GraphError(f"spoke {spoke} did not take the colour of edge {e}")
    if _site_mediums(record.site_before(), colours) > reduced_mediums:
        raise GraphError("lift increased the medium count")  # cannot happen
