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

Validity.  Each step checks that the vertices it touches keep degree 3;
connectivity and bridges are checked once, on the base, as each step keeps
both in both directions.  Write c(H) for the number of components of H; an
edge e is a bridge iff c(H - e) > c(H).  A triangle step contracts the
connected triangle T, which keeps c: c(G) = c(G') and c(G - e) = c(G' - e)
for every edge e off T (a spoke stands for its star edge at x), and the
edges of T lie on a cycle.  A pair step replaces the subgraph D (v1, v2, the
pair, spokes v1u1, v2u2) by an edge f = u1u2; D meets the rest only at u1
and u2 and joins them, as f does, so again c(G) = c(G') and c(G - e) =
c(G' - e) for every edge e outside D.  G - v1u1 leaves v1, v2 hanging at
u2, so c(G - v1u1) = c(G - {v1, v2}) = c(G' - f), likewise for v2u2, and
the pair lies on a 2-cycle.  So a connected bridgeless base makes every
graph before it connected and bridgeless.

Lifts.  A colouring is one list indexed by working edge id.  Removed and new
edges have different ids, so once :func:`lift` has written the removed edges
the list holds the colourings on both sides of the step.  Only edges at a
touched vertex can change class (every other edge keeps its neighbours and
their colours), so each record keeps those edges on both sides with their
neighbour ids, reaching distance 2 from the site, and a lift re-checks
properness and the medium count there only.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from .colouring import MEDIUM, _edge_class
from .graph import GraphError, MultiGraph, find_triangles, triangles_through, validate_input

MULTI_EDGE = "multi_edge"
TRIANGLE = "triangle"

Local = tuple[tuple[int, tuple[int, ...]], ...]  # (edge, its neighbour ids)


@dataclass(frozen=True, slots=True)
class ReductionRecord:
    """One rewrite step in working edge ids: the site's edges by role, and
    the edges at the touched vertices of the graph before and after the
    step, each with its neighbour ids there."""

    kind: str
    spokes: tuple[int, ...]              # v1u1, v2u2 (triangle: v_iu_i)
    before: Local
    after: Local
    # multi_edge fields
    new_edge: int = -1                   # the replacement edge u1u2
    pair: tuple[int, int] = (-1, -1)     # the parallel pair
    anchor_edges: tuple[int, int] = (-1, -1)  # the other edges at u1
    # triangle fields
    x_edges: tuple[int, ...] = ()        # the star at x, i-aligned
    triangle_edges: tuple[int, ...] = () # v0v1, v1v2, v2v0

    @property
    def added(self) -> tuple[int, ...]:
        return (self.new_edge,) if self.kind == MULTI_EDGE else self.x_edges


class _WorkingGraph:
    """Multigraph with stable ids; a deleted vertex's incidence list and a
    deleted edge's endpoint pair become None."""

    def __init__(self, g: MultiGraph) -> None:
        self.n = g.n
        self.edges: list[tuple[int, int] | None] = list(g.edges)
        self.incident: list[list[int] | None] = [list(g.incident_edges(v)) for v in range(g.n)]

    def incident_edges(self, v: int) -> list[int]:
        return self.incident[v]

    def other_end(self, e: int, v: int) -> int:
        a, b = self.edges[e]
        return b if a == v else a

    def between(self, u: int, v: int) -> list[int]:
        return [e for e in self.incident[u] if self.other_end(e, u) == v]

    def alive(self, site: tuple[int, ...]) -> bool:
        return all(self.incident[v] is not None for v in site)

    def doubled(self, pair: tuple[int, int]) -> bool:
        if not self.alive(pair):
            return False
        if len(self.between(*pair)) > 2:
            raise GraphError("triple edge only occurs in the 2-vertex base case")
        return True

    def local(self, ids) -> Local:
        out = []
        for e in ids:
            a, b = self.edges[e]
            out.append((e, tuple({*self.incident[a], *self.incident[b]} - {e})))
        return tuple(out)

    def _rewrite(self, doomed, removed, outside, new_ends) -> tuple[Local, tuple[int, ...], Local]:
        """Delete the ``doomed`` vertices and add edges ``new_ends``; returns
        the local edges before, the new edge ids and the local edges after."""
        boundary = tuple(sorted({e for u in outside for e in self.incident[u]} - set(removed)))
        before = self.local(removed + boundary)
        for v in doomed:
            for e in self.incident[v]:
                if self.edges[e] is not None:
                    for w in self.edges[e]:
                        if w not in doomed:
                            self.incident[w].remove(e)
                    self.edges[e] = None
            self.incident[v] = None
        self.n -= len(doomed)
        added = tuple(range(len(self.edges), len(self.edges) + len(new_ends)))
        for e, (u, v) in zip(added, new_ends):
            self.edges.append((min(u, v), max(u, v)))
            self.incident[u].append(e)
            self.incident[v].append(e)
        if any(len(self.incident[w]) != 3 for ends in new_ends for w in ends):
            raise GraphError("rewrite produced a non-cubic graph")
        return before, added, self.local(added + boundary)

    def remove_pair(self, v1: int, v2: int) -> ReductionRecord:
        """Remove the doubled pair v1, v2 and splice their outside
        neighbours u1, u2 together with a new edge."""
        e1, e2 = self.between(v1, v2)
        (spoke1,) = (e for e in self.incident[v1] if e not in (e1, e2))
        (spoke2,) = (e for e in self.incident[v2] if e not in (e1, e2))
        u1, u2 = self.other_end(spoke1, v1), self.other_end(spoke2, v2)
        if u1 == u2:
            raise GraphError("outside neighbours coincide; graph cannot be bridgeless")
        before, (new_edge,), after = self._rewrite(
            (v1, v2), (e1, e2, spoke1, spoke2), (u1, u2), [(u1, u2)]
        )
        anchors = tuple(e for e in self.incident[u1] if e != new_edge)
        return ReductionRecord(
            MULTI_EDGE, (spoke1, spoke2), before, after,
            new_edge=new_edge, pair=(e1, e2), anchor_edges=anchors,
        )

    def contract(self, v: tuple[int, int, int]) -> ReductionRecord:
        """Contract the triangle v into a new vertex x; this may create
        parallel edges."""
        spokes = tuple(
            next(e for e in self.incident[v[i]] if self.other_end(e, v[i]) not in v)
            for i in range(3)
        )
        outside = [self.other_end(spokes[i], v[i]) for i in range(3)]
        triangle_edges = tuple(self.between(v[i], v[(i + 1) % 3])[0] for i in range(3))
        x = len(self.incident)
        self.incident.append([])
        self.n += 1
        before, x_edges, after = self._rewrite(
            v, spokes + triangle_edges, outside, [(u, x) for u in outside]
        )
        return ReductionRecord(
            TRIANGLE, spokes, before, after, x_edges=x_edges, triangle_edges=triangle_edges
        )

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

    Returns the base, one record per rewrite, and the working id of each
    base edge; ids below ``g.m`` are the input's own edges.  An input with
    no parallel pair and no triangle, or with two vertices, is its own
    base: it comes back as the same object, with no records, and no working
    graph is built.  The one scan that decides this also seeds the
    candidate heaps.
    """
    pairs = sorted(p for p, count in Counter(g.edges).items() if count > 1)  # a sorted list is a heap
    triangles = find_triangles(g)
    if g.n <= 2 or not (pairs or triangles):
        return g, [], tuple(range(g.m))
    wg = _WorkingGraph(g)
    records: list[ReductionRecord] = []
    while wg.n > 2:
        site = _next_site(pairs, wg.doubled)
        if site is not None:
            rec = wg.remove_pair(*site)
        else:
            site = _next_site(triangles, wg.alive)
            if site is None:
                break
            rec = wg.contract(site)
        records.append(rec)
        for e in rec.added:
            if len(wg.between(*wg.edges[e])) > 1:
                heapq.heappush(pairs, wg.edges[e])
            for t in triangles_through(wg, e):
                heapq.heappush(triangles, t)
    base, base_edges = wg.compact()
    diag = validate_input(base)
    if not diag.ok:  # the rewrites preserve validity; failing here is a bug
        raise GraphError(f"reduction produced an invalid base ({diag.reason}): {diag.detail}")
    return base, records, base_edges


def _local_mediums(local: Local, colours: list[int]) -> int:
    return sum(_edge_class(colours, e, nbrs) == MEDIUM for e, nbrs in local)


def lift_multi_edge(record: ReductionRecord, colours: list[int]) -> None:
    """Transfer a proper colouring across the splice: both spokes take the
    new edge's colour, the parallel pair takes the two other colours seen at
    the anchor endpoint (in increasing order)."""
    if record.kind != MULTI_EDGE:
        raise GraphError("record is not a multi-edge reduction")
    colours[record.spokes[0]] = colours[record.spokes[1]] = colours[record.new_edge]
    colours[record.pair[0]], colours[record.pair[1]] = sorted(colours[e] for e in record.anchor_edges)


def lift_triangle(record: ReductionRecord, colours: list[int]) -> None:
    """Re-expand the contracted triangle: spoke i keeps the colour of the
    star edge at x it replaces, and triangle edge v_i v_{i+1} takes the
    colour of the opposite spoke (index i+2, modulo 3)."""
    if record.kind != TRIANGLE:
        raise GraphError("record is not a triangle reduction")
    star = [colours[e] for e in record.x_edges]
    if len(set(star)) != 3:
        raise GraphError("star at the contracted vertex is not rainbow")
    for i in range(3):
        colours[record.spokes[i]] = star[i]
        colours[record.triangle_edges[i]] = star[(i + 2) % 3]


def lift(record: ReductionRecord, colours: list[int]) -> None:
    """Lift ``colours``, a proper colouring of the graph after ``record``'s
    step, in place to the graph before it, and re-check both locally."""
    reduced_mediums = _local_mediums(record.after, colours)
    (lift_multi_edge if record.kind == MULTI_EDGE else lift_triangle)(record, colours)
    if _local_mediums(record.before, colours) > reduced_mediums:
        raise GraphError("lift increased the medium count")  # cannot happen
