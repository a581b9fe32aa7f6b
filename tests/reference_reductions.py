"""Reference reducer: rebuilds the whole graph at every rewrite.

This is the reducer ``nearnormal.reductions`` replaced, kept as a test
oracle.  Each record holds the graphs before and after its step and checks
connectivity, cubicness and bridgelessness of every reduced graph, so it is
quadratic, but every step can be inspected as a whole graph.
:func:`aligned_steps` runs both reducers and asserts that they agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from nearnormal.colouring import MEDIUM, EdgeColouring, _edge_class, medium_count
from nearnormal.graph import GraphError, MultiGraph, _lowpoint_search
from nearnormal.pipeline import colour_graph
from nearnormal import reductions
from reference_classify import check_proper

MULTI_EDGE = "multi_edge"
TRIANGLE = "triangle"


@dataclass(frozen=True)
class ReductionRecord:
    """One rewrite step with the data needed to lift colourings back.

    ``shared`` maps each edge id of the reduced graph that survives from the
    original graph to its original id.  The kind-specific fields identify
    the rewritten site on both sides.
    """

    kind: str
    original: MultiGraph
    reduced: MultiGraph
    shared: tuple[tuple[int, int], ...]  # (reduced id, original id)
    # multi_edge fields
    new_edge: int = -1                   # reduced id of the replacement edge
    pair: tuple[int, int] = (-1, -1)     # original ids of the parallel pair
    spokes: tuple[int, ...] = ()         # original ids v1u1, v2u2 (triangle: v_iu_i)
    anchor_edges: tuple[int, int] = (-1, -1)  # reduced ids at u1 other than new_edge
    # triangle fields
    x_edges: tuple[int, ...] = ()        # reduced ids of the star at x, i-aligned
    triangle_edges: tuple[int, ...] = () # original ids v0v1, v1v2, v2v0


def is_connected(g: MultiGraph) -> bool:
    """Search from vertex 0; the empty graph counts as connected."""
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for e in g.incident_edges(v):
            w = g.other_end(e, v)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _assert_still_valid(g: MultiGraph, what: str) -> None:
    # the rewrite is supposed to preserve these; failing here is a bug
    if not is_connected(g):
        raise GraphError(f"{what} produced a disconnected graph")
    if not g.is_cubic():
        raise GraphError(f"{what} produced a non-cubic graph")
    if _lowpoint_search(g.n, g.edges, g._incident)[1]:
        raise GraphError(f"{what} produced a bridge")


def _edges_between(g: MultiGraph, u: int, v: int) -> list[int]:
    return [e for e in g.incident_edges(u) if g.other_end(e, u) == v]


def find_parallel_pair(g: MultiGraph) -> tuple[int, int] | None:
    """Smallest doubled vertex pair, or None for a simple graph."""
    counts: dict[tuple[int, int], int] = {}
    for pair in g.edges:
        counts[pair] = counts.get(pair, 0) + 1
    doubled = sorted(p for p, c in counts.items() if c == 2)
    if any(c >= 3 for c in counts.values()):
        raise GraphError("triple edge only occurs in the 2-vertex base case")
    return doubled[0] if doubled else None


def reduce_multi_edge(g: MultiGraph) -> ReductionRecord | None:
    """Remove a doubled pair v1,v2 and splice their outside neighbours
    together with a new edge; returns None when the graph is simple."""
    if g.n <= 2:
        raise GraphError("the 2-vertex multigraph is a base case, not reducible")
    site = find_parallel_pair(g)
    if site is None:
        return None
    v1, v2 = site
    e1, e2 = sorted(_edges_between(g, v1, v2))
    spoke1 = next(e for e in g.incident_edges(v1) if e not in (e1, e2))
    spoke2 = next(e for e in g.incident_edges(v2) if e not in (e1, e2))
    u1 = g.other_end(spoke1, v1)
    u2 = g.other_end(spoke2, v2)
    if u1 == u2:
        raise GraphError("outside neighbours coincide; graph cannot be bridgeless")

    relabel = {}
    for v in range(g.n):
        if v not in (v1, v2):
            relabel[v] = len(relabel)
    new_edges: list[tuple[int, int]] = []
    shared: list[tuple[int, int]] = []
    for eid, (a, b) in enumerate(g.edges):
        if v1 in (a, b) or v2 in (a, b):
            continue
        shared.append((len(new_edges), eid))
        new_edges.append((relabel[a], relabel[b]))
    new_edge = len(new_edges)
    new_edges.append((relabel[u1], relabel[u2]))
    reduced = MultiGraph(g.n - 2, new_edges)
    _assert_still_valid(reduced, "multi-edge reduction")

    u1r = relabel[u1]
    anchor = tuple(e for e in reduced.incident_edges(u1r) if e != new_edge)
    if len(anchor) != 2:
        raise GraphError("anchor vertex lost an edge during reduction")
    return ReductionRecord(
        kind=MULTI_EDGE,
        original=g,
        reduced=reduced,
        shared=tuple(shared),
        new_edge=new_edge,
        pair=(e1, e2),
        spokes=(spoke1, spoke2),
        anchor_edges=(anchor[0], anchor[1]),
    )


def lift_multi_edge(record: ReductionRecord, reduced_colouring: EdgeColouring) -> EdgeColouring:
    """Transfer a proper colouring across the splice: both spokes take the
    new edge's colour, the parallel pair takes the two other colours seen at
    the anchor endpoint (in increasing order)."""
    if record.kind != MULTI_EDGE:
        raise GraphError("record is not a multi-edge reduction")
    check_proper(record.reduced, reduced_colouring)
    cols = [0] * record.original.m
    for rid, oid in record.shared:
        cols[oid] = reduced_colouring.colour_of[rid]
    ce = reduced_colouring.colour_of[record.new_edge]
    a, b = sorted(reduced_colouring.colour_of[e] for e in record.anchor_edges)
    cols[record.spokes[0]] = ce
    cols[record.spokes[1]] = ce
    cols[record.pair[0]] = a
    cols[record.pair[1]] = b
    lifted = EdgeColouring(reduced_colouring.k, tuple(cols))
    check_proper(record.original, lifted)
    if medium_count(record.original, lifted) > medium_count(record.reduced, reduced_colouring):
        raise GraphError("lift increased the medium count")  # cannot happen
    return lifted


def find_triangle(g: MultiGraph) -> tuple[int, int, int] | None:
    """Lexicographically smallest triangle of a simple graph, or None."""
    best: tuple[int, int, int] | None = None
    for eid, (a, b) in enumerate(g.edges):
        common = set(g.neighbours(a)) & set(g.neighbours(b))
        for w in common:
            tri = tuple(sorted((a, b, w)))
            if best is None or tri < best:
                best = tri
    return best


def reduce_triangle(g: MultiGraph) -> ReductionRecord | None:
    """Contract a triangle into a single vertex; returns None when the graph
    is triangle-free.  The contraction may create parallel edges."""
    if not g.is_simple():
        raise GraphError("triangle reduction expects a simple graph")
    site = find_triangle(g)
    if site is None:
        return None
    v = list(site)
    spokes = []
    outside = []
    for i in range(3):
        others = {v[(i + 1) % 3], v[(i + 2) % 3]}
        spoke = next(
            e for e in g.incident_edges(v[i]) if g.other_end(e, v[i]) not in others
        )
        spokes.append(spoke)
        outside.append(g.other_end(spoke, v[i]))
    triangle_edges = tuple(
        _edges_between(g, v[i], v[(i + 1) % 3])[0] for i in range(3)
    )

    relabel = {}
    for w in range(g.n):
        if w not in site:
            relabel[w] = len(relabel)
    x = g.n - 3
    new_edges: list[tuple[int, int]] = []
    shared: list[tuple[int, int]] = []
    for eid, (a, b) in enumerate(g.edges):
        if a in site or b in site:
            continue
        shared.append((len(new_edges), eid))
        new_edges.append((relabel[a], relabel[b]))
    x_edges = []
    for i in range(3):
        x_edges.append(len(new_edges))
        new_edges.append((x, relabel[outside[i]]))
    reduced = MultiGraph(g.n - 2, new_edges)
    _assert_still_valid(reduced, "triangle contraction")
    return ReductionRecord(
        kind=TRIANGLE,
        original=g,
        reduced=reduced,
        shared=tuple(shared),
        spokes=tuple(spokes),
        x_edges=tuple(x_edges),
        triangle_edges=triangle_edges,
    )


def lift_triangle(record: ReductionRecord, reduced_colouring: EdgeColouring) -> EdgeColouring:
    """Re-expand the contracted triangle: spoke i keeps the colour of the
    star edge at x it replaces, and triangle edge v_i v_{i+1} takes the
    colour of the opposite spoke (index i+2, modulo 3)."""
    if record.kind != TRIANGLE:
        raise GraphError("record is not a triangle reduction")
    check_proper(record.reduced, reduced_colouring)
    star = [reduced_colouring.colour_of[e] for e in record.x_edges]
    if len(set(star)) != 3:
        raise GraphError("star at the contracted vertex is not rainbow")
    cols = [0] * record.original.m
    for rid, oid in record.shared:
        cols[oid] = reduced_colouring.colour_of[rid]
    for i in range(3):
        cols[record.spokes[i]] = star[i]
        cols[record.triangle_edges[i]] = star[(i + 2) % 3]
    lifted = EdgeColouring(reduced_colouring.k, tuple(cols))
    check_proper(record.original, lifted)
    if medium_count(record.original, lifted) > medium_count(record.reduced, reduced_colouring):
        raise GraphError("lift increased the medium count")  # cannot happen
    return lifted


def lift(record: ReductionRecord, reduced_colouring: EdgeColouring) -> EdgeColouring:
    if record.kind == MULTI_EDGE:
        return lift_multi_edge(record, reduced_colouring)
    return lift_triangle(record, reduced_colouring)


def reduce_fully(g: MultiGraph) -> tuple[MultiGraph, list[ReductionRecord]]:
    """Exhaust multi-edge reductions before triangle contractions (each
    contraction can create new parallel pairs, so the loop interleaves)."""
    records: list[ReductionRecord] = []
    cur = g
    while cur.n > 2:
        rec = None
        if not cur.is_simple():
            rec = reduce_multi_edge(cur)
        if rec is None and cur.is_simple():
            rec = reduce_triangle(cur)
        if rec is None:
            break
        records.append(rec)
        cur = rec.reduced
    return cur, records


def reference_colouring(g: MultiGraph) -> EdgeColouring:
    """``colour_graph``'s base colouring lifted through this reducer."""
    base, records = reduce_fully(g)
    colouring, _report = colour_graph(base)
    for record in reversed(records):
        colouring = lift(record, colouring)
    return colouring


def removed_edges(rec) -> tuple[int, ...]:
    """The working ids a production record's step deletes."""
    if rec.kind == MULTI_EDGE:
        return rec.pair + rec.spokes
    return rec.spokes + rec.triangle_edges


def added_edges(rec) -> tuple[int, ...]:
    """The working ids a production record's step adds."""
    return (rec.new_edge,) if rec.kind == MULTI_EDGE else rec.x_edges


def live_ids(m: int, records) -> list[list[int]]:
    """Sorted working ids of the live edges before each production step and
    after the last one; asserts that each step removes live ids and adds
    the next unused ones."""
    live = list(range(m))
    out = [live]
    fresh = m
    for rec in records:
        removed, added = removed_edges(rec), added_edges(rec)
        gone = set(removed)
        assert len(gone) == len(removed) and gone <= set(live)
        assert added == tuple(range(fresh, fresh + len(added)))
        fresh += len(added)
        live = [e for e in live if e not in gone] + list(added)
        out.append(live)
    return out


def _neighbourhoods(g: MultiGraph, ids: list[int]) -> dict[int, set[int]]:
    return {ids[e]: {ids[f] for w in ends for f in g.incident_edges(w) if f != e} for e, ends in enumerate(g.edges)}


def outside_vertices(ref: ReductionRecord) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The far ends of the spokes (u1, u2 or u0, u1, u2) in the original
    graph and in the reduced graph of a reference record."""
    g = ref.original
    site = {v for e in ref.pair + ref.triangle_edges if e >= 0 for v in g.endpoints(e)}
    outside = []
    for s in ref.spokes:
        a, b = g.endpoints(s)
        outside.append(b if a in site else a)
    # the reduced graph numbers the survivors in order
    return tuple(outside), tuple(u - sum(v < u for v in site) for u in outside)


Site = tuple[tuple[int, tuple[int, ...]], ...]  # (edge, the edges at its ends, maybe itself)


def site_before(rec) -> Site:
    """The edges a production record's step removes, each with the edges
    around it before the step, from the record's roles and its edges at the
    outside vertices."""
    at_u = rec.outside_before
    if rec.kind == MULTI_EDGE:
        (s1, s2), (e1, e2) = rec.spokes, rec.pair
        return (e1, (e2, s1, s2)), (e2, (e1, s1, s2)), (s1, (e1, e2, *at_u[0])), (s2, (e1, e2, *at_u[1]))
    (s0, s1, s2), (t0, t1, t2) = rec.spokes, rec.triangle_edges
    return (
        (s0, (t2, t0, *at_u[0])), (s1, (t0, t1, *at_u[1])), (s2, (t1, t2, *at_u[2])),
        (t0, (s0, s1, t1, t2)), (t1, (s1, s2, t2, t0)), (t2, (s2, s0, t0, t1)),
    )


def site_after(rec) -> Site:
    """The edges a production record's step adds, each with the edges around
    it after the step."""
    at_u = rec.outside_after
    if rec.kind == MULTI_EDGE:
        return ((rec.new_edge, at_u[0] + at_u[1]),)
    return tuple((e, rec.x_edges + at) for e, at in zip(rec.x_edges, at_u))


def site_mediums(site: Site, colours: list[int]) -> int:
    """The medium edges of ``site``, one ``_edge_class`` call per edge: the
    per-edge check the lift made before it read one mask per site vertex."""
    return sum(_edge_class(colours, e, nbrs) == MEDIUM for e, nbrs in site)


def paired_steps(g: MultiGraph):
    """Run the production reducer and this one on ``g`` and pair their
    steps: the same kinds and sites (the production ids are the reference's
    compact ids under the live-id ranking) and an equal base.

    Returns ``(base, base_edges, steps)`` from the production reducer; each
    step is ``(reference record, record, before_ids, after_ids)`` with
    ``before_ids[i]`` the working id of edge ``i`` of the reference's
    original graph, ``after_ids[i]`` that of its reduced graph.
    """
    base, records, base_edges = reductions.reduce_fully(g)
    ref_base, ref_records = reduce_fully(g)
    assert [r.kind for r in records] == [r.kind for r in ref_records]
    assert base == ref_base
    ids = live_ids(g.m, records)
    assert tuple(ids[-1]) == base_edges
    steps = []
    for i, (ref, rec) in enumerate(zip(ref_records, records)):
        before, after = ids[i], ids[i + 1]
        assert rec.spokes == tuple(before[e] for e in ref.spokes)
        if rec.kind == MULTI_EDGE:
            assert rec.pair == tuple(before[e] for e in ref.pair)
            assert rec.new_edge == after[ref.new_edge]
            assert rec.outside_after[0][:-1] == tuple(after[e] for e in ref.anchor_edges)
            assert rec.replaced == (rec.new_edge, rec.new_edge)
        else:
            assert rec.triangle_edges == tuple(before[e] for e in ref.triangle_edges)
            assert rec.x_edges == tuple(after[e] for e in ref.x_edges)
            assert rec.replaced == rec.x_edges
        steps.append((ref, rec, before, after))
    return base, base_edges, steps


def aligned_steps(g: MultiGraph):
    """:func:`paired_steps`, asserting as well, on the reference's whole
    graphs, the edges at the outside vertices and the neighbours of the
    removed and new edges that each record stores, and that every edge that
    changes neighbourhood lies at an outside vertex."""
    base, base_edges, steps = paired_steps(g)
    for ref, rec, before, after in steps:
        # the stored incidences are the whole graphs' incidences at u_i,
        # in the same order (working ids rank like the reference's ids)
        outside_old, outside_new = outside_vertices(ref)
        assert rec.outside_before == tuple(
            tuple(before[e] for e in ref.original.incident_edges(u)) for u in outside_old
        )
        assert rec.outside_after == tuple(
            tuple(after[e] for e in ref.reduced.incident_edges(u)) for u in outside_new
        )
        nb_before = _neighbourhoods(ref.original, before)
        nb_after = _neighbourhoods(ref.reduced, after)
        around_before = {e: set(nbrs) - {e} for e, nbrs in site_before(rec)}
        around_after = {e: set(nbrs) - {e} for e, nbrs in site_after(rec)}
        assert around_before == {e: nb_before[e] for e in removed_edges(rec)}
        assert around_after == {e: nb_after[e] for e in added_edges(rec)}
        at_outside_before = {e for inc in rec.outside_before for e in inc}
        at_outside_after = {e for inc in rec.outside_after for e in inc}
        assert at_outside_before - set(removed_edges(rec)) == at_outside_after - set(added_edges(rec))
        for e in nb_after.keys() & nb_before.keys():
            if nb_before[e] != nb_after[e]:
                assert e in at_outside_before, f"edge {e} changes neighbourhood off the outside vertices"
    return base, base_edges, steps
