from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

import bench_families
import reference_reductions as ref
from nearnormal import reductions
from nearnormal.colouring import MEDIUM, POOR, RICH, EdgeColouring, medium_count
from nearnormal.corpus import CORPUS_ORDERS, complete_graph_k4, k33, load_cubic_corpus, petersen_graph, prism
from nearnormal.graph import ColouringError, GraphError, build_graph, validate_input
from nearnormal.pipeline import colour_graph
from nearnormal.reductions import (
    MULTI_EDGE,
    TRIANGLE,
    lift,
    lift_multi_edge,
    lift_triangle,
    reduce_fully,
)
from reference_classify import is_proper

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def double_double():
    """Doubled pair 0,1 whose outside neighbours 2,3 are doubled too."""
    return build_graph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])


def truncate(g, v):
    """Replace vertex v by a triangle with corners v, n, n+1."""
    n = g.n
    corners = [v, n, n + 1]
    edges = list(g.edges)
    hit = 0
    for eid, (a, b) in enumerate(g.edges):
        if v in (a, b):
            edges[eid] = (corners[hit], b if a == v else a)
            hit += 1
    return build_graph(n + 2, edges + [(v, n), (n, n + 1), (n + 1, v)])


def insert_digon(g, e):
    """Edge u--v becomes u--a, a=b (a parallel pair), b--v."""
    n = g.n
    u, v = g.edges[e]
    edges = list(g.edges)
    edges[e] = (u, n)
    return build_graph(n + 2, edges + [(n, n + 1), (n, n + 1), (n + 1, v)])


def grown_graphs():
    """Seeded triangle truncations and digon insertions of small bases, up
    to n = 200, so that both kinds of rewrite interleave."""
    rng = random.Random(20190517)
    out = []
    for base in (petersen_graph(), complete_graph_k4(), k33(), prism(3)):
        for target in (20, 60, 200):
            g = base
            while g.n < target:
                if rng.random() < 0.5:
                    g = truncate(g, rng.randrange(g.n))
                else:
                    g = insert_digon(g, rng.randrange(g.m))
            out.append(g)
    return out


def proper_colourings(g, k=4):
    """Every proper k-edge-colouring (exhaustive backtracking)."""
    nbrs = [{x for w in ends for x in g.incident_edges(w) if x != e} for e, ends in enumerate(g.edges)]
    colours = [0] * g.m
    out = []

    def place(e):
        if e == g.m:
            out.append(EdgeColouring(k, tuple(colours)))
            return
        blocked = {colours[x] for x in nbrs[e] if x < e}
        for col in range(1, k + 1):
            if col not in blocked:
                colours[e] = col
                place(e + 1)
        colours[e] = 0

    place(0)
    return out


def base_colours(base_edges, colour_of):
    """A working colour list holding a colouring of the base."""
    colours = [0] * (base_edges[-1] + 1)
    for e, col in zip(base_edges, colour_of):
        colours[e] = col
    return colours


class TestReduceMultiEdge:
    def test_simple_graph_returns_none(self, petersen):
        assert ref.reduce_multi_edge(petersen) is None
        assert reduce_fully(petersen)[1] == []
        assert reduce_fully(prism(3))[1][0].kind == TRIANGLE

    def test_double_double_reduces_to_triple_edge(self):
        base, records, _ids = reduce_fully(double_double())
        assert [r.kind for r in records] == [MULTI_EDGE]
        assert base.n == 2 and base.m == 3
        assert not base.is_simple()

    def test_base_case_rejected(self, triple):
        with pytest.raises(GraphError, match="base case"):
            ref.reduce_multi_edge(triple)
        assert reduce_fully(triple) == (triple, [], (0, 1, 2))

    def test_reduced_graph_stays_cubic_and_bridgeless(self):
        base, _ids, steps = ref.aligned_steps(double_double())
        assert validate_input(base).ok
        assert all(validate_input(step[0].reduced).ok for step in steps)

    def test_parallel_pair_site_selection(self):
        g = double_double()
        assert ref.find_parallel_pair(g) == (0, 1)
        rec = reduce_fully(g)[1][0]
        assert [g.edges[e] for e in rec.pair] == [(0, 1), (0, 1)]


class TestReduceTriangle:
    def test_petersen_returns_none(self, petersen):
        assert ref.reduce_triangle(petersen) is None
        assert reduce_fully(petersen)[1] == []

    def test_k4_contracts_to_triple_edge(self, k4):
        base, records, _ids = reduce_fully(k4)
        assert [r.kind for r in records] == [TRIANGLE]
        assert base.n == 2 and base.m == 3

    def test_prism_contracts_to_k4(self):
        _base, _ids, steps = ref.aligned_steps(prism(3))
        first = steps[0][0].reduced
        assert first.n == 4 and first.m == 6
        assert first.is_cubic()
        assert len(steps[0][3]) == 6  # live working edges after the step

    def test_smallest_triangle_chosen(self):
        g = prism(3)
        assert ref.find_triangle(g) == (0, 1, 2)
        rec = reduce_fully(g)[1][0]
        assert {v for e in rec.triangle_edges for v in g.edges[e]} == {0, 1, 2}

    def test_multigraph_rejected(self, triple, k4):
        with pytest.raises(GraphError, match="simple"):
            ref.reduce_triangle(triple)
        # with a parallel pair present, the pair goes before any triangle
        _base, records, _ids = reduce_fully(insert_digon(k4, 0))
        assert records[0].kind == MULTI_EDGE


class TestLifts:
    def test_multi_edge_lift_colour_rule(self):
        base, (rec,), base_edges = reduce_fully(double_double())
        # the base is the triple edge; colour the replacement edge 1 and the
        # others 2 and 3
        rest = iter((2, 3))
        colours = base_colours(
            base_edges, [1 if e == rec.new_edge else next(rest) for e in base_edges]
        )
        lift(rec, colours)
        assert colours[rec.spokes[0]] == 1
        assert colours[rec.spokes[1]] == 1
        assert {colours[rec.pair[0]], colours[rec.pair[1]]} == {2, 3}
        assert colours[rec.pair[0]] < colours[rec.pair[1]]

    def test_triangle_lift_opposite_spoke_rule(self, k4):
        _base, (rec,), base_edges = reduce_fully(k4)
        colours = base_colours(base_edges, (1, 2, 3))
        star = [colours[e] for e in rec.x_edges]
        lift(rec, colours)
        for i in range(3):
            assert colours[rec.spokes[i]] == star[i]
            assert colours[rec.triangle_edges[i]] == star[(i + 2) % 3]

    @pytest.mark.parametrize(
        "graph_factory",
        [double_double, lambda: prism(3), None],
        ids=["multi-edge", "prism-triangle", "k4-triangle"],
    )
    def test_roundtrip_exhaustive(self, graph_factory, k4):
        g = k4 if graph_factory is None else graph_factory()
        _base, _ids, steps = ref.aligned_steps(g)
        old, rec, before, after = steps[0]
        count = 0
        for c in proper_colourings(old.reduced):
            colours = [0] * (max(after) + 1)
            for e, col in enumerate(c.colour_of):
                colours[after[e]] = col
            lift(rec, colours)
            lifted = EdgeColouring(4, tuple(colours[e] for e in before))
            assert lifted == ref.lift(old, c)
            assert is_proper(old.original, lifted)
            assert medium_count(old.original, lifted) <= medium_count(old.reduced, c)
            count += 1
        assert count > 0

    def test_wrong_record_kind_rejected(self, k4):
        rec = reduce_fully(k4)[1][0]
        with pytest.raises(GraphError, match="not a multi-edge"):
            lift_multi_edge(rec, [0] * 9)
        rec = reduce_fully(double_double())[1][0]
        with pytest.raises(GraphError, match="not a triangle"):
            lift_triangle(rec, [0] * 7)

    def test_improper_input_rejected(self, k4):
        _base, (rec,), base_edges = reduce_fully(k4)
        with pytest.raises(GraphError, match="proper"):
            lift(rec, base_colours(base_edges, (1, 1, 3)))

    def test_star_that_is_not_rainbow_rejected(self, k4):
        # ``lift`` stops such a colouring first, as improper; the triangle
        # lift checks its own input too
        _base, (rec,), base_edges = reduce_fully(k4)
        with pytest.raises(GraphError, match="^star at the contracted vertex is not rainbow$"):
            lift_triangle(rec, base_colours(base_edges, (1, 1, 3)))


class TestEveryMessage:
    """Each ``GraphError`` that ``reductions`` raises, with its message."""

    def test_triple_edge_off_the_base_case(self, k4):
        g = build_graph(6, [(0, 1), (0, 1), (0, 1), *((u + 2, v + 2) for u, v in k4.edges)])
        with pytest.raises(GraphError, match="^triple edge only occurs in the 2-vertex base case$"):
            reduce_fully(g)

    def test_outside_neighbours_coincide(self):
        # each doubled pair's spokes meet at one vertex, and those two vertices
        # are joined by a bridge
        g = build_graph(6, [(0, 1), (0, 1), (0, 2), (1, 2), (2, 5), (3, 4), (3, 4), (3, 5), (4, 5)])
        with pytest.raises(GraphError, match="^outside neighbours coincide; graph cannot be bridgeless$"):
            reduce_fully(g)

    @pytest.mark.parametrize("corner", [0, 1, 2])
    def test_a_degree_4_corner(self, corner):
        # it would contract to a degree-4 vertex; no ValueError from
        # unpacking the corner's edges first
        g = build_graph(7, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5), (corner, 6)])
        with pytest.raises(GraphError, match="^rewrite produced a non-cubic graph$"):
            reductions._WorkingGraph(g).contract((0, 1, 2))

    @pytest.mark.parametrize("g, step", [
        (build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]), lambda wg: wg.contract((0, 1, 2))),
        (build_graph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3)]), lambda wg: wg.remove_pair(0, 1)),
    ], ids=["contract", "remove_pair"])
    def test_an_outside_vertex_not_of_degree_3(self, g, step):
        with pytest.raises(GraphError, match="^rewrite produced a non-cubic graph$"):
            step(reductions._WorkingGraph(g))

    def test_a_spoke_off_the_colour_it_replaces(self, k4, monkeypatch):
        # the spokes take the star's colours one place on, and the triangle
        # edges the colours that keep every corner proper: only the spoke
        # check sees it
        def rotated(record, colours):
            c0, c1, c2 = (colours[e] for e in record.x_edges)
            for e, col in zip(record.spokes + record.triangle_edges, (c1, c2, c0, c0, c1, c2)):
                colours[e] = col

        monkeypatch.setattr(reductions, "lift_triangle", rotated)
        _base, (rec,), base_edges = reduce_fully(k4)
        spoke, star_edge = rec.spokes[0], rec.x_edges[0]
        colours = base_colours(base_edges, (1, 2, 3))
        with pytest.raises(GraphError, match=f"^spoke {spoke} did not take the colour of edge {star_edge}$"):
            lift(rec, colours)
        assert rec.mediums_before(colours) <= rec.mediums_after(colours)  # proper, and in bound

    def test_more_medium_edges_after_the_lift(self, monkeypatch):
        # the pair takes 2 and 4 where the anchors show 2 and 3: both spokes
        # turn medium, the new edge was poor
        def rule(record, colours):
            colours[record.spokes[0]] = colours[record.spokes[1]] = colours[record.new_edge]
            colours[record.pair[0]], colours[record.pair[1]] = 2, 4

        monkeypatch.setattr(reductions, "lift_multi_edge", rule)
        _base, (rec,), base_edges = reduce_fully(double_double())
        rest = iter((2, 3))
        colours = base_colours(base_edges, [1 if e == rec.new_edge else next(rest) for e in base_edges])
        with pytest.raises(GraphError, match="^lift increased the medium count$"):
            lift(rec, colours)

    def test_a_clash_between_surviving_edges_at_an_outside_vertex(self, k4):
        # u1's two other edges share colour 2; the new edge's neighbours show
        # no 1, so classifying the new edge alone lets this through
        rec = reduce_fully(insert_digon(k4, 0))[1][0]
        (f1, f2, new), (g1, g2, _new) = rec.outside_after
        colours = [0] * (new + 1)
        colours[new], colours[f1], colours[f2], colours[g1], colours[g2] = 1, 2, 2, 3, 4
        assert ref.site_mediums(ref.site_after(rec), colours) == 1
        with pytest.raises(ColouringError, match=f"^colouring is not proper at the edges {f1}, {f2}, {new}$"):
            lift(rec, colours)


class TestReduceFully:
    def test_prism_chain_ends_at_triple_edge(self):
        base, records, _ids = reduce_fully(prism(3))
        assert base.n == 2
        assert [r.kind for r in records] == [TRIANGLE, TRIANGLE]

    def test_triangle_creating_parallel_edges_then_multi_edge(self):
        # gluing two triangles along a path forces the interleaving
        base, records, _ids = reduce_fully(double_double())
        assert base.n == 2
        assert [r.kind for r in records] == [MULTI_EDGE]

    def test_petersen_is_irreducible(self, petersen):
        base, records, base_edges = reduce_fully(petersen)
        assert base == petersen and records == []
        assert base_edges == tuple(range(petersen.m))

    @pytest.mark.parametrize("make", [
        petersen_graph,
        lambda: bench_families.flower_snark(7),
        lambda: bench_families.random_cubic(200, 3, triangle_free=True),
    ], ids=["petersen", "J7", "random200"])
    def test_irreducible_input_builds_no_working_graph(self, make, monkeypatch):
        def refuse(g):
            raise AssertionError("working graph built for an irreducible input")

        monkeypatch.setattr(reductions, "_WorkingGraph", refuse)
        g = make()
        base, records, base_edges = reduce_fully(g)
        assert base is g and records == [] and base_edges == tuple(range(g.m))

    @pytest.mark.parametrize("start, base_n", [(petersen_graph, 10), (complete_graph_k4, 2)], ids=["petersen", "K4"])
    def test_reduce_and_lift_at_scale(self, start, base_n, monkeypatch):
        # grown in place to n = 10^4 by the grower of scripts/reduce_time.py;
        # every op adds two vertices and one step undoes it
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
        spec = importlib.util.spec_from_file_location("reduce_time", SCRIPTS / "reduce_time.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        g = script.grow(start(), 10_000, random.Random(10_000))
        base, records, base_edges = reduce_fully(g)
        assert base.n == base_n and len(records) == (g.n - base.n) // 2
        colours = base_colours(base_edges, colour_graph(base)[0].colour_of)
        for record in reversed(records):
            lift(record, colours)
        assert tuple(colours[: g.m]) == colour_graph(g)[0].colour_of

    def test_records_chain_consistently(self):
        g = prism(3)
        base, records, base_edges = reduce_fully(g)
        live = ref.live_ids(g.m, records)
        for rec, before, after in zip(records, live, live[1:]):
            assert {f for e, nbrs in ref.site_before(rec) for f in (e, *nbrs)} <= set(before)
            assert {f for e, nbrs in ref.site_after(rec) for f in (e, *nbrs)} <= set(after)
        assert tuple(live[-1]) == base_edges
        old_base, old_records = ref.reduce_fully(g)
        for first, second in zip(old_records, old_records[1:]):
            assert first.reduced == second.original
        assert old_records[-1].reduced == old_base == base


@pytest.fixture(scope="module")
def reference_runs():
    """(graph, aligned steps) for every corpus graph and every grown graph;
    ``aligned_steps`` asserts the step-by-step agreement on the way."""
    graphs = [g for n in CORPUS_ORDERS for g in load_cubic_corpus(n)] + grown_graphs()
    return [(g, ref.aligned_steps(g)) for g in graphs]


class TestAgainstReference:
    def test_same_steps_and_base(self, reference_runs):
        # the comparisons themselves run in aligned_steps; this checks that
        # they covered what they should
        assert len(reference_runs) == 587 + 12
        assert max(g.n for g, _run in reference_runs) == 200
        kinds = {step[1].kind for _g, run in reference_runs for step in run[2]}
        assert kinds == {MULTI_EDGE, TRIANGLE}

    def test_reference_replay_stays_valid(self, reference_runs):
        # exhaustive evidence for checking connectivity and bridges on the
        # base only: every intermediate graph of the replay is valid
        for _g, (_base, _ids, steps) in reference_runs:
            for old, _rec, _before, _after in steps:
                assert validate_input(old.original).ok
                assert validate_input(old.reduced).ok

    def test_reduce_lift_workload(self):
        graphs = bench_families.reduce_lift_graphs(47)
        assert len(graphs) == 42 and max(g.n for g in graphs) == 400
        for g in graphs:
            _base, _ids, steps = ref.aligned_steps(g)
            assert steps

    def test_identical_colourings(self, reference_runs):
        for g, (_base, _ids, steps) in reference_runs:
            if steps:
                assert colour_graph(g)[0] == ref.reference_colouring(g)


def kempe_recolourings(g, c, edges, rng, count):
    """``count`` proper colourings of ``g``, each ``c`` with one seeded Kempe
    chain swapped: the component of the colours p, q through an edge drawn
    from ``edges``, where p is that edge's colour and q a drawn other one."""
    out = []
    for _ in range(count):
        cols = list(c.colour_of)
        e = rng.choice(edges)
        p = cols[e]
        q = rng.choice([col for col in range(1, c.k + 1) if col != p])
        chain, stack = {e}, [e]
        while stack:
            for f in (f for w in g.edges[stack.pop()] for f in g.incident_edges(w)):
                if f not in chain and cols[f] in (p, q):
                    chain.add(f)
                    stack.append(f)
        for f in chain:
            cols[f] = p + q - cols[f]
        out.append(EdgeColouring(c.k, tuple(cols)))
    return out


def reference_neighbours(graph, ids, local):
    """Working id -> the working ids of its neighbours, for each edge of
    ``local`` (ids of ``graph``), from the incidence lists of the
    reference's whole graph."""
    return {ids[e]: [ids[f] for w in graph.edges[e] for f in graph.incident_edges(w) if f != e] for e in local}


def reference_classes(neighbours, colours):
    """Working id -> class for the edges of ``neighbours``; None when the
    colouring is not proper at one of them."""
    seen = {e: {colours[f] for f in nbrs} for e, nbrs in neighbours.items()}
    if any(colours[e] in cols for e, cols in seen.items()):
        return None
    return {e: {2: POOR, 3: MEDIUM, 4: RICH}[len(cols)] for e, cols in seen.items()}


def old_check_classes(step, colours):
    """The classes the lift checked before it checked only its site: every
    removed edge and every edge at an outside vertex before the step, every
    new edge and every edge at an outside vertex after it."""
    old, _rec, before, after = step
    outside_old, outside_new = ref.outside_vertices(old)
    out = []
    for graph, ids, own, outside in (
        (old.original, before, ref.removed_edges(old), outside_old),
        (old.reduced, after, ref.added_edges(old), outside_new),
    ):
        local = {*own, *(e for u in outside for e in graph.incident_edges(u))}
        classes = reference_classes(reference_neighbours(graph, ids, local), colours)
        assert classes is not None, "colouring is not proper around the site"
        out.append(classes)
    return out


def reduced_colourings(base, base_edges, steps, rng):
    """For each step, proper colourings of its reduced graph in working
    colour lists: every one where the graph has at most 6 edges, else the
    pipeline's colouring lifted to the step and two seeded Kempe
    recolourings of it near the step's new edges."""
    colours = base_colours(base_edges, colour_graph(base)[0].colour_of)
    out = []
    for old, rec, _before, after in reversed(steps):
        if old.reduced.m <= 6:
            found = proper_colourings(old.reduced)
        else:
            c = EdgeColouring(4, tuple(colours[w] for w in after))
            near = sorted({f for e in ref.added_edges(old) for w in old.reduced.edges[e] for f in old.reduced.incident_edges(w) if f != e})
            found = [c, *kempe_recolourings(old.reduced, c, near, rng, 2)]
        lists = []
        for c in found:
            lists.append([0] * len(colours))
            for w, col in zip(after, c.colour_of):
                lists[-1][w] = col
        out.append(lists)
        lift(rec, colours)
    return reversed(out)


class TestLiftCheckIsNoWeaker:
    """The lift checks its site and that each spoke takes the colour of the
    edge it replaces; before, it checked the medium count over the site and
    every edge at an outside vertex.  Whatever a lift rule writes on the
    removed edges, the new check accepting implies the old one accepting."""

    @pytest.fixture(scope="class")
    def runs(self):
        rng = random.Random(16)
        graphs = [g for n in CORPUS_ORDERS if n <= 12 for g in load_cubic_corpus(n)] + grown_graphs()
        graphs += [g for seed in range(3) for g in bench_families.reduce_lift_graphs(seed)]
        out = []
        for g in graphs:
            base, base_edges, steps = ref.paired_steps(g)
            out.extend(zip(steps, reduced_colourings(base, base_edges, steps, rng)))
        return out

    def test_coverage(self, runs):
        assert len(runs) > 4000
        assert {step[1].kind for step, _lists in runs} == {MULTI_EDGE, TRIANGLE}
        assert sum(len(lists) for _step, lists in runs) > 3 * len(runs)

    def test_real_lift_keeps_every_outside_class(self, runs):
        for step, lists in runs:
            for reduced in lists:
                colours = list(reduced)
                lift(step[1], colours)
                before, after = old_check_classes(step, colours)
                for e in before.keys() & after.keys():
                    assert before[e] == after[e]
                assert list(before.values()).count(MEDIUM) <= list(after.values()).count(MEDIUM)

    def test_any_rule_the_new_check_accepts_passes_the_old_check(self, runs, monkeypatch):
        # a rule that gives the spokes their replaced colours (else the new
        # check rejects it outright) and the pair or triangle edges any
        # colours at all: every assignment, on the smaller graphs' steps
        assignment = []

        def rule(record, colours):
            for spoke, e in zip(record.spokes, record.replaced):
                colours[spoke] = colours[e]
            inner = record.pair if record.kind == MULTI_EDGE else record.triangle_edges
            for e, col in zip(inner, assignment):
                colours[e] = col

        monkeypatch.setattr(reductions, "lift_multi_edge", rule)
        monkeypatch.setattr(reductions, "lift_triangle", rule)
        accepted = rejected = 0
        for step, lists in runs:
            if step[0].original.n > 30:
                continue
            width = 2 if step[1].kind == MULTI_EDGE else 3
            for reduced in lists[:3]:
                for values in itertools.product(range(1, 5), repeat=width):
                    assignment[:] = values
                    colours = list(reduced)
                    try:
                        lift(step[1], colours)
                    except GraphError:
                        rejected += 1
                        continue
                    accepted += 1
                    before, after = old_check_classes(step, colours)
                    assert list(before.values()).count(MEDIUM) <= list(after.values()).count(MEDIUM)
        assert accepted > 0 and rejected > 0

    def test_spoke_off_its_replaced_colour_raises(self, runs, monkeypatch):
        # a rule that writes any colours at all on the removed edges, with
        # some spoke off the colour of the edge it replaces: lift raises on
        # every one, and some of them keep the site proper and its medium
        # count in bound, so only the spoke check catches those; on the
        # first 12 original graphs with n <= 8 of each kind of step
        assignment = []

        def rule(record, colours):
            for e, col in zip(ref.removed_edges(record), assignment):
                colours[e] = col

        monkeypatch.setattr(reductions, "lift_multi_edge", rule)
        monkeypatch.setattr(reductions, "lift_triangle", rule)
        only_the_spoke_check = 0
        done = {MULTI_EDGE: set(), TRIANGLE: set()}
        for (old, rec, before, after), lists in runs:
            if old.original.n > 8 or old.original in done[rec.kind] or len(done[rec.kind]) == 12:
                continue
            done[rec.kind].add(old.original)
            reduced = lists[0]
            site_before = reference_neighbours(old.original, before, ref.removed_edges(old))
            site_after = reference_neighbours(old.reduced, after, ref.added_edges(old))
            removed = ref.removed_edges(rec)
            for values in itertools.product(range(1, 5), repeat=len(removed)):
                given = dict(zip(removed, values))
                if all(given[s] == reduced[e] for s, e in zip(rec.spokes, rec.replaced)):
                    continue
                assignment[:] = values
                colours = list(reduced)
                try:
                    lift(rec, colours)
                except GraphError:
                    pass
                else:
                    raise AssertionError(f"lift took colours {values} on edges {removed} unnoticed")
                lifted = reference_classes(site_before, colours)
                if lifted is not None:
                    reduced_mediums = list(reference_classes(site_after, colours).values()).count(MEDIUM)
                    only_the_spoke_check += list(lifted.values()).count(MEDIUM) <= reduced_mediums
        assert len(done[MULTI_EDGE]) == len(done[TRIANGLE]) == 12
        assert only_the_spoke_check > 0
