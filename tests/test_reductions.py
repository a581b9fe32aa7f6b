from __future__ import annotations

import random

import pytest

import bench_families
import reference_reductions as ref
from nearnormal import reductions
from nearnormal.colouring import EdgeColouring, medium_count
from nearnormal.corpus import CORPUS_ORDERS, complete_graph_k4, k33, load_cubic_corpus, petersen_graph, prism
from nearnormal.graph import GraphError, adjacent_edges, build_graph, validate_input
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
    nbrs = [adjacent_edges(g, e).adjacent_ids for e in range(g.m)]
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

    def test_records_chain_consistently(self):
        g = prism(3)
        base, records, base_edges = reduce_fully(g)
        live = ref.live_ids(g.m, records)
        for rec, before, after in zip(records, live, live[1:]):
            assert {f for e, nbrs in rec.before for f in (e, *nbrs)} <= set(before)
            assert {f for e, nbrs in rec.after for f in (e, *nbrs)} <= set(after)
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
