"""Defining properties of the benchmark's graph families and workloads."""

import random

import pytest

import check
import generators as gen
from nearnormal import build_graph, min_medium_exact, validate_input
from nearnormal.graph import GraphError

K4 = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def assert_valid(g, n):
    assert g[0] == n
    diag = validate_input(build_graph(*g))
    assert diag.ok, diag


def assert_not_3_edge_colourable(g):
    with pytest.raises(GraphError, match="no proper 3-edge-colouring"):
        min_medium_exact(build_graph(*g), 3)


@pytest.mark.parametrize("k", [5, 7, 9, 15])
def test_flower_snark(k):
    assert_valid(gen.flower_snark(k), 4 * k)


def test_smallest_flower_snark_has_no_3_edge_colouring():
    assert_not_3_edge_colourable(gen.flower_snark(5))


@pytest.mark.parametrize("base_n", [4, 6, 8])
def test_petersen_inflation(base_n):
    rng = random.Random(base_n)
    base = K4 if base_n == 4 else gen.random_cubic(base_n, rng)
    assert_valid(gen.petersen_inflation(base, rng), 9 * base_n)


def test_smallest_inflation_has_no_3_edge_colouring():
    assert_not_3_edge_colourable(gen.petersen_inflation(K4, random.Random(0)))


def test_truncate_vertex_makes_a_triangle():
    n, edges = gen.truncate_vertex(gen.petersen(), 3)
    assert_valid((n, edges), 12)
    assert {(3, 10), (10, 11), (3, 11)} <= {tuple(sorted(e)) for e in edges}


def test_insert_digon_makes_a_parallel_pair():
    n, edges = gen.insert_digon(gen.petersen(), 0)
    assert_valid((n, edges), 12)
    assert edges.count((10, 11)) == 2


def test_repeated_rewrites_stay_valid():
    rng = random.Random(7)
    g = K4
    for _ in range(40):
        if rng.random() < 0.5:
            g = gen.truncate_vertex(g, rng.randrange(g[0]))
        else:
            g = gen.insert_digon(g, rng.randrange(len(g[1])))
    assert_valid(g, 84)


@pytest.mark.parametrize("triangle_free", [False, True])
def test_random_cubic(triangle_free):
    for n in (4 if not triangle_free else 6, 10, 44):
        g = gen.random_cubic(n, random.Random(n), triangle_free)
        assert_valid(g, n)
        assert len(set(g[1])) == len(g[1])  # simple
        if triangle_free:
            assert check.girth(*g) >= 4
    assert gen.random_cubic(20, random.Random(3)) == gen.random_cubic(20, random.Random(3))


def test_bridges_finds_the_bridge_and_disconnection():
    two_k4 = [(u + 4, v + 4) for u, v in K4[1]]
    # two K4s less one edge each, joined by two edges (no bridge) or one (a bridge)
    joined = (8, K4[1][1:] + two_k4[1:] + [(0, 4), (1, 5)])
    assert gen.bridges(joined) == set()
    barbell = (8, K4[1][1:] + two_k4[1:] + [(0, 4)])
    assert gen.bridges(barbell) == {len(barbell[1]) - 1}
    assert gen.bridges((8, K4[1] + two_k4)) is None


def test_workloads_are_seeded_valid_and_large_enough():
    import workloads

    for name, build in workloads.WORKLOADS.items():
        cases = build(1)
        assert len(cases) >= 40, name
        again = build(1)
        assert [c.graph for c in cases] == [c.graph for c in again], name
        for case in cases:
            assert validate_input(case.graph).ok, case.name
            assert case.fault == (name == "class1_random" and case.graph.m >= 1020)
    assert len(workloads.corpus_sweep(1)) == 587
    assert [c.graph for c in workloads.snarks(1)] != [c.graph for c in workloads.snarks(2)]
