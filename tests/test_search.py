"""The one iterative colour search against the three recursive ones it
replaced (``tests/reference_search.py``): equal results and equal witnesses,
and no depth limit.  The pipeline's 3-colour attempt runs it with a budget
of backtracks and gives the same answer or leaves the graph open; the
oracles run it with none.  At k = 3 the search keeps refuted frontier
states once it has made ``_MEMO_AFTER * m`` backtracks; with that gate at
0 it still gives the reference's answers and witnesses.  The edge order is
checked against a brute-force recount of maximum cardinality search."""

from __future__ import annotations

import math

import pytest

import bench_families
import reference_search as ref
from nearnormal import colouring, oracle
from nearnormal.colouring import try_3_edge_colouring
from nearnormal.corpus import (
    CORPUS_ORDERS,
    complete_graph_k4,
    load_cubic_corpus,
    moebius_ladder,
    petersen_graph,
    prism,
    triple_edge,
)
from nearnormal.graph import GraphError, build_graph
from nearnormal.oracle import exists_normal, min_medium_exact
from reference_classify import is_proper


def _colours(c):
    return None if c is None else (c.k, c.colour_of)


def _minimum(search, g, k):
    try:
        count, witness = search(g, k)
    except GraphError as exc:
        return str(exc)
    return count, _colours(witness)


@pytest.mark.parametrize("n", CORPUS_ORDERS)
def test_three_colouring_matches_reference(n):
    for g in load_cubic_corpus(n):
        assert _colours(try_3_edge_colouring(g)) == _colours(ref.try_3_edge_colouring(g))


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in CORPUS_ORDERS if n <= 12 for k in (3, 4, 5) if k < 5 or n <= 10]
)
def test_minimum_matches_reference(n, k):
    for g in load_cubic_corpus(n):
        assert _minimum(min_medium_exact, g, k) == _minimum(ref.min_medium_exact, g, k)


def test_minimum_without_a_3_colouring_matches_reference():
    """The five corpus graphs at n = 14 with no 3-colouring: their minimum
    is above 0, so the unbounded k = 4 search runs, and there counting
    mediums early cuts the most."""
    graphs = [g for g in load_cubic_corpus(14) if ref.try_3_edge_colouring(g) is None]
    assert len(graphs) == 5
    for g in graphs:
        assert _minimum(min_medium_exact, g, 4) == _minimum(ref.min_medium_exact, g, 4)


@pytest.mark.parametrize("n", [n for n in CORPUS_ORDERS if n <= 10])
def test_minimum_matches_reference_with_six_colours(n):
    for g in load_cubic_corpus(n):
        assert _minimum(min_medium_exact, g, 6) == _minimum(ref.min_medium_exact, g, 6)


@pytest.mark.parametrize("graph, k, bounds", [
    ("petersen", 3, [1]),
    ("petersen", 4, [1, math.inf]),
    ("k4", 4, [1]),
])
def test_minimum_runs_the_zero_case_first(graph, k, bounds, monkeypatch):
    """The bound-1 pass runs first and settles a minimum of 0; for k = 3 it
    settles every graph, so the search runs once."""
    seen = []

    def search(g, k, bound=math.inf, backtracks=math.inf):
        seen.append(bound)
        return colouring._min_medium_search(g, k, bound, backtracks)

    monkeypatch.setattr(oracle, "_min_medium_search", search)
    g = {"petersen": petersen_graph(), "k4": complete_graph_k4()}[graph]
    try:
        min_medium_exact(g, k)
    except GraphError:
        assert (graph, k) == ("petersen", 3)
    assert seen == bounds


@pytest.mark.parametrize("n", [n for n in CORPUS_ORDERS if n <= 10])
def test_normal_matches_reference(n):
    for g in load_cubic_corpus(n):
        for k in (3, 4, 5):
            assert _colours(exists_normal(g, k)) == _colours(ref.exists_normal(g, k))


@pytest.mark.parametrize("g", [prism(5000), moebius_ladder(400)], ids=["prism5000", "moebius400"])
def test_three_colouring_has_no_depth_limit(g):
    c = try_3_edge_colouring(g)
    assert c is not None and c.k == 3 and is_proper(g, c)


def test_oracles_have_no_depth_limit():
    g = prism(400)  # m = 1200, past the default recursion limit
    count, witness = min_medium_exact(g, 4)
    assert count == 0 and is_proper(g, witness)
    assert is_proper(g, exists_normal(g, 5))


def _attempt(g):
    """What the budgeted ``try_3_edge_colouring`` decides: the colouring's
    ``(k, colours)``, ``None`` for a refutation, or ``"open"``."""
    try:
        return _colours(try_3_edge_colouring(g))
    except colouring._SearchOpen:
        return "open"


def _search_graphs():
    yield from ((f"J{k}", bench_families.flower_snark(k)) for k in range(5, 15, 2))
    for n in range(20, 46, 4):
        for seed in range(3):
            yield f"random{n}#{seed}", bench_families.random_cubic(n, seed, triangle_free=True)


SEARCH_GRAPHS = dict(_search_graphs())

# Backtracks the k = 3 search makes before it decides, each measured by
# bisecting the budget.  The memo starts after 32 * m backtracks: J5 decides
# before it, J7-J13 after it, with 650-780 more per step up the family
# (plain backtracking needs 2,370, 9,746, 39,250 and 157,266).
BACKTRACKS_NEEDED = {"J5": 526, "J7": 1904, "J9": 2682, "J11": 3386, "J13": 4034,
                     "random44#0": 8, "random44#2": 57}


class TestFailureTable:
    """The 3-colour search on the snarks and random graphs that once tested
    the failure table its backtrack budget replaced (the names are kept):
    with the budget it gives the reference's answer or leaves the graph
    open, and with none, as the oracles run it, it always decides."""

    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_corpus(self, n):
        for g in load_cubic_corpus(n):
            assert _attempt(g) == _colours(ref.try_3_edge_colouring(g))

    @pytest.mark.parametrize("name", SEARCH_GRAPHS)
    def test_snarks_and_random_graphs(self, name):
        """With no budget the search decides J11 and J13 too."""
        g = SEARCH_GRAPHS[name]
        found = colouring._min_medium_search(g, 3)
        assert (None if found is None else (3, found[1])) == _colours(ref.try_3_edge_colouring(g))

    @pytest.mark.parametrize("name", SEARCH_GRAPHS)
    def test_with_the_default_thresholds(self, name):
        """The default budget decides every graph here; the memo refutes
        J11 and J13."""
        g = SEARCH_GRAPHS[name]
        assert _attempt(g) == _colours(ref.try_3_edge_colouring(g))

    @pytest.mark.parametrize("cap", [3, 256, 512])
    @pytest.mark.parametrize("name", ["J9", "J13", "random44#0", "random44#2"])
    def test_tiny_cap(self, name, cap, monkeypatch):
        """Below the backtracks it needs (BACKTRACKS_NEEDED) a graph is
        left open: J9 and J13 at every cap here, random44#0 and #2 at 3.
        At or above them it gets the reference's answer."""
        monkeypatch.setattr(colouring, "_BACKTRACKS", cap)
        g = SEARCH_GRAPHS[name]
        want = "open" if cap < BACKTRACKS_NEEDED[name] else _colours(ref.try_3_edge_colouring(g))
        assert _attempt(g) == want

    @pytest.mark.parametrize("k", [65, 99])
    def test_flower_snarks_within_the_budget(self, k):
        """J99 (n = 396) is the largest flower snark refuted within the
        default budget."""
        assert try_3_edge_colouring(bench_families.flower_snark(k)) is None

    def test_first_open_flower_snark(self):
        """J101 (n = 404) is the smallest flower snark left open."""
        with pytest.raises(colouring._SearchOpen):
            try_3_edge_colouring(bench_families.flower_snark(101))

    def test_large_flower_snark(self):
        """J301 (n = 1,204) is left open: the budget runs out before the
        32 * m backtracks after which the memo starts."""
        with pytest.raises(colouring._SearchOpen):
            try_3_edge_colouring(bench_families.flower_snark(301))


@pytest.mark.parametrize("name", BACKTRACKS_NEEDED)
def test_budget_counts_backtracks(name, monkeypatch):
    """A search that needs b backtracks is open with a budget of b - 1 and
    decides with b."""
    g = SEARCH_GRAPHS[name]
    need = BACKTRACKS_NEEDED[name]
    monkeypatch.setattr(colouring, "_BACKTRACKS", need - 1)
    assert _attempt(g) == "open"
    monkeypatch.setattr(colouring, "_BACKTRACKS", need)
    assert _attempt(g) == _colours(ref.try_3_edge_colouring(g))


def test_no_backtrack_no_budget(monkeypatch):
    """A search that never backtracks is never cut: prism(5000), m = 15,000,
    is coloured with a budget of 0."""
    monkeypatch.setattr(colouring, "_BACKTRACKS", 0)
    g = prism(5000)
    assert is_proper(g, try_3_edge_colouring(g))


def test_the_oracle_has_no_budget(monkeypatch):
    monkeypatch.setattr(colouring, "_BACKTRACKS", 0)
    with pytest.raises(GraphError, match="admits no proper 3-edge-colouring"):
        min_medium_exact(bench_families.flower_snark(11), 3)


@pytest.fixture
def eager_memo(monkeypatch):
    """The k = 3 memo from the first backtrack on."""
    monkeypatch.setattr(colouring, "_MEMO_AFTER", 0)


def _searched(g):
    found = colouring._min_medium_search(g, 3)
    return None if found is None else (3, found[1])


def _with_digons(g, edges):
    n, pairs = g.n, list(g.edges)
    for e in edges:
        n, pairs = bench_families.generators.insert_digon((n, pairs), e)
    return build_graph(n, pairs)


# graphs with digons inserted at the listed edges
DIGONS = {
    "petersen": (petersen_graph, (0, 7)),
    "prism5": (lambda: prism(5), (0, 3, 12)),
    "J7": (lambda: bench_families.flower_snark(7), (1, 20)),
    "random40#1": (lambda: bench_families.random_cubic(40, 1, triangle_free=True), (0, 5, 9)),
}


def _two_disjoint_k4s():
    """Two K4s with their edge ids interleaved, so vertex 0's component
    does not hold the lowest ids."""
    k4 = complete_graph_k4().edges
    return build_graph(8, [e for pair in zip(k4, ((u + 4, v + 4) for u, v in k4)) for e in pair])


ORDER_GRAPHS = {
    **{f"cubic{n}": list(load_cubic_corpus(n)) for n in CORPUS_ORDERS},
    "triple-edge": [triple_edge()],
    "digons": [_with_digons(make(), edges) for make, edges in DIGONS.values()],
    "two-k4s": [_two_disjoint_k4s()],
}


@pytest.mark.parametrize("name", ORDER_GRAPHS)
def test_search_order_is_maximum_cardinality(name):
    """A permutation of the edge ids, vertex 0's edges first in id order,
    then at each step an edge the brute-force recount allows."""
    for g in ORDER_GRAPHS[name]:
        order = colouring._search_order(g)
        assert sorted(order) == list(range(g.m))
        assert order[:3] == sorted(g.incident_edges(0))
        for e, allowed in zip(order[3:], ref.search_order_choices(g, order), strict=True):
            assert e in allowed


class TestRefutedStates:
    """With the memo on from the first backtrack, the k = 3 search gives
    the reference's answer and witness: a pruned subtree has no colouring."""

    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_corpus(self, n, eager_memo):
        for g in load_cubic_corpus(n):
            assert _searched(g) == _colours(ref.try_3_edge_colouring(g))

    @pytest.mark.parametrize("name", SEARCH_GRAPHS)
    def test_snarks_and_random_graphs(self, name, eager_memo):
        g = SEARCH_GRAPHS[name]
        assert _searched(g) == _colours(ref.try_3_edge_colouring(g))

    @pytest.mark.parametrize("k", range(5, 23, 2))
    def test_flower_snarks(self, k, eager_memo):
        """No flower snark is 3-edge-colourable (Isaacs 1975); the
        reference agrees up to J13 above."""
        assert _searched(bench_families.flower_snark(k)) is None

    @pytest.mark.parametrize("base", [4, 6, 8])
    def test_inflations(self, base, eager_memo):
        for seed in range(6):
            g = bench_families.petersen_inflation(base, seed)
            assert _searched(g) == _colours(ref.try_3_edge_colouring(g))

    @pytest.mark.parametrize("name", DIGONS)
    def test_parallel_pairs(self, name, eager_memo):
        make, edges = DIGONS[name]
        g = _with_digons(make(), edges)
        assert not g.is_simple()
        assert _searched(g) == _colours(ref.try_3_edge_colouring(g))

    def test_the_oracle_refutes_j21(self, eager_memo, monkeypatch):
        """The exact oracle refutes J21 (m = 126) within 2,690 backtracks;
        plain backtracking needs about 4 times more per step up the family
        (BACKTRACKS_NEEDED)."""
        def budgeted(need):
            def search(g, k, bound=math.inf, backtracks=math.inf):
                return colouring._min_medium_search(g, k, bound, need)
            return search

        g = bench_families.flower_snark(21)
        monkeypatch.setattr(oracle, "_min_medium_search", budgeted(2689))
        with pytest.raises(colouring._SearchOpen):
            min_medium_exact(g, 3)
        monkeypatch.setattr(oracle, "_min_medium_search", budgeted(2690))
        with pytest.raises(oracle.NoColouringError):
            min_medium_exact(g, 3)

    @pytest.mark.parametrize("k", [4, 5])
    def test_no_memo_past_three_colours(self, k, eager_memo, monkeypatch):
        """At k >= 4 the counted mediums belong to the state: the frontier
        tables are never built."""
        def refuse(*args):
            raise AssertionError("frontier tables built for k > 3")

        monkeypatch.setattr(colouring, "_frontier_tables", refuse)
        for g in (petersen_graph(), *load_cubic_corpus(10)):
            assert _minimum(min_medium_exact, g, k) == _minimum(ref.min_medium_exact, g, k)


@pytest.mark.parametrize("make, edges", [
    (triple_edge, ()),
    (petersen_graph, (0, 7)),
    (lambda: prism(5), (0, 3, 12)),
], ids=["triple-edge", "petersen", "prism5"])
def test_more_colours_on_parallel_pairs(make, edges):
    """At k >= 4 the watch lists come from the incidences, where an edge
    of a parallel pair is listed at both ends of the other; the search still
    gives the reference's minimum, witness and normal colouring."""
    g = _with_digons(make(), edges)
    assert not g.is_simple()
    assert _minimum(min_medium_exact, g, 4) == _minimum(ref.min_medium_exact, g, 4)
    assert _colours(exists_normal(g, 5)) == _colours(ref.exists_normal(g, 5))
