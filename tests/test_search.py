"""The one iterative colour search against the three recursive ones it
replaced (``tests/reference_search.py``): equal results and equal witnesses,
and no depth limit."""

from __future__ import annotations

import pytest

import bench_families
import reference_search as ref
from nearnormal import colouring
from nearnormal.colouring import try_3_edge_colouring
from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus, moebius_ladder, prism
from nearnormal.graph import GraphError
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


@pytest.fixture()
def eager_table(monkeypatch):
    """The 3-colour failure table from the first dead end, recording every
    refuted position, so that small graphs exercise it."""
    monkeypatch.setattr(colouring, "_TABLE_AFTER", 1)
    monkeypatch.setattr(colouring, "_MIN_SUBTREE", -1)


def _table_graphs():
    yield from ((f"J{k}", bench_families.flower_snark(k)) for k in range(5, 15, 2))
    for n in range(20, 46, 4):
        for seed in range(3):
            yield f"random{n}#{seed}", bench_families.random_cubic(n, seed, triangle_free=True)


TABLE_GRAPHS = dict(_table_graphs())


class TestFailureTable:
    """The k = 3 search with its failure table finds the same colouring as
    the recursive reference, or refutes where it refutes."""

    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_corpus(self, n, eager_table):
        for g in load_cubic_corpus(n):
            assert _colours(try_3_edge_colouring(g)) == _colours(ref.try_3_edge_colouring(g))

    @pytest.mark.parametrize("name", TABLE_GRAPHS)
    def test_snarks_and_random_graphs(self, name, eager_table):
        g = TABLE_GRAPHS[name]
        assert _colours(try_3_edge_colouring(g)) == _colours(ref.try_3_edge_colouring(g))

    @pytest.mark.parametrize("name", TABLE_GRAPHS)
    def test_with_the_default_thresholds(self, name):
        g = TABLE_GRAPHS[name]
        assert _colours(try_3_edge_colouring(g)) == _colours(ref.try_3_edge_colouring(g))

    @pytest.mark.parametrize("cap", [3, 256, 512])
    @pytest.mark.parametrize("name", ["J9", "J13", "random44#0", "random44#2"])
    def test_tiny_cap(self, name, cap, eager_table, monkeypatch):
        """A tiny cap fills the table again and again: it is emptied when a
        visit has hit it, and dropped for good when none has."""
        monkeypatch.setattr(colouring, "_REFUTED_CAP", cap)
        g = TABLE_GRAPHS[name]
        assert _colours(try_3_edge_colouring(g)) == _colours(ref.try_3_edge_colouring(g))

    def test_large_flower_snark(self):
        """J301 (n = 1,204) is refuted with the default thresholds.  A table
        that recorded every dead end would fill with leaf states, and
        emptying it would throw the costly ones away again and again."""
        assert try_3_edge_colouring(bench_families.flower_snark(301)) is None
