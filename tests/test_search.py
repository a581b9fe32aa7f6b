"""The one iterative colour search against the three recursive ones it
replaced (``tests/reference_search.py``): equal results and equal witnesses,
and no depth limit."""

from __future__ import annotations

import pytest

import reference_search as ref
from nearnormal.colouring import try_3_edge_colouring
from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus, moebius_ladder, prism
from nearnormal.graph import GraphError
from nearnormal.oracle import exists_normal, min_medium_exact
from reference_classify import is_proper


def _colours(c):
    return None if c is None else (c.k, c.colour_of)


def _minimum(search, g, k, symmetry_break=True):
    try:
        count, witness = search(g, k, symmetry_break)
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


@pytest.mark.parametrize("n", [n for n in CORPUS_ORDERS if n <= 8])
def test_minimum_without_symmetry_break_matches_reference(n):
    for g in load_cubic_corpus(n):
        for k in (4, 5):
            assert _minimum(min_medium_exact, g, k, False) == _minimum(
                ref.min_medium_exact, g, k, False
            )


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
