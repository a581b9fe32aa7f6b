"""The one-pass edge classification against the two-pass one it replaced
(``tests/reference_classify.py``): equal classes on proper colourings, and a
``ColouringError`` from both on improper ones.  ``_edge_class``, which the
lift reads through ``_site_mediums``, must agree with the reference's
per-edge classes on every edge, and answer wherever the colouring is proper
around the edge, even when it is improper elsewhere."""

from __future__ import annotations

import pytest

import reference_classify as ref
from nearnormal.colouring import ColouringError, EdgeColouring, _edge_class, class_counts, classify_all
from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus, triple_edge
from nearnormal.graph import build_graph
from nearnormal.oracle import exists_normal, min_medium_exact
from nearnormal.pipeline import colour_graph
from nearnormal.reductions import _site_mediums
from reference_reductions import aligned_steps


def _outcome(classify, *args):
    try:
        return classify(*args)
    except ColouringError:
        return "improper"


def assert_same_classes(g, c):
    assert _outcome(classify_all, g, c) == _outcome(ref.classify_all, g, c)
    if len(c.colour_of) != g.m:
        return
    for e, (u, v) in enumerate(g.edges):
        around = g.incident_edges(u) + g.incident_edges(v)
        assert _outcome(_edge_class, c.colour_of, e, around) == _outcome(ref.classify_edge, g, c, e)


def recolourings(c):
    """Every colouring that differs from ``c`` on exactly one edge."""
    for e, own in enumerate(c.colour_of):
        for col in range(1, c.k + 1):
            if col != own:
                yield EdgeColouring(c.k, c.colour_of[:e] + (col,) + c.colour_of[e + 1:])


@pytest.mark.parametrize("n", CORPUS_ORDERS)
def test_pipeline_colourings_match_reference(n):
    for g in load_cubic_corpus(n):
        assert_same_classes(g, colour_graph(g)[0])


@pytest.mark.parametrize("n", [n for n in CORPUS_ORDERS if n <= 10])
def test_oracle_witnesses_match_reference(n):
    for g in load_cubic_corpus(n):
        for c in (min_medium_exact(g, 4)[1], exists_normal(g, 5)):
            assert ref.is_proper(g, c)
            assert_same_classes(g, c)
            for other in recolourings(c):
                assert_same_classes(g, other)


IMPROPER = {
    "parallel-pair": (
        build_graph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)]),
        EdgeColouring(4, (1, 1, 2, 2, 3, 4)),
    ),
    "triple-edge": (triple_edge(), EdgeColouring(4, (1, 2, 1))),
    "too-short": (triple_edge(), EdgeColouring(4, (1, 2))),
    "too-long": (triple_edge(), EdgeColouring(4, (1, 2, 3, 4))),
}


@pytest.mark.parametrize("name", sorted(IMPROPER))
def test_improper_raises_in_both(name):
    g, c = IMPROPER[name]
    with pytest.raises(ColouringError):
        ref.classify_all(g, c)
    with pytest.raises(ColouringError):
        classify_all(g, c)
    assert_same_classes(g, c)


@pytest.mark.parametrize("name", ["too-short", "too-long"])
def test_classify_all_rejects_a_list_of_the_wrong_length(name):
    g, c = IMPROPER[name]
    for classify in (classify_all, class_counts):
        with pytest.raises(ColouringError, match="colours for"):
            classify(g, c)


def test_edge_class_answers_where_the_colouring_is_proper_around_the_edge(petersen):
    """Giving edge f the colour of its neighbour x makes ``classify_all``
    raise, yet every edge with neither f nor a neighbour of f around it
    keeps its class; at f and x ``_edge_class`` raises as the reference
    does."""
    c = exists_normal(petersen, 5)
    f = 0
    u, v = petersen.edges[f]
    near = set(petersen.incident_edges(u) + petersen.incident_edges(v))
    x = min(near - {f})
    clash = EdgeColouring(5, (c.colour_of[x],) + c.colour_of[1:])
    with pytest.raises(ColouringError):
        classify_all(petersen, clash)
    far = 0
    for e, (a, b) in enumerate(petersen.edges):
        around = petersen.incident_edges(a) + petersen.incident_edges(b)
        got = _outcome(_edge_class, clash.colour_of, e, around)
        assert got == _outcome(ref.classify_edge, petersen, clash, e)
        if near.isdisjoint(around):
            assert got == _edge_class(c.colour_of, e, around)
            far += 1
        elif e in (f, x):
            assert got == "improper"
    assert far > 0


def test_lift_check_uses_the_same_rule():
    """``reductions._site_mediums`` counts what ``classify_all`` counts, on
    a whole graph and on the removed and the new edges of every reduction
    step, whose neighbours a record builds from its roles and the edges at
    its outside vertices."""
    for g in load_cubic_corpus(8):
        c = min_medium_exact(g, 4)[1]
        whole = tuple(
            (e, tuple(x for x in g.incident_edges(u) + g.incident_edges(v) if x != e))
            for e, (u, v) in enumerate(g.edges)
        )
        assert _site_mediums(whole, list(c.colour_of)) == ref.classify_all(g, c).count("medium")
        for other in recolourings(c):
            want = _outcome(ref.classify_all, g, other)
            got = _outcome(_site_mediums, whole, list(other.colour_of))
            assert got == (want if want == "improper" else want.count("medium"))
    sites = 0
    for g in load_cubic_corpus(8):
        for old, rec, before, after in aligned_steps(g)[2]:
            for graph, ids, site in (
                (old.original, before, rec.site_before()),
                (old.reduced, after, rec.site_after()),
            ):
                index = {w: i for i, w in enumerate(ids)}
                c = min_medium_exact(graph, 4)[1]
                for other in (c, *recolourings(c)):
                    colours = [0] * (ids[-1] + 1)
                    for w, col in zip(ids, other.colour_of):
                        colours[w] = col
                    classes = [_outcome(ref.classify_edge, graph, other, index[e]) for e, _nbrs in site]
                    want = "improper" if "improper" in classes else classes.count("medium")
                    assert _outcome(_site_mediums, site, colours) == want
                sites += 1
    assert sites > 0
