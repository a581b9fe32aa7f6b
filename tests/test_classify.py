"""The one-pass edge classification against the two-pass one it replaced
(``tests/reference_classify.py``): equal classes on proper colourings, and a
``ColouringError`` from both on improper ones.  ``_edge_class`` must agree
with the reference's per-edge classes on every edge, and answer wherever the
colouring is proper around the edge, even when it is improper elsewhere.
The lift's check, one colour mask per site vertex, must agree with both."""

from __future__ import annotations

import pytest

import reference_classify as ref
from nearnormal.colouring import ColouringError, EdgeColouring, _edge_class, class_counts, classify_all
from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus, triple_edge
from nearnormal.graph import build_graph
from nearnormal.oracle import exists_normal, min_medium_exact
from nearnormal.pipeline import colour_graph
from nearnormal.reductions import _mask
from reference_reductions import added_edges, aligned_steps, removed_edges


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


def mask_mediums(g, colours):
    """The lift's rule on a whole graph: a colour mask per vertex, and an
    edge is medium iff the masks at its ends hold four colours."""
    masks = [_mask(colours, g.incident_edges(v)) for v in range(g.n)]
    return sum((masks[u] | masks[v]).bit_count() == 4 for u, v in g.edges)


def test_lift_check_uses_the_same_rule():
    """The lift's check, one colour mask per site vertex, counts what
    ``classify_all`` counts on a whole graph.  On every reduction step it
    refuses exactly the colourings with a clash at a site vertex (an end of
    a removed or a new edge), whose edges a record builds from its roles and
    the edges at its outside vertices, and otherwise counts the medium edges
    among the removed or the new edges that the reference's per-edge
    classes give.  Some refused colourings clash only between two surviving
    edges at an outside vertex, which the per-edge check let through."""
    for g in load_cubic_corpus(8):
        c = min_medium_exact(g, 4)[1]
        for other in (c, *recolourings(c)):
            want = _outcome(ref.classify_all, g, other)
            got = _outcome(mask_mediums, g, list(other.colour_of))
            assert got == (want if want == "improper" else want.count("medium"))
    sites = only_the_masks = 0
    for g in load_cubic_corpus(8):
        for old, rec, before, after in aligned_steps(g)[2]:
            for graph, ids, local, mediums in (
                (old.original, before, removed_edges(old), rec.mediums_before),
                (old.reduced, after, added_edges(old), rec.mediums_after),
            ):
                ends = {w for e in local for w in graph.edges[e]}
                c = min_medium_exact(graph, 4)[1]
                for other in (c, *recolourings(c)):
                    colours = [0] * (ids[-1] + 1)
                    for w, col in zip(ids, other.colour_of):
                        colours[w] = col
                    classes = [_outcome(ref.classify_edge, graph, other, e) for e in local]
                    clash = any(len({other.colour_of[f] for f in graph.incident_edges(w)}) < 3 for w in ends)
                    assert _outcome(mediums, colours) == ("improper" if clash else classes.count("medium"))
                    only_the_masks += clash and "improper" not in classes
                sites += 1
    assert sites > 0 and only_the_masks > 0
