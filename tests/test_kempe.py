"""The Kempe-chain repair that turns an odd 2-factor into a 3-edge-colouring,
and the pipeline that tries it before the exact 3-colour search."""

from __future__ import annotations

import random

import pytest

import bench_families
from nearnormal import colouring, pipeline
from nearnormal.colouring import ColouringError, kempe_3_colouring, try_3_edge_colouring
from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus, petersen_graph
from nearnormal.factor import choose_two_factor
from nearnormal.pipeline import colour_graph
from nearnormal.reductions import reduce_fully
from reference_classify import is_proper

# random_cubic(n, Random(seed)) from bench/generators.py: class-1 graphs whose
# chosen 2-factor is odd, which the repair colours (scripts/kempe_budget.py
# lists them) and the 3-colour search alone colours too
STALLS = [(120, 1), (140, 0)]


def corpus():
    return [g for n in CORPUS_ORDERS for g in load_cubic_corpus(n)]


def odd_two_factors():
    """The chosen 2-factor of every corpus graph and of its reduced base,
    where it has odd cycles."""
    out = []
    for g in corpus():
        for h in (g, reduce_fully(g)[0]):
            tf = choose_two_factor(h)
            if tf.odd_cycles():
                out.append(tf)
    return out


def refuse(g):
    raise LookupError("the exact 3-colour search ran")


class TestRepair:
    def test_corpus_gives_a_3_colouring_or_none(self):
        decided = 0
        tfs = odd_two_factors()
        for tf in tfs:
            found = kempe_3_colouring(tf)
            if found is not None:
                decided += 1
                assert found.k == 3 and is_proper(tf.graph, found)
        assert len(tfs) == 133 + 44  # corpus graphs, reduced bases
        assert decided > len(tfs) * 3 // 4

    @pytest.mark.parametrize("make", [
        petersen_graph,
        *(lambda k=k: bench_families.flower_snark(k) for k in range(5, 17, 2)),
        lambda: bench_families.petersen_inflation(4, seed=4),
    ], ids=["petersen", *(f"J{k}" for k in range(5, 17, 2)), "inflation36"])
    def test_none_where_the_exact_search_refutes(self, make):
        """The repair gives up on snarks.  Within its budget the 3-colour
        search refutes each of these, J11-J15 by its refuted-state memo."""
        g = make()
        assert kempe_3_colouring(choose_two_factor(g)) is None
        assert try_3_edge_colouring(g) is None

    def test_even_two_factor_needs_no_move(self, monkeypatch):
        monkeypatch.setattr(colouring, "_KEMPE_MOVES", 0)
        tf = choose_two_factor(bench_families.random_cubic(1000, 1, triangle_free=True))
        assert not tf.odd_cycles()
        found = kempe_3_colouring(tf)
        assert {e for e, col in enumerate(found.colour_of) if col == 3} == tf.matching
        for eids in tf.cycle_edges:
            assert [found.colour_of[e] for e in eids] == [1 + (t & 1) for t in range(len(eids))]

    @pytest.mark.parametrize("n, seed", STALLS)
    def test_reruns_are_bit_identical(self, n, seed):
        tf = choose_two_factor(reduce_fully(bench_families.random_cubic(n, seed))[0])
        assert tf.odd_cycles()
        random.seed(1)
        first = kempe_3_colouring(tf)
        random.seed(2)
        assert first is not None and kempe_3_colouring(tf) == first
        g = bench_families.random_cubic(n, seed)
        assert colour_graph(g)[0] == colour_graph(g)[0]

    def test_a_faulty_repair_is_caught(self, monkeypatch):
        swap = colouring._swap

        def forgetful(at, cols, verts, path, p, q):
            swap(at, [0] * len(cols), verts, path, p, q)  # the colours stay behind

        monkeypatch.setattr(colouring, "_swap", forgetful)
        tf = choose_two_factor(reduce_fully(bench_families.random_cubic(*STALLS[0]))[0])
        with pytest.raises(ColouringError, match="without all of 1, 2, 3"):
            kempe_3_colouring(tf)


class TestPipeline:
    @pytest.mark.parametrize("n, seed", STALLS)
    def test_stalls_are_3_colourable_without_the_exact_search(self, n, seed, monkeypatch):
        monkeypatch.setattr(pipeline, "try_3_edge_colouring", refuse)
        g = bench_families.random_cubic(n, seed)
        assert choose_two_factor(reduce_fully(g)[0]).odd_cycles()
        colouring_, report = colour_graph(g)
        assert report.base_branch == "3-colourable" and report.medium == 0
        assert is_proper(g, colouring_)

    def test_no_move_budget_is_the_exact_search(self, monkeypatch):
        """With no moves the repair closes no defect, so every odd base
        goes to the 3-colour search.  On every fourth corpus graph branch
        and medium count agree with the repair's.  The search alone finds
        a 3-colouring of both stalls within its budget."""
        graphs = corpus()[::4]
        with_moves = [colour_graph(g)[1] for g in graphs]
        monkeypatch.setattr(colouring, "_KEMPE_MOVES", 0)
        for tf in odd_two_factors()[::4]:
            assert kempe_3_colouring(tf) is None
        for g, report in zip(graphs, with_moves):
            exact = colour_graph(g)[1]
            assert (exact.base_branch, exact.medium) == (report.base_branch, report.medium)
        for n, seed in STALLS:
            report = colour_graph(bench_families.random_cubic(n, seed))[1]
            assert (report.three_colouring, report.base_branch, report.medium) == (
                "found", "3-colourable", 0)

    def test_most_random_graphs_at_1000_need_no_exact_search(self, monkeypatch):
        """Seeded triangle-free random graphs: the repair colours all 30 at
        n = 400 (seeds 0-29) and 18 of 20 at n = 1,000 (seeds 0-19); seeds
        15 and 18 there need 19 and 23 moves."""
        monkeypatch.setattr(pipeline, "try_3_edge_colouring", refuse)
        for n, seeds, least in ((400, range(30), 30), (1000, range(20), 18)):
            coloured = 0
            for seed in seeds:
                try:
                    report = colour_graph(bench_families.random_cubic(n, seed, triangle_free=True))[1]
                except LookupError:
                    continue
                assert report.base_branch == "3-colourable" and report.medium == 0
                coloured += 1
            assert coloured >= least
