from __future__ import annotations

import pytest

import reference_search
from nearnormal import colouring
from nearnormal.colouring import (
    POOR,
    RICH,
    classify_all,
    medium_count,
    try_3_edge_colouring,
)
from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus
from nearnormal.graph import GraphError, build_graph
from nearnormal.oracle import exists_normal, min_medium_exact
from nearnormal.petersen import SURJECTIVE, TRIVIAL, classify_petersen_colouring, normal_to_petersen


class TestMinMediumExact:
    def test_petersen_is_eight(self, petersen):
        count, witness = min_medium_exact(petersen, 4)
        assert count == 8
        assert medium_count(petersen, witness) == 8

    def test_k4_zero(self, k4):
        count, witness = min_medium_exact(k4, 4)
        assert count == 0
        assert medium_count(k4, witness) == 0

    def test_k33_zero(self, k_3_3):
        assert min_medium_exact(k_3_3, 4)[0] == 0

    def test_monotone_in_palette(self, petersen, prism5):
        for g in (petersen, prism5):
            values = [min_medium_exact(g, k)[0] for k in (3, 4, 5, 6) if k != 3]
            assert values == sorted(values, reverse=True)

    def test_petersen_not_3_colourable_raises(self, petersen):
        with pytest.raises(GraphError, match="no proper 3"):
            min_medium_exact(petersen, 3)

    def test_symmetry_break_does_not_change_counts(self):
        # the search always pins the colours at vertex 0; the reference
        # search without the pin must find the same minimum
        for n in (4, 6, 8, 10):
            for g in load_cubic_corpus(n):
                pinned = min_medium_exact(g, 4)[0]
                assert pinned == reference_search.min_medium_exact(g, 4, False)[0]

    def test_witness_deterministic(self, petersen):
        w1 = min_medium_exact(petersen, 4)[1]
        w2 = min_medium_exact(petersen, 4)[1]
        assert w1.colour_of == w2.colour_of

    def test_palette_bounds_enforced(self, k4):
        with pytest.raises(GraphError, match="3..6"):
            min_medium_exact(k4, 7)

    def test_requires_valid_input(self):
        g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(GraphError, match="validated"):
            min_medium_exact(g, 4)


class TestExistsNormal:
    def test_petersen_5_is_strong(self, petersen):
        witness = exists_normal(petersen, 5)
        assert witness is not None
        assert set(classify_all(petersen, witness)) == {RICH}

    def test_petersen_4_none(self, petersen):
        assert exists_normal(petersen, 4) is None

    def test_k4_3_all_poor(self, k4):
        witness = exists_normal(k4, 3)
        assert witness is not None
        assert set(classify_all(k4, witness)) == {POOR}

    def test_agrees_with_min_medium(self, petersen, k4, k_3_3, prism5):
        for g in (petersen, k4, k_3_3, prism5):
            for k in (4, 5):
                has_normal = exists_normal(g, k) is not None
                assert has_normal == (min_medium_exact(g, k)[0] == 0)


class TestUpperBoundAgainstPipeline:
    def test_construction_is_a_witness(self):
        from nearnormal.pipeline import colour_graph

        for g in load_cubic_corpus(10):
            minimum, _ = min_medium_exact(g, 4)
            _, report = colour_graph(g)
            assert minimum <= report.medium


class TestVerifyConjecture:
    """The conjecture check: a normal 5-colouring, whose induced Petersen
    colouring ``normal_to_petersen`` builds and checks (it raises on an
    invalid map), then classifies."""

    def test_petersen_holds(self, petersen):
        witness = exists_normal(petersen, 5)
        assert witness is not None
        assert classify_petersen_colouring(normal_to_petersen(petersen, witness)).kind == SURJECTIVE
        assert medium_count(petersen, witness) == 0

    def test_k4_holds_trivially(self, k4):
        witness = exists_normal(k4, 5)
        assert witness is not None
        assert classify_petersen_colouring(normal_to_petersen(k4, witness)).kind == TRIVIAL

    def test_small_corpus_holds(self):
        for g in load_cubic_corpus(8):
            assert exists_normal(g, 5) is not None


class TestThreeColouringConsistency:
    def test_oracle_vs_backtracker(self):
        for g in load_cubic_corpus(10):
            fast = try_3_edge_colouring(g) is not None
            try:
                slow = min_medium_exact(g, 3)[0] == 0
            except GraphError:
                slow = False
            assert fast == slow

    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_zero_at_k4_is_a_3_colouring(self, n):
        """With no medium edge every edge of a 4-colouring is poor, so every
        vertex of a connected cubic graph misses the same colour: the
        minimum over 4-colourings is 0 exactly when a 3-colouring exists,
        and the first such colouring in search order is the same one."""
        for g in load_cubic_corpus(n):
            minimum, witness = min_medium_exact(g, 4)
            three = colouring._min_medium_search(g, 3)
            assert (minimum == 0) == (three is not None)
            if three is not None:
                assert witness.colour_of == three[1]
