from __future__ import annotations

import gc
import itertools

import pytest

import bench_families
import reference_factor as ref
from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus, prism
from nearnormal.factor import (
    choose_two_factor,
    enumerate_perfect_matchings,
    is_perfect_matching,
    two_factor_from_matching,
)
from nearnormal.graph import GraphError, build_graph


def matchings_by_brute_force(g):
    """Independent oracle: try every edge subset of size n/2."""
    out = set()
    for combo in itertools.combinations(range(g.m), g.n // 2):
        if is_perfect_matching(g, combo):
            out.add(frozenset(combo))
    return out


class TestEnumeratePerfectMatchings:
    # expected counts frozen from the brute-force oracle below
    def test_k4_has_3(self, k4):
        assert len(enumerate_perfect_matchings(k4)) == 3

    def test_petersen_has_6(self, petersen):
        assert len(enumerate_perfect_matchings(petersen)) == 6

    def test_k33_has_6(self, k_3_3):
        # one matching per bijection between the sides: 3! = 6
        assert len(enumerate_perfect_matchings(k_3_3)) == 6

    @pytest.mark.parametrize("fixture", ["k4", "petersen", "k_3_3", "triple"])
    def test_agrees_with_brute_force(self, fixture, request):
        g = request.getfixturevalue(fixture)
        assert set(enumerate_perfect_matchings(g)) == matchings_by_brute_force(g)

    def test_sorted_lexicographically(self, petersen):
        ms = enumerate_perfect_matchings(petersen)
        keys = [sorted(m) for m in ms]
        assert keys == sorted(keys)

    def test_limit_truncates(self, petersen):
        assert len(enumerate_perfect_matchings(petersen, limit=2)) == 2

    def test_limit_must_be_positive(self, k4):
        with pytest.raises(GraphError, match="positive"):
            enumerate_perfect_matchings(k4, limit=0)

    def test_leaves_no_reference_cycle(self, petersen):
        # the matchings found are freed by reference counting when the call
        # returns, not left for the cyclic garbage collector
        gc.collect()
        gc.disable()
        try:
            enumerate_perfect_matchings(petersen)
            choose_two_factor(prism(5))
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0

    def test_odd_order_has_none(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert enumerate_perfect_matchings(g) == []


class TestTwoFactorFromMatching:
    def test_petersen_always_two_five_cycles(self, petersen):
        for m in enumerate_perfect_matchings(petersen):
            tf = two_factor_from_matching(petersen, m)
            assert sorted(len(c) for c in tf.cycles) == [5, 5]

    def test_k33_single_six_cycle(self, k_3_3):
        for m in enumerate_perfect_matchings(k_3_3):
            tf = two_factor_from_matching(k_3_3, m)
            assert [len(c) for c in tf.cycles] == [6]

    def test_k4_single_four_cycle(self, k4):
        for m in enumerate_perfect_matchings(k4):
            tf = two_factor_from_matching(k4, m)
            assert [len(c) for c in tf.cycles] == [4]

    def test_multigraph_two_cycles_of_length_two(self):
        # doubled squares: removing the matching leaves parallel 2-cycles
        g = build_graph(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])
        tf = two_factor_from_matching(g, frozenset({4, 5}))
        assert sorted(len(c) for c in tf.cycles) == [2, 2]

    def test_not_a_matching_rejected(self, k4):
        with pytest.raises(GraphError, match="matching"):
            two_factor_from_matching(k4, frozenset({0, 1}))

    def test_derived_maps(self, petersen):
        m = enumerate_perfect_matchings(petersen)[0]
        tf = two_factor_from_matching(petersen, m)
        for v in range(10):
            assert tf.partner[tf.partner[v]] == v
            assert v in tf.cycles[tf.cycle_of_vertex[v]]
        # traversal starts at the cycle's smallest vertex, toward the
        # smaller-id neighbour
        for cyc, eids in zip(tf.cycles, tf.cycle_edges):
            assert cyc[0] == min(cyc)
            assert len(set(eids)) == len(cyc)

    def test_invariants_on_corpus(self):
        for g in load_cubic_corpus(8):
            for m in enumerate_perfect_matchings(g):
                tf = two_factor_from_matching(g, m)
                assert sum(len(c) for c in tf.cycles) == g.n
                assert len(m) == g.n // 2
                assert sum(1 for c in tf.cycles if len(c) % 2) % 2 == 0

    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_stored_positions_on_corpus(self, n):
        """The stored positions and edge cycles equal the ``tuple.index``
        lookups they replace, on every 2-factor of every corpus graph."""
        for g in load_cubic_corpus(n):
            for m in enumerate_perfect_matchings(g):
                tf = two_factor_from_matching(g, m)
                for c, (cyc, eids) in enumerate(zip(tf.cycles, tf.cycle_edges)):
                    for v in cyc:
                        assert tf.position_on_cycle(c, v) == cyc.index(v)
                    for e in eids:
                        assert tf.cycle_of_edge[e] == c
                        assert tf.edge_position(e) == eids.index(e)
                assert all(tf.cycle_of_edge[e] == -1 for e in m)

    def test_stored_positions_on_two_cycles(self):
        g = build_graph(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])
        tf = two_factor_from_matching(g, frozenset({4, 5}))
        for c, eids in enumerate(tf.cycle_edges):
            assert [tf.edge_position(e) for e in eids] == [0, 1]
            assert [tf.position_on_cycle(c, v) for v in tf.cycles[c]] == [0, 1]

    def test_position_off_the_cycle_rejected(self, petersen):
        tf = two_factor_from_matching(petersen, enumerate_perfect_matchings(petersen)[0])
        v = tf.cycles[1][0]
        with pytest.raises(GraphError, match="not on cycle"):
            tf.position_on_cycle(0, v)
        with pytest.raises(GraphError):
            tf.edge_position(next(iter(tf.matching)))


class TestChooseTwoFactor:
    def test_petersen_stuck_with_five_cycles(self, petersen):
        tf = choose_two_factor(petersen)
        assert sorted(len(c) for c in tf.cycles) == [5, 5]

    def test_k33_six_cycle(self, k_3_3):
        tf = choose_two_factor(k_3_3)
        assert [len(c) for c in tf.cycles] == [6]

    def test_prism_prefers_non_five_cycle(self):
        # the spoke matching gives two 5-cycles; another matching avoids it
        tf = choose_two_factor(prism(5))
        assert any(len(c) != 5 for c in tf.cycles)

    def test_deterministic(self, petersen):
        tf1 = choose_two_factor(petersen)
        tf2 = choose_two_factor(petersen)
        assert tf1.matching == tf2.matching
        assert tf1.cycles == tf2.cycles

    def test_no_perfect_matching(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        odd = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        for g in (star, odd):
            with pytest.raises(GraphError, match="no perfect matching"):
                choose_two_factor(g)


def assert_same_choice(g):
    """The augmenting-path search picks what sorting every perfect matching
    picks (``tests/reference_factor.py``)."""
    got, want = choose_two_factor(g), ref.choose_two_factor(g)
    assert got.matching == want.matching
    assert got.cycles == want.cycles


def has_non_five_cycle(tf):
    return any(len(c) != 5 for c in tf.cycles)


class TestChooseTwoFactorAgainstEnumeration:
    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_corpus(self, n):
        for g in load_cubic_corpus(n):
            assert_same_choice(g)

    def test_corpus_reaches_past_the_first_matching(self):
        # three graphs at n = 10, the Petersen graph among them, make the
        # search go on after a first matching whose 2-factor is all 5-cycles
        firsts = [two_factor_from_matching(g, enumerate_perfect_matchings(g)[0]) for g in load_cubic_corpus(10)]
        assert sum(not has_non_five_cycle(tf) for tf in firsts) == 3

    @pytest.mark.parametrize("fixture", ["petersen", "k4", "k_3_3", "prism5", "triple"])
    def test_named(self, fixture, request):
        assert_same_choice(request.getfixturevalue(fixture))

    @pytest.mark.parametrize("k", range(5, 16, 2))
    def test_flower_snarks(self, k):
        assert_same_choice(bench_families.flower_snark(k))

    @pytest.mark.parametrize("base_order", [4, 6, 8])
    def test_petersen_inflations(self, base_order):
        g = bench_families.petersen_inflation(base_order, seed=base_order)
        assert g.n == 9 * base_order
        assert_same_choice(g)

    @pytest.mark.parametrize("n", [n for n in CORPUS_ORDERS if n <= 10])
    def test_lexicographically_least(self, n):
        for g in load_cubic_corpus(n):
            every = sorted(matchings_by_brute_force(g), key=sorted)
            good = [m for m in every if has_non_five_cycle(two_factor_from_matching(g, m))]
            assert choose_two_factor(g).matching == (good or every)[0]


def assert_valid_choice(g):
    tf = choose_two_factor(g)
    assert is_perfect_matching(g, tf.matching)
    assert sum(len(c) for c in tf.cycles) == g.n
    assert has_non_five_cycle(tf)


class TestChooseTwoFactorAtScale:
    """Sizes the enumeration could not reach; no assertion on time."""

    def test_flower_snarks_to_j101(self):
        for k in range(5, 102, 2):
            assert_valid_choice(bench_families.flower_snark(k))

    def test_petersen_inflation_432(self):
        g = bench_families.petersen_inflation(48, seed=48)
        assert g.n == 432
        assert_valid_choice(g)

    def test_triangle_free_random_1000(self):
        g = bench_families.random_cubic(1000, seed=3, triangle_free=True)
        assert_valid_choice(g)
