from __future__ import annotations

import itertools
import time

import pytest

import bench_families
import reference_selection as ref
from nearnormal import selection
from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus
from nearnormal.factor import choose_two_factor, enumerate_perfect_matchings, two_factor_from_matching
from nearnormal.graph import ColouringError
from nearnormal.pipeline import colour_graph
from nearnormal.reductions import reduce_fully
from nearnormal.selection import (
    CYCLE,
    DOUBLE_EDGE,
    PATH,
    SINGLETON,
    eligible_edges,
    find_optimal_selection,
    s_components,
)
from witnesses import medium_chord, odd_triangle_component, r4_chain, selection_degrees, two_factor_of


def petersen_tf(petersen):
    # the spoke matching: edge ids 10..14 join outer vertex i to inner i+5,
    # leaving the outer 5-cycle and the inner pentagram as the 2-factor
    return two_factor_from_matching(petersen, frozenset(range(10, 15)))


def matching_edge_at(tf, v):
    return next(e for e in tf.graph.incident_edges(v) if e in tf.matching)


def brute_force_optimum(tf):
    """Independent oracle: score every subset of the eligible edges."""
    pool = sorted(eligible_edges(tf))
    best = (-1, -1)
    best_sets = []
    for r in range(len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            if ref.selection_violation(tf, combo) is not None:
                continue
            deg = {}
            for e in combo:
                u, v = tf.graph.endpoints(e)
                for c in (tf.cycle_of_vertex[u], tf.cycle_of_vertex[v]):
                    deg[c] = deg.get(c, 0) + 1
            score = (len(combo), sum(1 for d in deg.values() if d == 2))
            if score > best:
                best = score
                best_sets = [frozenset(combo)]
            elif score == best:
                best_sets.append(frozenset(combo))
    return best, best_sets


class TestEligibleEdges:
    def test_petersen_spokes(self, petersen):
        tf = petersen_tf(petersen)
        assert eligible_edges(tf) == tf.matching

    def test_even_cycle_factor_has_none(self, k_3_3):
        m = enumerate_perfect_matchings(k_3_3)[0]
        tf = two_factor_from_matching(k_3_3, m)
        assert eligible_edges(tf) == set()

    def test_chords_excluded(self):
        # 3-colourable 8-vertex graph with a 2-factor = two 4-cycles has no
        # odd cycles; build one with an odd cycle and a chord instead:
        # C7 with chord cannot be cubic everywhere, so use the witness graph
        g, mids = odd_triangle_component()
        tf = two_factor_of(g, mids)
        elig = eligible_edges(tf)
        # only the three edges joining the odd 5-cycles qualify
        assert elig == {0, 1, 2}


class TestConsecutive:
    """Consecutiveness as ``selection._attachments`` decides it, on pairs
    of Petersen spokes.  Each spoke's outer end comes first, so the outer
    5-cycle is checked before the inner pentagram."""

    def test_outer_cycle_adjacent_spokes(self, petersen):
        # the spokes at outer vertices 0 and 1 pass the outer cycle, so the
        # first violation is on the inner one; at 0 and 2 they fail it
        tf = petersen_tf(petersen)
        outer, inner = tf.cycle_of_vertex[0], tf.cycle_of_vertex[5]
        pair = {matching_edge_at(tf, 0), matching_edge_at(tf, 1)}
        assert ref.selection_violation(tf, pair) == f"selected edges at cycle {inner} are not consecutive"
        pair = {matching_edge_at(tf, 0), matching_edge_at(tf, 2)}
        assert ref.selection_violation(tf, pair) == f"selected edges at cycle {outer} are not consecutive"

    def test_inner_pentagram_not_adjacent(self, petersen):
        # spokes landing on inner vertices 5 and 6 sit two apart in the
        # pentagram's cyclic order 5,7,9,6,8
        tf = petersen_tf(petersen)
        inner = tf.cycle_of_vertex[5]
        pair = {matching_edge_at(tf, 5), matching_edge_at(tf, 6)}
        assert (tf.position[6] - tf.position[5]) % 5 in (2, 3)
        assert ref.selection_violation(tf, pair) == f"selected edges at cycle {inner} are not consecutive"


class TestInvalidSelection:
    """Each edge of a selection must be a matching edge joining two odd
    cycles; ``_attachments`` names the first one that is not.  In the
    witness, edge 0 is a chord of the 7-cycle, edge 1 joins it to the even
    10-cycle and edge 11 lies on the 7-cycle."""

    @pytest.mark.parametrize("edge, message", [
        (11, "edge 11 is not a matching edge"),
        (0, "edge 0 is a chord"),
        (1, "edge 1 touches an even cycle"),
    ], ids=["off-the-matching", "chord", "even-cycle"])
    def test_each_kind_is_named(self, edge, message):
        tf = two_factor_of(*medium_chord())
        g, cyc = tf.graph, tf.cycle_of_vertex
        assert 11 not in tf.matching and cyc[g.edges[0][0]] == cyc[g.edges[0][1]]
        assert sorted(len(tf.cycles[cyc[x]]) for x in g.edges[1]) == [7, 10]
        with pytest.raises(ColouringError, match=f"^invalid selection: {message}$"):
            selection._attachments(tf, frozenset({edge}))


class TestFindOptimalSelection:
    def test_petersen_maximum_is_one(self, petersen):
        # no two spokes are consecutive on both cycles (oracle-checked)
        tf = petersen_tf(petersen)
        (size, deg2), best_sets = brute_force_optimum(tf)
        assert size == 1 and deg2 == 0
        sel = find_optimal_selection(tf)
        assert len(sel) == 1
        assert sel == min(best_sets, key=sorted)

    def test_no_odd_cycles_gives_empty(self, k_3_3):
        m = enumerate_perfect_matchings(k_3_3)[0]
        tf = two_factor_from_matching(k_3_3, m)
        sel = find_optimal_selection(tf)
        assert sel == frozenset()

    def test_double_edge_witness(self, prism5):
        # the spoke matching of the pentagonal prism: all five spokes join
        # the two 5-cycles and adjacent spokes are consecutive on both
        spokes = frozenset(
            e for e, (u, v) in enumerate(prism5.edges) if (v - u) == 5
        )
        tf = two_factor_from_matching(prism5, spokes)
        (size, deg2), best_sets = brute_force_optimum(tf)
        assert (size, deg2) == (2, 2)
        sel = find_optimal_selection(tf)
        assert len(sel) == 2
        assert selection_degrees(tf, sel) == (2, 2)
        assert sel == min(best_sets, key=sorted)

    def test_matches_oracle_on_corpus(self):
        # on the 7 corpus bases the pipeline constructs, the greedy pass
        # finds the lexicographically smallest optimum
        checked = 0
        for n in CORPUS_ORDERS:
            for tf in constructed_two_factors(n):
                (size, deg2), best_sets = brute_force_optimum(tf)
                sel = find_optimal_selection(tf)
                got_deg2 = selection_degrees(tf, sel).count(2)
                assert (len(sel), got_deg2) == (size, deg2)
                assert sel == min(best_sets, key=sorted)
                checked += 1
        assert checked == 7

    def test_output_satisfies_properties(self, petersen):
        tf = petersen_tf(petersen)
        sel = find_optimal_selection(tf)
        assert ref.selection_violation(tf, sel) is None

    def test_maximality_no_edge_can_be_added(self):
        # adding any leftover eligible edge must break a property
        for g in load_cubic_corpus(10):
            for m in enumerate_perfect_matchings(g)[:2]:
                tf = two_factor_from_matching(g, m)
                sel = find_optimal_selection(tf)
                for e in eligible_edges(tf) - sel:
                    assert ref.selection_violation(tf, sel | {e}) is not None

    def test_r4_witness_tiebreak(self):
        # two optimal selections tie on (size, degree-2 count); the edge-id
        # tie-break must pick {0, 1}
        g, mids = r4_chain()
        tf = two_factor_of(g, mids)
        sel = find_optimal_selection(tf)
        assert sel == frozenset({0, 1})


def constructed_two_factors(n):
    """The chosen 2-factors of the corpus bases the pipeline constructs."""
    for g in load_cubic_corpus(n):
        if colour_graph(g)[1].base_branch == "constructed":
            yield choose_two_factor(reduce_fully(g)[0])


def assert_same_selection(tf):
    got, want = find_optimal_selection(tf), ref.find_optimal_selection(tf)
    assert got == want


def assert_valid_and_maximal(tf, sel):
    assert ref.selection_violation(tf, sel) is None
    for e in eligible_edges(tf) - sel:
        assert ref.selection_violation(tf, sel | {e}) is not None


class TestAgainstTwoPassReference:
    """The greedy pass is valid and maximal on every 2-factor, and on the
    2-factors the pipeline constructs from it returns the two-pass search's
    optimum.  Elsewhere it may score lower (``scripts/selection_gap.py``),
    for example on 19 chosen 2-factors of 3-colourable corpus bases."""

    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_every_corpus_two_factor(self, n):
        for g in load_cubic_corpus(n):
            for m in enumerate_perfect_matchings(g):
                tf = two_factor_from_matching(g, m)
                assert_valid_and_maximal(tf, find_optimal_selection(tf))
        for tf in constructed_two_factors(n):
            assert_same_selection(tf)

    @pytest.mark.parametrize("k", range(5, 32, 2))
    def test_flower_snarks(self, k):
        assert_same_selection(choose_two_factor(bench_families.flower_snark(k)))

    @pytest.mark.parametrize("base_order", [4, 6, 8, 16])
    def test_petersen_inflations(self, base_order):
        g = bench_families.petersen_inflation(base_order, seed=base_order)
        assert g.n == 9 * base_order
        assert_same_selection(choose_two_factor(g))


class TestSearchDepth:
    def test_j1001_without_recursion(self):
        # 1,001 eligible edges: the two-pass search recursed once per edge
        tf = choose_two_factor(bench_families.flower_snark(1001))
        assert len(eligible_edges(tf)) == 1001
        sel = find_optimal_selection(tf)
        assert ref.selection_violation(tf, sel) is None
        assert len(sel) >= 1

    def test_j5001_within_two_seconds(self):
        tf = choose_two_factor(bench_families.flower_snark(5001))
        assert len(eligible_edges(tf)) == 5001
        start = time.perf_counter()
        sel = find_optimal_selection(tf)
        assert time.perf_counter() - start < 2.0
        assert_valid_and_maximal(tf, sel)

    def test_eligible_edges_called_once(self, petersen, monkeypatch):
        # bench/tracing.py counts selection.eligible_edges through this name
        calls = []
        original = selection.eligible_edges

        def counted(tf):
            calls.append(tf)
            return original(tf)

        monkeypatch.setattr(selection, "eligible_edges", counted)
        find_optimal_selection(petersen_tf(petersen))
        assert len(calls) == 1


class TestSComponents:
    def test_empty_selection_all_singletons(self, k_3_3):
        m = enumerate_perfect_matchings(k_3_3)[0]
        tf = two_factor_from_matching(k_3_3, m)
        sel = find_optimal_selection(tf)
        comps = s_components(tf, sel)
        assert [c.shape for c in comps] == [SINGLETON]

    def test_petersen_path(self, petersen):
        tf = petersen_tf(petersen)
        sel = find_optimal_selection(tf)
        comps = s_components(tf, sel)
        assert len(comps) == 1
        assert comps[0].shape == PATH
        assert comps[0].cycles == frozenset({0, 1})

    def test_prism_double_edge(self, prism5):
        spokes = frozenset(
            e for e, (u, v) in enumerate(prism5.edges) if (v - u) == 5
        )
        tf = two_factor_from_matching(prism5, spokes)
        sel = find_optimal_selection(tf)
        comps = s_components(tf, sel)
        assert [c.shape for c in comps] == [DOUBLE_EDGE]

    def test_odd_triangle_witness(self):
        g, mids = odd_triangle_component()
        tf = two_factor_of(g, mids)
        sel = find_optimal_selection(tf)
        assert sel == frozenset({0, 1, 2})
        comps = s_components(tf, sel)
        shapes = sorted(c.shape for c in comps)
        assert shapes.count(CYCLE) == 1
        triangle = next(c for c in comps if c.shape == CYCLE)
        assert len(triangle.cycles) == 3
        assert triangle.associated_edges == frozenset({0, 1, 2})
        # a cycle-shaped quotient forces degree exactly 2 everywhere
        assert all(selection_degrees(tf, sel)[c] == 2 for c in triangle.cycles)

    def test_partition_covers_all_cycles(self, petersen):
        tf = petersen_tf(petersen)
        sel = find_optimal_selection(tf)
        comps = s_components(tf, sel)
        seen = sorted(c for comp in comps for c in comp.cycles)
        assert seen == list(range(len(tf.cycles)))

    def test_every_selected_edge_in_exactly_one_component(self):
        g, mids = r4_chain()
        tf = two_factor_of(g, mids)
        sel = find_optimal_selection(tf)
        comps = s_components(tf, sel)
        owners = [
            sum(1 for comp in comps if e in comp.associated_edges)
            for e in sel
        ]
        assert owners == [1] * len(sel)
