from __future__ import annotations

import gc
import itertools
import random
from collections import Counter
import re

import pytest

import bench_families
import reference_factor as ref
from reference_factor import is_perfect_matching
from nearnormal import factor
from nearnormal.corpus import CORPUS_ORDERS, complete_graph_k4, k33, load_cubic_corpus, prism, triple_edge
from nearnormal.colouring import kempe_3_colouring
from nearnormal.discharging import _partner
from nearnormal.factor import (
    choose_two_factor,
    connected_and_bridgeless,
    enumerate_perfect_matchings,
    two_factor_from_matching,
)
from nearnormal.graph import GraphError, build_graph, validate_input
from nearnormal.petersen import is_petersen_graph
from nearnormal.pipeline import colour_graph
from nearnormal.reductions import reduce_fully


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

    def test_past_the_recursion_limit(self):
        g = prism(1100)  # n = 2,200 levels deep
        ms = enumerate_perfect_matchings(g, limit=2)
        assert len(ms) == 2
        assert all(is_perfect_matching(g, m) for m in ms)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_same_as_the_recursive_reference(self, n, triple):
        for g in [triple, *load_cubic_corpus(n, bridgeless_only=False)]:
            for limit in (1, 2, 5, 10_000):
                assert enumerate_perfect_matchings(g, limit) == ref.enumerate_perfect_matchings(g, limit)


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

    @pytest.mark.parametrize("m", [{0}, {0, 5, 1}, {0, 5, 6}, {-1, 5}], ids=["too-few", "too-many", "past-m", "negative"])
    def test_every_bad_matching_of_a_cubic_graph(self, k4, m):
        """On a cubic graph G - M is 2-regular exactly when M is a perfect
        matching, so each of these fails that check or the id range."""
        with pytest.raises(GraphError, match="not a perfect matching of this graph"):
            two_factor_from_matching(k4, frozenset(m))

    def test_a_graph_that_is_not_cubic(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # a 4-cycle, with a perfect matching
        assert is_perfect_matching(g, {0, 2})
        with pytest.raises(GraphError, match="not 2-regular"):
            two_factor_from_matching(g, frozenset({0, 2}))

    def test_derived_maps(self, petersen):
        m = enumerate_perfect_matchings(petersen)[0]
        tf = two_factor_from_matching(petersen, m)
        for v in range(10):
            # one matching edge at v, which is also the one at its partner
            (e,) = [e for e in petersen.incident_edges(v) if e in tf.matching]
            assert _partner(tf, v) == petersen.other_end(e, v)
            assert _partner(tf, _partner(tf, v)) == v
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
        """The stored positions equal the ``tuple.index`` lookups they
        replace, each edge outside the matching lies on its ends' cycle, and
        cycle edge i joins the vertices at positions i and i + 1, which
        ``solve_path_phases`` reads an edge's position from, on every
        2-factor of every corpus graph."""
        for g in load_cubic_corpus(n):
            for m in enumerate_perfect_matchings(g):
                tf = two_factor_from_matching(g, m)
                for c, (cyc, eids) in enumerate(zip(tf.cycles, tf.cycle_edges)):
                    for v in cyc:
                        assert tf.position_on_cycle(c, v) == cyc.index(v)
                    for e in eids:
                        u, v = g.edges[e]
                        assert e not in tf.matching and tf.cycle_of_vertex[u] == tf.cycle_of_vertex[v] == c
                        i = eids.index(e)
                        assert {tf.position[u], tf.position[v]} == {i, (i + 1) % len(cyc)}
                # every edge is on exactly one cycle or in the matching
                assert sorted([*m, *itertools.chain(*tf.cycle_edges)]) == list(range(g.m))

    def test_stored_positions_on_two_cycles(self):
        g = build_graph(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])
        tf = two_factor_from_matching(g, frozenset({4, 5}))
        for c, eids in enumerate(tf.cycle_edges):
            assert [sorted(tf.position[x] for x in g.edges[e]) for e in eids] == [[0, 1], [0, 1]]
            assert [tf.position_on_cycle(c, v) for v in tf.cycles[c]] == [0, 1]

    def test_position_off_the_cycle_rejected(self, petersen):
        tf = two_factor_from_matching(petersen, enumerate_perfect_matchings(petersen)[0])
        v = tf.cycles[1][0]
        with pytest.raises(GraphError, match="not on cycle"):
            tf.position_on_cycle(0, v)


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

    def test_disconnected_or_bridged(self, petersen):
        for g in (disjoint_union(petersen, petersen), dumbbell()):
            with pytest.raises(GraphError, match="^graph is disconnected or has a bridge$"):
                choose_two_factor(g)


def has_non_five_cycle(tf):
    return any(len(c) != 5 for c in tf.cycles)


def assert_valid_choice(g):
    tf = choose_two_factor(g)
    assert is_perfect_matching(g, tf.matching)
    assert sorted(v for cyc in tf.cycles for v in cyc) == list(range(g.n))
    return tf


def assert_same_property(g):
    """The chosen 2-factor has a cycle of length other than 5 exactly when
    the complete enumeration finds one (``tests/reference_factor.py``)."""
    assert has_non_five_cycle(assert_valid_choice(g)) == has_non_five_cycle(ref.choose_two_factor(g))


def first_two_factor(g):
    """The 2-factor of the matching ``choose_two_factor`` starts from."""
    matcher = factor._Matcher(g)
    assert matcher.match_all()
    return two_factor_from_matching(g, matcher.mate_edge)


class TestChooseTwoFactorAgainstEnumeration:
    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_corpus(self, n):
        for g in load_cubic_corpus(n):
            assert_same_property(g)

    def test_corpus_reaches_past_the_first_matching(self):
        # three graphs at n = 10, the Petersen graph among them, start from
        # a 2-factor of 5-cycles; forcing one edge gets the other two out
        stuck = [g for g in load_cubic_corpus(10) if not has_non_five_cycle(first_two_factor(g))]
        assert len(stuck) == 3
        assert [has_non_five_cycle(choose_two_factor(g)) for g in stuck].count(False) == 1

    @pytest.mark.parametrize("fixture", ["petersen", "k4", "k_3_3", "prism5", "triple"])
    def test_named(self, fixture, request):
        assert_same_property(request.getfixturevalue(fixture))

    @pytest.mark.parametrize("k", range(5, 16, 2))
    def test_flower_snarks(self, k):
        assert_same_property(bench_families.flower_snark(k))

    @pytest.mark.parametrize("base_order", [4, 6, 8])
    def test_petersen_inflations(self, base_order):
        g = bench_families.petersen_inflation(base_order, seed=base_order)
        assert g.n == 9 * base_order
        assert_same_property(g)

    @pytest.mark.parametrize("n", [n for n in CORPUS_ORDERS if n <= 10])
    def test_lexicographically_least(self, n):
        """The reference picks the first perfect matching by sorted edge ids
        whose 2-factor has a cycle of length other than 5."""
        for g in load_cubic_corpus(n):
            every = sorted(matchings_by_brute_force(g), key=sorted)
            good = [m for m in every if has_non_five_cycle(two_factor_from_matching(g, m))]
            assert ref.choose_two_factor(g).matching == (good or every)[0]

    @pytest.mark.parametrize("n", [n for n in CORPUS_ORDERS if n <= 10])
    def test_non_five_cycle_against_brute_force(self, n):
        for g in load_cubic_corpus(n):
            every = matchings_by_brute_force(g)
            tf = assert_valid_choice(g)
            assert tf.matching in every
            assert has_non_five_cycle(tf) == any(
                has_non_five_cycle(two_factor_from_matching(g, m)) for m in every)


def five_cycles_plus_matching(k, rng):
    """``k`` disjoint 5-cycles joined by a random perfect matching whose
    edges are listed first, so that the first 2-factor is the 5-cycles;
    None when the graph has a parallel edge or a bridge, or is
    disconnected."""
    n = 5 * k
    ends = list(range(n))
    rng.shuffle(ends)
    edges = [(ends[i], ends[i + 1]) for i in range(0, n, 2)]
    edges += [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(k) for i in range(5)]
    g = build_graph(n, edges)
    return g if g.is_simple() and validate_input(g).ok else None


class TestAllFiveCycleStart:
    def test_forcing_finds_a_non_five_cycle(self):
        """Off the Petersen graph, forcing one edge leaves the all-5-cycle
        start, and the bound is strict."""
        rng = random.Random(15)
        graphs = 0
        while graphs < 100:
            g = five_cycles_plus_matching(2 * rng.randint(1, 20), rng)
            if g is None or is_petersen_graph(g):
                continue
            graphs += 1
            assert not has_non_five_cycle(first_two_factor(g))
            assert has_non_five_cycle(assert_valid_choice(g))
            report = colour_graph(g)[1]
            assert report.bound_ok and not report.bound_tight


class TestChooseTwoFactorAtScale:
    """Sizes the enumeration could not reach; no assertion on time."""

    def test_flower_snarks_to_j101(self):
        for k in range(5, 102, 2):
            assert has_non_five_cycle(assert_valid_choice(bench_families.flower_snark(k)))

    def test_petersen_inflation_432(self):
        g = bench_families.petersen_inflation(48, seed=48)
        assert g.n == 432
        assert has_non_five_cycle(assert_valid_choice(g))

    def test_triangle_free_random_1000(self):
        g = bench_families.random_cubic(1000, seed=3, triangle_free=True)
        assert has_non_five_cycle(assert_valid_choice(g))


# compared one by one, so that a failure names the field
TWO_FACTOR_FIELDS = ("matching", "cycles", "cycle_edges", "cycle_of_vertex", "position")


def valid_perfect_matching(g, mate_edge):
    """``mate_edge`` names, at every vertex, an edge at it, and those edges
    form a perfect matching."""
    return all(v in g.edges[e] for v, e in enumerate(mate_edge) if e >= 0) and is_perfect_matching(g, set(mate_edge))


def assert_same_two_factor(tf, want):
    """``tf`` has every table of the reference's eagerly built ``want``,
    the ones derived on first read included; each edge's cycle and each
    vertex's partner, which ``tf`` does not store, are read through the
    matching as the charge rules read them."""
    assert tf.graph is want.graph
    for name in TWO_FACTOR_FIELDS:
        assert getattr(tf, name) == getattr(want, name), name
    g, cyc = tf.graph, tf.cycle_of_vertex
    assert tuple(-1 if e in tf.matching else cyc[u] for e, (u, v) in enumerate(g.edges)) == want.cycle_of_edge
    assert tuple(_partner(tf, v) for v in range(g.n)) == want.partner


def assert_same_as_the_reference(g):
    """The matcher gives the verdict of the single-source matcher that came
    before it, and a perfect matching; given the same matching, the
    2-factor walk and the Kempe repair are those of the code that built
    lists of its own (``tests/reference_factor.py``)."""
    matcher = factor._Matcher(g)
    assert matcher.match_all() == ref._Matcher(g).match_all() == (g.n % 2 == 0)
    assert valid_perfect_matching(g, matcher.mate_edge)
    assert_same_two_factor(two_factor_from_matching(g, matcher.mate_edge),
                           ref.two_factor_from_matching(g, matcher.mate_edge))
    tf = choose_two_factor(g)
    want = ref.two_factor_from_matching(g, tf.matching)
    assert_same_two_factor(tf, want)
    assert kempe_3_colouring(tf) == ref.kempe_3_colouring(want)


# even orders, each with a perfect matching
NOT_CUBIC = {
    "4-cycle": build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "one-edge": build_graph(2, [(0, 1)]),
    "octahedron": build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3]),
    "prism6-plus-a-chord": build_graph(12, [*prism(6).edges, (0, 6)]),
}


class TestSameAsTheReference:
    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_corpus(self, n):
        for g in load_cubic_corpus(n):
            assert_same_as_the_reference(g)

    @pytest.mark.parametrize("workload", sorted(bench_families.workloads.WORKLOADS))
    def test_workload_graphs_and_their_bases_at_seed_0(self, workload):
        for case in bench_families.workloads.WORKLOADS[workload](0):
            assert_same_as_the_reference(case.graph)
            base = reduce_fully(case.graph)[0]
            if base is not case.graph:
                assert_same_as_the_reference(base)

    @pytest.mark.parametrize("m", [{0}, {0, 5, 1}, {0, 5, 6}, {-1, 5}, {0, 1}, {0, 4}, set()], ids=[
        "too-few", "too-many", "past-m", "negative", "meet-at-0", "meet-at-1", "empty"])
    def test_the_same_error_for_a_bad_matching(self, k4, m):
        with pytest.raises(GraphError) as want:
            ref.two_factor_from_matching(k4, frozenset(m))
        with pytest.raises(GraphError, match=f"^{re.escape(str(want.value))}$"):
            two_factor_from_matching(k4, frozenset(m))

    @pytest.mark.parametrize("name", sorted(NOT_CUBIC))
    def test_the_same_error_for_a_graph_that_is_not_cubic(self, name):
        # the walk's unpack into three incidences is the cubic check;
        # pytest.raises(GraphError) also fails on the bare ValueError of
        # the unpack
        g = NOT_CUBIC[name]
        for m in (ref.enumerate_perfect_matchings(g, 1)[0], {0}, {g.m}):
            with pytest.raises(GraphError) as want:
                ref.two_factor_from_matching(g, frozenset(m))
            with pytest.raises(GraphError, match=f"^{re.escape(str(want.value))}$"):
                two_factor_from_matching(g, frozenset(m))
        with pytest.raises(GraphError) as want:
            ref.choose_two_factor(g)
        with pytest.raises(GraphError, match=f"^{re.escape(str(want.value))}$"):
            choose_two_factor(g)


def random_multigraph(rng):
    """A small loopless multigraph, of any degrees and of odd or even order."""
    n = 2 * rng.randint(1, 7) - (rng.random() < 0.25)
    edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(n // 2, 3 * n) if n > 1 else 0)]
    return build_graph(n, edges)


def without(g, *gone):
    """``g`` with the vertices ``gone`` and their edges deleted, relabelled."""
    keep = [v for v in range(g.n) if v not in gone]
    new = {v: i for i, v in enumerate(keep)}
    return build_graph(len(keep), [(new[u], new[v]) for u, v in g.edges if u in new and v in new])


def has_perfect_matching(g):
    return bool(ref.enumerate_perfect_matchings(g, 1))


class TestForestMatcher:
    """The forest matcher against the single-source matcher of
    ``tests/reference_factor.py`` and against brute force, on 3,000 seeded
    small multigraphs: some of odd order, some with no perfect matching,
    and on each one with a perfect matching an edge forced as
    ``choose_two_factor`` forces it, its ends blocked and their old mates
    the two roots of one phase."""

    def test_random_multigraphs(self):
        rng = random.Random(33)
        seen = Counter()
        for _ in range(3000):
            g = random_multigraph(rng)
            matcher, want = factor._Matcher(g), ref._Matcher(g)
            verdict = matcher.match_all()
            assert verdict == want.match_all() == has_perfect_matching(g)
            seen["odd" if g.n % 2 else "matched" if verdict else "unmatched"] += 1
            if not verdict:
                continue
            assert valid_perfect_matching(g, matcher.mate_edge)
            free = [e for e, (u, v) in enumerate(g.edges) if matcher.mate_edge[u] != matcher.mate_edge[v]]
            if not free:
                continue
            e = rng.choice(free)
            u, v = g.edges[e]
            x, y = (matcher.xor[matcher.mate_edge[w]] ^ w for w in (u, v))
            for m in (matcher, want):
                m.mate_edge[:] = matcher.mate_edge
                m.mate_edge[u] = m.mate_edge[v] = e
                m.mate_edge[x] = m.mate_edge[y] = -1
                m.blocked[u] = m.blocked[v] = 1
            flipped = matcher.phase((x, y))
            assert bool(flipped) == want.augment(x) == has_perfect_matching(without(g, u, v))
            seen["forced" if flipped else "not forced"] += 1
            if flipped:
                assert flipped == 1 and valid_perfect_matching(g, matcher.mate_edge) and matcher.mate_edge[u] == e
        assert min(seen.values()) > 100, seen


class TestMatchingWork:
    """Work bounds in place of time bounds: the phases the matcher runs and
    the vertices it labels over all of them, set from measurement (2 phases,
    and 1.24n and 1.61n labels) with a margin."""

    @pytest.mark.parametrize("make", [
        lambda: bench_families.random_cubic(10_000, 1),
        lambda: bench_families.petersen_inflation(1112, seed=1112),
    ], ids=["random10000", "inflation10008"])
    def test_phases_and_labels(self, make):
        g = make()
        matcher = factor._Matcher(g)
        assert matcher.match_all() and valid_perfect_matching(g, matcher.mate_edge)
        assert matcher.phases <= 3
        assert matcher.labelled <= 2 * g.n


def disjoint_union(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    return build_graph(n, edges)


def dumbbell():
    """Two digons, each closed into a triangle-shaped end, joined by the
    bridge 2-5: the smallest cubic multigraph with a bridge."""
    return build_graph(6, [(0, 1), (0, 1), (0, 2), (1, 2), (2, 5), (3, 4), (3, 4), (3, 5), (4, 5)])


SMALL = {"theta": triple_edge(), "K4": complete_graph_k4(), "K33": k33(), "prism": prism(3)}
# every cubic corpus graph with n <= 10 (one has a bridge), the 2-vertex
# base case, a bridged multigraph, and disjoint unions of small graphs
LEMMA_GRAPHS = {
    **{f"corpus{n}-{i}": g for n in (4, 6, 8, 10) for i, g in enumerate(load_cubic_corpus(n, bridgeless_only=False))},
    **SMALL,
    "dumbbell": dumbbell(),
    "dumbbell+K4": disjoint_union(dumbbell(), complete_graph_k4()),
    **{f"{a}+{b}": disjoint_union(SMALL[a], SMALL[b])
       for a, b in itertools.combinations_with_replacement(SMALL, 2)},
    "theta+K4+K33": disjoint_union(*(SMALL[a] for a in ("theta", "K4", "K33"))),
}


def components(n, edges):
    """The number of components, by union-find."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edges:
        root[find(u)] = find(v)
    return sum(root[v] == v for v in range(n))


def connected_and_bridgeless_by_brute_force(g):
    """Connected, and still connected with any one edge deleted."""
    return components(g.n, g.edges) == 1 and all(
        components(g.n, g.edges[:e] + g.edges[e + 1:]) == 1 for e in range(g.m))


class TestConnectedAndBridgeless:
    """The certificate read off the 2-factor agrees with the graph itself,
    for every perfect matching, not only for the one the matcher picks."""

    def test_every_matching_of_every_graph(self):
        verdicts = Counter()
        for name, g in LEMMA_GRAPHS.items():
            want = connected_and_bridgeless_by_brute_force(g)
            assert want == validate_input(g).ok, name
            matchings = enumerate_perfect_matchings(g)
            assert matchings, name
            for m in matchings:
                assert connected_and_bridgeless(two_factor_from_matching(g, m)) == want, (name, sorted(m))
                verdicts[want, g.n == 2] += 1
        # both verdicts, each on several matchings, and the 2-vertex base case
        assert verdicts[True, False] > 100 and verdicts[False, False] > 100 and verdicts[True, True] == 3
