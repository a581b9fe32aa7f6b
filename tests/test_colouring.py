from __future__ import annotations

from collections import Counter

import pytest

import bench_families
import reference_construction
import reference_selection
from nearnormal import graph
from nearnormal.colouring import (
    MEDIUM,
    POOR,
    RICH,
    ColouringError,
    EdgeColouring,
    _edge_class,
    bullet_violations,
    classify_all,
    construct_colouring,
    fact_one_violations,
    medium_count,
    place_colour_3,
    try_3_edge_colouring,
)
from nearnormal.corpus import CORPUS_ORDERS, complete_graph_k4, load_cubic_corpus, prism, triple_edge
from nearnormal.discharging import initial_ledger
from nearnormal.factor import (
    choose_two_factor,
    enumerate_perfect_matchings,
    two_factor_from_matching,
)
from nearnormal.graph import build_graph, girth
from nearnormal.oracle import exists_normal
from nearnormal.selection import CYCLE, _attachments, find_optimal_selection, s_components
from witnesses import (
    even_square_component,
    long_pair,
    medium_chord,
    odd_pentagon_ring,
    odd_triangle_component,
    r3_pair,
    r4_chain,
    selection_degrees,
    two_factor_of,
)
from reference_classify import is_proper
from test_reductions import insert_digon


def construction_violations(con):
    """The structural check ``discharging.run_discharging`` runs before its
    rules; empty means clean."""
    mediums = initial_ledger(con).medium_edges
    return bullet_violations(con, mediums) + fact_one_violations(con.two_factor, mediums)


def known_eight_medium_colouring():
    """A 4-edge-colouring of the Petersen graph with exactly 8 medium edges,
    on the 9-cycle-plus-centre drawing (vertex 9 is the centre)."""
    edges_with_colours = [
        ((0, 1), 3), ((1, 2), 2), ((2, 3), 1), ((3, 4), 3), ((4, 5), 2),
        ((5, 6), 3), ((6, 7), 1), ((7, 8), 3), ((8, 0), 2),
        ((3, 9), 2), ((0, 9), 1), ((6, 9), 4),
        ((4, 8), 1), ((1, 5), 1), ((2, 7), 4),
    ]
    g = build_graph(10, [e for e, _ in edges_with_colours])
    col = EdgeColouring(4, tuple(c for _, c in edges_with_colours))
    mediums = {(1, 2), (2, 3), (3, 9), (0, 9), (7, 8), (2, 7), (6, 9), (5, 6)}
    return g, col, mediums


class TestClassification:
    def test_three_colouring_is_all_poor(self, k4):
        c = try_3_edge_colouring(k4)
        assert set(classify_all(k4, c)) == {POOR}

    def test_petersen_normal_five_colouring_is_all_rich(self, petersen):
        c = exists_normal(petersen, 5)
        assert set(classify_all(petersen, c)) == {RICH}

    def test_eight_medium_reference_colouring(self):
        g, col, expected_medium = known_eight_medium_colouring()
        from nearnormal.petersen import is_petersen_graph

        assert is_petersen_graph(g)
        classes = classify_all(g, col)
        got = {
            tuple(sorted(g.endpoints(e)))
            for e in range(g.m)
            if classes[e] == MEDIUM
        }
        assert got == {tuple(sorted(p)) for p in expected_medium}
        assert medium_count(g, col) == 8

    def test_triple_edge_all_poor(self, triple):
        c = EdgeColouring(4, (1, 2, 3))
        assert set(classify_all(triple, c)) == {POOR}

    def test_improper_rejected(self, k4):
        bad = EdgeColouring(4, (1,) * 6)
        assert not is_proper(k4, bad)
        with pytest.raises(ColouringError):
            _edge_class(bad.colour_of, 0, k4.incident_edges(0) + k4.incident_edges(1))

    def test_colour_outside_the_palette_rejected(self):
        with pytest.raises(ColouringError, match=r"^colour 5 outside palette 1\.\.4$"):
            EdgeColouring(4, (1, 5, 2))
        with pytest.raises(ColouringError, match=r"^colour 0 outside palette 1\.\.3$"):
            EdgeColouring(3, (1, 2, 0))

    def test_classification_invariant_under_colour_renaming(self):
        g, col, _ = known_eight_medium_colouring()
        renamed = EdgeColouring(4, tuple({1: 4, 2: 3, 3: 1, 4: 2}[c] for c in col.colour_of))
        assert classify_all(g, col) == classify_all(g, renamed)


class TestTry3EdgeColouring:
    def test_k4(self, k4):
        c = try_3_edge_colouring(k4)
        assert c is not None and is_proper(k4, c) and c.k == 3

    def test_k33(self, k_3_3):
        assert try_3_edge_colouring(k_3_3) is not None

    def test_petersen_is_not_3_colourable(self, petersen):
        assert try_3_edge_colouring(petersen) is None

    def test_triple_edge(self, triple):
        assert try_3_edge_colouring(triple) is not None

    def test_corpus_agreement_with_oracle(self):
        # a 3-colouring exists iff the exact oracle finds zero mediums at k=3
        from nearnormal.oracle import min_medium_exact
        from nearnormal.graph import GraphError

        for g in load_cubic_corpus(10):
            fast = try_3_edge_colouring(g)
            try:
                minimum, _ = min_medium_exact(g, 3)
                oracle_says = True
            except GraphError:
                oracle_says = False
            assert (fast is not None) == oracle_says


def spoke_tf(petersen):
    return two_factor_from_matching(petersen, frozenset(range(10, 15)))


class TestPlaceColour3:
    def test_degree_one_takes_successor_edge(self, petersen):
        tf = spoke_tf(petersen)
        sel = find_optimal_selection(tf)
        placed = place_colour_3(tf, _attachments(tf, sel))
        assert set(placed) == {0, 1}
        for c, eid in placed.items():
            attachments = [
                v
                for e in sel
                for v in petersen.endpoints(e)
                if tf.cycle_of_vertex[v] == c
            ]
            (a,) = attachments
            p = tf.position_on_cycle(c, a)
            assert eid == tf.cycle_edges[c][p]

    def test_degree_two_takes_joining_edge(self, prism5):
        spokes = frozenset(e for e, (u, v) in enumerate(prism5.edges) if v - u == 5)
        tf = two_factor_from_matching(prism5, spokes)
        sel = find_optimal_selection(tf)
        placed = place_colour_3(tf, _attachments(tf, sel))
        for c, eid in placed.items():
            ends = set(prism5.endpoints(eid))
            attachments = {
                v
                for e in sel
                for v in prism5.endpoints(e)
                if tf.cycle_of_vertex[v] == c
            }
            assert ends == attachments

    def test_degree_zero_takes_first_edge(self):
        g, mids = odd_triangle_component()
        tf = two_factor_of(g, mids)
        sel = find_optimal_selection(tf)
        placed = place_colour_3(tf, _attachments(tf, sel))
        deg0 = [c for c in tf.odd_cycles() if selection_degrees(tf, sel)[c] == 0]
        for c in deg0:
            assert placed[c] == tf.cycle_edges[c][0]


class TestSolvePathPhases:
    def test_path_component_all_selected_poor(self, petersen):
        tf = spoke_tf(petersen)
        sel = find_optimal_selection(tf)
        col = construct_colouring(tf, sel).colouring
        classes = classify_all(petersen, col)
        for e in sel:
            assert classes[e] == POOR

    def test_double_edge_component_all_selected_poor(self, prism5):
        spokes = frozenset(e for e, (u, v) in enumerate(prism5.edges) if v - u == 5)
        tf = two_factor_from_matching(prism5, spokes)
        sel = find_optimal_selection(tf)
        col = construct_colouring(tf, sel).colouring
        classes = classify_all(prism5, col)
        assert all(classes[e] == POOR for e in sel)

    def test_odd_quotient_cycle_designates_smallest_edge(self):
        g, mids = odd_triangle_component()
        tf = two_factor_of(g, mids)
        sel = find_optimal_selection(tf)
        classes = classify_all(g, construct_colouring(tf, sel).colouring)
        assert {e for e in sel if classes[e] == MEDIUM} == {min(sel)}

    def test_even_quotient_cycle_closes_consistently(self):
        # the ring of four degree-2 cycles has one redundant constraint,
        # which must come out satisfied: no medium selected edge
        g, mids = even_square_component()
        tf = two_factor_of(g, mids)
        sel = find_optimal_selection(tf)
        assert sel == frozenset({0, 1, 2, 3})
        comp = next(c for c in s_components(tf, sel) if c.shape == CYCLE)
        assert len(comp.cycles) == 4
        col = construct_colouring(tf, sel).colouring
        classes = classify_all(g, col)
        assert all(classes[e] == POOR for e in sel)

    def test_longer_odd_quotient_cycle(self):
        g, mids = odd_pentagon_ring()
        tf = two_factor_of(g, mids)
        sel = find_optimal_selection(tf)
        assert sel == frozenset({0, 1, 2, 3, 4})
        col = construct_colouring(tf, sel).colouring
        classes = classify_all(g, col)
        mediums = [e for e in sel if classes[e] == MEDIUM]
        assert mediums == [0]


class TestConstructColouring:
    @pytest.mark.parametrize(
        "factory",
        [
            odd_triangle_component,
            r3_pair,
            r4_chain,
            even_square_component,
            odd_pentagon_ring,
            long_pair,
        ],
        ids=[
            "odd-triangle",
            "r3-pair",
            "r4-chain",
            "even-square",
            "pentagon-ring",
            "long-pair",
        ],
    )
    def test_witnesses_satisfy_all_properties(self, factory):
        g, mids = factory()
        from nearnormal.graph import validate_input

        assert validate_input(g).ok
        tf = two_factor_of(g, mids)
        sel = find_optimal_selection(tf)
        assert construction_violations(construct_colouring(tf, sel)) == []

    def test_petersen_mediums(self, petersen):
        tf = spoke_tf(petersen)
        sel = find_optimal_selection(tf)
        col = construct_colouring(tf, sel).colouring
        assert medium_count(petersen, col) == 8

    def test_prism_forced_five_cycles_stays_under_bound(self, prism5):
        # two odd 5-cycles with a double-edge component: everything the
        # selection touches is poor, and the count lands strictly below 8
        spokes = frozenset(e for e, (u, v) in enumerate(prism5.edges) if v - u == 5)
        tf = two_factor_from_matching(prism5, spokes)
        sel = find_optimal_selection(tf)
        col = construct_colouring(tf, sel).colouring
        assert medium_count(prism5, col) == 6 < 8

    def test_fact_one_counts(self):
        g, mids = r4_chain()
        tf = two_factor_of(g, mids)
        sel = find_optimal_selection(tf)
        col = construct_colouring(tf, sel).colouring
        classes = classify_all(g, col)
        for c, eids in enumerate(tf.cycle_edges):
            mediums = sum(1 for e in eids if classes[e] == MEDIUM)
            assert mediums == (3 if len(eids) % 2 else 0)

    def test_rejects_triangle(self, k4):
        m = enumerate_perfect_matchings(k4)[0]
        tf = two_factor_from_matching(k4, m)
        sel = find_optimal_selection(tf)
        with pytest.raises(ColouringError, match="triangle"):
            construct_colouring(tf, sel)

    def test_rejects_a_triangle_far_from_edge_zero(self, petersen):
        # Petersen with vertex 9 truncated: simple, with one triangle, on
        # the three edges with the highest ids
        corners = iter((9, 10, 11))
        edges = [(u, next(corners)) if v == 9 else (u, v) for u, v in petersen.edges]
        g = build_graph(12, edges + [(9, 10), (10, 11), (9, 11)])
        tf = choose_two_factor(g)
        with pytest.raises(ColouringError, match="^construction requires a triangle-free graph$"):
            construct_colouring(tf, find_optimal_selection(tf))

    @pytest.mark.parametrize("truncate", [False, True], ids=["digon", "digon-and-triangle"])
    def test_rejects_parallel_edges_first(self, petersen, truncate):
        # Petersen with edge 0 split by a digon, and with vertex 9 also
        # truncated to a triangle: the parallel pair is named either way
        (u, v), *rest = petersen.edges
        edges = [(u, 10), (10, 11), (10, 11), (11, v), *rest]
        n = 12
        if truncate:
            corners = iter((9, 12, 13))
            edges = [(a, next(corners)) if b == 9 else (a, b) for a, b in edges]
            edges += [(9, 12), (12, 13), (9, 13)]
            n = 14
        g = build_graph(n, edges)
        tf = choose_two_factor(g)
        with pytest.raises(ColouringError, match="^construction requires a simple graph$"):
            construct_colouring(tf, find_optimal_selection(tf))

    def test_input_check_agrees_with_the_whole_graph_scan(self):
        # the check reads the 2-factor; the scan it replaced builds neighbour
        # sets.  Every perfect matching of every small graph, bridged ones
        # and multigraphs too, must get the verdict the scan implies.
        graphs = [g for n in (4, 6, 8, 10) for g in load_cubic_corpus(n, bridgeless_only=False)]
        small = [triple_edge(), complete_graph_k4(), prism(3), prism(4)]
        graphs += small + [insert_digon(b, e) for b in small for e in range(b.m)]
        shapes = Counter()
        for g in graphs:
            pairs, triangles = graph._pairs_and_triangles(g)
            want = "simple" if pairs else "triangle-free" if triangles else None
            for m in enumerate_perfect_matchings(g):
                tf = two_factor_from_matching(g, m)
                if want is None:
                    construct_colouring(tf, frozenset())
                else:
                    with pytest.raises(ColouringError, match=f"^construction requires a {want} graph$"):
                        construct_colouring(tf, frozenset())
                lengths, steps = set(map(len, tf.cycles)), set()  # steps: how far each chord reaches
                for u, v in map(g.edges.__getitem__, m):
                    c = tf.cycle_of_vertex[u]
                    if c == tf.cycle_of_vertex[v]:
                        d = (tf.position[u] - tf.position[v]) % len(tf.cycles[c])
                        steps.add(min(d, len(tf.cycles[c]) - d))
                found = {"2-cycle": 2 in lengths, "chord-1": 1 in steps,
                         "3-cycle": 3 in lengths, "chord-2": 2 in steps}
                shapes.update(name for name, hit in found.items() if hit)
                shapes["none"] += not any(found.values())
        # each of the four shapes, alone or with others, and clean inputs
        assert shapes == {"2-cycle": 60, "chord-1": 231, "3-cycle": 34, "chord-2": 190, "none": 90}

    def test_exactly_one_medium_per_odd_quotient_component(self):
        g, mids = odd_triangle_component()
        tf = two_factor_of(g, mids)
        sel = find_optimal_selection(tf)
        col = construct_colouring(tf, sel).colouring
        classes = classify_all(g, col)
        comp = next(
            c for c in s_components(tf, sel) if c.shape == CYCLE
        )
        mediums = [e for e in comp.associated_edges if classes[e] == MEDIUM]
        assert len(mediums) == 1

    def test_medium_count_examples(self, k4, triple):
        c4 = try_3_edge_colouring(k4)
        assert medium_count(k4, c4) == 0
        c_triple = EdgeColouring(4, (1, 2, 4))
        assert medium_count(triple, c_triple) == 0

    def test_every_two_factor_of_the_triangle_free_corpus(self):
        # the construction must deliver on any 2-factor, not just the
        # pipeline's preferred one
        from nearnormal.graph import girth

        built = 0
        for n in (6, 8, 10):
            for g in load_cubic_corpus(n):
                if girth(g) < 4:
                    continue
                for m in enumerate_perfect_matchings(g):
                    tf = two_factor_from_matching(g, m)
                    sel = find_optimal_selection(tf)
                    assert construction_violations(construct_colouring(tf, sel)) == []
                    built += 1
        assert built > 50

    def test_selected_edge_poor_iff_flank_colours_equal(self):
        # the constraint system stands on this equivalence
        for factory in (odd_triangle_component, even_square_component, r4_chain):
            g, mids = factory()
            tf = two_factor_of(g, mids)
            sel = find_optimal_selection(tf)
            col = construct_colouring(tf, sel).colouring
            classes = classify_all(g, col)
            for e in sel:
                flanks = []
                for v in g.endpoints(e):
                    c = tf.cycle_of_vertex[v]
                    cols = [
                        col.colour_of[x]
                        for x in tf.cycle_edges[c]
                        if v in g.endpoints(x) and col.colour_of[x] in (1, 2)
                    ]
                    assert len(cols) == 1
                    flanks.append(cols[0])
                assert (classes[e] == POOR) == (flanks[0] == flanks[1])


def test_colouring_error_is_defined_once():
    # selection.py raises it without importing colouring.py
    assert ColouringError is graph.ColouringError


def corpus_odd_two_factors():
    """Every 2-factor with an odd cycle, from every perfect matching of the
    triangle-free corpus graphs."""
    for n in CORPUS_ORDERS:
        for g in load_cubic_corpus(n):
            if girth(g) >= 4:
                for m in enumerate_perfect_matchings(g):
                    tf = two_factor_from_matching(g, m)
                    if tf.odd_cycles():
                        yield tf


def assert_same_construction(tf, sel):
    con = construct_colouring(tf, sel)
    three, cols = reference_construction.construct(tf, sel)
    assert con.three_edges == three
    assert con.colouring.colour_of == cols


class TestAgainstReferenceConstruction:
    """The construction places colour 3 and sets the path phases as the
    earlier code in ``tests/reference_construction.py`` did.  The corpus
    2-factors are the only inputs that reach degree-2 cycles."""

    @pytest.mark.parametrize(
        "select, degree_two",
        [(find_optimal_selection, 37), (reference_selection.find_optimal_selection, 189)],
        ids=["greedy", "two-pass"],
    )
    def test_corpus_two_factors(self, select, degree_two):
        seen = with_degree_two = 0
        for tf in corpus_odd_two_factors():
            sel = select(tf)
            assert_same_construction(tf, sel)
            seen += 1
            with_degree_two += 2 in selection_degrees(tf, sel)
        assert (seen, with_degree_two) == (292, degree_two)

    @pytest.mark.parametrize(
        "factory",
        [odd_triangle_component, r3_pair, r4_chain, even_square_component,
         odd_pentagon_ring, long_pair, medium_chord],
    )
    def test_witnesses(self, factory):
        tf = two_factor_of(*factory())
        assert_same_construction(tf, find_optimal_selection(tf))

    @pytest.mark.parametrize(
        "make",
        [lambda: bench_families.flower_snark(5001), lambda: bench_families.petersen_inflation(360, seed=360)],
        ids=["J5001", "inflation-360"],
    )
    def test_large_graphs(self, make):
        tf = choose_two_factor(make())
        assert_same_construction(tf, find_optimal_selection(tf))
