from __future__ import annotations

import random

import pytest

from nearnormal.colouring import POOR, classify_all, try_3_edge_colouring
from nearnormal.corpus import load_cubic_corpus
from nearnormal.graph import GraphError, build_graph, girth
from nearnormal.oracle import exists_normal
from nearnormal.petersen import (
    NEITHER,
    SURJECTIVE,
    TRIVIAL,
    PetersenColouring,
    build_kneser_petersen,
    classify_petersen_colouring,
    is_petersen_graph,
    normal_to_petersen,
    petersen_colouring_violation,
    petersen_to_normal,
)
from reference_isomorphism import graphs_isomorphic


class TestKneserModel:
    def test_ten_vertices_fifteen_edges(self):
        kp = build_kneser_petersen()
        assert len(kp.vertex_subsets) == 10
        assert len(kp.edges) == 15

    def test_three_regular_girth_five(self):
        g = build_graph(10, build_kneser_petersen().edges)
        assert g.is_cubic()
        assert girth(g) == 5

    def test_label_is_the_missing_element(self):
        kp = build_kneser_petersen()
        w = kp.vertex_of_subset((1, 2))
        z = kp.vertex_of_subset((3, 4))
        assert kp.label[kp.edge_between(w, z)] == 5
        for e, (a, b) in enumerate(kp.edges):
            union = set(kp.vertex_subsets[a]) | set(kp.vertex_subsets[b])
            assert set(range(1, 6)) - union == {kp.label[e]}

    def test_each_label_class_is_a_matching_of_three(self):
        # three pairwise-disjoint edges per label (6 covered vertices); the
        # five classes partition the edge set
        kp = build_kneser_petersen()
        seen = []
        for lab in range(1, 6):
            class_edges = [e for e in range(15) if kp.label[e] == lab]
            assert len(class_edges) == 3
            covered = [v for e in class_edges for v in kp.edges[e]]
            assert len(set(covered)) == 6
            seen.extend(class_edges)
        assert sorted(seen) == list(range(15))


class TestNormalToPetersen:
    def test_petersen_strong_colouring_maps_surjectively(self, petersen):
        f = exists_normal(petersen, 5)
        pc = normal_to_petersen(petersen, f)
        assert petersen_colouring_violation(petersen, pc) is None
        assert classify_petersen_colouring(pc).kind == SURJECTIVE

    def test_three_colourable_gives_trivial_star(self, k_3_3):
        f = try_3_edge_colouring(k_3_3)
        pc = normal_to_petersen(k_3_3, f)
        assert classify_petersen_colouring(pc).kind == TRIVIAL

    def test_medium_colouring_rejected(self, petersen):
        # any proper 4-colouring of the Petersen graph has medium edges
        from nearnormal.pipeline import colour_graph

        col, _report = colour_graph(petersen)
        with pytest.raises(GraphError, match="normal"):
            normal_to_petersen(petersen, col)


class TestPetersenToNormal:
    def test_round_trip_is_identity(self, k4, k_3_3, petersen):
        for g, f in [
            (k4, try_3_edge_colouring(k4)),
            (k_3_3, try_3_edge_colouring(k_3_3)),
            (petersen, exists_normal(petersen, 5)),
        ]:
            pc = normal_to_petersen(g, f)
            back = petersen_to_normal(g, pc)
            assert back.colour_of == f.colour_of

    def test_trivial_map_recovers_all_poor(self, k4):
        f = try_3_edge_colouring(k4)
        pc = normal_to_petersen(k4, f)
        back = petersen_to_normal(k4, pc)
        assert set(classify_all(k4, back)) == {POOR}

    def test_invalid_assignment_rejected(self, k4):
        # map everything to one edge: images at a vertex collide
        pc = PetersenColouring((0,) * 6)
        with pytest.raises(GraphError, match="share an image"):
            petersen_to_normal(k4, pc)

    def test_nonadjacent_images_rejected(self, k4):
        kp = build_kneser_petersen()
        # pick two disjoint model edges for two edges sharing a vertex
        e0 = 0
        a, b = kp.edges[e0]
        e1 = next(
            e for e, (x, y) in enumerate(kp.edges) if len({x, y, a, b}) == 4
        )
        assignment = [e0, e1] + [e0] * 4
        pc = PetersenColouring(tuple(assignment))
        assert petersen_colouring_violation(k4, pc) is not None


class TestClassification:
    def test_identity_on_petersen_is_surjective(self):
        g = build_graph(10, build_kneser_petersen().edges)
        pc = PetersenColouring(tuple(range(15)))
        assert petersen_colouring_violation(g, pc) is None
        assert classify_petersen_colouring(pc).kind == SURJECTIVE

    def test_neither_reports_witness(self):
        # not a valid colouring of any graph; classification is pure
        pc = PetersenColouring((0, 1, 2, 3, 4, 5))
        result = classify_petersen_colouring(pc)
        assert result.kind == NEITHER
        assert result.witness == (0, 1, 2, 3, 4, 5)

    def test_small_corpus_never_neither(self):
        for g in load_cubic_corpus(8):
            f = exists_normal(g, 5)
            assert f is not None
            pc = normal_to_petersen(g, f)
            assert classify_petersen_colouring(pc).kind in (TRIVIAL, SURJECTIVE)


class TestIsPetersenGraph:
    def test_kneser_model(self):
        assert is_petersen_graph(build_graph(10, build_kneser_petersen().edges))

    def test_classic_drawing(self, petersen):
        assert is_petersen_graph(petersen)

    def test_relabelled(self, petersen):
        perm = [7, 2, 9, 4, 0, 3, 8, 1, 6, 5]
        g = build_graph(10, [(perm[u], perm[v]) for u, v in petersen.edges])
        assert is_petersen_graph(g)

    def test_wrong_order(self, k_3_3):
        assert not is_petersen_graph(k_3_3)

    def test_pentagonal_prism_wrong_girth(self, prism5):
        assert not is_petersen_graph(prism5)

    def test_multigraph(self, triple):
        assert not is_petersen_graph(triple)

    def test_agrees_with_isomorphism_on_corpus(self):
        # n = 10 with the bridged graphs: the girth-5 rule against backtracking
        model = build_graph(10, build_kneser_petersen().edges)
        graphs = load_cubic_corpus(10, bridgeless_only=False)
        assert sum(is_petersen_graph(g) for g in graphs) == 1
        for g in graphs:
            assert is_petersen_graph(g) == graphs_isomorphic(g, model)

    def test_agrees_with_isomorphism_on_relabellings(self, petersen):
        model = build_graph(10, build_kneser_petersen().edges)
        rng = random.Random(10)
        for _ in range(20):
            perm = list(range(10))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in petersen.edges]
            rng.shuffle(edges)
            g = build_graph(10, edges)
            assert is_petersen_graph(g) and graphs_isomorphic(g, model)
