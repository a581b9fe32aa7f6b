from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus
from nearnormal.graph import (
    Diagnosis,
    GraphError,
    MultiGraph,
    _lowpoint_search,
    _pairs_and_triangles,
    build_graph,
    validate_input,
)
from reference_isomorphism import graphs_isomorphic
from reference_reductions import is_connected


def bridges_by_deletion(g: MultiGraph) -> set[int]:
    """Independent oracle: an edge is a bridge iff deleting it disconnects."""
    out = set()
    for e in range(g.m):
        rest = [g.edges[i] for i in range(g.m) if i != e]
        if not is_connected(MultiGraph(g.n, rest)):
            out.add(e)
    return out


def validate_by_definition(g: MultiGraph) -> Diagnosis:
    """Independent oracle for validate_input: connectivity by search,
    degrees, then the smallest bridge by deletion."""
    if not is_connected(g):
        return Diagnosis(False, "connected", "graph is disconnected")
    if g.n == 0:
        return Diagnosis(False, "cubic", "graph has no vertices")
    for v in range(g.n):
        if g.degree(v) != 3:
            return Diagnosis(False, "cubic", f"vertex {v} has degree {g.degree(v)}")
    bridges = bridges_by_deletion(g)
    if bridges:
        e = min(bridges)
        return Diagnosis(False, "bridge", f"edge {e} = {g.endpoints(e)} is a bridge")
    return Diagnosis(True)


def two_copies(g: MultiGraph) -> MultiGraph:
    """``g`` and a relabelled copy side by side: a disconnected graph."""
    return build_graph(2 * g.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in g.edges])


@st.composite
def connected_multigraphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    # random tree keeps it connected, then extra (possibly parallel) edges
    tree = [
        (draw(st.integers(0, v - 1)), v) for v in range(1, n)
    ]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=8,
        )
    )
    return build_graph(n, tree + extra)


class TestBuildGraph:
    def test_k4(self, k4):
        assert k4.n == 4 and k4.m == 6
        assert all(k4.degree(v) == 3 for v in range(4))

    def test_triple_edge(self, triple):
        assert triple.n == 2 and triple.m == 3
        assert triple.edges == ((0, 1), (0, 1), (0, 1))

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            build_graph(2, [(0, 0), (0, 1), (1, 1)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph(2, [(0, 2)])

    def test_edge_ids_follow_input_order(self):
        g = build_graph(3, [(2, 1), (0, 1)])
        assert g.endpoints(0) == (1, 2)
        assert g.endpoints(1) == (0, 1)


class TestAdjacentEdges:
    """The edges around edge ``e`` = uv as the run reads them
    (``_colour_counts``, ``bullet_violations``): the incidence lists of u and
    v, less ``e``."""

    def test_petersen_every_edge_has_four(self, petersen):
        for e, (u, v) in enumerate(petersen.edges):
            assert len(set(petersen.incident_edges(u) + petersen.incident_edges(v)) - {e}) == 4

    def test_triple_edge_has_two(self, triple):
        assert set(triple.incident_edges(0) + triple.incident_edges(1)) - {0} == {1, 2}

    def test_double_edge_site_has_three(self):
        # doubled pair 0,1 with spokes to a doubled pair 2,3
        g = build_graph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])
        assert set(g.incident_edges(0) + g.incident_edges(1)) - {0} == {1, 2, 3}

    def test_symmetry(self, petersen, triple):
        for g in (petersen, triple):
            for e, (u, v) in enumerate(g.edges):
                for x in set(g.incident_edges(u) + g.incident_edges(v)) - {e}:
                    a, b = g.edges[x]
                    assert e in g.incident_edges(a) + g.incident_edges(b)

    def test_invalid_id(self, k4):
        with pytest.raises(GraphError):
            k4.endpoints(99)


def lowpoint_search(g):
    return _lowpoint_search(g.n, g.edges, g._incident)


class TestFindBridges:
    """``_lowpoint_search``, the one search behind ``validate_input``: the
    vertices it reaches from vertex 0 and the cut edges among them."""

    def test_k4_none(self, k4):
        assert lowpoint_search(k4) == (4, set())

    def test_petersen_none(self, petersen):
        assert lowpoint_search(petersen) == (10, set())

    def test_joined_blocks_yield_the_joining_edge(self):
        # two K4-minus-an-edge blocks, one edge across
        block = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        other = [(u + 4, v + 4) for u, v in block]
        g = build_graph(8, block + other + [(0, 4)])
        bridge = g.m - 1
        assert lowpoint_search(g) == (8, {bridge})
        assert lowpoint_search(g)[1] == bridges_by_deletion(g)

    def test_parallel_edges_never_bridges(self):
        g = build_graph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
        assert lowpoint_search(g) == (3, set())

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert lowpoint_search(g) == (2, {0})
        assert validate_input(g).reason == "connected"

    def test_matches_deletion_oracle_on_corpus(self):
        # includes the bridged cubic graphs that validation later rejects
        for g in load_cubic_corpus(12, bridgeless_only=False):
            assert lowpoint_search(g) == (g.n, bridges_by_deletion(g))

    @settings(max_examples=150, deadline=None)
    @given(g=connected_multigraphs())
    def test_matches_deletion_oracle_on_random_multigraphs(self, g):
        assert lowpoint_search(g) == (g.n, bridges_by_deletion(g))


class TestValidateInput:
    def test_petersen_accepted(self, petersen):
        assert validate_input(petersen).ok

    def test_triple_edge_accepted(self, triple):
        assert validate_input(triple).ok

    def test_cycle_rejected_not_cubic(self):
        g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        diag = validate_input(g)
        assert not diag.ok and diag.reason == "cubic"

    def test_bridge_rejected(self):
        # two 3-vertex balloons (one doubled edge each) joined by a bridge
        g = build_graph(
            6,
            [(0, 1), (0, 1), (0, 2), (1, 2), (3, 4), (3, 4), (3, 5), (4, 5), (2, 5)],
        )
        assert all(g.degree(v) == 3 for v in range(6))
        diag = validate_input(g)
        assert not diag.ok and diag.reason == "bridge"

    def test_disconnected_rejected(self, triple):
        g = build_graph(4, list(triple.edges) + [(2, 3), (2, 3), (2, 3)])
        diag = validate_input(g)
        assert not diag.ok and diag.reason == "connected"

    def test_empty_graph_rejected_as_not_cubic(self):
        diag = validate_input(build_graph(0, []))
        assert not diag.ok and diag.reason == "cubic"

    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_matches_definition_on_corpus(self, n):
        graphs = load_cubic_corpus(n, bridgeless_only=False)
        for g in graphs:
            assert validate_input(g) == validate_by_definition(g)
        twice = two_copies(graphs[-1])
        assert validate_input(twice) == validate_by_definition(twice)

    @settings(max_examples=150, deadline=None)
    @given(g=connected_multigraphs(), split=st.booleans())
    def test_matches_definition_on_random_multigraphs(self, g, split):
        if split:
            g = two_copies(g)
        assert validate_input(g) == validate_by_definition(g)

    def test_cubic_inputs_have_matching_counts(self, petersen, k4, k_3_3):
        for g in (petersen, k4, k_3_3):
            assert g.n % 2 == 0
            assert 2 * g.m == 3 * g.n


class TestGirthAndIsomorphism:
    def test_isomorphic_to_relabelled_self(self, petersen):
        perm = [3, 5, 1, 9, 0, 7, 2, 8, 6, 4]
        g2 = build_graph(10, [(perm[u], perm[v]) for u, v in petersen.edges])
        assert graphs_isomorphic(petersen, g2)

    def test_non_isomorphic_same_degree_sequence(self, k_3_3):
        from nearnormal.corpus import prism

        # K33 vs the triangular prism: same order, size and distance profiles,
        # different girth, so the backtracking decides
        assert not graphs_isomorphic(k_3_3, prism(3))

    def test_all_k4_labelings_isomorphic(self, k4):
        for perm in itertools.permutations(range(4)):
            g2 = build_graph(4, [(perm[u], perm[v]) for u, v in k4.edges])
            assert graphs_isomorphic(k4, g2)


def triangles_through(g, e: int) -> list[tuple[int, int, int]]:
    """Sorted vertex triples of the triangles through edge ``e``."""
    a, b = g.edges[e]
    near_a = {w for f in g.incident_edges(a) for w in g.edges[f]} - {a}
    near_b = {w for f in g.incident_edges(b) for w in g.edges[f]} - {b}
    return [tuple(sorted((a, b, w))) for w in near_a & near_b]


class TestFindTriangles:
    """The triangles from ``_pairs_and_triangles``, the scan that reduction
    and the construction's input check run."""

    def by_edge(self, g):
        return sorted({t for e in range(g.m) for t in triangles_through(g, e)})

    def test_small_graphs(self, petersen, k4, triple):
        assert _pairs_and_triangles(petersen) == ([], [])
        assert _pairs_and_triangles(triple) == ([(0, 1)], [])
        assert _pairs_and_triangles(k4)[1] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        g = build_graph(4, [(0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 1)])
        assert _pairs_and_triangles(g) == ([(0, 1)], [(0, 1, 2), (1, 2, 3)])

    def test_matches_the_per_edge_scan_on_corpus(self):
        for n in CORPUS_ORDERS:
            for g in load_cubic_corpus(n):
                assert _pairs_and_triangles(g)[1] == self.by_edge(g)

    @given(connected_multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_edge_scan_on_random_multigraphs(self, g):
        assert _pairs_and_triangles(g)[1] == self.by_edge(g)
