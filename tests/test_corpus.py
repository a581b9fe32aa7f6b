"""The packaged corpus, and the script that regenerates it.

``scripts/generate_corpus.py`` is loaded by path, so its generator and its
``main`` are tested as the script runs them.
"""

from __future__ import annotations

import importlib.util
import itertools
from importlib import resources
from pathlib import Path

import pytest

from nearnormal.corpus import (
    CONNECTED_CUBIC_COUNTS,
    CORPUS_ORDERS,
    load_cubic_corpus,
    moebius_ladder,
    petersen_graph,
    prism,
)
from nearnormal.graph import validate_input
from nearnormal.graphio import write_graph6
from nearnormal.petersen import is_petersen_graph
from reference_isomorphism import graphs_isomorphic
from reference_reductions import is_connected

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_corpus.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("generate_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generate_corpus = _load_script()
generate_connected_cubic = generate_corpus.generate_connected_cubic

# bridgeless subsets of the packaged corpus, frozen from validate_input's
# lowpoint search (which is itself checked against the edge-deletion oracle
# in test_graph)
BRIDGELESS_COUNTS = {4: 1, 6: 2, 8: 5, 10: 18, 12: 81, 14: 480}


class TestGenerator:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_counts_match_published_sequence(self, n):
        assert len(generate_connected_cubic(n)) == CONNECTED_CUBIC_COUNTS[n]

    def test_odd_or_tiny_orders_empty(self):
        assert generate_connected_cubic(5) == []
        assert generate_connected_cubic(2) == []

    def test_outputs_are_connected_cubic(self):
        for g in generate_connected_cubic(8):
            assert g.is_cubic() and g.is_simple() and is_connected(g)

    def test_pairwise_non_isomorphic(self):
        graphs = generate_connected_cubic(8)
        for g1, g2 in itertools.combinations(graphs, 2):
            assert not graphs_isomorphic(g1, g2)

    def test_deterministic(self):
        first = [write_graph6(g) for g in generate_connected_cubic(8)]
        second = [write_graph6(g) for g in generate_connected_cubic(8)]
        assert first == second

    def test_known_graphs_show_up(self):
        six = generate_connected_cubic(6)
        assert any(graphs_isomorphic(g, prism(3)) for g in six)
        assert any(graphs_isomorphic(g, moebius_ladder(3)) for g in six)


class TestPackagedCorpus:
    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_full_counts(self, n):
        graphs = load_cubic_corpus(n, bridgeless_only=False)
        assert len(graphs) == CONNECTED_CUBIC_COUNTS[n]
        for g in graphs:
            assert g.n == n and g.is_cubic() and is_connected(g)

    @pytest.mark.parametrize("n", CORPUS_ORDERS)
    def test_bridgeless_counts(self, n):
        assert len(load_cubic_corpus(n)) == BRIDGELESS_COUNTS[n]

    def test_bridged_graphs_really_have_bridges(self):
        full = load_cubic_corpus(10, bridgeless_only=False)
        bridged = [g for g in full if not validate_input(g).ok]
        assert len(bridged) == 1
        assert validate_input(bridged[0]).reason == "bridge"

    def test_data_matches_generator_up_to_ten(self, tmp_path, monkeypatch, capsys):
        # the packaged files are regenerable by the script (self-containment)
        monkeypatch.setattr(generate_corpus, "DATA_DIR", tmp_path)
        assert generate_corpus.main(["4", "6", "8", "10"]) == 0
        for n in (4, 6, 8, 10):
            name = f"cubic{n:02d}.g6"
            packaged = resources.files("nearnormal").joinpath(f"data/{name}").read_bytes()
            assert (tmp_path / name).read_bytes() == packaged
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cubic04.g6", "cubic06.g6", "cubic08.g6", "cubic10.g6"]

    def test_script_writes_nothing_on_a_count_mismatch(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(generate_corpus, "DATA_DIR", tmp_path)
        monkeypatch.setattr(generate_corpus, "CONNECTED_CUBIC_COUNTS", {**CONNECTED_CUBIC_COUNTS, 4: 2})
        assert generate_corpus.main(["4", "6"]) == 1
        assert list(tmp_path.iterdir()) == []
        assert "MISMATCH: expected 2; not writing" in capsys.readouterr().out

    def test_petersen_is_in_the_corpus_exactly_once(self):
        hits = [g for g in load_cubic_corpus(10) if is_petersen_graph(g)]
        assert len(hits) == 1
        assert graphs_isomorphic(hits[0], petersen_graph())
