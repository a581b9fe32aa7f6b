from __future__ import annotations

import json

import pytest

from nearnormal.cli import load_graph, main
from nearnormal.corpus import complete_graph_k4, petersen_graph, prism
from nearnormal.graphio import format_colouring, write_graph6
from nearnormal.oracle import exists_normal


@pytest.fixture()
def petersen_file(tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_text(write_graph6(petersen_graph()) + "\n")
    return str(path)


@pytest.fixture()
def k4_edge_list(tmp_path):
    path = tmp_path / "k4.txt"
    g = complete_graph_k4()
    path.write_text("n 4\n" + "\n".join(f"{u} {v}" for u, v in g.edges) + "\n")
    return str(path)


class TestLoadGraph:
    def test_sniffs_graph6(self, petersen_file):
        assert load_graph(petersen_file).n == 10

    def test_sniffs_edge_list(self, k4_edge_list):
        assert load_graph(k4_edge_list).m == 6


class TestColourCommand:
    def test_petersen_text(self, petersen_file, capsys):
        assert main(["colour", petersen_file]) == 0
        out = capsys.readouterr().out
        assert "medium=8" in out and "tight" in out

    def test_json_output(self, petersen_file, capsys):
        assert main(["colour", petersen_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["medium"] == 8
        assert payload["bound_tight"] is True
        assert payload["is_petersen"] is True

    def test_oracle_flag(self, petersen_file, capsys):
        assert main(["colour", petersen_file, "--json", "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_minimum"] == 8

    def test_edge_list_input(self, k4_edge_list, capsys):
        assert main(["colour", k4_edge_list]) == 0
        assert "medium=0" in capsys.readouterr().out

    def test_multigraph_through_edge_list(self, tmp_path, capsys):
        path = tmp_path / "triple.txt"
        path.write_text("n 2\n0 1\n0 1\n0 1\n")
        assert main(["colour", str(path)]) == 0
        assert "medium=0" in capsys.readouterr().out


    def test_prism_past_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "prism340.txt"
        g = prism(340)  # m = 1020
        path.write_text(f"n {g.n}\n" + "\n".join(f"{u} {v}" for u, v in g.edges) + "\n")
        assert main(["colour", str(path)]) == 0
        assert "branch: 3-colourable" in capsys.readouterr().out


class TestVerifyCommand:
    def test_counts_and_normality(self, tmp_path, petersen_file, capsys):
        g = petersen_graph()
        colouring = exists_normal(g, 5)
        cpath = tmp_path / "colours.txt"
        cpath.write_text(format_colouring(g, colouring))
        assert main(["verify", petersen_file, str(cpath)]) == 0
        out = capsys.readouterr().out
        assert "rich=15" in out and "normal=yes" in out


class TestOracleCommand:
    def test_min_medium(self, petersen_file, capsys):
        assert main(["oracle", petersen_file, "--k", "4"]) == 0
        assert "minimum medium edges" in capsys.readouterr().out

    def test_exists_normal(self, petersen_file, capsys):
        assert main(["oracle", petersen_file, "--k", "5", "--exists-normal"]) == 0
        assert "found" in capsys.readouterr().out

    def test_exists_normal_negative(self, petersen_file, capsys):
        assert main(["oracle", petersen_file, "--k", "4", "--exists-normal"]) == 0
        assert "no normal" in capsys.readouterr().out


class TestAuditCommand:
    def test_petersen_audit_passes(self, petersen_file, capsys):
        assert main(["audit", petersen_file]) == 0
        out = capsys.readouterr().out
        assert "audit passed" in out and "[ok ]" in out

    def test_vacuous_on_3_colourable(self, k4_edge_list, capsys):
        assert main(["audit", k4_edge_list]) == 0
        assert "vacuous" in capsys.readouterr().out


class TestBatchCommand:
    def test_small_corpus(self, tmp_path, capsys):
        from nearnormal.corpus import load_cubic_corpus

        path = tmp_path / "eight.g6"
        path.write_text(
            "".join(write_graph6(g) + "\n" for g in load_cubic_corpus(8, bridgeless_only=False))
        )
        assert main(["batch", str(path), "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "processed 5 graphs" in out
        assert "Petersen detections: 0" in out

    def test_petersen_detected(self, petersen_file, capsys):
        assert main(["batch", petersen_file]) == 0
        assert "Petersen detections: 1" in capsys.readouterr().out


class TestPetersenMapCommand:
    def test_strong_colouring_is_surjective(self, tmp_path, petersen_file, capsys):
        g = petersen_graph()
        colouring = exists_normal(g, 5)
        cpath = tmp_path / "colours.txt"
        cpath.write_text(format_colouring(g, colouring))
        assert main(["petersen-map", petersen_file, str(cpath)]) == 0
        out = capsys.readouterr().out
        assert "classification: surjective" in out
        assert "input graph is the Petersen graph" in out


class TestExitCodes:
    def test_unreadable_file(self, capsys):
        assert main(["colour", "/nonexistent/graph.g6"]) == 2

    def test_invalid_graph(self, tmp_path, capsys):
        path = tmp_path / "c6.txt"
        path.write_text("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        assert main(["colour", str(path)]) == 2

    def test_malformed_graph6(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("I?\n")
        assert main(["colour", str(path)]) == 2
