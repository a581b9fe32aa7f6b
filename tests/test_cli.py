from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearnormal
from nearnormal import cli, discharging, graphio, pipeline, reductions
from nearnormal.cli import load_graph, main
from nearnormal.colouring import construct_colouring
from nearnormal.corpus import CORPUS_ORDERS, complete_graph_k4, k33, load_cubic_corpus, petersen_graph, prism, triple_edge
from nearnormal.discharging import audit, run_discharging
from nearnormal.factor import choose_two_factor
from nearnormal.graph import GraphError, build_graph, validate_input
from nearnormal.graphio import format_colouring, write_graph6
from nearnormal.oracle import exists_normal
from nearnormal.pipeline import BoundViolation, colour_graph
from nearnormal.reductions import reduce_fully
from nearnormal.selection import find_optimal_selection
from test_factor import disjoint_union


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

    def test_graph6_line_starting_with_n(self, tmp_path):
        # graph6 encodes n = 47 as the byte 'n', with no whitespace after it
        cycle = build_graph(47, [(i, (i + 1) % 47) for i in range(47)])
        path = tmp_path / "c47.g6"
        path.write_text(write_graph6(cycle) + "\n")
        assert path.read_text().startswith("n")
        assert sorted(load_graph(str(path)).edges) == sorted(cycle.edges)

    @pytest.mark.parametrize("args", [
        ["colour"], ["audit"], ["oracle", "--k", "4"],
        ["verify", "colours"], ["petersen-map", "colours"],
    ], ids=lambda args: args[0])
    def test_single_graph_commands_refuse_several_graphs(self, args, tmp_path, capsys):
        path = tmp_path / "two.g6"
        path.write_text(write_graph6(petersen_graph()) + "\n\n" + write_graph6(prism(4)) + "\n")
        colours = tmp_path / "colours.txt"
        colours.write_text(format_colouring(petersen_graph(), exists_normal(petersen_graph(), 5)))
        command, *rest = args
        assert main([command, str(path), *(str(colours) if a == "colours" else a for a in rest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path} holds 2 graphs; this command reads one, `nearnormal batch` reads several\n"
        )


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

    def test_json_carries_the_audit(self, petersen_file, k4_edge_list, capsys):
        assert main(["colour", petersen_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["audit"]["passed"] is True
        assert payload["audit"]["total_tenths"] == 80
        assert {"name": "global-bound", "ok": True, "detail": "8 medium edges vs 4/5 * 10"} in (
            payload["audit"]["checks"]
        )
        assert main(["colour", k4_edge_list, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["audit"] is None

    def test_emitted_colouring_parses_back(self, petersen_file, capsys):
        g = load_graph(petersen_file)
        colouring, report = colour_graph(g, name=Path(petersen_file).name)
        assert main(["colour", petersen_file, "--emit-colouring"]) == 0
        out = capsys.readouterr().out
        head = report.render_text() + "\n"
        assert out.startswith(head)
        assert graphio.parse_colouring(out[len(head):], g).colour_of == colouring.colour_of

    def test_json_and_emit_colouring_together_are_a_usage_error(self, petersen_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["colour", petersen_file, "--json", "--emit-colouring"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: nearnormal colour [-h] [--json | --emit-colouring]")
        assert "argument --emit-colouring: not allowed with argument --json" in captured.err

    def test_oracle_flag(self, petersen_file, capsys):
        assert main(["colour", petersen_file, "--json", "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_minimum"] == 8

    @pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
    def test_an_oracle_minimum_above_the_pipeline_fails(self, json_out, petersen_file, monkeypatch, capsys):
        # the pipeline's colouring is a 4-edge-colouring, so the exact
        # minimum cannot exceed its count; a seeded one that does exits 1
        monkeypatch.setattr(cli, "min_medium_exact", lambda g, k: (9, None))
        assert main(["colour", petersen_file, "--oracle"] + ["--json"] * json_out) == 1
        out = capsys.readouterr().out
        if json_out:
            payload = json.loads(out)
            assert (payload["medium"], payload["oracle_minimum"]) == (8, 9)
            assert "ORACLE-ABOVE-PIPELINE" not in out
        else:
            assert out.splitlines()[-1] == "  oracle minimum medium over 4-colourings: 9 ORACLE-ABOVE-PIPELINE"

    def test_edge_list_input(self, k4_edge_list, capsys):
        assert main(["colour", k4_edge_list]) == 0
        assert "medium=0" in capsys.readouterr().out

    def test_multigraph_through_edge_list(self, tmp_path, capsys):
        path = tmp_path / "triple.txt"
        path.write_text("n 2\n0 1\n0 1\n0 1\n")
        assert main(["colour", str(path)]) == 0
        assert "medium=0" in capsys.readouterr().out

    def test_edge_list_with_a_tab_after_n(self, tmp_path, capsys):
        path = tmp_path / "k4-tab.txt"
        g = complete_graph_k4()
        path.write_text("n\t4\n" + "\n".join(f"{u} {v}" for u, v in g.edges) + "\n")
        assert main(["colour", str(path)]) == 0
        assert "medium=0" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["edge-list", "graph6"])
    def test_file_with_a_byte_order_mark(self, fmt, tmp_path, capsys):
        g = petersen_graph()
        body = write_graph6(g) if fmt == "graph6" else f"n {g.n}\n" + "\n".join(f"{u} {v}" for u, v in g.edges)
        path = tmp_path / "petersen-bom.txt"
        path.write_text(body + "\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["colour", str(path)]) == 0
        assert "medium=8" in capsys.readouterr().out

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

    def test_huge_colour_is_a_format_error(self, tmp_path, capsys):
        gpath, cpath = tmp_path / "k4.txt", tmp_path / "colours.txt"
        gpath.write_text("n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        cpath.write_text("0 1 40000000000\n0 2 2\n0 3 3\n1 2 3\n1 3 2\n2 3 1\n")
        assert main(["verify", str(gpath), str(cpath)]) == 2
        err = capsys.readouterr().err
        assert err == "error: colour 40000000000 is above max(m, 5) = 6\n"


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

    def test_no_3_colouring_is_an_answer(self, petersen_file, capsys):
        """A decided search is not an input error: exit 0, as with
        --exists-normal."""
        assert main(["oracle", petersen_file, "--k", "3"]) == 0
        out, err = capsys.readouterr()
        assert out == "no proper 3-edge-colouring exists\n" and err == ""

    def test_3_colourable(self, k4_edge_list, capsys):
        assert main(["oracle", k4_edge_list, "--k", "3"]) == 0
        assert "proper 3-edge-colourings: 0" in capsys.readouterr().out

    def test_invalid_graph_is_still_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "c6.txt"
        path.write_text("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        assert main(["oracle", str(path), "--k", "3"]) == 2
        assert "validated input" in capsys.readouterr().err

    def test_python_dash_m(self, petersen_file):
        """``python -m nearnormal`` runs the same command line."""
        env = {**os.environ, "PYTHONPATH": str(Path(nearnormal.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-m", "nearnormal", "oracle", petersen_file, "--k", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "no proper 3-edge-colouring exists\n"


class TestAuditCommand:
    def test_petersen_audit_passes(self, petersen_file, capsys):
        assert main(["audit", petersen_file]) == 0
        out = capsys.readouterr().out
        assert "audit passed" in out and "[ok ]" in out

    def test_vacuous_on_3_colourable(self, k4_edge_list, capsys):
        assert main(["audit", k4_edge_list]) == 0
        assert "vacuous" in capsys.readouterr().out


def reference_audit(path: str) -> int:
    """The audit command as it was before ``colour_graph`` handed back its
    audit: colour the graph, then build the construction on the reduced
    graph a second time and audit that."""
    g = load_graph(path)
    _colouring, report = colour_graph(g, name=Path(path).name)
    if report.base_branch != "constructed":
        print(
            f"pipeline used the {report.base_branch} branch; "
            "no discharging to audit (vacuous pass)"
        )
        return 0
    base, _records, _ids = reduce_fully(g)
    tf = choose_two_factor(base)
    sel = find_optimal_selection(tf)
    constructed = construct_colouring(tf, sel)
    ledger = run_discharging(constructed)
    audit_report = audit(ledger, constructed)
    for chk in audit_report.checks:
        status = "ok " if chk.ok else "FAIL"
        detail = f" ({chk.detail})" if chk.detail else ""
        print(f"  [{status}] {chk.name}{detail}")
    total = ledger.total_tenths()
    print(f"total charge: {total} tenths = {total // 10 if total % 10 == 0 else total / 10} medium edges")
    print("audit " + ("passed" if audit_report.passed else "FAILED"))
    return 0 if audit_report.passed else 1


def truncated_petersen():
    """Petersen with vertex 0 replaced by a triangle: it reduces, then
    constructs."""
    g = petersen_graph()
    corners, edges = [0, 10, 11], list(g.edges)
    for i, e in enumerate(g.incident_edges(0)):
        edges[e] = (corners[i], g.other_end(e, 0))
    return build_graph(12, edges + [(0, 10), (10, 11), (11, 0)])


def audit_graphs():
    graphs = {
        "petersen": petersen_graph(),
        "truncated-petersen": truncated_petersen(),
        "k4": complete_graph_k4(),
    }
    for n in CORPUS_ORDERS:
        for i, g in enumerate(load_cubic_corpus(n)):
            if colour_graph(g)[1].base_branch == "constructed":
                graphs[f"corpus{n}-{i}"] = g
    return graphs


AUDIT_GRAPHS = audit_graphs()

# the construction stages, by the module where each call looks them up
STAGES = (
    (reductions, "reduce_fully"),
    (pipeline, "choose_two_factor"),
    (pipeline, "find_optimal_selection"),
    (pipeline, "construct_colouring"),
    (discharging, "run_discharging"),
)


class TestAuditBuildsOnce:
    def test_graph_list(self):
        assert sum(name.startswith("corpus") for name in AUDIT_GRAPHS) == 7
        report = colour_graph(AUDIT_GRAPHS["truncated-petersen"])[1]
        assert report.reductions == ("triangle",) and report.base_branch == "constructed"

    @pytest.mark.parametrize("name, g", AUDIT_GRAPHS.items(), ids=list(AUDIT_GRAPHS))
    def test_same_output_as_the_rerun(self, name, g, tmp_path, monkeypatch, capsys):
        path = tmp_path / f"{name}.txt"
        path.write_text(f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        want_code = reference_audit(str(path))
        want = capsys.readouterr().out

        calls = Counter()

        def counted(attr, fn):
            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, attr in STAGES:
            fn = getattr(module, attr)
            monkeypatch.setattr(module, attr, counted(attr, fn))
            # counts calls through a name the CLI imports directly, if it does
            monkeypatch.setattr(cli, attr, counted(attr, fn), raising=False)
        assert main(["audit", str(path)]) == want_code
        assert capsys.readouterr().out == want
        constructed = "vacuous" not in want
        # the 2-factor is chosen on every base, before the 3-colour search
        assert calls == Counter({"reduce_fully": 1, "choose_two_factor": 1} | {
            attr: 1 for _module, attr in STAGES if constructed
        })


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

    def test_validates_each_graph_once(self, tmp_path, monkeypatch, capsys):
        """``validate_input`` runs once on each skipped graph and never on
        a valid one; the skip lines name the same failed property."""
        graphs = load_cubic_corpus(8, bridgeless_only=False) + load_cubic_corpus(10, bridgeless_only=False)
        path = tmp_path / "mixed.g6"
        path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
        skips = []
        for lineno, g in enumerate(graphs, start=1):
            diag = validate_input(g)
            if not diag.ok:
                skips.append(f"line{lineno}: skipped ({diag.reason}: {diag.detail})")
        assert skips and any(colour_graph(g)[1].reductions for g in graphs if validate_input(g).ok)

        calls = Counter()

        def counted(g):
            calls["validate_input"] += 1
            return validate_input(g)

        for module in (cli, pipeline, reductions):
            monkeypatch.setattr(module, "validate_input", counted, raising=False)
        assert main(["batch", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "skipped" in line] == skips
        assert calls["validate_input"] == len(skips)

    @pytest.mark.parametrize("text, out, err", [
        (
            write_graph6(petersen_graph()) + "\nnXXXXXXXXXX\n",
            "line1: n=10 branch=constructed medium=8 tight\n",
            "error: line 2: graph6 body has 10 bytes, expected 181 for n=47\n",
        ),
        (
            "n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
            "",
            "error: line 1: graph6 body has 2 bytes, expected 181 for n=47\n",
        ),
    ], ids=["bad-second-line", "edge-list"])
    def test_a_malformed_line_is_named(self, text, out, err, tmp_path, capsys):
        """The batch stops at the first line that is not graph6 and names
        it; the lines before it have been reported."""
        path = tmp_path / "graphs.g6"
        path.write_text(text)
        assert main(["batch", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    @pytest.mark.parametrize("error, code", [(BoundViolation, 1), (GraphError, 1)])
    def test_other_errors_are_not_skips(self, error, code, petersen_file, monkeypatch, capsys):
        def failing(g, name=""):
            raise error("raised for the test")

        monkeypatch.setattr(cli, "colour_graph", failing)
        assert main(["batch", petersen_file]) == code
        captured = capsys.readouterr()
        assert "skipped" not in captured.out
        label = "BOUND VIOLATION" if error is BoundViolation else "CHECK FAILED"
        assert f"line1: {label}: raised for the test\n" in captured.out

    def test_an_internal_check_failure_is_counted(self, tmp_path, monkeypatch, capsys):
        """A failed structural check on one graph is reported and counted,
        and the batch goes on to the next line."""
        path = tmp_path / "two.g6"
        path.write_text(write_graph6(petersen_graph()) + "\n" + write_graph6(k33()) + "\n")
        monkeypatch.setattr(discharging, "bullet_violations", lambda con, mediums: ["injected for the test"])
        assert main(["batch", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[:2] == [
            "line1: CHECK FAILED: constructed colouring violates: injected for the test",
            "line2: n=6 branch=3-colourable medium=0",
        ]
        assert "processed 1 graphs" in captured.out and captured.err == ""

    def test_a_failed_audit_is_marked_and_counted(self, petersen_file, monkeypatch, capsys):
        run_audit = pipeline.run_audit
        monkeypatch.setattr(pipeline, "run_audit", lambda *args: dataclasses.replace(run_audit(*args), passed=False))
        assert main(["batch", petersen_file]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "line1: n=10 branch=constructed medium=8 tight AUDIT-FAILED"

    def test_an_oracle_minimum_above_the_pipeline_is_marked_and_counted(self, petersen_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "min_medium_exact", lambda g, k: (9, None))
        assert main(["batch", petersen_file, "--oracle"]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "line1: n=10 branch=constructed medium=8 tight oracle=9 ORACLE-ABOVE-PIPELINE"
        )

    def test_a_closed_stdout_exits_141_quietly(self, tmp_path, monkeypatch, capsys):
        """A write to a closed pipe ends the batch with 141 and prints no
        ``error:`` line: it is not an input error."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        path = tmp_path / "eight.g6"
        path.write_text("".join(write_graph6(g) + "\n" for g in load_cubic_corpus(8)))
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["batch", str(path)]) == 141
        assert capsys.readouterr().err == ""

    @staticmethod
    def batch_on_a_closed_pipe(path: str) -> subprocess.CompletedProcess:
        """``nearnormal batch path`` in a subprocess whose stdout is a pipe
        with its read end already closed.  Standard output is block-buffered,
        as it is on a pipe unless ``PYTHONUNBUFFERED`` is set, so the output
        is still buffered when the command returns."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(nearnormal.__file__).parent.parent)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-m", "nearnormal", "batch", path],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)

    def test_a_pipe_closed_before_the_first_line_exits_141_quietly(self, petersen_file):
        """The reader has gone before the command writes anything: the
        command exits 141 with nothing on stderr, not even the interpreter's
        report of a failed flush at exit."""
        proc = self.batch_on_a_closed_pipe(petersen_file)
        assert (proc.returncode, proc.stderr) == (141, "")

    def test_an_input_error_on_a_closed_pipe_keeps_exit_2(self, tmp_path, petersen):
        """The Petersen line is still buffered when the second line turns out
        not to be graph6: the command exits 2 with its ``error:`` line alone
        on stderr, and the interpreter's flush at exit reports nothing."""
        path = tmp_path / "bad.g6"
        path.write_text(write_graph6(petersen) + "\n!!bad!!\n")
        proc = self.batch_on_a_closed_pipe(str(path))
        assert (proc.returncode, proc.stderr) == (2, "error: line 2: invalid graph6 byte '!'\n")


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

    @pytest.mark.parametrize("args", [
        ["colour", "bad"], ["batch", "bad"],
        ["verify", "bad", "colours"], ["verify", "graph", "bad"],
        ["petersen-map", "bad", "colours"], ["petersen-map", "graph", "bad"],
    ], ids=lambda args: "-".join(args))
    def test_file_that_is_not_utf8(self, args, tmp_path, petersen_file, capsys):
        g = petersen_graph()
        files = {"bad": tmp_path / "bad.bin", "colours": tmp_path / "colours.txt", "graph": petersen_file}
        files["bad"].write_bytes(b"\xff")
        files["colours"].write_text(format_colouring(g, exists_normal(g, 5)))
        assert main([args[0], *(str(files[a]) for a in args[1:])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["colour", "audit"])
    def test_an_internal_check_failure_exits_1(self, command, petersen_file, monkeypatch, capsys):
        """A failed internal check is not an input error: it prints
        ``CHECK FAILED`` and exits 1, as ``batch`` counts it."""
        monkeypatch.setattr(discharging, "bullet_violations", lambda con, mediums: ["injected for the test"])
        assert main([command, petersen_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "CHECK FAILED: constructed colouring violates: injected for the test\n"

    @pytest.mark.parametrize("command", ["colour", "audit"])
    def test_an_invalid_graph_still_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "two-k4.txt"
        path.write_text(edge_list_text(disjoint_union(complete_graph_k4(), complete_graph_k4())))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == "error: invalid input (connected): graph is disconnected\n"

    def test_huge_vertex_count_is_refused_before_building(self, tmp_path, monkeypatch, capsys):
        def build_graph(*args):
            raise AssertionError("build_graph ran on an oversized header")

        monkeypatch.setattr(graphio, "build_graph", build_graph)
        path = tmp_path / "huge.txt"
        path.write_text("n 4000000000\n0 1\n0 1\n0 1\n")
        assert main(["colour", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: header 'n 4000000000'")


def edge_list_text(g) -> str:
    return f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)


FUZZ_PETERSEN = petersen_graph()
FUZZ_TEXTS = {
    "graph": (
        write_graph6(FUZZ_PETERSEN) + "\n",
        edge_list_text(FUZZ_PETERSEN),
        edge_list_text(complete_graph_k4()),
        edge_list_text(triple_edge()),
    ),
    "colouring": (
        format_colouring(FUZZ_PETERSEN, exists_normal(FUZZ_PETERSEN, 5)),
        format_colouring(FUZZ_PETERSEN, colour_graph(FUZZ_PETERSEN)[0]),
    ),
    "graph6 lines": (
        "".join(write_graph6(g) + "\n" for g in (FUZZ_PETERSEN, complete_graph_k4(), prism(4))) + "\n",
    ),
}
FUZZ_ALPHABET = "0123456789 \n\t#n-~?@AIZ_heGUo:&>\x00\xe9"
# command -> the kinds of file it reads, then its options
FUZZ_COMMANDS = {
    "colour": (("graph",), []),
    "verify": (("graph", "colouring"), []),
    "oracle": (("graph",), ["--k", "3"]),
    "audit": (("graph",), []),
    "batch": (("graph6 lines",), []),
    "petersen-map": (("graph", "colouring"), []),
}


@st.composite
def mutated(draw, text):
    """``text`` with one to four characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(chars)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert" or not chars:
            chars.insert(i, draw(st.sampled_from(FUZZ_ALPHABET)))
        elif op == "delete":
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = draw(st.sampled_from(FUZZ_ALPHABET))
    return "".join(chars)


class TestFuzzedInputs:
    """Mutated graph6, edge-list and colouring files never crash a command:
    every run ends with exit code 0, 1 or 2."""

    @pytest.mark.parametrize("command", list(FUZZ_COMMANDS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_no_exception(self, command, data):
        kinds, options = FUZZ_COMMANDS[command]
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, kind in enumerate(kinds):
                text = data.draw(st.sampled_from(FUZZ_TEXTS[kind]))
                path = Path(tmp) / f"{i}.txt"
                path.write_text(data.draw(st.one_of(mutated(text), st.just(text))), encoding="utf-8")
                paths.append(str(path))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = main([command, *paths, *options])
        assert code in (0, 1, 2)
