"""The output checker accepts the pipeline's answers and rejects broken ones."""

import dataclasses

import check
import generators as gen
from nearnormal import build_graph, colour_graph, min_medium_exact
from nearnormal.corpus import prism


def coloured(g):
    colouring, report = colour_graph(build_graph(*g))
    return list(colouring.colour_of), report


def test_accepts_the_pipeline_on_petersen_and_a_snark():
    for g in (gen.petersen(), gen.flower_snark(5)):
        colours, report = coloured(g)
        assert check.report_problems(*g, colours, report, check.is_petersen(*g)) == []


def test_rejects_one_edge_recoloured_into_a_clash():
    n, edges = gen.flower_snark(5)
    colours, report = coloured((n, edges))
    u, _v = edges[0]
    other = next(e for e, (a, b) in enumerate(edges) if e != 0 and u in (a, b))
    colours[0] = colours[other]
    assert check.colouring_problems(n, edges, colours)
    assert check.report_problems(n, edges, colours, report, False)


def test_rejects_a_medium_count_off_by_one():
    g = gen.flower_snark(5)
    colours, report = coloured(g)
    for delta in (1, -1):
        wrong = dataclasses.replace(report, medium=report.medium + delta)
        assert any("medium" in p for p in check.report_problems(*g, colours, wrong, False))


def test_rejects_a_failed_audit_and_a_wrong_petersen_flag():
    g = gen.petersen()
    colours, report = coloured(g)
    failed = dataclasses.replace(report, audit_passed=False, audit_failures=("rule: broken",))
    assert check.report_problems(*g, colours, failed, True)
    assert check.report_problems(*g, colours, report, False)


def test_recount_matches_the_definition_on_petersen():
    n, edges = gen.petersen()
    colours, _report = coloured((n, edges))
    assert check.class_counts(n, edges, colours)["medium"] == 8
    # a 3-edge-colouring has only poor edges
    pr = prism(5)
    colours, _report = coloured((pr.n, list(pr.edges)))
    assert check.class_counts(pr.n, list(pr.edges), colours) == {"poor": 15, "medium": 0, "rich": 0}


def test_is_petersen_needs_girth_five():
    assert check.is_petersen(*gen.petersen())
    pr = prism(5)
    assert not check.is_petersen(pr.n, list(pr.edges))


def test_oracle_check():
    n, edges = gen.petersen()
    minimum, witness = min_medium_exact(build_graph(n, edges), 4)
    assert check.oracle_problems(n, edges, minimum, witness.colour_of, 8) == []
    assert check.oracle_problems(n, edges, minimum + 1, witness.colour_of, 8)
    assert check.oracle_problems(n, edges, minimum, witness.colour_of, minimum - 1)
