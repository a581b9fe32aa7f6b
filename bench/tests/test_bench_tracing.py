"""The outside wrappers record spans and counts, and leave the package as
they found it."""

import generators as gen
import nearnormal.pipeline
from nearnormal import build_graph, colour_graph
from tracing import Tracer


def test_spans_and_counts_on_petersen():
    original = nearnormal.pipeline.try_3_edge_colouring
    tracer = Tracer()
    tracer.install()
    try:
        tracer.graph = 0
        tracer.call("pipeline", colour_graph, build_graph(*gen.petersen()))
    finally:
        tracer.uninstall()
    assert nearnormal.pipeline.try_3_edge_colouring is original
    assert tracer.absent == []

    names = [span[0] for span in tracer.spans]
    assert names[0] == "pipeline"
    assert {"validate", "reduce", "three_colour.refute", "two_factor", "two_factor.enumerate",
            "selection", "construct", "audit", "verify"} <= set(names)
    assert all(span[3] >= 0 and span[4] == 0 for span in tracer.spans[1:])

    m = tracer.layer_metrics()
    assert m["two_factor.odd_cycles"] == 2  # two 5-cycles
    assert m["two_factor.limit_hits"] == 0
    assert m["reduce.steps"] == 0 and m["lift.s"] == 0
    assert m["three_colour.find_s"] == 0 < m["three_colour.refute_s"]
    assert 0 <= m["pipeline.self_s"] < tracer.spans[0][2] - tracer.spans[0][1]


def test_a_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(nearnormal.pipeline, "run_audit")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["nearnormal.pipeline.run_audit"]
    assert tracer.layer_metrics()["audit.s"] == 0
