"""End-to-end colouring pipeline.

Check that the input is cubic, reduce parallel pairs and triangles until
the graph is simple and triangle-free (or the 2-vertex base case), then
choose the 2-factor.  Its quotient, one vertex per cycle, certifies the
base connected and bridgeless before the 2-factor is chosen further
(:func:`factor.choose_two_factor` refuses the base otherwise), and the
reductions carry both properties back to the input; only when a step
fails does :func:`validate_input` run, to name what the input lacks.  A
2-factor with no odd cycle is a 3-edge-colouring; one with odd cycles is
repaired into one by Kempe chain swaps, which may give up after a fixed
number of moves.  Either way the base is reported 3-colourable with no
search.  Only when the repair gives up does the 3-colour search run, with a
fixed backtrack budget: a colouring it finds is taken, and when it refutes
one or runs out of budget (the report says which) the selection-driven
construction starts from the same 2-factor.  The colouring is lifted back
through the reduction stack, one working colour list indexed by the
reductions' edge ids, and the final medium count is checked against the
4/5-per-vertex bound, strictly so off the Petersen graph.
"""

from __future__ import annotations

from .colouring import (
    EdgeColouring,
    _colour_counts,
    _SearchOpen,
    class_counts,
    construct_colouring,
    kempe_3_colouring,
    medium_count,  # noqa: F401  (bench/tracing.py wraps pipeline.medium_count by name)
    try_3_edge_colouring,
)
from .discharging import run_audit
from .factor import choose_two_factor
from .graph import Diagnosis, GraphError, MultiGraph, validate_input
from .petersen import is_petersen_graph
from .report import ColouringReport
from .selection import (
    find_optimal_selection,
    s_components,  # noqa: F401  (bench/tracing.py wraps pipeline.s_components by name)
)


class InvalidInput(GraphError):
    """An input that :func:`validate_input` rejects, with its ``diagnosis``."""

    def __init__(self, diagnosis: Diagnosis) -> None:
        super().__init__(f"invalid input ({diagnosis.reason}): {diagnosis.detail}")
        self.diagnosis = diagnosis


class BoundViolation(GraphError):
    """The final colouring broke the 4/5-per-vertex guarantee; either a bug
    or a mathematical sensation, and flagged loudly either way."""


def colour_graph(g: MultiGraph, name: str = "") -> tuple[EdgeColouring, ColouringReport]:
    from .reductions import lift, reduce_fully

    base = None
    try:
        if not g.is_cubic():
            raise GraphError("input is not cubic")
        base, records, base_edges = reduce_fully(g)
        tf = choose_two_factor(base)  # certifies the base, and so g, connected and bridgeless
    except GraphError:
        diag = validate_input(g)
        if not diag.ok:
            raise InvalidInput(diag) from None
        # g is valid and the rewrites preserve validity: a bug
        diag = diag if base is None else validate_input(base)
        if diag.ok:
            raise
        raise GraphError(f"reduction produced an invalid base ({diag.reason}): {diag.detail}") from None

    cycle_lengths = selection_size = shapes = audit_report = base_counts = None
    try:
        colouring = kempe_3_colouring(tf)
        if colouring:  # the repair checked 1, 2, 3 at every vertex: every edge is poor
            base_counts = [3] * base.m
        colouring = colouring or try_3_edge_colouring(base)
        three_colouring = "refuted" if colouring is None else "found"
    except _SearchOpen:
        colouring, three_colouring = None, "open"
    if colouring is not None:
        base_branch = "3-colourable"
    else:
        base_branch = "constructed"
        con = construct_colouring(tf, find_optimal_selection(tf))
        colouring = con.colouring
        cycle_lengths = tuple(len(cyc) for cyc in con.two_factor.cycles)
        selection_size = len(con.selection)
        shapes = tuple(comp.shape for comp in con.components)
        base_counts = _colour_counts(base, colouring.colour_of)  # one pass for the audit and the count
        audit_report = run_audit(con, base_counts)

    if records:  # else the base is g itself
        colours = [0] * (base_edges[-1] + 1)
        for e, col in zip(base_edges, colouring.colour_of):
            colours[e] = col
        for record in reversed(records):
            lift(record, colours)
        colouring = EdgeColouring(colouring.k, tuple(colours[: g.m]))

    counts = class_counts(g, colouring, base_counts if base is g else None)
    mediums = counts["medium"]
    petersen = is_petersen_graph(g)
    bound_ok = 5 * mediums <= 4 * g.n
    bound_tight = 5 * mediums == 4 * g.n
    if not bound_ok:
        raise BoundViolation(
            f"{mediums} medium edges exceed 4/5 * {g.n} (would refute the bound)"
        )
    if bound_tight and not petersen:
        raise BoundViolation(
            f"bound is tight on a non-Petersen graph ({mediums} medium edges)"
        )

    report = ColouringReport(
        name=name,
        n=g.n,
        m=g.m,
        branch="reduced" if records else base_branch,
        reductions=tuple(r.kind for r in records),
        base_branch=base_branch,
        three_colouring=three_colouring,
        base_order=base.n,
        cycle_lengths=cycle_lengths,
        selection_size=selection_size,
        component_shapes=shapes,
        colours=colouring.colour_of,
        poor=counts["poor"],
        medium=mediums,
        rich=counts["rich"],
        bound_ok=bound_ok,
        bound_tight=bound_tight,
        is_petersen=petersen,
        audit_passed=None if audit_report is None else audit_report.passed,
        audit_failures=() if audit_report is None else tuple(
            f"{chk.name}: {chk.detail}" for chk in audit_report.checks if not chk.ok
        ),
        audit=audit_report,
    )
    return colouring, report
