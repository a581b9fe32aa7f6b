"""Command-line interface.

Exit codes: 0 on success, 1 when a bound, audit or other internal check
fails, or ``--oracle`` finds a minimum above the pipeline's count (each a
violation the mathematics rules out, so it is flagged loudly, as ``BOUND
VIOLATION``, ``CHECK FAILED`` or ``ORACLE-ABOVE-PIPELINE``), 2 on input
errors.  ``batch`` reports such a failure on the graph's line and goes on.
A closed pipe (``nearnormal batch FILE | head``) ends any command quietly
with 141, or with its own code when it has failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .colouring import MEDIUM, class_counts
from .graph import GraphError, MultiGraph
from .graphio import (
    FormatError,
    format_colouring,
    iter_graph6_lines,
    parse_colouring,
    parse_edge_list,
    parse_graph6,
)
from .oracle import NoColouringError, exists_normal, min_medium_exact
from .petersen import (
    build_kneser_petersen,
    classify_petersen_colouring,
    is_petersen_graph,
    normal_to_petersen,
)
from .pipeline import BoundViolation, InvalidInput, colour_graph


def _read_text(path: str) -> str:
    """The file's text without a leading byte-order mark; :class:`FormatError`
    when it is not valid UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_graph(path: str) -> MultiGraph:
    """Sniff the format: a first token ``n`` (the ``n <count>`` header, with
    any whitespace) or a leading comment means edge list, anything else is
    treated as graph6.  A graph6 line may start with ``n`` but has no
    whitespace after it.  A graph6 file holds one graph per non-blank line;
    one with several is refused (:class:`FormatError`), since the commands
    that read it take one graph and ``batch`` takes many."""
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("#") or (stripped[:1] == "n" and stripped[1:2].isspace()):
        return parse_edge_list(text)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) > 1:
        raise FormatError(
            f"{path} holds {len(lines)} graphs; this command reads one, `nearnormal batch` reads several"
        )
    return parse_graph6(lines[0] if lines else "")


class _CheckFailed(Exception):
    """``colour_graph`` failed an internal check on a valid input."""


def _colour_file(path: str):
    """The graph in ``path`` with its colouring and report; an internal
    check failure becomes :class:`_CheckFailed`, apart from input errors."""
    g = load_graph(path)
    try:
        return g, *colour_graph(g, name=Path(path).name)
    except (InvalidInput, BoundViolation):
        raise
    except GraphError as exc:
        raise _CheckFailed(exc) from exc


def _cmd_colour(args) -> int:
    g, colouring, report = _colour_file(args.graph)
    if args.oracle:
        minimum, _ = min_medium_exact(g, 4)
        report = dataclasses.replace(report, oracle_minimum=minimum)
    if args.json:
        print(report.to_json())
    else:
        print(report.render_text())
        if args.emit_colouring:
            sys.stdout.write(format_colouring(g, colouring))
    above = (report.oracle_minimum or 0) > report.medium  # the exact minimum cannot exceed a colouring's count
    return 0 if report.bound_ok and report.audit_passed is not False and not above else 1


def _cmd_verify(args) -> int:
    g = load_graph(args.graph)
    colouring = parse_colouring(_read_text(args.colouring), g)
    counts = class_counts(g, colouring)
    normal = counts[MEDIUM] == 0
    print(
        f"palette {colouring.k}; poor={counts['poor']} medium={counts['medium']} "
        f"rich={counts['rich']}; normal={'yes' if normal else 'no'}"
    )
    return 0


def _cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    if args.exists_normal:
        witness = exists_normal(g, args.k)
        if witness is None:
            print(f"no normal {args.k}-edge-colouring exists")
            return 0
        print(f"normal {args.k}-edge-colouring found:")
        sys.stdout.write(format_colouring(g, witness))
        return 0
    try:
        minimum, witness = min_medium_exact(g, args.k)
    except NoColouringError:
        print(f"no proper {args.k}-edge-colouring exists")
        return 0
    print(f"minimum medium edges over proper {args.k}-edge-colourings: {minimum}")
    sys.stdout.write(format_colouring(g, witness))
    return 0


def _cmd_audit(args) -> int:
    _g, _colouring, report = _colour_file(args.graph)
    if report.base_branch != "constructed":
        print(
            f"pipeline used the {report.base_branch} branch; "
            "no discharging to audit (vacuous pass)"
        )
        return 0
    for chk in report.audit.checks:
        status = "ok " if chk.ok else "FAIL"
        detail = f" ({chk.detail})" if chk.detail else ""
        print(f"  [{status}] {chk.name}{detail}")
    total = report.audit.total_tenths
    print(f"total charge: {total} tenths = {total // 10 if total % 10 == 0 else total / 10} medium edges")
    print("audit " + ("passed" if report.audit.passed else "FAILED"))
    return 0 if report.audit.passed else 1


def _cmd_batch(args) -> int:
    text = _read_text(args.graphs)
    worst_ratio = (0, 1)  # medium * 1 vs n, compared as fractions
    worst_name = ""
    petersen_hits = []
    failures = 0
    processed = 0
    for lineno, g in iter_graph6_lines(text):
        name = f"line{lineno}"
        try:
            _colouring, report = colour_graph(g, name=name)
        except InvalidInput as exc:
            diag = exc.diagnosis
            print(f"{name}: skipped ({diag.reason}: {diag.detail})")
            continue
        except GraphError as exc:  # the bound or another internal check failed
            kind = "BOUND VIOLATION" if isinstance(exc, BoundViolation) else "CHECK FAILED"
            print(f"{name}: {kind}: {exc}")
            failures += 1
            continue
        processed += 1
        line = (
            f"{name}: n={report.n} branch={report.branch} medium={report.medium}"
            + (" tight" if report.bound_tight else "")
        )
        if report.audit_passed is False:
            line += " AUDIT-FAILED"
            failures += 1
        if args.oracle:
            minimum, _ = min_medium_exact(g, 4)
            line += f" oracle={minimum}"
            if minimum > report.medium:
                line += " ORACLE-ABOVE-PIPELINE"
                failures += 1
        if report.is_petersen:
            petersen_hits.append(name)
        if report.medium * worst_ratio[1] > worst_ratio[0] * report.n:
            worst_ratio = (report.medium, report.n)
            worst_name = name
        print(line)
    print(
        f"processed {processed} graphs; worst medium/n = "
        f"{worst_ratio[0]}/{worst_ratio[1]}"
        + (f" ({worst_name})" if worst_name else "")
    )
    print(f"Petersen detections: {len(petersen_hits)} {petersen_hits}")
    return 1 if failures else 0


def _cmd_petersen_map(args) -> int:
    g = load_graph(args.graph)
    colouring = parse_colouring(_read_text(args.colouring), g)
    pc = normal_to_petersen(g, colouring)
    kp = build_kneser_petersen()
    for eid, (u, v) in enumerate(g.edges):
        p = pc.assignment[eid]
        a, b = kp.edges[p]
        print(
            f"{u} {v} -> {set(kp.vertex_subsets[a])}|{set(kp.vertex_subsets[b])} "
            f"label {kp.label[p]}"
        )
    kind = classify_petersen_colouring(pc).kind
    print(f"classification: {kind}")
    if is_petersen_graph(g):
        print("input graph is the Petersen graph")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearnormal",
        description=(
            "4-edge-colourings of connected bridgeless cubic multigraphs "
            "with provably few medium edges"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("colour", help="run the full pipeline on one graph")
    p.add_argument("graph")
    # the JSON report's ``colours`` field already holds the colouring
    output = p.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="structured report")
    output.add_argument("--emit-colouring", action="store_true", help="print the colouring file")
    p.add_argument("--oracle", action="store_true", help="also run the exact oracle")
    p.set_defaults(func=_cmd_colour)

    p = sub.add_parser("verify", help="classify a supplied colouring")
    p.add_argument("graph")
    p.add_argument("colouring")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exact brute-force searches")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True, choices=(3, 4, 5, 6))
    p.add_argument("--exists-normal", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("audit", help="pipeline plus full discharging audit")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("batch", help="stream a graph6 file")
    p.add_argument("graphs")
    p.add_argument("--oracle", action="store_true", help="cross-check small orders")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "petersen-map", help="induced Petersen colouring of a normal colouring"
    )
    p.add_argument("graph")
    p.add_argument("colouring")
    p.set_defaults(func=_cmd_petersen_map)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except BrokenPipeError:
        code = 141
    except (BoundViolation, _CheckFailed) as exc:
        kind = "BOUND VIOLATION" if isinstance(exc, BoundViolation) else "CHECK FAILED"
        print(f"{kind}: {exc}", file=sys.stderr)
        code = 1
    except (FormatError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    try:
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
    except BrokenPipeError:  # send what is still buffered to the null device: the exit flush stays quiet
        import os

        code = code or 141
        try:
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
        except OSError:
            return code  # no descriptor, as under a test's capture
        os.dup2(devnull, fd)
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
