"""Result records for the colouring pipeline, schema-stable for JSON."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .discharging import AuditReport


@dataclass(frozen=True)
class ColouringReport:
    """Everything the pipeline decided and verified for one graph.

    Fields that only make sense on the construction branch are None on the
    other branches; the JSON schema is identical for every graph.  ``audit``
    is the discharging audit the pipeline ran on the constructed base
    colouring: its checks (one per family of per-cycle or per-component
    bounds, with the count that held and the tightest, and each failed
    bound on its own), the verdict and the ledger's total charge in tenths.
    ``audit_passed`` and ``audit_failures`` summarise it.
    """

    name: str
    n: int
    m: int
    branch: str                      # 3-colourable | reduced | constructed
    reductions: tuple[str, ...]      # rewrite kinds, outermost first
    base_branch: str                 # branch taken on the fully reduced graph
    three_colouring: str             # found | refuted | open (search out of budget)
    base_order: int
    cycle_lengths: tuple[int, ...] | None
    selection_size: int | None
    component_shapes: tuple[str, ...] | None
    colours: tuple[int, ...]
    poor: int
    medium: int
    rich: int
    bound_ok: bool
    bound_tight: bool
    is_petersen: bool
    audit_passed: bool | None
    audit_failures: tuple[str, ...]
    audit: AuditReport | None
    oracle_minimum: int | None = None

    def to_json(self) -> str:
        """The report as ``json.dumps(dataclasses.asdict(self), indent=2)``
        writes it, but with each list of scalars (the colours) on one line,
        by the C encoder.  The audit holds no such list: ``indent=2``."""
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            text = json.dumps(dataclasses.asdict(value), indent=2) if dataclasses.is_dataclass(value) else json.dumps(value)
            lines.append(f"  {json.dumps(f.name)}: " + text.replace("\n", "\n  "))
        return "{\n" + ",\n".join(lines) + "\n}"

    def render_text(self) -> str:
        kinds = ", ".join(f"{self.reductions.count(kind)} {kind}" for kind in sorted(set(self.reductions)))
        lines = [
            f"graph {self.name or '<unnamed>'}: n={self.n}, m={self.m}",
            f"  branch: {self.branch}"
            + (f" (reductions: {kinds}; base: {self.base_branch} "
               f"on {self.base_order} vertices)" if self.reductions else ""),
        ]
        lines.append(f"  3-edge-colouring: {self.three_colouring}")
        if self.cycle_lengths is not None:
            lines.append(f"  2-factor cycle lengths: {list(self.cycle_lengths)}")
            lines.append(
                f"  selection size: {self.selection_size}; "
                f"component shapes: {list(self.component_shapes or ())}"
            )
        lines.append(
            f"  edges: poor={self.poor} medium={self.medium} rich={self.rich}"
        )
        verdict = "tight" if self.bound_tight else "strict"
        lines.append(
            f"  medium bound: {self.medium} <= 4/5 * {self.n} = {4 * self.n / 5:g}"
            f" [{verdict}]" if self.bound_ok else
            f"  medium bound VIOLATED: {self.medium} > 4/5 * {self.n}"
        )
        if self.audit_passed is not None:
            lines.append(
                "  discharging audit: " + ("passed" if self.audit_passed else
                                           "FAILED: " + "; ".join(self.audit_failures))
            )
        if self.oracle_minimum is not None:
            lines.append(f"  oracle minimum medium over 4-colourings: {self.oracle_minimum}"
                         + (" ORACLE-ABOVE-PIPELINE" if self.oracle_minimum > self.medium else ""))
        return "\n".join(lines)
