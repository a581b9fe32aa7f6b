"""Charge accounting for the medium-edge count.

Every medium edge starts with charge 1; rules R0-R4 move charge onto and
between cycles of the 2-factor, and the audit then checks the bound that
each component's cycles hold at most 4/5 of a unit per vertex.  All amounts
are multiples of 1/10, so the ledger works in integer tenths throughout; no
floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .colouring import MEDIUM, ColouringError, Construction, classify_all
from .colouring import bullet_violations, fact_one_violations
from .factor import TwoFactor
from .graph import GraphError

RULES = ("R0", "R1", "R2", "R3", "R4")


class DischargingError(GraphError):
    """A rule hit a configuration the construction is supposed to exclude."""


@dataclass(frozen=True)
class Transfer:
    rule: str
    source: tuple[str, int]  # ("edge", edge id) or ("cycle", cycle index)
    target: int              # cycle index
    tenths: int
    via: int | None = None   # vertex for the cycle-to-cycle rules


@dataclass
class ChargeLedger:
    """Exact charges in integer tenths, with a snapshot after every rule."""

    medium_edges: frozenset[int]
    edge_tenths: list[int]
    cycle_tenths: list[int]
    snapshots: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=dict)
    log: list[Transfer] = field(default_factory=list)

    def move_from_edge(self, rule: str, e: int, target: int, tenths: int) -> None:
        if self.edge_tenths[e] < tenths:
            raise DischargingError(f"edge {e} cannot send {tenths} tenths")
        self.edge_tenths[e] -= tenths
        self.cycle_tenths[target] += tenths
        self.log.append(Transfer(rule, ("edge", e), target, tenths))

    def move_from_cycle(self, rule: str, c: int, target: int, tenths: int, via: int) -> None:
        self.cycle_tenths[c] -= tenths
        self.cycle_tenths[target] += tenths
        self.log.append(Transfer(rule, ("cycle", c), target, tenths, via))

    def snapshot(self, rule: str) -> None:
        self.snapshots[rule] = (tuple(self.edge_tenths), tuple(self.cycle_tenths))

    def total_tenths(self) -> int:
        return sum(self.edge_tenths) + sum(self.cycle_tenths)


def initial_ledger(con: Construction) -> ChargeLedger:
    g = con.two_factor.graph
    classes = classify_all(g, con.colouring)
    mediums = frozenset(e for e in range(g.m) if classes[e] == MEDIUM)
    return ChargeLedger(
        medium_edges=mediums,
        edge_tenths=[10 if e in mediums else 0 for e in range(g.m)],
        cycle_tenths=[0] * len(con.two_factor.cycles),
    )


def apply_r0(ledger: ChargeLedger, con: Construction) -> ChargeLedger:
    """Every medium edge on a cycle sends its whole unit to that cycle."""
    tf = con.two_factor
    for e in sorted(ledger.medium_edges):
        if tf.cycle_of_edge[e] >= 0:
            ledger.move_from_edge("R0", e, tf.cycle_of_edge[e], 10)
    ledger.snapshot("R0")
    return ledger


def apply_r1(ledger: ChargeLedger, con: Construction) -> ChargeLedger:
    """Medium matching edges split their unit between their two cycles.

    Writing C for an incident odd cycle whose colour-3 edge touches the
    medium edge (one always exists): an even partner gets 1/2 with 1/2 to C;
    an odd partner whose own colour-3 edge also touches gets the same split;
    an odd partner whose colour-3 edge is elsewhere gets nothing and C takes
    the whole unit.  A chord (both endpoints on one odd cycle) sends its
    whole unit to that cycle.
    """
    tf, threes = con.two_factor, con.three_edges
    g = tf.graph
    for e in sorted(ledger.medium_edges):
        if e not in tf.matching:
            continue
        u, v = g.edges[e]
        cu, cv = tf.cycle_of_vertex[u], tf.cycle_of_vertex[v]
        if cu == cv:
            ledger.move_from_edge("R1", e, cu, 10)
            continue
        # the odd cycles at e whose colour-3 edge (``threes`` has one per
        # odd cycle) ends where e does
        qualifying = [
            (cyc, end) for cyc, end in ((cu, u), (cv, v))
            if tf.cycle_length(cyc) % 2 and end in g.edges[threes[cyc]]
        ]
        if not qualifying:
            raise DischargingError(
                f"medium matching edge {e} is adjacent to no colour-3 edge"
            )
        main = qualifying[0][0]
        other = cv if main == cu else cu
        if tf.cycle_length(other) % 2 == 0 or len(qualifying) == 2:
            ledger.move_from_edge("R1", e, main, 5)
            ledger.move_from_edge("R1", e, other, 5)
        else:
            ledger.move_from_edge("R1", e, main, 10)
    ledger.snapshot("R1")
    return ledger


def _cyclic_distance(tf: TwoFactor, c: int, a: int, b: int) -> int:
    ell = tf.cycle_length(c)
    d = (tf.position_on_cycle(c, a) - tf.position_on_cycle(c, b)) % ell
    return min(d, ell - d)


def apply_r2_r3_r4(ledger: ChargeLedger, con: Construction) -> ChargeLedger:
    """The cycle-to-cycle rules, all firing out of length-5 cycles.

    The guards depend only on the structure (cycle lengths, selection
    degrees, attachment positions), never on current charges, so applying
    the three rules sequentially equals the simultaneous wave.
    """
    tf, att = con.two_factor, con.attachments
    plans = {"R2": [], "R3": [], "R4": []}
    for cyc in range(len(tf.cycles)):
        if tf.cycle_length(cyc) != 5:
            continue
        if cyc not in att:  # degree 0
            for v in tf.cycles[cyc]:
                plans["R2"].append((cyc, tf.cycle_of_vertex[tf.partner[v]], v))
        elif len(att[cyc]) == 1:
            a = att[cyc][0]
            pos = tf.position_on_cycle(cyc, a)
            ell = tf.cycle_length(cyc)
            for x in (tf.cycles[cyc][(pos - 1) % ell], tf.cycles[cyc][(pos + 1) % ell]):
                partner = tf.partner[x]
                target = tf.cycle_of_vertex[partner]
                if not (tf.cycle_length(target) == 5 and len(att.get(target, ())) == 1):
                    plans["R3"].append((cyc, target, x))
                else:
                    w = att[target][0]
                    if _cyclic_distance(tf, target, partner, w) != 2:
                        continue
                    final = tf.cycle_of_vertex[tf.partner[w]]
                    if len(att.get(final, ())) == 2:
                        plans["R4"].append((cyc, final, x))
    for rule in ("R2", "R3", "R4"):
        for source, target, via in plans[rule]:
            ledger.move_from_cycle(rule, source, target, 2, via)
        ledger.snapshot(rule)
    return ledger


def run_discharging(con: Construction) -> ChargeLedger:
    """The ledger after rules R0-R4 on the constructed colouring.

    The rules assume the construction's structural properties (see
    :func:`colouring.construct_colouring`), so they are checked here, on
    the ledger's medium edges, before any rule fires; a violation raises
    :class:`ColouringError`.
    """
    ledger = initial_ledger(con)
    mediums = ledger.medium_edges
    problems = bullet_violations(con, mediums) + fact_one_violations(con.two_factor, mediums)
    if problems:
        raise ColouringError("constructed colouring violates: " + "; ".join(problems))
    apply_r0(ledger, con)
    apply_r1(ledger, con)
    apply_r2_r3_r4(ledger, con)
    return ledger


@dataclass(frozen=True)
class AuditCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    """The checks :func:`audit` made, its verdict, and the ledger's final
    total charge in tenths."""

    checks: tuple[AuditCheck, ...]
    passed: bool
    total_tenths: int

    def first_failure(self) -> AuditCheck | None:
        return next((chk for chk in self.checks if not chk.ok), None)


def audit(ledger: ChargeLedger, con: Construction) -> AuditReport:
    """Replay every charge bound the counting argument asserts.

    Conservation at each snapshot; all edges discharged after R1; the
    post-R1 cycle bounds (even <= l/2; odd <= 5, 4, 7/2 by selection
    degree); the final per-component bound of 4/5 per vertex, strict as
    soon as a member cycle has length other than 5; and for components
    whose quotient is an odd cycle of t cycles, 5 + 13t < 3 * sum of
    lengths.  Everything is exact integer arithmetic in tenths.
    """
    tf, g = con.two_factor, con.two_factor.graph
    checks: list[AuditCheck] = []
    total = 10 * len(ledger.medium_edges)

    for rule in RULES:
        if rule not in ledger.snapshots:
            checks.append(AuditCheck(f"snapshot:{rule}", False, "rule never applied"))
            continue
        edges, cycles = ledger.snapshots[rule]
        ok = sum(edges) + sum(cycles) == total
        checks.append(
            AuditCheck(
                f"conservation:{rule}",
                ok,
                f"total {sum(edges) + sum(cycles)} tenths vs {total}",
            )
        )

    replay_edges = [10 if e in ledger.medium_edges else 0 for e in range(g.m)]
    replay_cycles = [0] * len(tf.cycles)
    replayed: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    by_rule: dict[str, list[Transfer]] = {rule: [] for rule in RULES}
    for tr in ledger.log:
        by_rule[tr.rule].append(tr)
    for rule in RULES:
        for tr in by_rule[rule]:
            kind, idx = tr.source
            if kind == "edge":
                replay_edges[idx] -= tr.tenths
            else:
                replay_cycles[idx] -= tr.tenths
            replay_cycles[tr.target] += tr.tenths
        replayed[rule] = (tuple(replay_edges), tuple(replay_cycles))
    checks.append(
        AuditCheck(
            "log-replay",
            all(replayed[r] == ledger.snapshots.get(r) for r in RULES),
            "summing the transfer log reproduces every snapshot",
        )
    )

    if "R1" in ledger.snapshots:
        edges_r1, cycles_r1 = ledger.snapshots["R1"]
        ok = all(t == 0 for t in edges_r1)
        checks.append(AuditCheck("edges-zero-after-R1", ok))
        for cyc in range(len(tf.cycles)):
            ell = tf.cycle_length(cyc)
            charge = cycles_r1[cyc]
            if ell % 2 == 0:
                ok = charge <= 5 * ell
                bound = f"{charge} <= {5 * ell}"
            else:
                cap = (50, 40, 35)[len(con.attachments.get(cyc, ()))]
                ok = charge <= cap
                bound = f"{charge} <= {cap}"
            checks.append(
                AuditCheck(f"post-R1:cycle{cyc}", ok, f"tenths {bound}")
            )

    final_cycles = ledger.cycle_tenths
    for comp in con.components:
        total_len = sum(tf.cycle_length(cyc) for cyc in comp.cycles)
        charge = sum(final_cycles[cyc] for cyc in comp.cycles)
        limit = 8 * total_len  # 4/5 per vertex, in tenths
        strict = any(tf.cycle_length(cyc) != 5 for cyc in comp.cycles)
        ok = charge < limit if strict else charge <= limit
        rel = "<" if strict else "<="
        checks.append(
            AuditCheck(
                f"component:{min(comp.cycles)}",
                ok,
                f"charge {charge} {rel} {limit} tenths over cycles {sorted(comp.cycles)}",
            )
        )
        if comp.odd_quotient:
            t = len(comp.cycles)
            ok = 5 + 13 * t < 3 * total_len
            checks.append(
                AuditCheck(
                    f"odd-quotient:{min(comp.cycles)}",
                    ok,
                    f"5 + 13*{t} = {5 + 13 * t} < {3 * total_len}",
                )
            )

    grand_ok = (
        ledger.total_tenths() == total
        and 10 * len(ledger.medium_edges) <= 8 * g.n
    )
    checks.append(
        AuditCheck(
            "global-bound",
            grand_ok,
            f"{len(ledger.medium_edges)} medium edges vs 4/5 * {g.n}",
        )
    )
    return AuditReport(tuple(checks), all(chk.ok for chk in checks), ledger.total_tenths())


def run_audit(con: Construction) -> AuditReport:
    return audit(run_discharging(con), con)
