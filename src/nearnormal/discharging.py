"""Charge accounting for the medium-edge count.

Every medium edge starts with charge 1; rules R0-R4 move charge onto and
between cycles of the 2-factor, and the audit then checks the bound that
each component's cycles hold at most 4/5 of a unit per vertex.  Each rule
plans its moves and makes them with :meth:`ChargeLedger.apply`, the one
place charges change.  All amounts are multiples of 1/10, so the ledger
works in integer tenths throughout, with no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .colouring import ColouringError, Construction, _colour_counts
from .colouring import bullet_violations, fact_one_violations
from .factor import TwoFactor
from .graph import GraphError

RULES = ("R0", "R1", "R2", "R3", "R4")


class DischargingError(GraphError):
    """A rule hit a configuration the construction is supposed to exclude."""


class Transfer(NamedTuple):
    rule: str
    source: tuple[str, int]  # ("edge", edge id) or ("cycle", cycle index)
    target: int              # cycle index
    tenths: int


@dataclass
class ChargeLedger:
    """Exact charges in integer tenths and the log of every transfer.  Each
    rule's moves go through :meth:`apply`, which records the total at the
    rule's end, and after R1 the cycle charges."""

    medium_edges: frozenset[int]
    edge_tenths: list[int]
    cycle_tenths: list[int]
    rule_totals: dict[str, int] = field(default_factory=dict)
    cycles_after_r1: tuple[int, ...] | None = None
    log: list[Transfer] = field(default_factory=list)

    def apply(self, rule: str, moves) -> None:
        """Make and log each move ``(source, target cycle, tenths)`` in order,
        then close the rule; :class:`DischargingError` when an edge would send
        more than it holds."""
        for source, target, tenths in moves:
            kind, i = source
            charges = self.edge_tenths if kind == "edge" else self.cycle_tenths
            if kind == "edge" and charges[i] < tenths:
                raise DischargingError(f"edge {i} cannot send {tenths} tenths")
            charges[i] -= tenths
            self.cycle_tenths[target] += tenths
            self.log.append(Transfer(rule, source, target, tenths))
        self.rule_totals[rule] = self.total_tenths()
        if rule == "R1":
            self.cycles_after_r1 = tuple(self.cycle_tenths)

    def total_tenths(self) -> int:
        return sum(self.edge_tenths) + sum(self.cycle_tenths)


def initial_ledger(con: Construction, counts: list[int] | None = None) -> ChargeLedger:
    g = con.two_factor.graph
    counts = _colour_counts(g, con.colouring.colour_of) if counts is None else counts
    mediums = frozenset(e for e, count in enumerate(counts) if count == 4)
    return ChargeLedger(
        medium_edges=mediums,
        edge_tenths=[10 if e in mediums else 0 for e in range(g.m)],
        cycle_tenths=[0] * len(con.two_factor.cycles),
    )


def apply_r0(ledger: ChargeLedger, con: Construction) -> None:
    """Every medium edge on a cycle sends its whole unit to that cycle."""
    cycle_of_edge = con.two_factor.cycle_of_edge
    ledger.apply("R0", [(("edge", e), cycle_of_edge[e], 10)
                        for e in sorted(ledger.medium_edges) if cycle_of_edge[e] >= 0])


def apply_r1(ledger: ChargeLedger, con: Construction) -> None:
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
    moves = []
    for e in sorted(ledger.medium_edges):
        if e not in tf.matching:
            continue
        u, v = g.edges[e]
        cu, cv = tf.cycle_of_vertex[u], tf.cycle_of_vertex[v]
        source = ("edge", e)
        if cu == cv:
            moves.append((source, cu, 10))
            continue
        # the odd cycles at e whose colour-3 edge (``threes`` has one per
        # odd cycle) ends where e does
        qualifying = [(cyc, end) for cyc, end in ((cu, u), (cv, v))
                      if tf.cycle_length(cyc) % 2 and end in g.edges[threes[cyc]]]
        if not qualifying:
            raise DischargingError(f"medium matching edge {e} is adjacent to no colour-3 edge")
        main = qualifying[0][0]
        other = cv if main == cu else cu
        if tf.cycle_length(other) % 2 == 0 or len(qualifying) == 2:
            moves += [(source, main, 5), (source, other, 5)]
        else:
            moves.append((source, main, 10))
    ledger.apply("R1", moves)


def _cyclic_distance(tf: TwoFactor, c: int, a: int, b: int) -> int:
    ell = tf.cycle_length(c)
    d = (tf.position_on_cycle(c, a) - tf.position_on_cycle(c, b)) % ell
    return min(d, ell - d)


def apply_r2_r3_r4(ledger: ChargeLedger, con: Construction) -> None:
    """The cycle-to-cycle rules, each move sending 1/5 out of a 5-cycle.

    The guards depend only on the structure (cycle lengths, selection
    degrees, attachment positions), never on current charges, so planning
    every move, then applying the rules in turn, equals the simultaneous wave.
    """
    tf, att = con.two_factor, con.attachments
    plans = {"R2": [], "R3": [], "R4": []}
    for cyc in range(len(tf.cycles)):
        if tf.cycle_length(cyc) != 5:
            continue
        source = ("cycle", cyc)
        if cyc not in att:  # degree 0
            for v in tf.cycles[cyc]:
                plans["R2"].append((source, tf.cycle_of_vertex[tf.partner[v]], 2))
        elif len(att[cyc]) == 1:
            pos = tf.position_on_cycle(cyc, att[cyc][0])
            for x in (tf.cycles[cyc][(pos - 1) % 5], tf.cycles[cyc][(pos + 1) % 5]):
                partner = tf.partner[x]
                target = tf.cycle_of_vertex[partner]
                if not (tf.cycle_length(target) == 5 and len(att.get(target, ())) == 1):
                    plans["R3"].append((source, target, 2))
                else:
                    w = att[target][0]
                    if _cyclic_distance(tf, target, partner, w) != 2:
                        continue
                    final = tf.cycle_of_vertex[tf.partner[w]]
                    if len(att.get(final, ())) == 2:
                        plans["R4"].append((source, final, 2))
    for rule, moves in plans.items():
        ledger.apply(rule, moves)


def run_discharging(con: Construction, counts: list[int] | None = None) -> ChargeLedger:
    """The ledger after rules R0-R4 on the constructed colouring.

    The rules assume the construction's structural properties (see
    :func:`colouring.construct_colouring`), so they are checked here, on
    the ledger's medium edges, before any rule fires; a violation raises
    :class:`ColouringError`.
    """
    ledger = initial_ledger(con, counts)
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


def _post_r1_cap(con: Construction, cyc: int) -> int:
    """A cycle's cap after R1 in tenths: l/2 if even, else 5, 4, 7/2 by degree."""
    ell = con.two_factor.cycle_length(cyc)
    return 5 * ell if ell % 2 == 0 else (50, 40, 35)[len(con.attachments.get(cyc, ()))]


def _family(family: str, margins: list[tuple[int, int]], bound) -> list[AuditCheck]:
    """One check for a family of bounds, then each failed bound in full.
    ``margins`` holds (margin, key) per bound, which holds iff its margin is
    at least 0; ``bound(key)`` gives that bound's own name and detail."""
    failed = [AuditCheck(name, False, detail)
              for name, detail in (bound(key) for margin, key in margins if margin < 0)]
    detail = f"{len(margins) - len(failed)} of {len(margins)} held"
    if margins:
        detail += "; tightest {}: {}".format(*bound(min(margins)[1]))
    return [AuditCheck(family, not failed, detail), *failed]


def audit(ledger: ChargeLedger, con: Construction) -> AuditReport:
    """Replay every charge bound the counting argument asserts.

    Conservation at the end of each rule; one replay of the log, in rule
    order and with edges giving charge in R0 and R1 only, that reproduces
    the post-R1 cycle charges and the final ledger; all edges discharged;
    the post-R1 cycle bounds (even <= l/2; odd <= 5, 4, 7/2 by selection
    degree); the final per-component bound of 4/5 per vertex, strict as soon
    as a member cycle has length other than 5; and for components whose
    quotient is an odd cycle of t cycles, 5 + 13t < 3 * sum of lengths, all
    in integer tenths.  The last three are one check per family (``post-R1``,
    ``component``, ``odd-quotient``) that counts the bounds that held and
    names the tightest (least room); each failed bound is also listed on its
    own, as ``post-R1:cycle{c}``, ``component:{c}`` or ``odd-quotient:{c}``
    (``c`` the component's least cycle).
    """
    tf, g = con.two_factor, con.two_factor.graph
    total = 10 * len(ledger.medium_edges)
    checks = [
        AuditCheck(f"conservation:{rule}", got == total, f"total {got} tenths vs {total}")
        if (got := ledger.rule_totals.get(rule)) is not None
        else AuditCheck(f"conservation:{rule}", False, "rule never applied")
        for rule in RULES
    ]

    replay_edges = [10 if e in ledger.medium_edges else 0 for e in range(g.m)]
    replay_cycles = [0] * len(tf.cycles)
    after_r1, last, in_order = None, 0, True
    for tr in ledger.log:
        k = RULES.index(tr.rule)
        if k > 1 and after_r1 is None:
            after_r1 = tuple(replay_cycles)
        kind, idx = tr.source
        in_order = in_order and last <= k and (kind == "cycle" or k <= 1)
        last = k
        if kind == "edge":
            replay_edges[idx] -= tr.tenths
        else:
            replay_cycles[idx] -= tr.tenths
        replay_cycles[tr.target] += tr.tenths
    replayed = in_order and replay_edges == ledger.edge_tenths and replay_cycles == ledger.cycle_tenths
    replayed = replayed and (after_r1 or tuple(replay_cycles)) == ledger.cycles_after_r1
    checks.append(AuditCheck("log-replay", replayed, "summing the log reproduces the post-R1 and final charges"))
    # no rule after R1 takes charge from an edge, so these are the post-R1 charges
    checks.append(AuditCheck("edges-zero-after-R1", not any(ledger.edge_tenths)))

    r1 = ledger.cycles_after_r1
    if r1 is not None:
        checks += _family(
            "post-R1",
            [(_post_r1_cap(con, cyc) - charge, cyc) for cyc, charge in enumerate(r1)],
            lambda cyc: (f"post-R1:cycle{cyc}", f"tenths {r1[cyc]} <= {_post_r1_cap(con, cyc)}"),
        )

    comps = con.components
    length = [sum(map(tf.cycle_length, comp.cycles)) for comp in comps]
    charge = [sum(ledger.cycle_tenths[cyc] for cyc in comp.cycles) for comp in comps]
    strict = [any(tf.cycle_length(cyc) != 5 for cyc in comp.cycles) for comp in comps]
    checks += _family(  # 4/5 per vertex is 8 tenths; a strict bound has one tenth less room
        "component",
        [(8 * length[i] - charge[i] - strict[i], i) for i in range(len(comps))],
        lambda i: (f"component:{min(comps[i].cycles)}", f"charge {charge[i]} {'<' if strict[i] else '<='} "
                   f"{8 * length[i]} tenths over cycles {sorted(comps[i].cycles)}"),
    )
    checks += _family(
        "odd-quotient",
        [(3 * length[i] - 6 - 13 * len(comp.cycles), i) for i, comp in enumerate(comps) if comp.odd_quotient],
        lambda i: (f"odd-quotient:{min(comps[i].cycles)}",
                   f"5 + 13*{len(comps[i].cycles)} = {5 + 13 * len(comps[i].cycles)} < {3 * length[i]}"),
    )

    grand_ok = ledger.total_tenths() == total and 10 * len(ledger.medium_edges) <= 8 * g.n
    checks.append(AuditCheck("global-bound", grand_ok, f"{len(ledger.medium_edges)} medium edges vs 4/5 * {g.n}"))
    return AuditReport(tuple(checks), all(chk.ok for chk in checks), ledger.total_tenths())


def run_audit(con: Construction, counts: list[int] | None = None) -> AuditReport:
    return audit(run_discharging(con, counts), con)
