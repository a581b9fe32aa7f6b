from __future__ import annotations

import dataclasses
import hashlib

import pytest

import bench_families
from nearnormal.colouring import MEDIUM, ColouringError, EdgeColouring, bullet_violations, classify_all, construct_colouring
from nearnormal.discharging import (
    RULES,
    DischargingError,
    _post_r1_cap,
    apply_r0,
    apply_r1,
    audit,
    initial_ledger,
    run_audit,
    run_discharging,
)
from nearnormal.factor import two_factor_from_matching
from nearnormal.pipeline import colour_graph
from nearnormal.selection import CYCLE, find_optimal_selection
from witnesses import (
    even_square_component,
    long_pair,
    medium_chord,
    odd_pentagon_ring,
    odd_triangle_component,
    r3_pair,
    r4_chain,
    r4_chain_adjacent,
    selection_degrees,
    two_factor_of,
)


def constructed(graph_and_matching):
    g, mids = graph_and_matching
    tf = two_factor_of(g, mids)
    sel = find_optimal_selection(tf)
    return g, tf, sel, construct_colouring(tf, sel)


def petersen_setup(petersen):
    tf = two_factor_from_matching(petersen, frozenset(range(10, 15)))
    sel = find_optimal_selection(tf)
    return petersen, tf, sel, construct_colouring(tf, sel)


class TestR0:
    def test_cycle_charges_after_r0(self, petersen):
        g, tf, sel, con = petersen_setup(petersen)
        ledger = initial_ledger(con)
        apply_r0(ledger, con)
        # both cycles are odd: exactly 3 medium cycle edges = 30 tenths each
        assert ledger.cycle_tenths == [30, 30]

    def test_even_cycles_receive_nothing(self):
        g, tf, sel, con = constructed(r3_pair())
        ledger = initial_ledger(con)
        apply_r0(ledger, con)
        for c in range(len(tf.cycles)):
            expected = 30 if len(tf.cycles[c]) % 2 else 0
            assert ledger.cycle_tenths[c] == expected

    def test_matching_edges_keep_their_charge(self, petersen):
        g, tf, sel, con = petersen_setup(petersen)
        ledger = initial_ledger(con)
        before = {e: ledger.edge_tenths[e] for e in tf.matching}
        apply_r0(ledger, con)
        assert {e: ledger.edge_tenths[e] for e in tf.matching} == before


class TestR1:
    def test_every_edge_discharged(self, petersen):
        g, tf, sel, con = petersen_setup(petersen)
        ledger = initial_ledger(con)
        apply_r0(ledger, con)
        apply_r1(ledger, con)
        assert all(t == 0 for t in ledger.edge_tenths)

    def test_petersen_nonadjacent_other_cycle_gets_nothing(self, petersen):
        # both medium spokes see only one adjacent colour-3 edge, so the
        # whole unit lands on that side
        g, tf, sel, con = petersen_setup(petersen)
        ledger = run_discharging(con)
        r1 = [t for t in ledger.log if t.rule == "R1"]
        assert sorted(t.tenths for t in r1) == [10, 10]

    def test_even_side_gets_half(self):
        g, tf, sel, con = constructed(r3_pair())
        ledger = run_discharging(con)
        even_cycle = next(
            c for c in range(len(tf.cycles)) if len(tf.cycles[c]) % 2 == 0
        )
        halves = [
            t for t in ledger.log
            if t.rule == "R1" and t.tenths == 5 and t.target == even_cycle
        ]
        assert halves  # the mediums flanking each colour-3 edge split evenly

    def test_both_odd_adjacent_split(self):
        # the designated medium selected edge joins two degree-2 cycles
        # whose colour-3 edges both touch it
        g, tf, sel, con = constructed(odd_triangle_component())
        classes = classify_all(g, con.colouring)
        medium_sel = [e for e in sel if classes[e] == MEDIUM]
        assert len(medium_sel) == 1
        ledger = run_discharging(con)
        splits = [
            t for t in ledger.log
            if t.rule == "R1" and t.source == ("edge", medium_sel[0])
        ]
        assert sorted(t.tenths for t in splits) == [5, 5]

    def test_chord_sends_whole_unit_to_its_cycle(self):
        g, tf, sel, con = constructed(medium_chord())
        classes = classify_all(g, con.colouring)
        assert classes[0] == MEDIUM  # the chord, edge id 0
        chord_cycle = tf.cycle_of_vertex[0]
        ledger = run_discharging(con)
        chord_moves = [t for t in ledger.log if t.source == ("edge", 0)]
        assert chord_moves == [t for t in chord_moves if t.rule == "R1"]
        assert len(chord_moves) == 1
        assert chord_moves[0].target == chord_cycle
        assert chord_moves[0].tenths == 10


    def test_the_record_names_the_colour_3_edges(self, petersen):
        # R1 reads each odd cycle's colour-3 edge from the record, so the
        # structural check holds the record to the colouring
        g, tf, sel, con = petersen_setup(petersen)
        c = tf.odd_cycles()[0]
        other = next(e for e in tf.cycle_edges[c] if e != con.three_edges[c])
        stale = dataclasses.replace(con, three_edges={**con.three_edges, c: other})
        with pytest.raises(ColouringError, match=f"^constructed colouring violates: cycle {c}: colour-3 edges"):
            run_discharging(stale)

    def test_colour_3_on_a_matching_edge_is_off_the_odd_cycles(self, petersen):
        # a matching edge lies on no cycle, though both its ends lie on odd ones
        g, tf, sel, con = petersen_setup(petersen)
        e = min(tf.matching)
        cols = list(con.colouring.colour_of)
        cols[e] = 3
        bad = dataclasses.replace(con, colouring=EdgeColouring(4, tuple(cols)))
        assert f"edge {e}: colour 3 off the odd cycles" in bullet_violations(bad, frozenset())


class TestR2R3R4:
    def test_petersen_fires_none(self, petersen):
        # each candidate target is the sending cycle itself (degree 1), so
        # every guard fails
        g, tf, sel, con = petersen_setup(petersen)
        ledger = run_discharging(con)
        assert [t for t in ledger.log if t.rule in ("R2", "R3", "R4")] == []

    def test_r2_degree_zero_five_cycle_sends_five_fifths(self):
        g, tf, sel, con = constructed(odd_triangle_component())
        ledger = run_discharging(con)
        r2 = [t for t in ledger.log if t.rule == "R2"]
        deg0 = [
            c for c in tf.odd_cycles()
            if selection_degrees(tf, sel)[c] == 0 and tf.cycle_length(c) == 5
        ]
        assert len(deg0) == 1
        assert all(t.source == ("cycle", deg0[0]) and t.tenths == 2 for t in r2)
        assert len(r2) == 5

    def test_r3_fires_into_even_cycle(self):
        g, tf, sel, con = constructed(r3_pair())
        ledger = run_discharging(con)
        r3 = [t for t in ledger.log if t.rule == "R3"]
        even_cycle = next(
            c for c in range(len(tf.cycles)) if len(tf.cycles[c]) % 2 == 0
        )
        # both degree-1 five-cycles send through both attachment neighbours
        assert len(r3) == 4
        assert all(t.target == even_cycle and t.tenths == 2 for t in r3)

    def test_r4_fires_exactly_once_into_degree_two_cycle(self):
        g, tf, sel, con = constructed(r4_chain())
        ledger = run_discharging(con)
        r4 = [t for t in ledger.log if t.rule == "R4"]
        assert len(r4) == 1
        (move,) = r4
        w_cycle = tf.cycle_of_vertex[10]
        c_cycle = tf.cycle_of_vertex[0]
        assert move.source == ("cycle", c_cycle)
        assert move.target == w_cycle
        assert selection_degrees(tf, sel)[w_cycle] == 2

    def test_r3_skips_a_partner_one_step_from_the_attachment(self):
        g, mids = r4_chain_adjacent()
        tf = two_factor_of(g, mids)
        assert find_optimal_selection(tf) == {0, 1, 2}
        con = construct_colouring(tf, frozenset({0, 1}))
        ledger = run_discharging(con)
        c, d, e = (tf.cycle_of_vertex[x] for x in (0, 5, 20))
        # each of C and D sends only through its neighbour matched into E
        assert [(t.rule, t.source, t.target) for t in ledger.log if t.rule in ("R3", "R4")] == [
            ("R3", ("cycle", c), e), ("R3", ("cycle", d), e),
        ]
        assert run_audit(con).passed

    def test_guards_are_pure(self):
        g, tf, sel, con = constructed(r4_chain())
        first = run_discharging(con).log
        second = run_discharging(con).log
        assert first == second


class TestRuleGuards:
    """The rules refuse what the construction is supposed to exclude."""

    def test_an_edge_cannot_send_more_than_it_holds(self, petersen):
        g, tf, sel, con = petersen_setup(petersen)
        ledger = initial_ledger(con)
        e = min(ledger.medium_edges)
        assert ledger.edge_tenths[e] == 10
        with pytest.raises(DischargingError, match=f"^edge {e} cannot send 20 tenths$"):
            ledger.apply("R0", [(("edge", e), 0, 20)])

    def test_r1_refuses_a_medium_matching_edge_off_the_colour_3_edges(self):
        # in the witness, matching edge 3 = (3, 12) joins the 5-cycle A,
        # whose colour-3 edge is (0, 1), to the even 8-cycle
        g, tf, sel, con = constructed(r3_pair())
        assert g.edges[3] == (3, 12) and g.edges[con.three_edges[tf.cycle_of_vertex[0]]] == (0, 1)
        ledger = initial_ledger(con)
        ledger.medium_edges = frozenset({3})
        with pytest.raises(DischargingError, match="^medium matching edge 3 is adjacent to no colour-3 edge$"):
            apply_r1(ledger, con)


class TestAudit:
    @pytest.mark.parametrize(
        "factory",
        [
            odd_triangle_component,
            r3_pair,
            r4_chain,
            medium_chord,
            even_square_component,
            odd_pentagon_ring,
            long_pair,
        ],
        ids=[
            "odd-triangle",
            "r3-pair",
            "r4-chain",
            "medium-chord",
            "even-square",
            "pentagon-ring",
            "long-pair",
        ],
    )
    def test_witnesses_pass(self, factory):
        g, tf, sel, con = constructed(factory())
        report = run_audit(con)
        assert report.passed, [chk for chk in report.checks if not chk.ok]

    def test_long_pair_fires_no_fanout_rules(self):
        # degree-1 cycles of length 7: only R0/R1 apply
        g, tf, sel, con = constructed(long_pair())
        ledger = run_discharging(con)
        assert [t for t in ledger.log if t.rule in ("R2", "R3", "R4")] == []

    def test_pentagon_ring_inequality(self):
        g, tf, sel, con = constructed(odd_pentagon_ring())
        report = run_audit(con)
        chk = next(c for c in report.checks if c.name.startswith("odd-quotient"))
        # five 5-cycles: 5 + 13*5 = 70 < 75
        assert chk.ok and "70 < 75" in chk.detail

    def test_petersen_total_is_eight(self, petersen):
        g, tf, sel, con = petersen_setup(petersen)
        ledger = run_discharging(con)
        assert ledger.total_tenths() == 80
        report = audit(ledger, con)
        assert report.passed

    def test_odd_quotient_inequality_instantiated(self):
        g, tf, sel, con = constructed(odd_triangle_component())
        report = run_audit(con)
        names = [c.name for c in report.checks]
        assert any(n.startswith("odd-quotient") for n in names)
        # three 5-cycles: 5 + 13*3 = 44 < 45 holds with margin exactly 1
        chk = next(c for c in report.checks if c.name.startswith("odd-quotient"))
        assert chk.ok and "44 < 45" in chk.detail

    def test_tampered_ledger_fails(self, petersen):
        g, tf, sel, con = petersen_setup(petersen)
        ledger = run_discharging(con)
        ledger.cycle_tenths[0] += 10  # break conservation after the fact
        report = audit(ledger, con)
        assert not report.passed
        assert not all(chk.ok for chk in report.checks)

    def test_conservation_at_the_end_of_every_rule(self):
        g, tf, sel, con = constructed(r4_chain())
        ledger = run_discharging(con)
        total = 10 * len(ledger.medium_edges)
        assert ledger.rule_totals == {rule: total for rule in RULES}
        # after R1 every edge is discharged, so the cycles hold the whole total
        assert len(ledger.cycles_after_r1) == len(tf.cycles)
        assert sum(ledger.cycles_after_r1) == total

    def test_exactness_no_floats(self, petersen):
        g, tf, sel, con = petersen_setup(petersen)
        ledger = run_discharging(con)
        assert all(isinstance(t, int) for t in ledger.edge_tenths)
        assert all(isinstance(t, int) for t in ledger.cycle_tenths)
        assert all(isinstance(t.tenths, int) for t in ledger.log)

    def test_every_two_factor_of_the_triangle_free_corpus(self):
        # the audit is the selection's only certificate: the charge bounds
        # must hold for the greedy selection of any 2-factor, not just the
        # pipeline's preferred one
        from nearnormal.corpus import load_cubic_corpus
        from nearnormal.factor import enumerate_perfect_matchings
        from nearnormal.graph import _pairs_and_triangles

        audited = 0
        for n in (6, 8, 10, 12, 14):
            for g in load_cubic_corpus(n):
                if any(_pairs_and_triangles(g)):
                    continue
                for m in enumerate_perfect_matchings(g):
                    tf = two_factor_from_matching(g, m)
                    sel = find_optimal_selection(tf)
                    report = run_audit(construct_colouring(tf, sel))
                    assert report.passed, (n, sorted(m), [chk for chk in report.checks if not chk.ok])
                    audited += 1
        assert audited == 2313


def failed(report) -> set[str]:
    assert report.passed is False
    return {chk.name for chk in report.checks if not chk.ok}


class TestSeededFailures:
    """A tampered ledger or construction fails the audit, and the failed
    bound is named on its own next to its family's check.  The witness fires
    every rule, so the log holds transfers of R0-R4."""

    @pytest.fixture
    def setup(self):
        g, tf, sel, con = constructed(r4_chain())
        ledger = run_discharging(con)
        assert {t.rule for t in ledger.log} == set(RULES)
        return tf, con, ledger

    def test_every_family_reports_once_and_names_its_tightest_bound(self, setup):
        tf, con, ledger = setup
        report = audit(ledger, con)
        assert report.passed
        assert [chk.name for chk in report.checks] == [
            *(f"conservation:{rule}" for rule in RULES), "log-replay", "edges-zero-after-R1",
            "post-R1", "component", "odd-quotient", "global-bound",
        ]
        details = {chk.name: chk.detail for chk in report.checks}
        assert details["post-R1"] == f"{len(tf.cycles)} of {len(tf.cycles)} held; tightest post-R1:cycle0: tenths 40 <= 40"
        assert details["odd-quotient"] == "0 of 0 held"

    def test_a_post_r1_charge_over_its_cap(self, setup):
        tf, con, ledger = setup
        c = tf.odd_cycles()[0]
        cap = _post_r1_cap(con, c)
        after = list(ledger.cycles_after_r1)
        after[c] = cap + 1
        ledger.cycles_after_r1 = tuple(after)
        report = audit(ledger, con)
        # the replay no longer reproduces the recorded charges either
        assert failed(report) == {"post-R1", f"post-R1:cycle{c}", "log-replay"}
        assert f"post-R1:cycle{c}: tenths {cap + 1} <= {cap}" in {f"{chk.name}: {chk.detail}" for chk in report.checks}

    @pytest.mark.parametrize("length, over", [(5, 1), (14, 0)], ids=["over", "at-a-strict-bound"])
    def test_a_component_over_four_fifths_per_vertex(self, setup, length, over):
        # the bound is strict on a component with a cycle of length other
        # than 5, so the lone 14-cycle fails at exactly 4/5 per vertex
        tf, con, ledger = setup
        (target,) = next(
            comp.cycles for comp in con.components
            if len(comp.cycles) == 1 and tf.cycle_length(min(comp.cycles)) == length
        )
        room = 8 * length - ledger.cycle_tenths[target]
        source = next(c for c in range(len(tf.cycles)) if c != target)
        # a transfer logged under R4 keeps the log, the totals and the
        # post-R1 charges consistent: only the component bound breaks
        ledger.apply("R4", [(("cycle", source), target, room + over)])
        assert failed(audit(ledger, con)) == {"component", f"component:{target}"}

    def test_a_component_at_exactly_four_fifths_of_five_cycles_passes(self, setup):
        tf, con, ledger = setup
        (target,) = next(comp.cycles for comp in con.components if len(comp.cycles) == 1)
        assert tf.cycle_length(target) == 5
        source = next(c for c in range(len(tf.cycles)) if c != target)
        ledger.apply("R4", [(("cycle", source), target, 40 - ledger.cycle_tenths[target])])
        report = audit(ledger, con)
        assert report.passed
        details = {chk.name: chk.detail for chk in report.checks}
        assert details["component"] == (
            f"{len(con.components)} of {len(con.components)} held; "
            f"tightest component:{target}: charge 40 <= 40 tenths over cycles [{target}]"
        )

    @pytest.mark.parametrize("rule", RULES)
    def test_a_changed_total_at_the_end_of_a_rule(self, setup, rule):
        tf, con, ledger = setup
        ledger.rule_totals[rule] += 10
        assert failed(audit(ledger, con)) == {f"conservation:{rule}"}

    def test_a_rule_that_never_closed(self, setup):
        tf, con, ledger = setup
        del ledger.rule_totals["R3"]
        report = audit(ledger, con)
        assert failed(report) == {"conservation:R3"}
        assert dict((chk.name, chk.detail) for chk in report.checks)["conservation:R3"] == "rule never applied"

    def test_a_dropped_log_entry(self, setup):
        tf, con, ledger = setup
        del ledger.log[-1]
        assert failed(audit(ledger, con)) == {"log-replay"}

    def test_a_changed_transfer(self, setup):
        tf, con, ledger = setup
        ledger.log[0] = ledger.log[0]._replace(tenths=ledger.log[0].tenths - 1)
        assert failed(audit(ledger, con)) == {"log-replay"}

    def test_a_log_out_of_rule_order(self, setup):
        tf, con, ledger = setup
        first_r1 = next(i for i, t in enumerate(ledger.log) if t.rule == "R1")
        ledger.log[first_r1 - 1], ledger.log[first_r1] = ledger.log[first_r1], ledger.log[first_r1 - 1]
        assert failed(audit(ledger, con)) == {"log-replay"}

    def test_an_edge_giving_charge_under_r2(self, setup):
        # the last R1 transfer is logged under R2 and the recorded post-R1
        # charges are lowered to match: the replay reproduces every recorded
        # charge, but an edge then held charge after R1
        tf, con, ledger = setup
        i = max(i for i, t in enumerate(ledger.log) if t.rule == "R1")
        tr = ledger.log[i]
        assert tr.source[0] == "edge" and ledger.log[i + 1].rule == "R2"
        ledger.log[i] = tr._replace(rule="R2")
        after = list(ledger.cycles_after_r1)
        after[tr.target] -= tr.tenths
        ledger.cycles_after_r1 = tuple(after)
        assert failed(audit(ledger, con)) == {"log-replay"}

    def test_an_odd_quotient_that_breaks_the_inequality(self, setup):
        # the inequality holds on every real odd quotient (t >= 3 cycles),
        # so a one-cycle component on a 5-cycle is relabelled a quotient
        # cycle: 5 + 13 = 18 < 15 fails
        tf, con, ledger = setup
        i, comp = next(
            (i, comp) for i, comp in enumerate(con.components)
            if len(comp.cycles) == 1 and tf.cycle_length(min(comp.cycles)) == 5
        )
        comps = list(con.components)
        comps[i] = dataclasses.replace(comp, shape=CYCLE)
        report = audit(ledger, dataclasses.replace(con, components=tuple(comps)))
        c = min(comp.cycles)
        assert failed(report) == {"odd-quotient", f"odd-quotient:{c}"}
        assert dict((chk.name, chk.detail) for chk in report.checks)[f"odd-quotient:{c}"] == "5 + 13*1 = 18 < 15"


def test_the_audit_reports_as_many_checks_at_n_10008_as_on_petersen(petersen):
    # at the parent of the family checks this audit listed 1,754 checks
    big = colour_graph(bench_families.petersen_inflation(1112, seed=1112))[1]
    small = colour_graph(petersen)[1]
    assert big.n == 10008 and big.base_branch == "constructed"
    assert big.audit.passed and big.audit_failures == ()
    assert len(big.audit.checks) == len(small.audit.checks) == 11


class TestDegreesFollowTheSet:
    """The post-R1 caps and the R2-R4 guards read each cycle's selection
    degree off the validated edge set.  Here the degree k is counted from
    the set's edge ends, for the greedy and the exact selection of every
    triangle-free corpus 2-factor with odd cycles, and of the witnesses
    (the corpus has no degree-0 odd cycle, and fires neither R2 nor R4)."""

    WITNESSES = (odd_triangle_component, r3_pair, r4_chain, medium_chord,
                 even_square_component, odd_pentagon_ring, long_pair)

    @staticmethod
    def two_factors():
        from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus
        from nearnormal.factor import enumerate_perfect_matchings
        from nearnormal.graph import _pairs_and_triangles

        for n in CORPUS_ORDERS:
            for g in load_cubic_corpus(n):
                if any(_pairs_and_triangles(g)):
                    continue
                for m in enumerate_perfect_matchings(g):
                    tf = two_factor_from_matching(g, m)
                    if tf.odd_cycles():
                        yield tf
        for witness in TestDegreesFollowTheSet.WITNESSES:
            yield two_factor_of(*witness())

    def test_caps_and_guards(self):
        import reference_selection

        checked = 0
        fired = {"R2": 0, "R3": 0, "R4": 0}
        for tf in self.two_factors():
            for sel in (find_optimal_selection(tf), reference_selection.find_optimal_selection(tf)):
                k = selection_degrees(tf, sel)
                con = construct_colouring(tf, sel)
                ledger = run_discharging(con)
                assert audit(ledger, con).passed
                for c in tf.odd_cycles():
                    assert _post_r1_cap(con, c) == (50, 40, 35)[k[c]]
                senders = {rule: set() for rule in fired}
                for t in ledger.log:
                    if t.rule in senders:
                        senders[t.rule].add(t.source[1])
                        fired[t.rule] += 1
                five = [c for c in range(len(tf.cycles)) if tf.cycle_length(c) == 5]
                assert senders["R2"] == {c for c in five if k[c] == 0}
                assert senders["R3"] | senders["R4"] <= {c for c in five if k[c] == 1}
                checked += 1
        assert checked == 2 * (292 + len(self.WITNESSES))
        assert all(fired.values()), fired


MOVE_LOG = "9d81955cb28acaf10e48163561a0df45b64532f1779832a6fa137bc5cbd926a9"


def test_every_move_of_every_rule_is_pinned(petersen):
    """The report digest covers the audit's checks, not the log: this hashes
    each move's rule, source, target and tenths, in log order, on the
    witnesses, Petersen and a 360-vertex Petersen inflation."""
    from nearnormal.factor import choose_two_factor
    from nearnormal.reductions import reduce_fully

    cons = [constructed(witness())[3] for witness in TestDegreesFollowTheSet.WITNESSES]
    for g in (petersen, bench_families.petersen_inflation(40, seed=40)):
        tf = choose_two_factor(reduce_fully(g)[0])
        cons.append(construct_colouring(tf, find_optimal_selection(tf)))
    assert cons[-1].two_factor.graph.n == 360
    digest = hashlib.sha256()
    for con in cons:
        log = run_discharging(con).log
        digest.update(repr([(t.rule, t.source, t.target, t.tenths) for t in log]).encode())
    assert digest.hexdigest() == MOVE_LOG
