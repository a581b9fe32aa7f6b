"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Everything here is exact integer arithmetic; there are
no tolerances to tune.
"""

from __future__ import annotations

import time

import pytest

from nearnormal.colouring import (
    RICH,
    bullet_violations,
    classify_all,
    construct_colouring,
    fact_one_violations,
    try_3_edge_colouring,
)
from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus, petersen_graph
from nearnormal.discharging import initial_ledger, run_audit
from nearnormal.factor import choose_two_factor
from nearnormal.oracle import exists_normal, min_medium_exact
from nearnormal.petersen import (
    NEITHER,
    classify_petersen_colouring,
    normal_to_petersen,
    petersen_colouring_violation,
    petersen_to_normal,
)
from nearnormal.pipeline import colour_graph
from nearnormal.reductions import MULTI_EDGE, lift, reduce_fully
from nearnormal.selection import find_optimal_selection
from reference_reductions import aligned_steps
from witnesses import (
    even_square_component,
    long_pair,
    medium_chord,
    odd_pentagon_ring,
    odd_triangle_component,
    r3_pair,
    r4_chain,
    two_factor_of,
)


def _report(criterion: int, ok: bool, message: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {message}")
    assert ok, message


@pytest.fixture(scope="module")
def corpus_run():
    """Pipeline results for the whole bridgeless corpus, n in 4..14."""
    results = {}
    for n in CORPUS_ORDERS:
        results[n] = [
            (g, colour_graph(g, name=f"n{n}#{i}")[1])
            for i, g in enumerate(load_cubic_corpus(n))
        ]
    return results


@pytest.fixture(scope="module")
def constructed_instances(corpus_run):
    """(name, construction) for every corpus graph whose pipeline reaches
    the construction branch, plus the hand-built witnesses that reach
    branches the corpus cannot."""
    instances = []
    for n, rows in corpus_run.items():
        for g, report in rows:
            if report.base_branch != "constructed":
                continue
            base, _records, _ids = reduce_fully(g)
            tf = choose_two_factor(base)
            sel = find_optimal_selection(tf)
            instances.append((f"{report.name}(base)", construct_colouring(tf, sel)))
    for factory in (
        odd_triangle_component,
        r3_pair,
        r4_chain,
        medium_chord,
        even_square_component,
        odd_pentagon_ring,
        long_pair,
    ):
        g, mids = factory()
        tf = two_factor_of(g, mids)
        sel = find_optimal_selection(tf)
        instances.append((factory.__name__, construct_colouring(tf, sel)))
    return instances


def test_criterion_1_petersen_tightness():
    start = time.time()
    g = petersen_graph()
    _colouring, report = colour_graph(g)
    minimum, _witness = min_medium_exact(g, 4)
    elapsed = time.time() - start
    _report(
        1,
        report.medium == 8 and minimum == 8 and elapsed < 10,
        f"construction gives {report.medium} medium edges, oracle minimum "
        f"{minimum}, in {elapsed:.2f}s",
    )


def test_criterion_2_bound_exhaustive_desk_scale(corpus_run):
    start = time.time()
    total = 0
    tight = []
    for n, rows in corpus_run.items():
        for g, report in rows:
            total += 1
            assert 5 * report.medium <= 4 * n, report.name
            if report.is_petersen:
                tight.append(report.name)
            else:
                assert 5 * report.medium < 4 * n, (
                    f"{report.name}: bound tight on a non-Petersen graph"
                )
    elapsed = time.time() - start
    _report(
        2,
        total == sum(len(rows) for rows in corpus_run.values()) and len(tight) == 1,
        f"medium <= 4n/5 on all {total} bridgeless graphs with n in "
        f"{list(CORPUS_ORDERS)}, strict except on the Petersen graph "
        f"({tight}), checked in {elapsed:.1f}s",
    )


def test_criterion_3_discharging_audit(constructed_instances):
    failures = []
    for name, con in constructed_instances:
        report = run_audit(con)
        if not report.passed:
            failures.append((name, [chk for chk in report.checks if not chk.ok]))
    _report(
        3,
        not failures,
        f"all ledger assertions hold on {len(constructed_instances)} "
        f"constructed instances (conservation, zero edge charge after R1, "
        f"post-R1 caps 5/4/7-halves, per-component 4/5 bound, 5+13t "
        f"inequality); failures: {failures}",
    )


def test_criterion_4_fact_one_replay(constructed_instances):
    failures = []
    for name, con in constructed_instances:
        problems = fact_one_violations(con.two_factor, initial_ledger(con).medium_edges)
        if problems:
            failures.append((name, problems))
    _report(
        4,
        not failures,
        f"0 medium cycle edges on even cycles and exactly 3 on odd cycles "
        f"across {len(constructed_instances)} constructed colourings; "
        f"failures: {failures}",
    )


def test_criterion_5_five_bullet_audit(constructed_instances):
    failures = []
    for name, con in constructed_instances:
        problems = bullet_violations(con, initial_ledger(con).medium_edges)
        if problems:
            failures.append((name, problems))
    _report(
        5,
        not failures,
        f"matching = colour 4, one colour-3 edge per odd cycle, selected "
        f"edges flanked by two colour-3 edges, odd-quotient medium "
        f"uniqueness, on {len(constructed_instances)} instances; "
        f"failures: {failures}",
    )


# --- criterion 6: reduction monotonicity by local-configuration enumeration


def _proper_local_patterns(g, local_ids):
    ids = sorted(set(local_ids))
    clash = {e: set() for e in ids}
    for i, e in enumerate(ids):
        for f in ids[i + 1:]:
            if set(g.endpoints(e)) & set(g.endpoints(f)):
                clash[e].add(f)
                clash[f].add(e)
    out = []
    assign: dict[int, int] = {}

    def rec(i):
        if i == len(ids):
            out.append(dict(assign))
            return
        e = ids[i]
        for col in range(1, 5):
            if all(assign.get(f) != col for f in clash[e]):
                assign[e] = col
                rec(i + 1)
                del assign[e]

    rec(0)
    return out


def _local_signature(g, role_ordered_ids):
    vmap: dict[int, int] = {}
    desc = []
    for e in role_ordered_ids:
        pair = []
        for v in g.endpoints(e):
            if v not in vmap:
                vmap[v] = len(vmap)
            pair.append(vmap[v])
        desc.append(tuple(sorted(pair)))
    return tuple(desc)


def _is_medium(lookup, nbr_ids):
    return len({lookup[x] for x in nbr_ids}) == 3


def _multi_edge_locals(rec) -> list[int]:
    """[new edge, anchor pair, far-side pair] in role order (duplicates kept
    when an extra parallel edge makes an anchor double as a far-side edge)."""
    gp = rec.reduced
    anchors = list(rec.anchor_edges)
    shared_u1 = (
        set(gp.endpoints(anchors[0]))
        & set(gp.endpoints(anchors[1]))
        & set(gp.endpoints(rec.new_edge))
    )
    u1r = min(shared_u1)
    u2r = gp.other_end(rec.new_edge, u1r)
    u2_edges = [e for e in gp.incident_edges(u2r) if e != rec.new_edge]
    return [rec.new_edge, *anchors, *u2_edges]


def _triangle_locals(rec) -> list[int]:
    """[the three star edges, then the outside vertices' other edges]."""
    gp = rec.reduced
    x_candidates = set(gp.endpoints(rec.x_edges[0]))
    for xe in rec.x_edges[1:]:
        x_candidates &= set(gp.endpoints(xe))
    x = min(x_candidates)  # two candidates only for the triple-edge target
    outers = []
    for xe in rec.x_edges:
        u = gp.other_end(xe, x)
        outers.extend(e for e in gp.incident_edges(u) if e not in rec.x_edges)
    return list(rec.x_edges) + sorted(set(outers))


def _production_lift(step, pattern):
    """Colours of the original graph's edges (reference ids) after the
    production ``lift`` of a local pattern on the reduced graph.

    Edges outside the pattern stay 0, a value no colour takes.  The lift's
    own check never reads them: it classifies the removed and the new
    edges, whose neighbours all lie in the pattern.  They are left out of
    the result."""
    _old, rec, before, after = step
    colours = [0] * (after[-1] + 1)
    for e, col in pattern.items():
        colours[after[e]] = col
    lift(rec, colours)
    return {e: colours[w] for e, w in enumerate(before) if colours[w]}


def _check_multi_edge_record(step) -> int:
    rec = step[0]
    gp, g = rec.reduced, rec.original
    local = _multi_edge_locals(rec)
    removed_nbhd = {x for w in gp.edges[rec.new_edge] for x in gp.incident_edges(w) if x != rec.new_edge}
    assert removed_nbhd <= set(local)
    new_in_g = [rec.spokes[0], rec.spokes[1], rec.pair[0], rec.pair[1]]
    new_nbhds = [{x for w in g.edges[e] for x in g.incident_edges(w) if x != e} for e in new_in_g]
    checked = 0
    for pattern in _proper_local_patterns(gp, local):
        lookup = _production_lift(step, pattern)
        removed_medium = _is_medium(pattern, removed_nbhd)
        new_medium = 0
        for nb in new_nbhds:
            assert all(x in lookup for x in nb)
            if _is_medium(lookup, nb):
                new_medium += 1
        assert new_medium <= (1 if removed_medium else 0), (
            f"multi-edge lift raised the local medium count: {pattern}"
        )
        checked += 1
    return checked


def _check_triangle_record(step) -> int:
    rec = step[0]
    gp, g = rec.reduced, rec.original
    x_edges = list(rec.x_edges)
    local = _triangle_locals(rec)
    x_nbhds = [{x for w in gp.edges[xe] for x in gp.incident_edges(w) if x != xe} for xe in x_edges]
    assert all(nb <= set(local) for nb in x_nbhds)
    spoke_nbhds = [{x for w in g.edges[e] for x in g.incident_edges(w) if x != e} for e in rec.spokes]
    triangle_nbhds = [{x for w in g.edges[e] for x in g.incident_edges(w) if x != e} for e in rec.triangle_edges]
    checked = 0
    for pattern in _proper_local_patterns(gp, local):
        lookup = _production_lift(step, pattern)
        removed_medium = 0
        removed_classes = []
        for nb in x_nbhds:
            cols = frozenset(pattern[e] for e in nb)
            removed_classes.append(cols)
            if len(cols) == 3:
                removed_medium += 1
        new_medium = 0
        for i, nb in enumerate(spoke_nbhds):
            assert all(e in lookup for e in nb)
            cols = frozenset(lookup[e] for e in nb)
            # the spoke inherits the star edge's neighbourhood colour set
            assert cols == removed_classes[i]
            if len(cols) == 3:
                new_medium += 1
        for nb in triangle_nbhds:
            assert all(e in lookup for e in nb)
            if _is_medium(lookup, nb):
                new_medium += 1
        assert new_medium <= removed_medium, (
            f"triangle lift raised the local medium count: {pattern}"
        )
        checked += 1
    return checked


def test_criterion_6_reduction_monotonicity():
    from nearnormal.graph import build_graph

    # each step pairs the reference's whole graphs with the production
    # record; aligned_steps asserts that the two reducers agree
    steps = []
    for n in (4, 6, 8, 10, 12):
        for g in load_cubic_corpus(n):
            steps.extend(aligned_steps(g)[2])
    double_double = build_graph(
        4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)]
    )
    steps.extend(aligned_steps(double_double)[2])

    seen_signatures = set()
    patterns_checked = 0
    sites = 0
    for step in steps:
        rec = step[0]
        if rec.kind == MULTI_EDGE:
            role_order = _multi_edge_locals(rec)
        else:
            role_order = _triangle_locals(rec)
        sig = (rec.kind, _local_signature(rec.reduced, role_order))
        if sig in seen_signatures:
            continue
        seen_signatures.add(sig)
        sites += 1
        if rec.kind == MULTI_EDGE:
            patterns_checked += _check_multi_edge_record(step)
        else:
            patterns_checked += _check_triangle_record(step)
    _report(
        6,
        sites > 0 and patterns_checked > 0,
        f"lifting never increases the medium count: {len(steps)} reachable "
        f"rewrite sites, {sites} distinct local configurations, "
        f"{patterns_checked} proper local colour patterns enumerated",
    )


def test_criterion_7_normal_petersen_roundtrip():
    graphs = []
    for n in (4, 6, 8, 10):
        graphs.extend(load_cubic_corpus(n))
    outcomes = {"trivial": 0, "surjective": 0}
    for g in graphs:
        witness = exists_normal(g, 5)
        assert witness is not None, "normal 5-colouring missing (refutes conjecture?)"
        pc = normal_to_petersen(g, witness)
        assert petersen_colouring_violation(g, pc) is None
        back = petersen_to_normal(g, pc)
        assert back.colour_of == witness.colour_of
        kind = classify_petersen_colouring(pc).kind
        assert kind != NEITHER
        outcomes[kind] += 1
    _report(
        7,
        sum(outcomes.values()) == len(graphs),
        f"round trip exact on all {len(graphs)} bridgeless graphs with "
        f"n <= 10; classifications: {outcomes} (never neither)",
    )


def test_criterion_8_oracle_sanity(corpus_run):
    checked = 0
    for n in (4, 6, 8, 10, 12):
        for g, report in corpus_run[n]:
            minimum, _ = min_medium_exact(g, 4)
            assert minimum <= report.medium, report.name
            checked += 1
    zero_checked = 0
    for n in (4, 6, 8, 10):
        for g in load_cubic_corpus(n):
            if try_3_edge_colouring(g) is None:
                continue
            for k in (3, 4, 5, 6):
                assert min_medium_exact(g, k)[0] == 0
                zero_checked += 1
    g = petersen_graph()
    strong = exists_normal(g, 5)
    all_rich = strong is not None and set(classify_all(g, strong)) == {RICH}
    _report(
        8,
        all_rich,
        f"oracle minimum <= pipeline count on {checked} graphs (n <= 12); "
        f"3-colourable graphs give 0 at every palette ({zero_checked} runs); "
        f"the Petersen normal 5-colouring is all-rich (strong)",
    )
