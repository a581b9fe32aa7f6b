from __future__ import annotations

import dataclasses
import functools
import json
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bench_families
from nearnormal import factor, graph, pipeline, reductions
from nearnormal.colouring import (
    ColouringError,
    EdgeColouring,
    _colour_counts,
    medium_count,
    solve_path_phases,
)
from nearnormal.corpus import (
    CORPUS_ORDERS,
    complete_graph_k4,
    k33,
    load_cubic_corpus,
    petersen_graph,
    prism,
    triple_edge,
)
from nearnormal.graph import GraphError, build_graph, validate_input
from nearnormal.petersen import is_petersen_graph
from nearnormal.pipeline import InvalidInput, colour_graph
from nearnormal.reductions import reduce_fully
from nearnormal.selection import PATH, _attachments, s_components
from reference_classify import is_proper
from test_factor import LEMMA_GRAPHS, disjoint_union, dumbbell
from test_reductions import insert_digon, truncate


def expand_vertex_to_triangle(g, v):
    """Replace vertex v by a triangle, one former edge per corner."""
    n = g.n
    corners = [v, n, n + 1]
    edges = []
    hit = 0
    for u, w in g.edges:
        if v in (u, w):
            other = w if u == v else u
            edges.append((corners[hit], other))
            hit += 1
        else:
            edges.append((u, w))
    assert hit == 3
    edges += [(corners[0], corners[1]), (corners[1], corners[2]), (corners[2], corners[0])]
    return build_graph(n + 2, edges)


def generalized_petersen(k, s):
    """GP(k, s), spokes first: edges 0..k-1 are a perfect matching whose
    complement is the outer k-cycle and, when gcd(k, s) = 1, one inner one."""
    spokes = [(i, k + i) for i in range(k)]
    return build_graph(2 * k, spokes + [(i, (i + 1) % k) for i in range(k)]
                       + [(k + i, k + (i + s) % k) for i in range(k)])


class TestColourGraph:
    def test_petersen_tight(self, petersen):
        colouring, report = colour_graph(petersen)
        assert is_proper(petersen, colouring)
        assert report.medium == 8 and report.bound_tight and report.is_petersen
        assert report.branch == "constructed"
        assert report.audit_passed is True

    def test_k4_all_poor(self, k4):
        _colouring, report = colour_graph(k4)
        assert report.medium == 0
        assert report.branch == "reduced"
        assert report.base_branch == "3-colourable"

    def test_triple_edge_base_case(self, triple):
        _colouring, report = colour_graph(triple)
        assert report.medium == 0 and report.n == 2

    def test_prism_past_the_recursion_limit(self):
        g = prism(340)  # m = 1020
        colouring, report = colour_graph(g)
        assert is_proper(g, colouring)
        assert report.branch == "3-colourable"
        assert report.bound_ok and not report.bound_tight

    def test_expanded_petersen_reduces_and_lifts(self, petersen):
        g12 = expand_vertex_to_triangle(petersen, 0)
        colouring, report = colour_graph(g12)
        assert report.branch == "reduced"
        assert report.reductions == ("triangle",)
        assert report.base_branch == "constructed"
        assert report.base_order == 10
        assert report.medium == 8  # lift adds only poor edges here
        assert not report.bound_tight  # 8 < 4/5 * 12
        assert report.audit_passed is True
        assert medium_count(g12, colouring) == 8

    def test_double_expansion_chains_two_reductions(self, petersen):
        g14 = expand_vertex_to_triangle(
            expand_vertex_to_triangle(petersen, 0), 5
        )
        _colouring, report = colour_graph(g14)
        assert report.reductions == ("triangle", "triangle")
        assert report.base_order == 10
        assert 5 * report.medium < 4 * 14

    def test_fourfold_truncation_of_petersen(self, petersen):
        g = petersen
        for _ in range(4):
            for v in range(g.n):
                g = expand_vertex_to_triangle(g, v)
        assert g.n == 810
        colouring, report = colour_graph(g)
        assert is_proper(g, colouring)
        assert report.bound_ok and not report.bound_tight
        base, records, _ids = reduce_fully(g)
        _c, base_report = colour_graph(base)
        assert len(report.reductions) == len(records) == (g.n - base.n) // 2
        # the lifts through all the reductions add no medium edge
        assert report.medium <= base_report.medium
        assert medium_count(g, colouring) == report.medium

    def test_invalid_input_rejected(self):
        g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(GraphError, match="cubic"):
            colour_graph(g)

    def test_counts_are_consistent(self, petersen):
        _colouring, report = colour_graph(petersen)
        assert report.poor + report.medium + report.rich == report.m

    def test_colours_cover_every_edge(self, petersen):
        colouring, report = colour_graph(petersen)
        assert len(report.colours) == petersen.m
        assert report.colours == colouring.colour_of


class TestReportSchema:
    def test_json_schema_stable_across_branches(self, petersen, k4):
        keys = None
        for g in (petersen, k4):
            _c, report = colour_graph(g)
            parsed = json.loads(report.to_json())
            if keys is None:
                keys = set(parsed)
            assert set(parsed) == keys

    def test_json_keeps_each_list_of_scalars_on_one_line(self, petersen, k4):
        for g in (petersen, k4, expand_vertex_to_triangle(petersen, 0)):
            report = colour_graph(g)[1]
            lines = report.to_json().splitlines()
            assert json.loads("\n".join(lines)) == json.loads(json.dumps(dataclasses.asdict(report)))
            assert f'  "colours": {json.dumps(list(report.colours))},' in lines
            assert f'  "reductions": {json.dumps(list(report.reductions))},' in lines

    def test_render_text_mentions_bound(self, k4):
        _c, report = colour_graph(k4)
        text = report.render_text()
        assert "medium bound" in text and "4/5" in text

    def test_render_text_counts_the_rewrites_per_kind(self):
        # the JSON list keeps one entry per rewrite; the text line does not grow with it
        _c, report = colour_graph(bench_families.reduce_lift_graphs(0)[-1])
        assert report.n == 400 and len(report.reductions) == 190
        assert report.render_text().splitlines()[1] == (
            "  branch: reduced (reductions: 92 multi_edge, 98 triangle; base: constructed on 20 vertices)"
        )
        _c, report = colour_graph(expand_vertex_to_triangle(petersen_graph(), 0))
        assert "(reductions: 1 triangle; base: constructed on 10 vertices)" in report.render_text()

    def test_render_text_counts_cycle_lengths_and_shapes(self, petersen):
        # one count per distinct length and shape, the JSON lists tallied
        report = colour_graph(petersen)[1]
        assert report.render_text().splitlines()[3:5] == [
            "  2-factor: 2 5-cycles", "  selection size: 1; components: 1 path"]
        report = colour_graph(bench_families.petersen_inflation(1112, seed=1112))[1]
        text = report.render_text()
        assert report.n == 10_008 and len(text) < 1_000
        lengths, shapes = text.splitlines()[3:5]
        lengths = {int(ell): int(c) for c, ell in re.findall(r"(\d+) (\d+)-cycles", lengths)}
        shapes = {shape: int(c) for c, shape in re.findall(r"(\d+) ([a-z]+)", shapes.split("components: ")[1])}
        payload = json.loads(report.to_json())
        assert lengths == Counter(payload["cycle_lengths"]) and shapes == Counter(payload["component_shapes"])
        assert list(lengths) == sorted(lengths) and list(shapes) == sorted(shapes)

    def test_render_text_flags_each_failure(self, petersen):
        # failures the pipeline raises or never produces, seeded on a real report
        report = colour_graph(petersen)[1]
        lines = report.render_text().splitlines()
        assert lines[-2:] == ["  medium bound: 8 <= 4/5 * 10 = 8 [tight]", "  discharging audit: passed"]

        def last_lines(**changes):
            return dataclasses.replace(report, **changes).render_text().splitlines()[len(lines) - 2:]

        assert last_lines(bound_ok=False) == ["  medium bound VIOLATED: 8 > 4/5 * 10", "  discharging audit: passed"]
        assert last_lines(audit_passed=False, audit_failures=("post-R1:cycle0: too much", "global-bound: over"))[1] == (
            "  discharging audit: FAILED: post-R1:cycle0: too much; global-bound: over"
        )
        assert last_lines(oracle_minimum=8)[2:] == ["  oracle minimum medium over 4-colourings: 8"]
        assert last_lines(oracle_minimum=9)[2:] == ["  oracle minimum medium over 4-colourings: 9 ORACLE-ABOVE-PIPELINE"]

    def test_corpus_smoke(self):
        for g in load_cubic_corpus(8):
            _c, report = colour_graph(g)
            assert report.bound_ok

    def test_reruns_are_bit_identical(self, petersen):
        for g in load_cubic_corpus(10) + [petersen]:
            c1, r1 = colour_graph(g)
            c2, r2 = colour_graph(g)
            assert c1.colour_of == c2.colour_of
            assert r1 == r2

    def test_repeated_expansions_up_to_22_vertices(self):
        # triangle expansions preserve the input class and force long
        # reduction chains; nothing above 10 vertices may be tight
        import random

        rng = random.Random(7)
        pool = load_cubic_corpus(10) + load_cubic_corpus(12)
        for g in rng.sample(pool, 12):
            expanded = g
            for _ in range(rng.randint(2, 5)):
                expanded = expand_vertex_to_triangle(
                    expanded, rng.randrange(expanded.n)
                )
            _c, report = colour_graph(expanded)
            assert report.bound_ok and not report.bound_tight
            assert report.reductions
            assert report.audit_passed in (None, True)


class TestTwoFactorWithoutEnumeration:
    """The pipeline picks its 2-factor by augmenting paths; the matching
    enumeration is left to the tests."""

    @pytest.mark.parametrize("make", [
        petersen_graph,
        lambda: bench_families.flower_snark(15),
        lambda: bench_families.petersen_inflation(8, seed=8),
    ], ids=["petersen", "J15", "inflation72"])
    def test_colour_graph_enumerates_no_matching(self, make, monkeypatch):
        calls = Counter()
        enumerate_perfect_matchings = factor.enumerate_perfect_matchings

        def counted(*args, **kwargs):
            calls["enumerate_perfect_matchings"] += 1
            return enumerate_perfect_matchings(*args, **kwargs)

        monkeypatch.setattr(factor, "enumerate_perfect_matchings", counted)
        report = colour_graph(make())[1]
        assert report.base_branch == "constructed"
        assert calls["enumerate_perfect_matchings"] == 0


class TestTwoFactorFirst:
    """The pipeline chooses the 2-factor before any search: an even one is
    the 3-colouring, and an odd one feeds the construction when the 3-colour
    search refutes."""

    def test_even_two_factor_is_the_colouring(self):
        even = 0
        for n in CORPUS_ORDERS:
            for g in load_cubic_corpus(n):
                base = reduce_fully(g)[0]
                tf = factor.choose_two_factor(base)
                if tf.odd_cycles():
                    continue
                even += 1
                assert colour_graph(g)[1].base_branch == "3-colourable"
                colouring, report = colour_graph(base)
                assert report.base_branch == "3-colourable" and report.medium == 0
                assert colouring.k == 3 and is_proper(base, colouring)
                assert {e for e, col in enumerate(colouring.colour_of) if col == 3} == tf.matching
        assert even > 500

    def test_no_search_on_an_even_two_factor(self, monkeypatch):
        def refuse(g):
            raise AssertionError("3-colour search ran on an even 2-factor")

        monkeypatch.setattr(pipeline, "try_3_edge_colouring", refuse)
        assert colour_graph(prism(400))[1].base_branch == "3-colourable"

    @pytest.mark.parametrize("k", [21, 31, 51])
    def test_large_flower_snarks_construct(self, k, monkeypatch):
        calls = Counter()
        choose = pipeline.choose_two_factor

        def counted(g):
            calls["choose_two_factor"] += 1
            return choose(g)

        monkeypatch.setattr(pipeline, "choose_two_factor", counted)
        g = bench_families.flower_snark(k)
        colouring, report = colour_graph(g)
        assert report.base_branch == "constructed" and not report.reductions
        assert calls["choose_two_factor"] == 1
        assert report.bound_ok and not report.bound_tight and 5 * report.medium < 4 * g.n
        assert report.audit_passed is True and report.audit_failures == ()
        assert is_proper(g, colouring) and medium_count(g, colouring) == report.medium


class TestThreeColouringOutcome:
    """Every report says whether a 3-edge-colouring was found, refuted, or
    left open when the 3-colour search ran out of backtracks; an open base
    is constructed from its 2-factor and keeps every guarantee."""

    KEYS = {
        "name", "n", "m", "branch", "reductions", "base_branch", "three_colouring",
        "base_order", "cycle_lengths", "selection_size", "component_shapes", "colours",
        "poor", "medium", "rich", "bound_ok", "bound_tight", "is_petersen",
        "audit_passed", "audit_failures", "audit", "oracle_minimum",
    }

    @pytest.mark.parametrize("make, moves, outcome, branch", [
        (lambda: prism(6), 16, "found", "3-colourable"),
        (lambda: bench_families.random_cubic(120, 1), 16, "found", "3-colourable"),
        (lambda: bench_families.random_cubic(32, 0, triangle_free=True), 0, "found", "3-colourable"),
        (petersen_graph, 16, "refuted", "constructed"),
        (lambda: expand_vertex_to_triangle(petersen_graph(), 0), 16, "refuted", "constructed"),
        (lambda: bench_families.flower_snark(301), 16, "open", "constructed"),
    ], ids=["even", "repaired", "searched", "petersen", "reduced", "J301"])
    def test_every_branch_reports_it(self, make, moves, outcome, branch, monkeypatch):
        """With no Kempe moves, the odd 2-factor of random32#0 is left to
        the 3-colour search."""
        monkeypatch.setattr("nearnormal.colouring._KEMPE_MOVES", moves)
        report = colour_graph(make())[1]
        assert (report.three_colouring, report.base_branch) == (outcome, branch)
        assert set(json.loads(report.to_json())) == self.KEYS
        assert f"  3-edge-colouring: {outcome}" in report.render_text().splitlines()

    @pytest.mark.parametrize("make, budgets", [
        (lambda: bench_families.flower_snark(301), None),
        (lambda: bench_families.flower_snark(1001), None),
        (lambda: generalized_petersen(7, 2), (0, 0)),
    ], ids=["J301", "J1001", "gp7_2-without-budgets"])
    def test_open_runs_end_to_end(self, make, budgets, monkeypatch):
        """The flower snarks are open at the default budgets.  GP(7, 2) is
        3-colourable, as the repair shows at its default budget; with no
        moves and no backtracks its base is open.  Its spokes are edges
        0-6, so the greedy pass matches them all, no forest phase runs, and
        the 2-factor is the two 7-cycles whatever the forest would pick."""
        g = make()
        if budgets:
            assert colour_graph(g)[1].three_colouring == "found"
            assert factor.choose_two_factor(g).matching == frozenset(range(g.n // 2))
            monkeypatch.setattr("nearnormal.colouring._KEMPE_MOVES", budgets[0])
            monkeypatch.setattr("nearnormal.colouring._BACKTRACKS", budgets[1])
        colouring_, report = colour_graph(g)
        assert report.three_colouring == "open" and report.base_branch == "constructed"
        assert budgets is None or report.cycle_lengths == (7, 7)
        assert report.bound_ok and not report.bound_tight
        assert report.audit_passed is True and report.audit_failures == ()
        assert is_proper(g, colouring_) and medium_count(g, colouring_) == report.medium


class TestConstructionAtScale:
    """The construction branch at n in the thousands, where the selection is
    one greedy pass and the audit certifies it (J1001 is in
    ``TestThreeColouringOutcome``)."""

    @pytest.mark.parametrize("make", [
        lambda: bench_families.flower_snark(5001),
        lambda: bench_families.petersen_inflation(90, seed=90),
        lambda: bench_families.petersen_inflation(360, seed=360),
    ], ids=["J5001", "inflation810", "inflation3240"])
    def test_constructed_strict_and_audited(self, make):
        g = make()
        colouring_, report = colour_graph(g)
        assert report.base_branch == "constructed"
        assert report.bound_ok and not report.bound_tight
        assert report.audit_passed is True and report.audit_failures == ()
        assert is_proper(g, colouring_) and medium_count(g, colouring_) == report.medium


def kempe_swap(g, colour_of, e, a, b):
    """Swap colours ``a`` and ``b`` along the {a, b} chain through edge ``e``."""
    cols = list(colour_of)
    chain, stack = {e}, [e]
    while stack:
        for v in g.endpoints(stack.pop()):
            for f in g.incident_edges(v):
                if cols[f] in (a, b) and f not in chain:
                    chain.add(f)
                    stack.append(f)
    for f in chain:
        cols[f] = b if cols[f] == a else a
    return tuple(cols)


THREE_CONSTRUCTED = pytest.mark.parametrize("make", [
    petersen_graph,
    lambda: bench_families.flower_snark(15),
    lambda: expand_vertex_to_triangle(petersen_graph(), 0),
], ids=["petersen", "J15", "truncated-petersen"])


def count_calls(monkeypatch, *functions) -> Counter:
    """Count calls of ``functions`` through every binding a ``nearnormal``
    module holds of them."""
    calls = Counter()
    for original in functions:
        def counted(*args, _f=original, **kwargs):
            calls[_f.__name__] += 1
            return _f(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("nearnormal") and getattr(mod, original.__name__, None) is original:
                monkeypatch.setattr(mod, original.__name__, counted)
    return calls


class TestEachCheckOnce:
    """The constructed colouring is classified once, by
    ``colouring._colour_counts``, for the charge rules and, when no step
    reduced the input, for the final count too; a lifted colouring is
    classified once more.  The selection is checked
    once, where the construction uses it.  Both checks still run on the
    pipeline path.  The construction builds the selection's components and
    attachments once, and the rules and the audit read them from its
    record; the attachments come from the builder that checks the
    selection, so that one call is also the check.  The graph is scanned for
    parallel pairs and triangles once, by ``reduce_fully``; the construction
    reads the same property off its 2-factor.  The 2-factor's vertex lists
    and positions are derived once each, and only when the construction
    runs."""

    @THREE_CONSTRUCTED
    def test_one_scan_for_pairs_and_triangles(self, make, monkeypatch):
        calls = count_calls(monkeypatch, graph._pairs_and_triangles)
        report = colour_graph(make())[1]
        assert report.base_branch == "constructed" and report.audit_passed is True
        assert calls == {"_pairs_and_triangles": 1}

    @THREE_CONSTRUCTED
    def test_classify_each_colouring_once_and_check_the_selection_once(self, make, monkeypatch):
        calls = count_calls(monkeypatch, _colour_counts, _attachments)
        report = colour_graph(make())[1]
        assert report.base_branch == "constructed" and report.audit_passed is True
        assert calls == {"_colour_counts": 1 if report.branch == "constructed" else 2, "_attachments": 1}

    @pytest.mark.parametrize("make, classified", [
        (lambda: prism(6), 0),
        (lambda: bench_families.random_cubic(120, 1, triangle_free=True), 0),
        (lambda: expand_vertex_to_triangle(prism(6), 0), 1),
    ], ids=["prism6-even", "random120-repaired", "truncated-prism6"])
    def test_a_repaired_colouring_is_not_classified_again(self, make, classified, monkeypatch):
        # the repair's own check (1, 2, 3 at every vertex) makes every edge
        # poor; only a lifted colouring is classified once more
        g = make()
        calls = count_calls(monkeypatch, _colour_counts)
        report = colour_graph(g)[1]
        assert report.base_branch == "3-colourable" and report.poor == g.m
        assert calls == ({"_colour_counts": classified} if classified else {})

    @pytest.mark.parametrize("make, derived", [
        (lambda: prism(20), 0),
        (lambda: bench_families.random_cubic(120, 1, triangle_free=True), 0),
        (lambda: bench_families.flower_snark(5), 1),
        (lambda: bench_families.petersen_inflation(8, seed=8), 1),
    ], ids=["prism20-even", "random120-repaired", "J5", "petersen-inflation72"])
    def test_the_construction_tables_are_derived_only_for_the_construction(self, make, derived, monkeypatch):
        # the certificate, the cycle-length test and the repair read only
        # the walk's cycle edges and vertex cycles; the selection, the
        # construction and the rules share one derivation of each table
        passes = []
        for name in ("cycles", "position"):
            def counted(tf, derive=getattr(factor.TwoFactor, name).func, name=name):
                passes.append(name)
                return derive(tf)

            table = functools.cached_property(counted)
            table.__set_name__(factor.TwoFactor, name)
            monkeypatch.setattr(factor.TwoFactor, name, table)
        report = colour_graph(make())[1]
        if derived:
            assert report.base_branch == "constructed" and report.audit_passed is True
        else:
            assert report.base_branch == "3-colourable" and report.audit_passed is None
        assert Counter(passes) == Counter({"cycles": derived, "position": derived})

    @THREE_CONSTRUCTED
    def test_components_and_attachments_built_once(self, make, monkeypatch):
        calls = count_calls(monkeypatch, s_components, _attachments)
        report = colour_graph(make())[1]
        assert report.base_branch == "constructed" and report.audit_passed is True
        assert calls == {"s_components": 1, "_attachments": 1}

    @THREE_CONSTRUCTED
    def test_a_wrong_path_phase_is_caught(self, make, monkeypatch):
        # flipping the {1,2} path of one odd cycle of a path-shaped
        # component keeps the colouring proper but makes its selected edges
        # medium; the structural check before the charge rules must see it
        flipped = []

        def one_phase_flipped(tf, components, three_edges):
            cols = solve_path_phases(tf, components, three_edges)
            c = min(next(comp for comp in components if comp.shape == PATH).cycles)
            for e in tf.cycle_edges[c]:
                if e != three_edges[c]:
                    cols[e] = 3 - cols[e]
            flipped.append(c)
            return cols

        monkeypatch.setattr("nearnormal.colouring.solve_path_phases", one_phase_flipped)
        with pytest.raises(ColouringError, match=r"^constructed colouring violates: component \["):
            colour_graph(make())
        assert len(flipped) == 1

    def test_structural_violation_is_caught(self, petersen, monkeypatch):
        construct = pipeline.construct_colouring

        def swapped(tf, sel):
            con = construct(tf, sel)
            three = con.colouring.colour_of.index(3)
            bad = EdgeColouring(4, kempe_swap(tf.graph, con.colouring.colour_of, three, 3, 4))
            return dataclasses.replace(con, colouring=bad)

        monkeypatch.setattr(pipeline, "construct_colouring", swapped)
        tf = factor.choose_two_factor(petersen)
        bad = swapped(tf, pipeline.find_optimal_selection(tf)).colouring
        assert is_proper(petersen, bad)
        with pytest.raises(ColouringError, match="^constructed colouring violates: "):
            colour_graph(petersen)

    def test_invalid_selection_is_caught(self, petersen, monkeypatch):
        def two_spokes(tf):
            # any two matching edges of Petersen's 2-factor are consecutive
            # on at most one of its two 5-cycles
            return frozenset(sorted(tf.matching)[:2])

        monkeypatch.setattr(pipeline, "find_optimal_selection", two_spokes)
        with pytest.raises(ColouringError, match="^invalid selection: selected edges at cycle"):
            colour_graph(petersen)


GROWTH_BASES = (
    complete_graph_k4,
    k33,
    petersen_graph,
    triple_edge,
    lambda: bench_families.flower_snark(5),
    lambda: bench_families.flower_snark(7),
)
MAX_GROWN_ORDER = 60


@st.composite
def grown_multigraphs(draw):
    """A small base (K4, K3,3, a prism, Petersen, J5, J7 or the triple
    edge) grown by a random sequence of triangle truncations and digon
    insertions, up to n = 60."""
    g = draw(st.one_of(
        st.sampled_from(GROWTH_BASES).map(lambda make: make()),
        st.integers(min_value=3, max_value=8).map(prism),
    ))
    for truncation in draw(st.lists(st.booleans(), max_size=14)):
        if g.n + 2 > MAX_GROWN_ORDER:
            break
        if truncation:
            g = truncate(g, draw(st.integers(min_value=0, max_value=g.n - 1)))
        else:
            g = insert_digon(g, draw(st.integers(min_value=0, max_value=g.m - 1)))
    return g


class TestGrownMultigraphs:
    @settings(max_examples=100, deadline=None)
    @given(g=grown_multigraphs())
    def test_every_guarantee_holds(self, g):
        colouring_, report = colour_graph(g)
        assert is_proper(g, colouring_)
        assert 5 * report.medium <= 4 * g.n
        if not is_petersen_graph(g):
            assert 5 * report.medium < 4 * g.n
        if report.base_branch == "constructed":
            assert report.audit_passed is True
        assert report.medium == medium_count(g, colouring_)


def joined_by_a_bridge(g, h):
    """``g`` and ``h`` with edge 0 of each subdivided, the two new vertices
    joined by a bridge."""
    (a, b), (c, d) = g.edges[0], h.edges[0]
    x, y, n = g.n + h.n, g.n + h.n + 1, g.n
    edges = [(a, x), (b, x), *g.edges[1:], (c + n, y), (d + n, y), *((u + n, v + n) for u, v in h.edges[1:]), (x, y)]
    return build_graph(g.n + h.n + 2, edges)


INVALID = {
    **{name: g for name, g in LEMMA_GRAPHS.items() if not validate_input(g).ok},
    "empty": build_graph(0, []),
    "one-vertex": build_graph(1, []),
    "C6": build_graph(6, [(i, (i + 1) % 6) for i in range(6)]),
    "K4-minus-an-edge": build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "K5": build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
    "petersen-plus-a-chord": build_graph(10, [*petersen_graph().edges, (0, 2)]),
    "K4+C3": disjoint_union(complete_graph_k4(), build_graph(3, [(0, 1), (1, 2), (0, 2)])),
    # larger, so that the reducer runs many steps before anything fails
    "J5+truncated-petersen": disjoint_union(
        bench_families.flower_snark(5), expand_vertex_to_triangle(petersen_graph(), 0)),
    "bridged-truncated-petersens": joined_by_a_bridge(
        expand_vertex_to_triangle(petersen_graph(), 3), expand_vertex_to_triangle(prism(4), 0)),
    "bridged-random": joined_by_a_bridge(bench_families.random_cubic(60, 1), bench_families.random_cubic(80, 2)),
}


class TestBoundChecks:
    """The final count is checked against the bound, strictly off Petersen;
    a count the construction never gives is seeded in place of the real one."""

    @pytest.mark.parametrize("make, mediums, message", [
        (complete_graph_k4, 4, r"^4 medium edges exceed 4/5 \* 4 \(would refute the bound\)$"),
        (lambda: prism(5), 8, r"^bound is tight on a non-Petersen graph \(8 medium edges\)$"),
    ], ids=["k4-over", "prism5-tight"])
    def test_a_seeded_count_is_flagged(self, make, mediums, message, monkeypatch):
        g = make()
        monkeypatch.setattr(pipeline, "class_counts", lambda g, *_: {"poor": g.m - mediums, "medium": mediums, "rich": 0})
        with pytest.raises(pipeline.BoundViolation, match=message):
            colour_graph(g)


class TestInputCertificate:
    """The input is certified connected and bridgeless from the 2-factor of
    its reduced base; ``validate_input`` runs only to diagnose a failure."""

    @pytest.mark.parametrize("name", INVALID)
    def test_an_invalid_input_gets_the_diagnosis_of_validate_input(self, name):
        g = INVALID[name]
        want = validate_input(g)
        assert not want.ok
        with pytest.raises(InvalidInput) as caught:  # any other exception fails the test
            colour_graph(g)
        assert caught.value.diagnosis == want
        assert str(caught.value) == f"invalid input ({want.reason}): {want.detail}"

    def test_the_invalid_families(self):
        assert {d.reason for d in map(validate_input, INVALID.values())} == {"connected", "cubic", "bridge"}
        assert len(INVALID) > 20

    def test_many_petersen_copies_are_refused_after_one_2_factor(self, monkeypatch):
        # every 2-factor of the Petersen graph is two 5-cycles: were the
        # first one not certified, the edges of each copy would be forced
        # one by one, each with a 2-factor of the whole graph
        g = disjoint_union(*[petersen_graph()] * 200)
        calls = count_calls(monkeypatch, factor._walk)
        with pytest.raises(InvalidInput, match=r"^invalid input \(connected\): "):
            colour_graph(g)
        assert calls == {"_walk": 1}

    @pytest.mark.parametrize("make", [
        petersen_graph,
        triple_edge,
        lambda: prism(50),
        lambda: expand_vertex_to_triangle(petersen_graph(), 0),
        lambda: insert_digon(insert_digon(k33(), 0), 3),
        lambda: bench_families.random_cubic(300, 3),
        lambda: bench_families.flower_snark(9),
    ], ids=["petersen", "theta", "prism50", "truncated-petersen", "k33-two-digons", "random300", "J9"])
    def test_a_valid_input_is_certified_by_one_small_search(self, make, monkeypatch):
        g = make()
        calls = count_calls(monkeypatch, validate_input)
        searched = []
        lowpoint_search = graph._lowpoint_search

        def recorded(n, edges, incident):  # the quotient's order and its edges' endpoints
            searched.append(edges)
            return lowpoint_search(n, edges, incident)

        for name, mod in list(sys.modules.items()):
            if name.startswith("nearnormal") and getattr(mod, "_lowpoint_search", None) is lowpoint_search:
                monkeypatch.setattr(mod, "_lowpoint_search", recorded)
        colour_graph(g)
        assert calls == {}
        assert len(searched) == 1 and len(searched[0]) <= g.n // 2

    @pytest.mark.parametrize("base", [
        joined_by_a_bridge(complete_graph_k4(), complete_graph_k4()),
        disjoint_union(complete_graph_k4(), complete_graph_k4()),
        dumbbell(),
    ], ids=["bridged", "disconnected", "bridged-multigraph"])
    def test_an_invalid_base_of_a_valid_input_is_a_bug(self, base, monkeypatch):
        want = validate_input(base)
        assert not want.ok
        monkeypatch.setattr(reductions, "reduce_fully", lambda g: (base, [], tuple(range(base.m))))
        with pytest.raises(GraphError) as caught:
            colour_graph(petersen_graph())
        assert type(caught.value) is GraphError
        assert str(caught.value) == f"reduction produced an invalid base ({want.reason}): {want.detail}"

    def test_an_internal_error_on_a_valid_input_is_raised_as_it_is(self, petersen, monkeypatch):
        def failing(g):
            raise GraphError("boom")

        monkeypatch.setattr(pipeline, "choose_two_factor", failing)
        with pytest.raises(GraphError, match="^boom$") as caught:
            colour_graph(petersen)
        assert type(caught.value) is GraphError
