#!/usr/bin/env python3
"""How far the Kempe repair's move budget goes, family by family, and how
far the 3-colour search's backtrack budget goes after it.

    python3 scripts/kempe_budget.py

For the reduced bases whose chosen 2-factor has odd cycles, prints how many
``colouring.kempe_3_colouring`` colours within its move budget
(``_KEMPE_MOVES``), the most moves any of them needs when the budget is
lifted to ``UNCAPPED`` (the least budget that would do, found by bisection:
with a larger budget the repair makes the same moves first), and the time
the repair spends on the bases where it gives up.  Where the 3-colour search
is cheap (``class1_random`` and ``snarks``), it also says how many bases
``try_3_edge_colouring`` then finds a 3-colouring for, refutes, or leaves
open within its backtrack budget (``_BACKTRACKS``), how many of those
searches run past ``_MEMO_AFTER * m`` backtracks and so keep refuted
states, and the most backtracks any find needs (again the least budget
that would do, by bisection).  The ``class1_random`` line for seeds 0-39 is
the margin of that budget.  The last line names the largest flower snark
the budgeted search refutes.

The families are the ``class1_random`` and ``snarks`` workloads of the
benchmark at seed 47 (``class1_random`` also at seeds 0-39), seeded
triangle-free random graphs with n = 120, 400 and 1,000, and two random
graphs on which the exact search alone takes seconds.
``bench/generators.py`` and ``bench/workloads.py`` are loaded by path, by
``tests/bench_families.py``, and only read.  The package is imported from
this checkout's ``src``.  Standard library only.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from bench_families import generators, workloads  # noqa: E402
from nearnormal import build_graph, colouring  # noqa: E402
from nearnormal.factor import choose_two_factor  # noqa: E402
from nearnormal.reductions import reduce_fully  # noqa: E402

SEED = 47
UNCAPPED = 1000
RANDOM_FAMILIES = ((120, range(40)), (400, range(30)), (1000, range(20)))


def _repair(tf, budget: int):
    saved = colouring._KEMPE_MOVES
    colouring._KEMPE_MOVES = budget
    try:
        return colouring.kempe_3_colouring(tf)
    finally:
        colouring._KEMPE_MOVES = saved


def moves_needed(tf) -> int | None:
    """The least move budget with which the repair succeeds, or None above
    ``UNCAPPED``."""
    if _repair(tf, UNCAPPED) is None:
        return None
    lo, hi = 0, UNCAPPED
    while lo < hi:
        mid = (lo + hi) // 2
        if _repair(tf, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _GateCount:
    """Counts the searches that build the frontier tables, that is, run
    past the memo's gate."""

    def __init__(self):
        self.trips = 0
        self.build = colouring._frontier_tables

    def __call__(self, *args):
        self.trips += 1
        return self.build(*args)


def _decides(g, budget: int) -> bool:
    try:
        colouring._min_medium_search(g, 3, backtracks=budget)
    except colouring._SearchOpen:
        return False
    return True


def backtracks_needed(g, known: int) -> int:
    """The least backtrack budget with which the 3-colour search decides
    ``g``, or ``known`` when that one does; the search must decide within
    ``_BACKTRACKS``."""
    if _decides(g, known):
        return known
    lo, hi = known + 1, colouring._BACKTRACKS
    while lo < hi:
        mid = (lo + hi) // 2
        if _decides(g, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def report(name: str, graphs, exact: bool, needs: bool = True) -> None:
    """One line per family of ``(label, graph)`` pairs; ``exact`` runs the
    3-colour search where the repair gives up, and names the graphs it
    leaves open; ``needs`` bisects the moves each base needs."""
    bases = odd = decided = 0
    given_up_s = exact_s = 0.0
    found = refuted = left_open = most_backtracks = 0
    most, never = 0, 0
    gate = _GateCount()
    opened = []
    for label, g in graphs:
        bases += 1
        base = reduce_fully(g)[0]
        tf = choose_two_factor(base)
        if not tf.odd_cycles():
            continue
        odd += 1
        start = time.perf_counter()
        result = colouring.kempe_3_colouring(tf)
        spent = time.perf_counter() - start
        if result is not None:
            decided += 1
        else:
            given_up_s += spent
            if exact:
                colouring._frontier_tables = gate
                start = time.perf_counter()
                try:
                    result = colouring.try_3_edge_colouring(base)
                except colouring._SearchOpen:
                    left_open += 1
                    result = "open"
                    opened.append(f"{label} in {(time.perf_counter() - start) * 1e3:.1f} ms")
                finally:
                    colouring._frontier_tables = gate.build
                exact_s += time.perf_counter() - start
                if result is None:
                    refuted += 1
                elif result != "open":
                    found += 1
                    most_backtracks = backtracks_needed(base, most_backtracks)
        if needs:
            need = moves_needed(tf)
            if need is None:
                never += 1
            else:
                most = max(most, need)
    line = (f"{name}: {bases} bases, {odd} with an odd 2-factor, {decided} repaired "
            f"within {colouring._KEMPE_MOVES} moves; {odd - decided} given up "
            f"after {given_up_s * 1e3:.1f} ms in the repair")
    if exact:
        line += (f"; within {colouring._BACKTRACKS} backtracks the 3-colour search then finds "
                 f"{found} (at most {most_backtracks} backtracks), refutes {refuted} and leaves "
                 f"{left_open} open in {exact_s:.3f} s; {gate.trips} of those searches pass "
                 f"{colouring._MEMO_AFTER} * m backtracks and keep refuted states")
        if opened:
            line += f"; open: {', '.join(opened)}"
    if needs:
        line += f"; uncapped, at most {most} moves"
        if never:
            line += f", {never} not within {UNCAPPED}"
    print(line, flush=True)


def main() -> int:
    report(f"class1_random (seed {SEED})",
           ((c.name, c.graph) for c in workloads.class1_random(SEED)), exact=True)
    report("class1_random (seeds 0-39)",
           ((f"{c.name} (seed {s})", c.graph) for s in range(40) for c in workloads.class1_random(s)),
           exact=True, needs=False)
    report(f"snarks (seed {SEED})", ((c.name, c.graph) for c in workloads.snarks(SEED)),
           exact=True, needs=False)
    for n, seeds in RANDOM_FAMILIES:
        graphs = ((s, build_graph(*generators.random_cubic(n, random.Random(s), True))) for s in seeds)
        report(f"triangle-free random n = {n} (seeds {seeds.start}-{seeds.stop - 1})", graphs, exact=False)
    stalls = ((120, 1), (140, 0))
    graphs = ((s, build_graph(*generators.random_cubic(n, random.Random(s)))) for n, s in stalls)
    report("random_cubic(120, Random(1)), random_cubic(140, Random(0))", graphs, exact=False)
    largest_flower_snark()
    return 0


def largest_flower_snark() -> None:
    """The flower snarks J5, J7, ... through the budgeted 3-colour search,
    up to the first one it leaves open."""
    k = 5
    while True:
        g = build_graph(*generators.flower_snark(k))
        start = time.perf_counter()
        try:
            found = colouring.try_3_edge_colouring(g)
        except colouring._SearchOpen:
            break
        assert found is None, f"J{k} coloured"
        spent = time.perf_counter() - start
        k += 2
    print(f"flower snarks: J5-J{k - 2} refuted within {colouring._BACKTRACKS} backtracks "
          f"(J{k - 2}, n = {4 * (k - 2)}, in {spent * 1e3:.1f} ms); J{k} left open", flush=True)


if __name__ == "__main__":
    sys.exit(main())
