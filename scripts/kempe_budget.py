#!/usr/bin/env python3
"""How far the Kempe repair's move budget goes, family by family.

    python3 scripts/kempe_budget.py

For the reduced bases whose chosen 2-factor has odd cycles, prints how many
``colouring.kempe_3_colouring`` colours within its move budget
(``_KEMPE_MOVES``), the most moves any of them needs when the budget is
lifted to ``UNCAPPED`` (the least budget that would do, found by bisection:
with a larger budget the repair makes the same moves first), and the time
the repair spends on the bases where it gives up.  Where the exact search is
cheap (``class1_random`` and ``snarks``), it also says whether the exact
search then finds a 3-colouring or refutes one.

The families are the ``class1_random`` and ``snarks`` workloads of the
benchmark at seed 47, seeded triangle-free random graphs with n = 120, 400
and 1,000, and two random graphs on which the exact search alone takes
seconds.  ``bench/generators.py`` and ``bench/workloads.py`` are loaded by
path and only read.  The package is imported from this checkout's ``src``.
Standard library only.
"""

from __future__ import annotations

import importlib.util
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nearnormal import build_graph, colouring  # noqa: E402
from nearnormal.factor import choose_two_factor  # noqa: E402
from nearnormal.reductions import reduce_fully  # noqa: E402

SEED = 47
UNCAPPED = 1000
RANDOM_FAMILIES = ((120, range(40)), (400, range(30)), (1000, range(20)))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # workloads.py imports generators by name
    spec.loader.exec_module(module)
    return module


generators = _load("generators")
workloads = _load("workloads")


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


def report(name: str, graphs, exact: bool, needs: bool = True) -> None:
    """One line per family; ``exact`` runs the exact search where the
    repair gives up, ``needs`` bisects the moves each base needs."""
    bases = odd = decided = 0
    given_up_s = exact_s = 0.0
    found = refuted = 0
    most, never = 0, 0
    for g in graphs:
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
                start = time.perf_counter()
                if colouring.try_3_edge_colouring(base) is None:
                    refuted += 1
                else:
                    found += 1
                exact_s += time.perf_counter() - start
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
        line += f"; exact search then finds {found} and refutes {refuted} in {exact_s:.3f} s"
    if needs:
        line += f"; uncapped, at most {most} moves"
        if never:
            line += f", {never} not within {UNCAPPED}"
    print(line, flush=True)


def main() -> int:
    report(f"class1_random (seed {SEED})", (c.graph for c in workloads.class1_random(SEED)), exact=True)
    report(f"snarks (seed {SEED})", (c.graph for c in workloads.snarks(SEED)), exact=True, needs=False)
    for n, seeds in RANDOM_FAMILIES:
        graphs = (build_graph(*generators.random_cubic(n, random.Random(s), True)) for s in seeds)
        report(f"triangle-free random n = {n} (seeds {seeds.start}-{seeds.stop - 1})", graphs, exact=False)
    stalls = ((120, 1), (140, 140))
    graphs = (build_graph(*generators.random_cubic(n, random.Random(s))) for n, s in stalls)
    report("random_cubic(120, Random(1)), random_cubic(140, Random(140))", graphs, exact=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
