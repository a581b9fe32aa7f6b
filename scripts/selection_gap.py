#!/usr/bin/env python3
"""What the greedy edge selection gives up against the exact optimum.

    python3 scripts/selection_gap.py [--seeds 0-59] [--workload NAME ...]

Prints three parts.

* Identity.  For each benchmark workload at the given seeds, the graphs
  whose base the pipeline constructs, and how many of their colourings are
  byte-identical when ``pipeline.find_optimal_selection`` (one greedy pass)
  is replaced by the exact two-pass search of ``tests/reference_selection.py``.
* Gap.  Over every 2-factor with odd cycles of every packaged corpus graph
  (n = 4..14), how often the greedy selection scores below the optimum
  (size, then degree-2 cycles).  On the triangle-free ones among those, the
  medium edges of the colouring built from each selection, and how many of
  the charge audits pass.
* Time.  ``find_optimal_selection`` on the chosen 2-factor of the flower
  snark J5001 (n = 20,004), and ``colour_graph`` on it end to end; then
  ``choose_two_factor`` and ``colour_graph`` on the seeded Petersen
  inflation with n = 9,900 and on a seeded triangle-free random graph with
  n = 10,000.

``bench/generators.py`` and ``bench/workloads.py`` are loaded by path and
only read.  The package is imported from this checkout's ``src``.  Standard
library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import reference_selection  # noqa: E402
from nearnormal import build_graph, pipeline  # noqa: E402
from nearnormal.colouring import construct_colouring, medium_count  # noqa: E402
from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus  # noqa: E402
from nearnormal.discharging import run_audit  # noqa: E402
from nearnormal.factor import choose_two_factor, enumerate_perfect_matchings, two_factor_from_matching  # noqa: E402
from nearnormal.graph import girth  # noqa: E402
from nearnormal.selection import _attachments, find_optimal_selection  # noqa: E402


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # workloads.py imports generators by name
    spec.loader.exec_module(module)
    return module


generators = _load("generators")
workloads = _load("workloads")


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _exact_colours(g):
    saved = pipeline.find_optimal_selection
    pipeline.find_optimal_selection = reference_selection.find_optimal_selection
    try:
        return pipeline.colour_graph(g)[0].colour_of
    finally:
        pipeline.find_optimal_selection = saved


def identity(name: str, seeds: range) -> None:
    graphs = constructed = same = 0
    differ = []
    for seed in seeds:
        for case in workloads.WORKLOADS[name](seed):
            graphs += 1
            colouring, report = pipeline.colour_graph(case.graph)
            if report.base_branch != "constructed":
                continue
            constructed += 1
            if colouring.colour_of == _exact_colours(case.graph):
                same += 1
            else:
                differ.append(f"{case.name} (seed {seed})")
    line = (f"{name} (seeds {seeds.start}-{seeds.stop - 1}): {graphs} graphs, {constructed} constructed, "
            f"{same} identical to the exact selection's colouring")
    if differ:
        line += "; differ: " + ", ".join(differ)
    print(line, flush=True)


def _score(tf, sel) -> tuple[int, int]:
    return len(sel), sum(1 for ends in _attachments(tf, sel).values() if len(ends) == 2)


def gap() -> None:
    odd = below = tf_below = audits = 0
    mediums = [0, 0]  # greedy, exact
    for n in CORPUS_ORDERS:
        for g in load_cubic_corpus(n):
            triangle_free = girth(g) >= 4
            for m in enumerate_perfect_matchings(g):
                tf = two_factor_from_matching(g, m)
                if not tf.odd_cycles():
                    continue
                odd += 1
                greedy, exact = find_optimal_selection(tf), reference_selection.find_optimal_selection(tf)
                if _score(tf, greedy) >= _score(tf, exact):
                    continue
                below += 1
                if not triangle_free:
                    continue
                tf_below += 1
                for i, sel in enumerate((greedy, exact)):
                    con = construct_colouring(tf, sel)
                    mediums[i] += medium_count(g, con.colouring)
                    audits += run_audit(con).passed
    print(f"corpus 2-factors with odd cycles: {odd}; greedy below the optimum on {below}; "
          f"{tf_below} of those triangle-free, with {mediums[0]} medium edges (greedy) "
          f"against {mediums[1]} (exact), {audits} of {2 * tf_below} audits passed", flush=True)


def j5001() -> None:
    g = build_graph(*generators.flower_snark(5001))
    tf = choose_two_factor(g)
    start = time.perf_counter()
    sel = find_optimal_selection(tf)
    selection_s = time.perf_counter() - start
    start = time.perf_counter()
    _colouring, report = pipeline.colour_graph(g)
    total_s = time.perf_counter() - start
    print(f"J5001 (n = {g.n}): selection of {len(sel)} edges in {selection_s:.3f} s; "
          f"colour_graph {total_s:.2f} s, {report.base_branch}, {report.medium} medium edges "
          f"(bound {4 * g.n / 5:g}), audit passed: {report.audit_passed}", flush=True)


def two_factor_time() -> None:
    """The graphs are ``tests/bench_families.py``'s
    ``petersen_inflation(1100, seed=1100)`` and
    ``random_cubic(10000, 0, triangle_free=True)``."""
    rng = random.Random(1100)
    inflation = generators.petersen_inflation(generators.random_cubic(1100, rng), rng)
    triangle_free = generators.random_cubic(10000, random.Random(0), True)
    for name, edges in (("inflation", inflation), ("triangle-free random", triangle_free)):
        g = build_graph(*edges)
        start = time.perf_counter()
        tf = choose_two_factor(g)
        choose_s = time.perf_counter() - start
        start = time.perf_counter()
        _colouring, report = pipeline.colour_graph(g)
        total_s = time.perf_counter() - start
        print(f"{name} (n = {g.n}): choose_two_factor {choose_s:.3f} s, {len(tf.odd_cycles())} odd "
              f"cycles; colour_graph {total_s:.2f} s, {report.base_branch}, {report.medium} medium "
              f"edges (bound {4 * g.n / 5:g}), audit passed: {report.audit_passed}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-59"), help="A-B or one seed (default 0-59)")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="repeatable (default: all four)")
    args = parser.parse_args()
    for name in args.workload or workloads.WORKLOADS:
        identity(name, args.seeds)
    gap()
    j5001()
    two_factor_time()
    return 0


if __name__ == "__main__":
    sys.exit(main())
