#!/usr/bin/env python3
"""Reduction and lifting time per step, from n = 10^3 to 10^5.

    python3 scripts/reduce_time.py [--seed S] [--repeats R]

Grows the Petersen graph (a snark) and K4 (3-edge-colourable) by seeded
triangle truncations and digon insertions, each op adding two vertices,
to n = 1,000, 10,000 and 100,000; the grower edits one edge list in place,
O(1) per op.  Every op is undone by one reduction step, so the base stays
small and reduce and lift are the whole cost.  For each graph it prints
the number of steps, the seconds ``reductions.reduce_fully`` and the lifts
through all its records take (best of R runs) with microseconds per step,
and ``colour_graph`` end to end, once.  It checks that the lifted colouring
is the one ``colour_graph`` returns, and exits 1 if not.  The last line
gives the ratio of the per-step times (reduce plus lift) at the largest
and the smallest n.

The package is imported from this checkout's ``src``.  Standard library
only.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nearnormal.corpus import complete_graph_k4, petersen_graph  # noqa: E402
from nearnormal.graph import MultiGraph  # noqa: E402
from nearnormal.pipeline import colour_graph  # noqa: E402
from nearnormal.reductions import lift, reduce_fully  # noqa: E402

SIZES = (1_000, 10_000, 100_000)


def grow(g: MultiGraph, target: int, rng: random.Random) -> MultiGraph:
    """Truncate a random vertex or put a digon on a random edge, with equal
    odds, until the graph has at least ``target`` vertices."""
    n, edges = g.n, list(g.edges)
    incident = [list(g.incident_edges(v)) for v in range(n)]
    while n < target:
        a, b, m = n, n + 1, len(edges)
        if rng.random() < 0.5:
            # vertex v becomes the triangle v, a, b; its second and third
            # edges move to a and b
            v = rng.randrange(n)
            e0, e1, e2 = incident[v]
            for e, corner in ((e1, a), (e2, b)):
                x, y = edges[e]
                edges[e] = (corner, y if x == v else x)
            incident[v] = [e0, m, m + 2]
            incident += [[e1, m, m + 1], [e2, m + 1, m + 2]]
            edges += [(v, a), (a, b), (b, v)]
        else:
            # edge e = uv becomes u-a, a=b (a parallel pair), b-v
            e = rng.randrange(m)
            u, v = edges[e]
            edges[e] = (u, a)
            incident[v][incident[v].index(e)] = m + 2
            incident += [[e, m, m + 1], [m, m + 1, m + 2]]
            edges += [(a, b), (a, b), (b, v)]
        n += 2
    return MultiGraph(n, edges)


def best_of(repeats: int, run):
    """The shortest of ``repeats`` timed calls of ``run``, and its result."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        spent = time.perf_counter() - start
        best = spent if best is None else min(best, spent)
    return best, result


def lift_all(records, base_edges, base_colours) -> list[int]:
    colours = [0] * (base_edges[-1] + 1)
    for e, col in zip(base_edges, base_colours):
        colours[e] = col
    for record in reversed(records):
        lift(record, colours)
    return colours


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    per_step = {}
    mismatches = 0
    for name, start in (("petersen", petersen_graph()), ("K4", complete_graph_k4())):
        for size in SIZES:
            g = grow(start, size, random.Random(f"{name}:{size}:{args.seed}"))
            reduce_s, (base, records, base_edges) = best_of(args.repeats, lambda: reduce_fully(g))
            base_colours = colour_graph(base)[0].colour_of
            lift_s, colours = best_of(args.repeats, lambda: lift_all(records, base_edges, base_colours))
            start_s = time.perf_counter()
            colouring, _report = colour_graph(g)
            total_s = time.perf_counter() - start_s
            if tuple(colours[: g.m]) != colouring.colour_of:
                mismatches += 1
                print(f"MISMATCH {name} n={g.n}: the lifted colouring is not colour_graph's")
            steps = len(records)
            per_step[name, size] = (reduce_s + lift_s) / steps
            print(f"{name:8s} n={g.n:7d}: {steps:6d} steps, base n={base.n}; "
                  f"reduce {reduce_s:.3f} s ({1e6 * reduce_s / steps:.1f} us/step), "
                  f"lift {lift_s:.3f} s ({1e6 * lift_s / steps:.1f} us/step); "
                  f"colour_graph {total_s:.3f} s", flush=True)
    for name in ("petersen", "K4"):
        ratio = per_step[name, SIZES[-1]] / per_step[name, SIZES[0]]
        print(f"{name}: reduce + lift per step at n = {SIZES[-1]:,} is {ratio:.2f}x that at n = {SIZES[0]:,}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
