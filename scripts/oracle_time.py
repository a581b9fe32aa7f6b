#!/usr/bin/env python3
"""Where the exact oracle spends its time, corpus order by corpus order.

    python3 scripts/oracle_time.py

For every packaged corpus order (4-14) and k = 4 and 5, prints the seconds
``oracle.min_medium_exact(g, k)`` takes in total on the graphs whose
minimum is 0 and on the rest, with the graph counts and the slowest single
graph.  At n <= 12 it also runs the recursive reference search in
``tests/reference_search.py`` and checks that both give the same minimum
and the same witness; a mismatch is printed and makes the exit code 1.
The reference time is not part of the printed seconds.

The package is imported from this checkout's ``src``.  Standard library
only.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import reference_search  # noqa: E402
from nearnormal.corpus import CORPUS_ORDERS, load_cubic_corpus  # noqa: E402
from nearnormal.oracle import min_medium_exact  # noqa: E402

PALETTES = (4, 5)
CHECKED_UP_TO = 12


def main() -> int:
    mismatches = 0
    for k in PALETTES:
        for n in CORPUS_ORDERS:
            seconds = {True: 0.0, False: 0.0}
            graphs = {True: 0, False: 0}
            slowest = 0.0
            for g in load_cubic_corpus(n):
                start = time.perf_counter()
                minimum, witness = min_medium_exact(g, k)
                spent = time.perf_counter() - start
                seconds[minimum == 0] += spent
                graphs[minimum == 0] += 1
                slowest = max(slowest, spent)
                if n <= CHECKED_UP_TO:
                    want, want_witness = reference_search.min_medium_exact(g, k)
                    if (minimum, witness) != (want, want_witness):
                        mismatches += 1
                        print(f"MISMATCH k={k} n={n}: {minimum} {witness.colour_of} "
                              f"!= {want} {want_witness.colour_of}")
            checked = "witnesses checked" if n <= CHECKED_UP_TO else "not checked"
            print(f"k={k} n={n:2d}: minimum 0 on {graphs[True]:3d} graphs in "
                  f"{seconds[True]:.4f} s, above 0 on {graphs[False]:3d} in "
                  f"{seconds[False]:.4f} s; slowest {slowest:.4f} s ({checked})", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
