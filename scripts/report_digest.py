#!/usr/bin/env python3
"""One sha256 over every colouring report of the benchmark's workloads.

    python3 scripts/report_digest.py [SEED ...]

For each seed (default 0-9) and each of the four workloads of
``bench/workloads.py`` in turn, runs ``colour_graph`` on every graph and
feeds ``ColouringReport.to_json()`` into one sha256.  Prints a digest per
workload, over all seeds, and the overall digest last.  Two checkouts that
print the same last line produce byte-identical reports (colourings,
classes, branches, audits) on those graphs, so a change meant to be pure
speed can be checked with one command on each side.

``bench/generators.py`` and ``bench/workloads.py`` are loaded by path and
only read.  The package is imported from this checkout's ``src``.  Standard
library only.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nearnormal.pipeline import colour_graph  # noqa: E402


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # workloads.py imports generators by name
    spec.loader.exec_module(module)
    return module


generators = _load("generators")
workloads = _load("workloads")


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or list(range(10))
    overall = hashlib.sha256()
    for workload, make in workloads.WORKLOADS.items():
        digest = hashlib.sha256()
        count = 0
        for seed in seeds:
            for case in make(seed):
                text = colour_graph(case.graph, name=case.name)[1].to_json().encode()
                digest.update(text)
                overall.update(text)
                count += 1
        print(f"{workload}: {count} reports, sha256 {digest.hexdigest()}")
    print(f"seeds {seeds[0]}..{seeds[-1]} ({len(seeds)}): sha256 {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
