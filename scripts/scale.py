#!/usr/bin/env python3
"""``colour_graph`` at n = 10^4, 10^5 and 10^6, written to BENCH_scale.json.

    python3 scripts/scale.py [--src DIR] [--label NAME] [--sizes N ...]
                             [--families F ...] [--repeats R] [--out FILE]

Three families, each at about the sizes given (default 10^4, 10^5, 10^6):

* ``hamiltonian``: a Hamiltonian cycle plus a random perfect matching of
  chords, none at cycle distance 1 or 2 (so no parallel pair and no
  triangle), with vertex and edge ids relabelled at random.  The sampler is
  not uniform over cubic graphs: almost all cubic graphs are Hamiltonian
  (Robinson & Wormald 1994, "Almost all regular graphs are Hamiltonian"),
  but the chords are drawn as one uniform matching, not with the weights a
  uniform cubic graph gives them.  Seed n.
* ``inflation``: ``petersen_inflation(K, seed=K)`` of ``bench/generators.py``
  with K the even number nearest n / 9, so n = 9K.
* ``flower``: the flower snark J(k) with k the odd number nearest n / 4.

Each graph runs in its own child process, which first caps its address
space at about 6 GB with ``resource.setrlimit(RLIMIT_AS, ...)``, so that a
run that does not fit ends in ``MemoryError``, and so that its peak RSS
(``ru_maxrss``, building the graph included) belongs to that graph alone.
The child times ``colour_graph`` end to end and, by wrapping the names it
calls as ``bench/tracing.py`` does, the matching (``factor._Matcher.match_all``)
and the whole 2-factor stage (``pipeline.choose_two_factor``).  A matcher
that counts its phases and labelled vertices has them recorded too.  With
``--repeats R`` each graph runs R times, each in a fresh child, and each
time recorded is the least of the R.

``--src DIR`` imports the package from ``DIR/src`` (default: this
checkout), so one script measures two checkouts on the same graphs; the
generators always come from this checkout's ``bench/generators.py``.  Rows
are merged into ``--out`` (default BENCH_scale.json at the root of the
checkout), replacing rows with the same label, family and n.  The summary
says, per label and family, whether the matching and the 2-factor stage
stay within 2x of their smallest-n time per vertex at the largest n
(ROADMAP item 3's target), and how much faster than the ``parent`` rows
the matching is.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (10_000, 100_000, 1_000_000)
FAMILIES = ("hamiltonian", "inflation", "flower")
ADDRESS_CAP = 6 << 30


def hamiltonian(n: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A cycle on ``n`` vertices (n even) plus a random chord matching with
    no chord at cycle distance 1 or 2, relabelled at random."""
    ends = list(range(n))
    rng.shuffle(ends)
    chords = [[ends[i], ends[i + 1]] for i in range(0, n, 2)]

    def short(a: int, b: int) -> bool:
        d = abs(a - b)
        return min(d, n - d) <= 2

    bad = [i for i, (a, b) in enumerate(chords) if short(a, b)]
    while bad:  # swap an end of each short chord with a random chord's
        for i in bad:
            j = rng.randrange(len(chords))
            chords[i][1], chords[j][1] = chords[j][1], chords[i][1]
        bad = [i for i, (a, b) in enumerate(chords) if short(a, b)]
    edges = [(i, (i + 1) % n) for i in range(n)] + [(a, b) for a, b in chords]
    rng.shuffle(edges)
    label = list(range(n))
    rng.shuffle(label)
    return n, [(label[u], label[v]) for u, v in edges]


def build(family: str, n: int) -> tuple[int, list[tuple[int, int]]]:
    spec = importlib.util.spec_from_file_location("scale_generators", ROOT / "bench" / "generators.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    if family == "hamiltonian":
        return hamiltonian(n, random.Random(n))
    if family == "inflation":
        k = (n // 9 + 1) // 2 * 2
        rng = random.Random(k)
        return gen.petersen_inflation(gen.random_cubic(k, rng), rng)
    if family == "flower":
        return gen.flower_snark(n // 4 | 1)
    raise SystemExit(f"unknown family {family}")


def child(src: str, family: str, n: int) -> dict:
    """One graph in this process: the row for it."""
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    sys.path.insert(0, str(Path(src).resolve() / "src"))
    from nearnormal import factor, pipeline
    from nearnormal.graph import build_graph

    spent = {"matching": 0.0, "two_factor": 0.0}
    counts = {}

    def timed(name, f, method=False):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start
                if method:
                    counts.update((k, getattr(args[0], k)) for k in ("phases", "labelled") if hasattr(args[0], k))
        return wrapper

    factor._Matcher.match_all = timed("matching", factor._Matcher.match_all, method=True)
    pipeline.choose_two_factor = timed("two_factor", pipeline.choose_two_factor)
    g = build_graph(*build(family, n))
    start = time.perf_counter()
    _colouring, report = pipeline.colour_graph(g)
    seconds = time.perf_counter() - start
    return {
        "family": family,
        "n": g.n,
        "seconds": round(seconds, 4),
        "matching_s": round(spent["matching"], 4),
        "two_factor_s": round(spent["two_factor"], 4),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "branch": report.branch,
        "three_colouring": report.three_colouring,
        "medium_ratio": round(report.medium / (4 * g.n / 5), 4),
        **counts,
    }


def summary(rows: list[dict]) -> list[dict]:
    """Per label and family: microseconds per vertex at the smallest and
    the largest n, for the run, the 2-factor stage and the matching; their
    growth (largest over smallest); and, where a ``parent`` row has the same
    family and largest n, how many times faster the matching is."""
    out = []
    for label, family in sorted({(r["label"], r["family"]) for r in rows}):
        mine = sorted((r for r in rows if (r["label"], r["family"]) == (label, family)), key=lambda r: r["n"])
        small, large = mine[0], mine[-1]
        entry = {"label": label, "family": family, "n": [small["n"], large["n"]]}
        for key, seconds in (("run", "seconds"), ("two_factor", "two_factor_s"), ("matching", "matching_s")):
            per_vertex = [round(1e6 * r[seconds] / r["n"], 2) for r in (small, large)]
            entry[f"{key}_us_per_vertex"] = per_vertex
            entry[f"{key}_growth"] = round(per_vertex[1] / max(per_vertex[0], 0.01), 2)
        entry["two_factor_within_2x"] = entry["two_factor_growth"] <= 2
        entry["matching_within_2x"] = entry["matching_growth"] <= 2
        parent = [r for r in rows if (r["label"], r["family"], r["n"]) == ("parent", family, large["n"])]
        if parent and label != "parent":
            entry["matching_speedup_at_largest_n"] = round(parent[0]["matching_s"] / max(large["matching_s"], 1e-3), 2)
        out.append(entry)
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT))
    parser.add_argument("--label", default="change")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--families", nargs="+", default=list(FAMILIES), choices=FAMILIES)
    parser.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    parser.add_argument("--repeats", type=int, default=1, help="runs per graph; each time is the least of them")
    parser.add_argument("--child", nargs=2, metavar=("FAMILY", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.src, args.child[0], int(args.child[1]))))
        return 0
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    rows = data.get("rows", [])
    for family in args.families:
        for n in args.sizes:
            runs = []
            for _ in range(args.repeats):
                proc = subprocess.run(
                    [sys.executable, __file__, "--src", args.src, "--child", family, str(n)],
                    capture_output=True, text=True,
                )
                if proc.returncode:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                runs.append(json.loads(proc.stdout.splitlines()[-1]))
            row = {"label": args.label, "runs": len(runs), **runs[0]}
            row.update((key, min(run[key] for run in runs)) for key in ("seconds", "matching_s", "two_factor_s"))
            print(json.dumps(row), flush=True)
            rows = [r for r in rows if (r["label"], r["family"], r["n"]) != (row["label"], family, row["n"])]
            rows.append(row)
    data = {
        "about": "colour_graph per graph, the least time of `runs` runs; written by scripts/scale.py",
        "rows": sorted(rows, key=lambda r: (r["family"], r["n"], r["label"])),
        "summary": summary(rows),
    }
    out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
