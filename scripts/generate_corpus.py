#!/usr/bin/env python3
"""Regenerate the packaged graph6 corpus of connected cubic simple graphs.

Writes src/nearnormal/data/cubicNN.g6 (one graph per line, full connected
corpus including bridged graphs; consumers filter).  Counts are checked
against the published sequence for connected cubic graphs before anything is
written, so a generator regression cannot silently corrupt the corpus.

The generator backtracks over labelled graphs with isomorphism rejection
(``tests/reference_isomorphism.py``); it takes about 1 s at n = 12 and
23 s at n = 14 on a 2-core machine with Python 3.11.  The package is
imported from this checkout's ``src``.

Usage: python scripts/generate_corpus.py [orders...]
"""

from __future__ import annotations

import sys
import time
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from nearnormal.corpus import CONNECTED_CUBIC_COUNTS  # noqa: E402
from nearnormal.graph import MultiGraph  # noqa: E402
from nearnormal.graphio import write_graph6  # noqa: E402
from reference_isomorphism import graphs_isomorphic, vertex_profiles  # noqa: E402

DATA_DIR = ROOT / "src" / "nearnormal" / "data"


def _labelled_cubic_leaves(n: int):
    """Yield edge lists of connected cubic graphs on n labelled vertices.

    Labels follow breadth-first discovery order, which enforces
    connectivity.  Pairs of vertices introduced together are interchangeable
    until an edge touches exactly one of them; branches that favour the
    larger label at that first asymmetry are rejected (the swapped labelling
    is produced elsewhere).  Isomorphic duplicates still remain and must be
    filtered by the caller.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    deg = [0] * n
    edges: list[tuple[int, int]] = []
    tied: dict[int, bool] = {}

    def extend(v: int, frontier_end: int):
        if v == n:
            yield list(edges)
            return
        if v >= frontier_end:
            return
        need = 3 - deg[v]
        cands = [
            u for u in range(v + 1, frontier_end)
            if deg[u] < 3 and u not in adj[v]
        ]
        max_new = min(need, n - frontier_end)
        for k in range(max_new, -1, -1):
            b = need - k
            if b > len(cands):
                continue
            for back in combinations(cands, b):
                bs = set(back)
                rejected = False
                resolved: list[int] = []
                for a, is_tied in tied.items():
                    if not is_tied:
                        continue
                    touched_a = (v == a) or (a in bs)
                    touched_b = (a + 1) in bs
                    if touched_b and not touched_a:
                        rejected = True
                        break
                    if touched_a != touched_b:
                        resolved.append(a)
                if rejected:
                    continue
                for a in resolved:
                    tied[a] = False
                added = []
                for u in back:
                    edges.append((v, u))
                    adj[v].add(u)
                    adj[u].add(v)
                    deg[v] += 1
                    deg[u] += 1
                    added.append(u)
                new_pairs = []
                for j in range(k):
                    w = frontier_end + j
                    edges.append((v, w))
                    adj[v].add(w)
                    adj[w].add(v)
                    deg[v] += 1
                    deg[w] += 1
                    added.append(w)
                    if j + 1 < k:
                        new_pairs.append(w)
                        tied[w] = True
                fe2 = frontier_end + k
                rem = sum(3 - deg[u] for u in range(v + 1, fe2)) + 3 * (n - fe2)
                feasible = rem % 2 == 0
                if feasible and fe2 < n:
                    feasible = any(deg[u] < 3 for u in range(v + 1, fe2))
                if feasible:
                    yield from extend(v + 1, fe2)
                for w in new_pairs:
                    del tied[w]
                for u in reversed(added):
                    edges.pop()
                    adj[v].discard(u)
                    adj[u].discard(v)
                    deg[v] -= 1
                    deg[u] -= 1
                for a in resolved:
                    tied[a] = True

    yield from extend(0, 1)


def generate_connected_cubic(n: int) -> list[MultiGraph]:
    """All connected cubic simple graphs on n vertices, one per isomorphism
    class, in a deterministic order."""
    if n < 4 or n % 2:
        return []
    buckets: dict[tuple, list[MultiGraph]] = {}
    out: list[MultiGraph] = []
    for edge_list in _labelled_cubic_leaves(n):
        g = MultiGraph(n, edge_list)
        bucket = buckets.setdefault(tuple(sorted(vertex_profiles(g))), [])
        if any(graphs_isomorphic(g, h) for h in bucket):
            continue
        bucket.append(g)
        out.append(g)
    return out


def main(argv: list[str]) -> int:
    orders = [int(a) for a in argv] or sorted(CONNECTED_CUBIC_COUNTS)
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for n in orders:
        start = time.time()
        graphs = generate_connected_cubic(n)
        elapsed = time.time() - start
        expected = CONNECTED_CUBIC_COUNTS.get(n)
        print(f"n={n}: {len(graphs)} graphs in {elapsed:.1f}s", flush=True)
        if expected is not None and len(graphs) != expected:
            print(f"  MISMATCH: expected {expected}; not writing", flush=True)
            return 1
        path = DATA_DIR / f"cubic{n:02d}.g6"
        path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
        print(f"  wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
