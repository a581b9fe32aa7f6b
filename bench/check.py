"""Output checks written apart from the package.

Everything here works on the input's plain edge list (edge id = list
index) and the colour tuple the pipeline returned; nothing is imported
from ``nearnormal``, so a fault in the package's own classification or
verification cannot hide itself.
"""

from __future__ import annotations

from collections import deque


def incidence(n: int, edges) -> list[list[int]]:
    inc: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        inc[u].append(eid)
        inc[v].append(eid)
    return inc


def colouring_problems(n: int, edges, colours, k: int = 4) -> list[str]:
    """Why ``colours`` is not a proper edge colouring with palette 1..k."""
    if len(colours) != len(edges):
        return [f"{len(colours)} colours for {len(edges)} edges"]
    out = [f"edge {e} has colour {c} outside 1..{k}" for e, c in enumerate(colours) if not 1 <= c <= k]
    for v, es in enumerate(incidence(n, edges)):
        cols = [colours[e] for e in es]
        if len(set(cols)) != len(cols):
            out.append(f"vertex {v} sees colours {cols}")
    return out


def class_counts(n: int, edges, colours) -> dict[str, int]:
    """Poor / medium / rich counts of a proper colouring: an edge is poor
    when its adjacent edges carry 2 colours, rich at 4, medium otherwise."""
    inc = incidence(n, edges)
    counts = {"poor": 0, "medium": 0, "rich": 0}
    for e, (u, v) in enumerate(edges):
        seen = {colours[x] for x in inc[u] + inc[v] if x != e}
        counts[{2: "poor", 4: "rich"}.get(len(seen), "medium")] += 1
    return counts


def girth(n: int, edges) -> int:
    """Length of a shortest cycle (2 for a parallel pair), 0 if acyclic."""
    if len({tuple(sorted(e)) for e in edges}) != len(edges):
        return 2
    inc = incidence(n, edges)
    best = 0
    for root in range(n):
        dist = [-1] * n
        via = [-1] * n
        dist[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for e in inc[v]:
                a, b = edges[e]
                w = b if a == v else a
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    via[w] = e
                    queue.append(w)
                elif e != via[v]:
                    cyc = dist[v] + dist[w] + 1
                    best = cyc if not best else min(best, cyc)
    return best


def is_petersen(n: int, edges) -> bool:
    """The Petersen graph is the only cubic graph on 10 vertices with
    girth 5 (the unique (3,5)-cage)."""
    if n != 10 or len(edges) != 15:
        return False
    if any(len(es) != 3 for es in incidence(n, edges)):
        return False
    return girth(n, edges) == 5


def report_problems(n: int, edges, colours, report, petersen: bool) -> list[str]:
    """Check one ``colour_graph`` result against the input graph."""
    out = colouring_problems(n, edges, colours)
    if out:
        return out
    if tuple(report.colours) != tuple(colours):
        out.append("report colours differ from the returned colouring")
    if (report.n, report.m) != (n, len(edges)):
        out.append(f"report says n={report.n}, m={report.m}")
    counts = class_counts(n, edges, colours)
    for cls, got in counts.items():
        if getattr(report, cls) != got:
            out.append(f"report says {getattr(report, cls)} {cls} edges, recount gives {got}")
    medium = counts["medium"]
    if 5 * medium > 4 * n:
        out.append(f"{medium} medium edges exceed 4n/5 = {4 * n / 5}")
    elif 5 * medium == 4 * n and not petersen:
        out.append(f"{medium} medium edges meet 4n/5 on a graph other than Petersen")
    if petersen and medium != 8:
        out.append(f"Petersen graph got {medium} medium edges, not 8")
    if report.is_petersen != petersen:
        out.append(f"report says is_petersen={report.is_petersen}")
    if report.audit_passed is False:
        out.append("discharging audit failed: " + "; ".join(report.audit_failures))
    return out


def oracle_problems(n: int, edges, minimum: int, witness, pipeline_medium: int) -> list[str]:
    """Check an oracle answer: its witness is a proper 4-colouring with
    exactly ``minimum`` medium edges, and the pipeline did not beat it."""
    out = colouring_problems(n, edges, witness)
    if out:
        return ["oracle witness: " + p for p in out]
    got = class_counts(n, edges, witness)["medium"]
    if got != minimum:
        out.append(f"oracle witness has {got} medium edges, oracle says {minimum}")
    if pipeline_medium < minimum:
        out.append(f"pipeline found {pipeline_medium} medium edges, below the oracle minimum {minimum}")
    return out
