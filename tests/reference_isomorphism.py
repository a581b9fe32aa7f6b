"""Exact isomorphism test for small simple graphs, for the tests and the
corpus generator (``scripts/generate_corpus.py``) to compare against.

Each call runs one breadth-first search from every vertex of each graph.
The resulting per-vertex distance profiles serve twice: their sorted lists
must agree before any backtracking starts, and during it a vertex maps only
to a vertex with the same profile and degree.  The profile filter only
narrows the search; the backtracking decides.
"""

from __future__ import annotations

from collections import deque

from nearnormal.graph import GraphError, MultiGraph


def vertex_profiles(g: MultiGraph) -> list[tuple[tuple[int, int], ...]]:
    """Per vertex, the (distance, count) pairs of a BFS from it."""
    adj = [g.neighbours(v) for v in range(g.n)]
    out = []
    for root in range(g.n):
        dist = [-1] * g.n
        dist[root] = 0
        queue = deque([root])
        counts: dict[int, int] = {}
        while queue:
            v = queue.popleft()
            counts[dist[v]] = counts.get(dist[v], 0) + 1
            for w in adj[v]:
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        out.append(tuple(sorted(counts.items())))
    return out


def graphs_isomorphic(g1: MultiGraph, g2: MultiGraph) -> bool:
    """Exact isomorphism test for small simple graphs (backtracking)."""
    if not (g1.is_simple() and g2.is_simple()):
        raise GraphError("isomorphism test supports simple graphs only")
    if g1.n != g2.n or g1.m != g2.m:
        return False
    prof1 = vertex_profiles(g1)
    prof2 = vertex_profiles(g2)
    if sorted(prof1) != sorted(prof2):
        return False
    n = g1.n
    if n == 0:
        return True
    adj1 = [set(g1.neighbours(v)) for v in range(n)]
    adj2 = [set(g2.neighbours(v)) for v in range(n)]
    # map vertices of g1 in a connectivity-friendly order
    order = _mapping_order(adj1)
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or prof1[v] != prof2[w] or len(adj1[v]) != len(adj2[w]):
                continue
            if all((u in adj1[v]) == (mapping[u] in adj2[w]) for u in range(n) if mapping[u] != -1):
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return extend(0)


def _mapping_order(adj: list[set[int]]) -> list[int]:
    """The vertices in breadth-first order, component by component."""
    n = len(adj)
    seen = [False] * n
    order: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(adj[v]):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order
