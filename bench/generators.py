"""Seeded generators for the benchmark's graph families.

Each generator returns ``(n, edges)``: a vertex count and a list of
``(u, v)`` endpoint pairs, one per edge, in edge-id order.  The module does
not import ``nearnormal``, so the graphs are built without the code under
test; callers turn them into ``MultiGraph`` objects.

Families:

* flower snarks J_k (Isaacs 1975), not 3-edge-colourable for odd k >= 5;
* Petersen inflations: every vertex of a cubic base graph becomes a copy of
  the Petersen graph minus a vertex.  By the parity lemma each copy's three
  outgoing edges carry three distinct colours in any 3-edge-colouring,
  which would extend to a 3-edge-colouring of the Petersen graph, so no
  inflation is 3-edge-colourable;
* triangle truncation of one vertex and digon insertion on one edge, each
  adding two vertices and keeping the graph cubic and bridgeless;
* the random pairing (configuration) model, filtered to simple, connected
  and bridgeless graphs, optionally also triangle-free.
"""

from __future__ import annotations

import random

Graph = tuple[int, list[tuple[int, int]]]


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i--i+5."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return 10, outer + inner + spokes


def flower_snark(k: int) -> Graph:
    """J_k on 4k vertices: stars a_i -> b_i, c_i, d_i, the k-cycle on the
    b_i, and the 2k-cycle c_0 .. c_{k-1} d_0 .. d_{k-1}."""
    if k < 3:
        raise ValueError("flower snark needs k >= 3")
    a, b, c, d = (lambda i: 4 * i), (lambda i: 4 * i + 1), (lambda i: 4 * i + 2), (lambda i: 4 * i + 3)
    edges = []
    for i in range(k):
        edges += [(a(i), b(i)), (a(i), c(i)), (a(i), d(i)), (b(i), b((i + 1) % k))]
    rim = [c(i) for i in range(k)] + [d(i) for i in range(k)]
    edges += [(rim[i], rim[(i + 1) % (2 * k)]) for i in range(2 * k)]
    return 4 * k, edges


def petersen_inflation(base: Graph, rng: random.Random) -> Graph:
    """Replace each base vertex by Petersen minus vertex 0; every base edge
    joins one free port (a former neighbour of vertex 0) of each end's copy.
    ``rng`` picks which port serves which base edge."""
    base_n, base_edges = base
    pn, pedges = petersen()
    piece = [(u - 1, v - 1) for u, v in pedges if 0 not in (u, v)]
    ports = [u + v - 1 for u, v in pedges if 0 in (u, v)]  # vertices 1, 4, 5 of P
    size = pn - 1
    edges = []
    for x in range(base_n):
        edges += [(x * size + u, x * size + v) for u, v in piece]
    free = []
    for x in range(base_n):
        order = ports[:]
        rng.shuffle(order)
        free.append([x * size + p for p in order])
    for u, v in base_edges:
        edges.append((free[u].pop(), free[v].pop()))
    return base_n * size, edges


def truncate_vertex(g: Graph, v: int) -> Graph:
    """Replace vertex ``v`` by a triangle; its three edges keep their ids and
    now end at the triangle's corners ``v``, ``n`` and ``n + 1``."""
    n, edges = g
    corners = [v, n, n + 1]
    out = list(edges)
    slot = 0
    for eid, (a, b) in enumerate(edges):
        if v in (a, b):
            other = b if a == v else a
            out[eid] = (corners[slot], other)
            slot += 1
    if slot != 3:
        raise ValueError(f"vertex {v} does not have degree 3")
    out += [(v, n), (n, n + 1), (n + 1, v)]
    return n + 2, out


def insert_digon(g: Graph, e: int) -> Graph:
    """Edge u--v becomes u--a, a=b (two parallel edges), b--v."""
    n, edges = g
    u, v = edges[e]
    a, b = n, n + 1
    out = list(edges)
    out[e] = (u, a)
    out += [(a, b), (a, b), (b, v)]
    return n + 2, out


def random_cubic(n: int, rng: random.Random, triangle_free: bool = False) -> Graph:
    """Pairing model on ``n`` vertices, resampled until the graph is simple,
    connected and bridgeless (and without triangles, if asked).

    Each attempt pairs the 3n points one pair at a time and starts over at
    the first loop, parallel edge or triangle, which samples the same
    distribution as pairing them all and rejecting afterwards."""
    if n < 4 or n % 2:
        raise ValueError("a cubic graph needs an even order >= 4")
    points = [v for v in range(n) for _ in range(3)]
    while True:
        edges = _simple_pairing(points, rng, triangle_free)
        if edges is not None and bridges((n, edges)) == set():
            return n, edges


def _simple_pairing(points: list[int], rng: random.Random, triangle_free: bool):
    n = len(points) // 3
    adj: list[set[int]] = [set() for _ in range(n)]
    edges = []
    for i in range(0, len(points), 2):
        j = rng.randrange(i + 1, len(points))
        points[i + 1], points[j] = points[j], points[i + 1]
        u, v = sorted(points[i:i + 2])
        if u == v or v in adj[u] or (triangle_free and adj[u] & adj[v]):
            return None
        adj[u].add(v)
        adj[v].add(u)
        edges.append((u, v))
    return edges


def bridges(g: Graph) -> set[int] | None:
    """Bridge edge ids of a multigraph, or None when it is disconnected.

    Iterative low-link search that skips only the entry edge's id, so a
    parallel twin counts as a back edge."""
    n, edges = g
    inc: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        inc[u].append(eid)
        inc[v].append(eid)
    disc = [-1] * n
    low = [0] * n
    found: set[int] = set()
    disc[0] = low[0] = 0
    clock = 1
    stack = [(0, -1, iter(inc[0]))]
    while stack:
        v, via, it = stack[-1]
        for eid in it:
            if eid == via:
                continue
            a, b = edges[eid]
            w = b if a == v else a
            if disc[w] == -1:
                disc[w] = low[w] = clock
                clock += 1
                stack.append((w, eid, iter(inc[w])))
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] > disc[parent]:
                    found.add(via)
    if -1 in disc:
        return None
    return found

