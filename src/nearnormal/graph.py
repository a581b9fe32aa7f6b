"""Loopless undirected multigraph with stable edge ids.

Every other module consumes this representation.  Edges carry dense integer
ids assigned in input order, so parallel edges stay distinguishable and all
downstream maps are keyed by edge id, never by endpoint pair (graph rewrites
create and destroy parallel edges).

The module also holds the structural queries a run needs: input validation
by one lowpoint search, and the doubled pairs and triangles that reduction
removes.
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphError(ValueError):
    """Structurally invalid graph, edge reference, or query."""


class ColouringError(GraphError):
    """Improper colouring or an infeasible construction step."""


class MultiGraph:
    """Loopless multigraph on vertices ``0..n-1``.

    ``edges[i]`` holds the endpoint pair of edge ``i``, normalised so the
    smaller vertex comes first.  Instances are immutable after construction
    and safe to share; all queries are read-only.
    """

    __slots__ = ("n", "edges", "_incident")

    def __init__(self, vertex_count: int, edge_list) -> None:
        if vertex_count < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = vertex_count
        edges: list[tuple[int, int]] = []
        incident: list[list[int]] = [[] for _ in range(vertex_count)]
        for eid, (u, v) in enumerate(edge_list):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphError(f"edge {eid}: endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"edge {eid}: loop at vertex {u}")
            if u > v:
                u, v = v, u
            edges.append((u, v))
            incident[u].append(eid)
            incident[v].append(eid)
        self.edges = tuple(edges)
        self._incident = tuple(tuple(es) for es in incident)

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, e: int) -> tuple[int, int]:
        self._check_edge(e)
        return self.edges[e]

    def other_end(self, e: int, v: int) -> int:
        a, b = self.endpoints(e)
        if v == a:
            return b
        if v == b:
            return a
        raise GraphError(f"vertex {v} is not an endpoint of edge {e}")

    def incident_edges(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._incident[v]

    def degree(self, v: int) -> int:
        return len(self.incident_edges(v))

    def neighbours(self, v: int) -> list[int]:
        """Neighbouring vertices, with multiplicity for parallel edges."""
        return [self.other_end(e, v) for e in self.incident_edges(v)]

    def is_cubic(self) -> bool:
        return set(map(len, self._incident)) == {3}

    def is_simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range")

    def _check_edge(self, e: int) -> None:
        if not (0 <= e < len(self.edges)):
            raise GraphError(f"edge id {e} out of range")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Diagnosis:
    """Outcome of :func:`validate_input`; ``reason`` names the first
    violated property when ``ok`` is false."""

    ok: bool
    reason: str | None = None
    detail: str | None = None


def build_graph(vertex_count: int, edge_list) -> MultiGraph:
    """Build a loopless multigraph; edge ids follow input order."""
    return MultiGraph(vertex_count, edge_list)


def _lowpoint_search(n: int, edges, incident) -> tuple[int, set[int]]:
    """One iterative lowpoint search from vertex 0 over ``n`` vertices, endpoint pairs
    ``edges`` and incidence lists ``incident``: how many vertices it reaches, and its cut edges.

    Parallel edges are never bridges: the twin edge acts as a back edge
    because the traversal skips only the tree edge *id*, not the endpoint.
    """
    bridges: set[int] = set()
    if n == 0:
        return 0, bridges
    disc = [-1] * n
    low = [0] * n
    nxt = [0] * n  # per vertex, the index in its incidence list to scan next
    via = [-1] * n  # per vertex, the tree edge it was reached by
    disc[0] = 0
    counter = 1
    stack = [0]
    while stack:
        v = stack[-1]
        es, i = incident[v], nxt[v]
        if i < len(es):
            nxt[v] = i + 1
            e = es[i]
            if e == via[v]:
                continue
            a, b = edges[e]
            w = a ^ b ^ v
            if disc[w] < 0:
                disc[w] = low[w] = counter
                counter += 1
                via[w] = e
                stack.append(w)
            elif disc[w] < low[v]:
                low[v] = disc[w]
            continue
        stack.pop()
        if stack:
            parent = stack[-1]
            if low[v] < low[parent]:
                low[parent] = low[v]
            if low[v] > disc[parent]:
                bridges.add(via[v])
    return counter, bridges


def validate_input(g: MultiGraph) -> Diagnosis:
    """Accept exactly the connected bridgeless cubic loopless multigraphs.

    One lowpoint search answers both connectivity and bridgelessness; the
    diagnosis still names connectivity first, then cubicness, then bridges.
    """
    reached, bridges = _lowpoint_search(g.n, g.edges, g._incident)
    # The empty graph counts as connected; it is rejected as non-cubic.
    if reached != g.n:
        return Diagnosis(False, "connected", "graph is disconnected")
    if g.n == 0:
        return Diagnosis(False, "cubic", "graph has no vertices")
    if set(map(len, g._incident)) != {3}:
        v, es = next((v, es) for v, es in enumerate(g._incident) if len(es) != 3)
        return Diagnosis(False, "cubic", f"vertex {v} has degree {len(es)}")
    # loops are unrepresentable (MultiGraph rejects them at build time)
    if bridges:
        e = min(bridges)
        return Diagnosis(False, "bridge", f"edge {e} = {g.endpoints(e)} is a bridge")
    return Diagnosis(True)


def _pairs_and_triangles(g: MultiGraph) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """The doubled vertex pairs and the triangles of ``g``, both sorted, from
    one pass building neighbour sets: O(m) on a cubic graph."""
    nb: list[set[int]] = [set() for _ in range(g.n)]
    pairs = set()
    for u, v in g.edges:
        if v in nb[u]:
            pairs.add((u, v))
        nb[u].add(v)
        nb[v].add(u)
    triangles = {(u, v, w) for u, v in g.edges if not nb[u].isdisjoint(nb[v]) for w in nb[u] & nb[v] if w > v}
    return sorted(pairs), sorted(triangles)
