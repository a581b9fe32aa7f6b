"""Perfect matchings and 2-factors.

A perfect matching M of a cubic graph leaves a 2-regular remainder whose
cycles form the 2-factor F; the construction downstream consumes the cycle
decomposition together with a fixed cyclic ordering of each cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphError, MultiGraph

DEFAULT_MATCHING_LIMIT = 10_000


@dataclass(frozen=True)
class TwoFactor:
    """A perfect matching plus the cycle decomposition of its complement.

    ``cycles[c]`` lists the vertices of cycle ``c`` in traversal order and
    ``cycle_edges[c][i]`` is the edge joining ``cycles[c][i]`` to
    ``cycles[c][(i+1) % len]``.  ``position[v]`` is the index of ``v`` in
    its cycle, and ``cycle_of_edge[e]`` the cycle of edge ``e`` (-1 on
    matching edges).  ``partner[v]`` is the matched neighbour of ``v`` and
    ``matching_edge_of[v]`` the matching edge at ``v``.
    """

    graph: MultiGraph
    matching: frozenset[int]
    cycles: tuple[tuple[int, ...], ...]
    cycle_edges: tuple[tuple[int, ...], ...]
    cycle_of_vertex: tuple[int, ...]
    position: tuple[int, ...]
    cycle_of_edge: tuple[int, ...]
    partner: tuple[int, ...]
    matching_edge_of: tuple[int, ...]

    def cycle_length(self, c: int) -> int:
        return len(self.cycles[c])

    def odd_cycles(self) -> list[int]:
        return [c for c in range(len(self.cycles)) if len(self.cycles[c]) % 2]

    def position_on_cycle(self, c: int, v: int) -> int:
        if self.cycle_of_vertex[v] != c:
            raise GraphError(f"vertex {v} is not on cycle {c}")
        return self.position[v]

    def edge_position(self, e: int) -> int:
        """The index of cycle edge ``e`` in ``cycle_edges[cycle_of_edge[e]]``."""
        c = self.cycle_of_edge[e]
        u, v = self.graph.edges[e]
        p = self.position_on_cycle(c, u)  # raises on a matching edge, where c = -1
        return p if self.cycle_edges[c][p] == e else self.position[v]


def is_perfect_matching(g: MultiGraph, m) -> bool:
    covered = set()
    for e in m:
        u, v = g.endpoints(e)
        if u in covered or v in covered:
            return False
        covered.add(u)
        covered.add(v)
    return len(covered) == g.n


def enumerate_perfect_matchings(g: MultiGraph, limit: int = DEFAULT_MATCHING_LIMIT) -> list[frozenset[int]]:
    """Distinct perfect matchings, exhaustive when their number is at most
    ``limit``, sorted lexicographically by sorted edge-id set.

    Backtracking branches over the incident edges of the lowest-id uncovered
    vertex, so the graph must have minimum degree >= 1.
    """
    if limit <= 0:
        raise GraphError("matching enumeration limit must be positive")
    if g.n % 2:
        return []
    found: list[frozenset[int]] = []
    covered = [False] * g.n
    chosen: list[int] = []

    def search() -> bool:
        """Return False once the limit is hit to cut the whole search."""
        v = next((u for u in range(g.n) if not covered[u]), None)
        if v is None:
            found.append(frozenset(chosen))
            return len(found) < limit
        for e in g.incident_edges(v):
            w = g.other_end(e, v)
            if covered[w]:
                continue
            covered[v] = covered[w] = True
            chosen.append(e)
            keep_going = search()
            chosen.pop()
            covered[v] = covered[w] = False
            if not keep_going:
                return False
        return True

    search()
    del search  # the closure refers to itself; free ``found`` on return, not at the next GC
    return sorted(found, key=sorted)


def two_factor_from_matching(g: MultiGraph, m) -> TwoFactor:
    """Cycle decomposition of G - M with a deterministic traversal: each
    cycle starts at its smallest vertex and proceeds toward the smaller
    neighbour (smaller edge id breaks parallel-edge ties)."""
    matching = frozenset(m)
    if not is_perfect_matching(g, matching):
        raise GraphError("not a perfect matching of this graph")
    partner = [-1] * g.n
    matching_edge_of = [-1] * g.n
    for e in matching:
        u, v = g.endpoints(e)
        partner[u], partner[v] = v, u
        matching_edge_of[u] = matching_edge_of[v] = e
    cycle_inc: list[list[int]] = [[] for _ in range(g.n)]
    for e in range(g.m):
        if e in matching:
            continue
        u, v = g.endpoints(e)
        cycle_inc[u].append(e)
        cycle_inc[v].append(e)
    for v in range(g.n):
        if len(cycle_inc[v]) != 2:
            raise GraphError("graph minus matching is not 2-regular (input not cubic?)")

    cycles: list[tuple[int, ...]] = []
    cycle_edges: list[tuple[int, ...]] = []
    cycle_of_vertex = [-1] * g.n
    cycle_of_edge = [-1] * g.m
    position = [-1] * g.n
    for start in range(g.n):
        if cycle_of_vertex[start] != -1:
            continue
        idx = len(cycles)
        e1, e2 = cycle_inc[start]
        first = min(
            (e1, e2),
            key=lambda e: (g.other_end(e, start), e),
        )
        verts = [start]
        eids = [first]
        v = g.other_end(first, start)
        prev_edge = first
        while v != start:
            verts.append(v)
            a, b = cycle_inc[v]
            nxt = b if a == prev_edge else a
            eids.append(nxt)
            v = g.other_end(nxt, v)
            prev_edge = nxt
        cycles.append(tuple(verts))
        cycle_edges.append(tuple(eids))
        for i, (x, e) in enumerate(zip(verts, eids)):
            cycle_of_vertex[x] = cycle_of_edge[e] = idx
            position[x] = i
    return TwoFactor(
        graph=g,
        matching=matching,
        cycles=tuple(cycles),
        cycle_edges=tuple(cycle_edges),
        cycle_of_vertex=tuple(cycle_of_vertex),
        position=tuple(position),
        cycle_of_edge=tuple(cycle_of_edge),
        partner=tuple(partner),
        matching_edge_of=tuple(matching_edge_of),
    )


def choose_two_factor(g: MultiGraph, limit: int = DEFAULT_MATCHING_LIMIT) -> TwoFactor:
    """Pick the 2-factor the construction starts from.

    Take the lexicographically first enumerated perfect matching whose
    2-factor contains a cycle of length other than 5; such a 2-factor exists
    for every connected bridgeless cubic graph except the Petersen graph, and
    it makes the final medium bound strict.  Above ``limit`` matchings the
    enumeration stops early, so the choice is the first among the ``limit``
    matchings found, not among all of them.
    """
    matchings = enumerate_perfect_matchings(g, limit)
    if not matchings:
        raise GraphError("graph has no perfect matching")
    fallback: TwoFactor | None = None
    for m in matchings:
        tf = two_factor_from_matching(g, m)
        if fallback is None:
            fallback = tf
        if any(len(cyc) != 5 for cyc in tf.cycles):
            return tf
    return fallback
