"""Perfect matchings and 2-factors.

A perfect matching M of a cubic graph leaves a 2-regular remainder whose
cycles form the 2-factor F; the construction downstream consumes the cycle
decomposition together with a fixed cyclic ordering of each cycle.

:func:`choose_two_factor` takes M from Edmonds' augmenting-path search, in
polynomial time, and looks further only when every cycle of F has length 5.
:func:`connected_and_bridgeless` reads both properties of G off F, and
:func:`choose_two_factor` refuses a G that lacks either.
:func:`enumerate_perfect_matchings` lists matchings up to a cap.  The
pipeline does not use it; it stays because ``bench/tracing.py`` wraps it by
name (guarded by ``tests/test_bench_hooks.py``) and
``scripts/selection_gap.py`` calls it, until ROADMAP item 1 removes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import GraphError, MultiGraph, _lowpoint_search

DEFAULT_MATCHING_LIMIT = 10_000


@dataclass(frozen=True)
class TwoFactor:
    """A perfect matching plus the cycle decomposition of its complement.

    ``cycles[c]`` lists the vertices of cycle ``c`` in traversal order and
    ``cycle_edges[c][i]`` is the edge joining ``cycles[c][i]`` to
    ``cycles[c][(i+1) % len]``.  ``position[v]`` is the index of ``v`` in
    its cycle, and ``cycle_of_edge[e]`` the cycle of edge ``e`` (-1 on
    matching edges).  ``partner[v]`` is the matched neighbour of ``v``.
    """

    graph: MultiGraph
    matching: frozenset[int]
    cycles: tuple[tuple[int, ...], ...]
    cycle_edges: tuple[tuple[int, ...], ...]
    cycle_of_vertex: tuple[int, ...]
    position: tuple[int, ...]
    cycle_of_edge: tuple[int, ...]
    partner: tuple[int, ...]
    _odd: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_odd", tuple(c for c, cyc in enumerate(self.cycles) if len(cyc) % 2))

    def cycle_length(self, c: int) -> int:
        return len(self.cycles[c])

    def odd_cycles(self) -> tuple[int, ...]:
        """The indices of the odd cycles, in increasing order."""
        return self._odd

    def position_on_cycle(self, c: int, v: int) -> int:
        if self.cycle_of_vertex[v] != c:
            raise GraphError(f"vertex {v} is not on cycle {c}")
        return self.position[v]


def connected_and_bridgeless(tf: TwoFactor) -> bool:
    """Whether G = ``tf.graph`` is connected and bridgeless, decided on the
    quotient Q with one vertex per cycle and one edge per matching edge
    joining two cycles.  No edge on a cycle of G is a bridge, chords
    included, and contracting the cycles keeps components and bridges, so G
    is connected and bridgeless iff Q is.  Q has at most n/2 edges."""
    cyc, edges = tf.cycle_of_vertex, tf.graph.edges
    ends = ((cyc[u], cyc[v]) for u, v in map(edges.__getitem__, tf.matching))
    q = MultiGraph(len(tf.cycles), [(a, b) for a, b in ends if a != b])
    reached, bridges = _lowpoint_search(q)
    return reached == q.n and not bridges


def enumerate_perfect_matchings(g: MultiGraph, limit: int = DEFAULT_MATCHING_LIMIT) -> list[frozenset[int]]:
    """Distinct perfect matchings, exhaustive when their number is at most
    ``limit``, sorted lexicographically by sorted edge-id set.

    Backtracking branches over the incident edges of the lowest-id uncovered
    vertex.  It keeps an explicit stack, one entry per level, so no graph is
    too deep for it.
    """
    if limit <= 0:
        raise GraphError("matching enumeration limit must be positive")
    if g.n % 2:
        return []
    n, edges, incident = g.n, g.edges, g._incident
    found: list[frozenset[int]] = []
    covered = [False] * n
    chosen: list[int] = []  # per level of the stack, the edge it picked last
    stack: list[list[int]] = []  # per level, its vertex and the index of its next incidence to try
    v = 0  # the vertex to branch on: the lowest uncovered one, n if none is, -1 after a backtrack
    while True:
        if v == n:
            found.append(frozenset(chosen))
            if len(found) == limit:
                break
        elif v >= 0:
            stack.append([v, 0])
        if not stack:
            break
        level = stack[-1]
        u, i = level
        if len(chosen) == len(stack):  # withdraw the level's last pick
            a, b = edges[chosen.pop()]
            covered[a] = covered[b] = False
        es = incident[u]
        # u is uncovered, so an edge at u is free when neither end is covered
        while i < len(es) and (covered[edges[es[i]][0]] or covered[edges[es[i]][1]]):
            i += 1
        if i == len(es):
            stack.pop()
            v = -1
            continue
        level[1] = i + 1
        a, b = edges[es[i]]
        covered[a] = covered[b] = True
        chosen.append(es[i])
        v = u + 1
        while v < n and covered[v]:
            v += 1
    return sorted(found, key=sorted)


def two_factor_from_matching(g: MultiGraph, m) -> TwoFactor:
    """Cycle decomposition of G - M with a deterministic traversal: each
    cycle starts at its smallest vertex and proceeds toward the smaller
    neighbour (smaller edge id breaks parallel-edge ties).

    ``g`` must be cubic and M a perfect matching of it, n/2 edges whose
    ends cover every vertex.  Then G - M is 2-regular: at each vertex the
    two edges other than its matching edge."""
    matching = frozenset(m)
    edges, inc = g.edges, g._incident
    if matching and (min(matching) < 0 or max(matching) >= len(edges)):
        raise GraphError("not a perfect matching of this graph")
    if any(map((3).__ne__, map(len, inc))):
        raise GraphError("graph minus matching is not 2-regular (input not cubic?)")
    mate, partner = [-1] * g.n, [-1] * g.n  # per vertex, its matching edge and that edge's other end
    for e in matching:
        u, v = edges[e]
        mate[u] = mate[v] = e
        partner[u], partner[v] = v, u
    # n/2 edges that cover every vertex cover each once
    if 2 * len(matching) != g.n or -1 in mate:
        raise GraphError("not a perfect matching of this graph")

    cycles: list[tuple[int, ...]] = []
    cycle_edges: list[tuple[int, ...]] = []
    cycle_of_vertex = [-1] * g.n
    cycle_of_edge = [-1] * g.m
    position = [-1] * g.n
    start = done = 0
    while done < g.n:
        start = cycle_of_vertex.index(-1, start)  # the smallest vertex on no cycle yet
        idx = len(cycles)
        a, b, c = inc[start]  # in increasing id order
        e, f = (b, c) if a == mate[start] else (a, c) if b == mate[start] else (a, b)
        a, b = edges[f]
        w = a ^ b ^ start
        a, b = edges[e]
        v = a ^ b ^ start
        if w < v:
            e, v = f, w
        verts, eids = [start], [e]
        while v != start:
            verts.append(v)
            a, b, c = inc[v]
            e ^= a ^ b ^ c ^ mate[v]  # the other one of v's two cycle edges
            eids.append(e)
            a, b = edges[e]
            v ^= a ^ b
        for i, x in enumerate(verts):
            cycle_of_vertex[x] = idx
            position[x] = i
        for e in eids:
            cycle_of_edge[e] = idx
        done += len(verts)
        cycles.append(tuple(verts))
        cycle_edges.append(tuple(eids))
    return TwoFactor(
        graph=g,
        matching=matching,
        cycles=tuple(cycles),
        cycle_edges=tuple(cycle_edges),
        cycle_of_vertex=tuple(cycle_of_vertex),
        position=tuple(position),
        cycle_of_edge=tuple(cycle_of_edge),
        partner=tuple(partner),
    )


def choose_two_factor(g: MultiGraph) -> TwoFactor:
    """Pick the 2-factor the construction starts from.

    Take the perfect matching that :meth:`_Matcher.match_all` builds
    (greedy in edge-id order, then augmenting paths).  The construction
    needs a cycle of length other than 5, which makes the final medium
    bound strict; such a 2-factor exists for every connected bridgeless
    cubic graph except the Petersen graph.  When every cycle of the first
    2-factor has length 5, force each edge outside its matching in id order
    and take the first forced matching whose 2-factor has such a cycle; when
    none has, keep the first one.  Raises :class:`GraphError` when there is
    no perfect matching, or when the first 2-factor shows G disconnected or
    bridged (:func:`connected_and_bridgeless`), before any forcing: so the
    result certifies G, and a disconnected or bridged G costs one 2-factor.
    """
    if g.n % 2:
        raise GraphError("graph has no perfect matching")
    matcher = _Matcher(g)
    if not matcher.match_all():
        raise GraphError("graph has no perfect matching")
    first = two_factor_from_matching(g, matcher.mate_edge)
    if not connected_and_bridgeless(first):
        raise GraphError("graph is disconnected or has a bridge")
    if any(len(cyc) != 5 for cyc in first.cycles):
        return first
    mate_edge, blocked, xor = matcher.mate_edge, matcher.blocked, matcher.xor
    saved = mate_edge[:]
    for e, (u, v) in enumerate(g.edges):
        fu, fv = saved[u], saved[v]
        if fu == fv:  # e or an edge parallel to it is matched: the same cycles
            continue
        mate_edge[:] = saved
        x, y = xor[fu] ^ u, xor[fv] ^ v
        mate_edge[u] = mate_edge[v] = e
        mate_edge[x] = mate_edge[y] = -1
        blocked[u] = blocked[v] = 1
        found = matcher.augment(x)
        blocked[u] = blocked[v] = 0
        if found:
            tf = two_factor_from_matching(g, mate_edge)
            if any(len(cyc) != 5 for cyc in tf.cycles):
                return tf
    return first


_EVEN, _ODD = 1, 2


def _find(uf: list[int], v: int) -> int:
    """The base of ``v``'s blossom: each union hangs a blossom's sets under
    its base, so the root of a set is its base (path halving)."""
    while uf[v] != v:
        uf[v] = v = uf[uf[v]]
    return v


class _Matcher:
    """A perfect matching of one graph, grown by augmenting paths.

    ``mate_edge[v]`` is the matching edge at ``v`` (-1 while ``v`` is
    exposed).  Searches never enter the vertices marked in ``blocked``.

    The single-source search is Edmonds' blossom algorithm (Edmonds 1965,
    "Paths, trees, and flowers"): a breadth-first alternating tree whose odd
    cycles shrink into their base through a union-find, with the tree links
    in ``via`` re-pointed around each blossom so that flipping the path back
    from the far end to the root needs no expansion.  It is iterative and
    resets only the entries it touched.
    """

    __slots__ = ("edges", "xor", "inc", "mate_edge", "blocked",
                 "label", "via", "uf", "seen", "clock")

    def __init__(self, g: MultiGraph) -> None:
        n = g.n
        self.edges, self.inc = g.edges, g._incident
        self.xor = [u ^ v for u, v in g.edges]  # other end of e from v: xor[e] ^ v
        self.mate_edge = [-1] * n
        self.blocked = bytearray(n)
        self.label = bytearray(n)
        self.via = [-1] * n
        self.uf = list(range(n))
        self.seen = [0] * n
        self.clock = 0

    def match_all(self) -> bool:
        """Match every vertex, greedily in edge-id order and then by
        augmenting paths; False when the graph has no perfect matching."""
        mate_edge = self.mate_edge
        for e, (u, v) in enumerate(self.edges):
            if mate_edge[u] < 0 and mate_edge[v] < 0:
                mate_edge[u] = mate_edge[v] = e
        return all(mate_edge[v] >= 0 or self.augment(v) for v in range(len(mate_edge)))

    def augment(self, root: int) -> bool:
        """Search for an alternating path from the exposed vertex ``root``
        to another exposed unblocked vertex and flip it; False when none
        exists (then no perfect matching of the unblocked vertices does
        either)."""
        inc, xor, mate_edge, blocked = self.inc, self.xor, self.mate_edge, self.blocked
        label, via, uf = self.label, self.via, self.uf
        label[root] = _EVEN
        queue = [root]  # even vertices, in the order they were labelled
        touched = [root]
        end = -1
        for v in queue:  # grows while it is read
            mv = mate_edge[v]
            for e in inc[v]:
                w = xor[e] ^ v
                if e == mv or blocked[w]:
                    continue
                lw = label[w]
                if lw == _EVEN:
                    if _find(uf, v) != _find(uf, w):
                        self._shrink(v, w, e, queue)
                elif not lw:
                    via[w] = e
                    mw = mate_edge[w]
                    if mw < 0:
                        end = w
                        break
                    x = xor[mw] ^ w
                    label[w], label[x] = _ODD, _EVEN
                    touched += (w, x)
                    queue.append(x)
            if end >= 0:
                break
        x = end
        while x >= 0:  # flip the path from its far end back to the root
            e = via[x]
            y = xor[e] ^ x
            f = mate_edge[y]
            mate_edge[x] = mate_edge[y] = e
            x = xor[f] ^ y if f >= 0 else -1
        for v in touched:
            label[v] = 0
            uf[v] = v
        return end >= 0

    def _shrink(self, v: int, w: int, e: int, queue: list[int]) -> None:
        """Shrink the blossom closed by edge ``e`` between the even vertices
        ``v`` and ``w`` into the base where their tree paths meet."""
        xor, mate_edge, label, via, uf, seen = self.xor, self.mate_edge, self.label, self.via, self.uf, self.seen
        self.clock += 1
        clock = self.clock
        x = v
        while True:  # mark the bases from v up to the root
            x = _find(uf, x)
            seen[x] = clock
            if mate_edge[x] < 0:
                break
            y = xor[mate_edge[x]] ^ x
            x = xor[via[y]] ^ y
        x = w
        while True:  # the first marked base from w up is the new base
            x = _find(uf, x)
            if seen[x] == clock:
                break
            y = xor[mate_edge[x]] ^ x
            x = xor[via[y]] ^ y
        base = x
        merged = []
        for x, link in ((v, e), (w, e)):
            while _find(uf, x) != base:
                y = xor[mate_edge[x]] ^ x
                merged += (_find(uf, x), _find(uf, y))
                if label[y] == _ODD:
                    label[y] = _EVEN
                    queue.append(y)
                via[x] = link
                link = via[y]
                x = xor[link] ^ y
        for x in merged:
            uf[x] = base
