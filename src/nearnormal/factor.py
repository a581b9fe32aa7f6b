"""Perfect matchings and 2-factors.

A perfect matching M of a cubic graph leaves a 2-regular remainder whose
cycles form the 2-factor F; the construction downstream consumes the cycle
decomposition together with a fixed cyclic ordering of each cycle.

:func:`choose_two_factor` takes M from :class:`_Matcher`: a greedy pass,
then phases that each grow one alternating forest from every exposed vertex
(Edmonds' blossom search, with Gabow's forest), in polynomial time.  It
looks further only when every cycle of F has length 5.
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
    is connected and bridgeless iff Q is.  Q has at most n/2 edges, and the
    lowpoint search runs on its endpoint and incidence lists as built."""
    cyc, k = tf.cycle_of_vertex, len(tf.cycles)
    ends = [(cyc[u], cyc[v]) for u, v in map(tf.graph.edges.__getitem__, tf.matching) if cyc[u] != cyc[v]]
    inc: list[list[int]] = [[] for _ in range(k)]
    for i, ab in enumerate(ends):
        for a in ab:
            inc[a].append(i)
    reached, bridges = _lowpoint_search(k, ends, inc)
    return reached == k and not bridges


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
        cycle_of_vertex[start] = cycle_of_edge[e] = idx
        position[start] = 0
        verts, eids = [start], [e]
        while v != start:
            cycle_of_vertex[v] = idx
            position[v] = len(verts)
            verts.append(v)
            a, b, c = inc[v]
            e ^= a ^ b ^ c ^ mate[v]  # the other one of v's two cycle edges
            cycle_of_edge[e] = idx
            eids.append(e)
            a, b = edges[e]
            v ^= a ^ b
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
    (greedy in edge-id order, then phases of alternating forests).  The
    construction needs a cycle of length other than 5, which makes the
    final medium bound strict; such a 2-factor exists for every connected
    bridgeless cubic graph except the Petersen graph.  When every cycle of
    the first 2-factor has length 5, force each edge outside its matching in
    id order, re-matching by one phase from the two vertices it frees, and
    take the first forced matching whose 2-factor has such a cycle; when
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
        found = matcher.phase((x, y))
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
    """A perfect matching of one graph, grown by phases of augmenting paths.

    ``mate_edge[v]`` is the matching edge at ``v`` (-1 while ``v`` is
    exposed).  Searches never enter the vertices marked in ``blocked``.
    ``phases`` and ``labelled`` count the phases run and the vertices they
    labelled.  A phase grows Edmonds' alternating trees (Edmonds 1965,
    "Paths, trees, and flowers") from several roots in one breadth-first
    queue, as in Gabow 1976 ("An efficient implementation of Edmonds'
    algorithm for maximum matching on graphs").  A tree's odd cycles shrink
    into their base through a union-find, with the tree links in ``via``
    re-pointed around each blossom, so a path flips back to its root with no
    expansion.  Where even vertices of two trees meet, both tree paths and
    the edge between them flip, and both trees retire for the phase (a tree
    whose root is matched is retired).  It resets only what it touched.
    """

    __slots__ = ("edges", "xor", "inc", "mate_edge", "blocked", "label", "via",
                 "uf", "tree", "seen", "clock", "phases", "labelled")

    def __init__(self, g: MultiGraph) -> None:
        n = g.n
        self.edges, self.inc = g.edges, g._incident
        self.xor = [u ^ v for u, v in g.edges]  # other end of e from v: xor[e] ^ v
        self.mate_edge = [-1] * n
        self.blocked, self.label = bytearray(n), bytearray(n)
        self.via, self.tree = [-1] * n, [-1] * n  # per labelled vertex, its tree link and its tree's root
        self.uf = list(range(n))
        self.seen = [0] * n
        self.clock = self.phases = self.labelled = 0

    def match_all(self) -> bool:
        """Match every vertex, greedily in edge-id order, then by phases from
        every exposed vertex; False once a phase flips nothing: then no perfect matching exists."""
        mate_edge = self.mate_edge
        free = bytearray(map((-1).__eq__, mate_edge))  # read faster than mate_edge's ints
        for e, (u, v) in enumerate(self.edges):
            if free[u] and free[v]:
                free[u] = free[v] = 0
                mate_edge[u] = mate_edge[v] = e
        while -1 in mate_edge:
            if not self.phase([v for v, f in enumerate(mate_edge) if f < 0]):
                return False
        return True

    def phase(self, roots) -> int:
        """Grow one forest from the exposed vertices ``roots`` and flip a
        path through each two of its trees that meet; the number flipped, 0
        only when no alternating path joins two roots off ``blocked``."""
        inc, xor, mate_edge, blocked = self.inc, self.xor, self.mate_edge, self.blocked
        label, via, uf, tree = self.label, self.via, self.uf, self.tree
        for r in roots:
            label[r], tree[r] = _EVEN, r
        queue = list(roots)  # even vertices, in the order they were labelled
        touched = queue[:]
        flips = 0
        for v in queue:  # grows while it is read
            root = tree[v]
            if mate_edge[root] >= 0:  # its tree flipped a path this phase
                continue
            mv = mate_edge[v]
            for e in inc[v]:
                w = xor[e] ^ v
                if e == mv or blocked[w]:
                    continue
                lw = label[w]
                if not lw:  # matched, since every exposed vertex is a root
                    x = xor[mate_edge[w]] ^ w
                    label[w], label[x] = _ODD, _EVEN
                    tree[w] = tree[x] = root
                    via[w] = e
                    touched += (w, x)
                    queue.append(x)
                elif lw == _EVEN:
                    if tree[w] == root:
                        if _find(uf, v) != _find(uf, w):
                            self._shrink(v, w, e, queue)
                    elif mate_edge[tree[w]] < 0:
                        fv, fw = mate_edge[v], mate_edge[w]
                        mate_edge[v] = mate_edge[w] = e
                        for x, f in ((v, fv), (w, fw)):  # flip each tree path back to its root
                            while f >= 0:
                                y = xor[f] ^ x  # x's mate before the flip
                                link = via[y]
                                x = xor[link] ^ y
                                f = mate_edge[x]
                                mate_edge[x] = mate_edge[y] = link
                        flips += 1
                        break
        for v in touched:
            label[v] = 0
            uf[v] = v
        self.phases += 1
        self.labelled += len(touched)
        return flips

    def _shrink(self, v: int, w: int, e: int, queue: list[int]) -> None:
        """Shrink the blossom closed by edge ``e`` between the even vertices
        ``v`` and ``w`` into the base where their tree paths meet."""
        xor, mate_edge, label, via, uf, seen = self.xor, self.mate_edge, self.label, self.via, self.uf, self.seen
        clock = self.clock = self.clock + 1
        # walk up the bases from v and w by turns, at a cost of the blossom's
        # size, not the tree's depth: the first base both reach is the base
        x, y = _find(uf, v), _find(uf, w)
        while seen[x] != clock:
            seen[x] = clock
            if mate_edge[x] < 0:  # the root: the other walk goes on alone
                x, y = y, -1
                continue
            z = xor[mate_edge[x]] ^ x
            x = _find(uf, xor[via[z]] ^ z)
            if y >= 0:
                x, y = y, x
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
