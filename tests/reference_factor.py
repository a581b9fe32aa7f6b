"""The 2-factor choice as it was made by enumerating perfect matchings,
kept as a test oracle for ``nearnormal.factor.choose_two_factor``.

It sorts the first ``limit`` enumerated matchings, so wherever a graph has
at most ``limit`` perfect matchings it is complete: its 2-factor has a cycle
of length other than 5 exactly when some 2-factor of the graph has one.
The tests check that ``choose_two_factor`` finds such a cycle exactly then.
:func:`is_perfect_matching` is the direct check that
``two_factor_from_matching`` replaced by its size and the vertices it covers.
:func:`enumerate_perfect_matchings` is the recursive enumeration that the
production one replaced by an explicit stack; both must return the same
sorted list at every limit.

The rest are the 2-factor walk, the matcher and the Kempe repair as they
were before they read ``g.edges`` and ``g._incident`` directly, with the
xor trick, in place of lists of their own: :func:`two_factor_from_matching`,
:class:`_Matcher`, :func:`matching_two_factor` (the production
``choose_two_factor``) and :func:`kempe_3_colouring`.  The tests require the
production code to return the same 2-factors and colourings.
"""

from __future__ import annotations

import random

from nearnormal import colouring
from nearnormal.colouring import ColouringError, EdgeColouring
from nearnormal.factor import DEFAULT_MATCHING_LIMIT, TwoFactor
from nearnormal.graph import GraphError, MultiGraph


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
    """The first ``limit`` perfect matchings found by recursing on the
    lowest uncovered vertex, sorted by sorted edge-id set."""
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

    if g.n % 2 == 0:
        search()
    return sorted(found, key=sorted)


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


def two_factor_from_matching(g: MultiGraph, m) -> TwoFactor:
    """Cycle decomposition of G - M with a deterministic traversal: each
    cycle starts at its smallest vertex and proceeds toward the smaller
    neighbour (smaller edge id breaks parallel-edge ties).

    ``g`` must be cubic; then G - M is 2-regular exactly when M is a
    perfect matching, which is how M is checked."""
    matching = frozenset(m)
    edges = g.edges
    if any(not 0 <= e < len(edges) for e in matching):
        raise GraphError("not a perfect matching of this graph")
    if any(len(es) != 3 for es in g._incident):
        raise GraphError("graph minus matching is not 2-regular (input not cubic?)")
    partner = [-1] * g.n
    cycle_inc: list[list[int]] = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(edges):
        if e in matching:
            partner[u], partner[v] = v, u
        else:
            cycle_inc[u].append(e)
            cycle_inc[v].append(e)
    if any(len(es) != 2 for es in cycle_inc):
        raise GraphError("not a perfect matching of this graph")

    cycles: list[tuple[int, ...]] = []
    cycle_edges: list[tuple[int, ...]] = []
    cycle_of_vertex = [-1] * g.n
    cycle_of_edge = [-1] * g.m
    position = [-1] * g.n
    for start in range(g.n):
        if cycle_of_vertex[start] != -1:
            continue
        idx = len(cycles)
        e = min(cycle_inc[start], key=lambda x: (edges[x][0] ^ edges[x][1] ^ start, x))
        verts, eids = [start], [e]
        v = edges[e][0] ^ edges[e][1] ^ start
        while v != start:
            verts.append(v)
            a, b = cycle_inc[v]
            e = b if a == e else a
            eids.append(e)
            a, b = edges[e]
            v ^= a ^ b
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
    )


def matching_two_factor(g: MultiGraph) -> TwoFactor:
    """``factor.choose_two_factor`` as it was before the 2-factor walk read
    the graph's incidence lists directly."""
    if g.n % 2:
        raise GraphError("graph has no perfect matching")
    matcher = _Matcher(g)
    if not matcher.match_all():
        raise GraphError("graph has no perfect matching")
    first = two_factor_from_matching(g, matcher.mate_edge)
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

    __slots__ = ("edges", "xor", "adj", "mate_edge", "blocked",
                 "label", "via", "uf", "seen", "clock")

    def __init__(self, g: MultiGraph) -> None:
        n = g.n
        self.edges = g.edges
        self.xor = [u ^ v for u, v in g.edges]  # other end of e from v: xor[e] ^ v
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(g.edges):
            adj[u].append((e, v))
            adj[v].append((e, u))
        self.adj = adj
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
        adj, xor, mate_edge, blocked = self.adj, self.xor, self.mate_edge, self.blocked
        label, via, uf = self.label, self.via, self.uf
        label[root] = _EVEN
        queue = [root]  # even vertices, in the order they were labelled
        touched = [root]
        end = -1
        for v in queue:  # grows while it is read
            mv = mate_edge[v]
            for e, w in adj[v]:
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


def kempe_3_colouring(tf: TwoFactor) -> EdgeColouring | None:
    """``colouring.kempe_3_colouring`` as it was before its colour masks
    were shared with ``colouring.classify_all``."""
    g = tf.graph
    edges = g.edges
    cols = [3] * g.m
    at = [-1] * (4 * g.n)  # at[4 * v + c]: the edge of colour c at v, -1 when v misses c
    for e in tf.matching:
        u, v = edges[e]
        at[4 * u + 3] = at[4 * v + 3] = e
    defects = []
    for eids in tf.cycle_edges:
        for t, e in enumerate(eids):
            if t == len(eids) - 1 and t % 2 == 0:
                cols[e] = 0
                defects.append(e)
                continue
            col = cols[e] = 1 + (t & 1)
            u, v = edges[e]
            at[4 * u + col] = at[4 * v + col] = e
    rng = None
    moves = 0
    while defects:
        stuck = []
        for e in defects:
            u, v = edges[e]
            a, b = _missing(at, u), _missing(at, v)
            if a != b:
                if _chain_end(at, edges, v, b, a) == u:
                    stuck.append(e)
                    continue
                _swap(at, cols, *_kempe_chain(at, edges, v, b, a), a, b)
            cols[e] = a
            at[4 * u + a] = at[4 * v + a] = e
        if len(stuck) == len(defects):
            if moves == colouring._KEMPE_MOVES:
                return None
            moves += 1
            rng = rng or random.Random(colouring._KEMPE_SEED)
            ends = edges[stuck[rng.randrange(len(stuck))]]
            a, b = _missing(at, ends[0]), _missing(at, ends[1])
            p, q = (a, b) if rng.randrange(7) == 0 else (rng.choice((a, b)), 6 - a - b)
            x = ends[rng.randrange(2)]
            _swap(at, cols, *_component(at, edges, x, p, q), p, q)
        defects = stuck
    seen = [0] * g.n
    for e, (u, v) in enumerate(edges):
        seen[u] |= 1 << cols[e]
        seen[v] |= 1 << cols[e]
    if any(s != 0b1110 for s in seen):
        raise ColouringError("Kempe repair left a vertex without all of 1, 2, 3")
    return EdgeColouring(3, tuple(cols))


def _missing(at: list[int], x: int) -> int:
    """The colour missing at ``x``, a vertex with an uncoloured edge."""
    return 1 if at[4 * x + 1] < 0 else 2 if at[4 * x + 2] < 0 else 3


def _chain_end(at, edges, x: int, p: int, q: int) -> int:
    """The last vertex of :func:`_kempe_chain` from ``x``, which misses p."""
    col = q
    e = at[4 * x + q]
    while e >= 0:
        a, b = edges[e]
        x = a ^ b ^ x
        col ^= p ^ q
        e = at[4 * x + col]
    return x


def _kempe_chain(at, edges, x: int, p: int, q: int) -> tuple[list[int], list[int]]:
    """The vertices (from ``x``) and edges of the chain of colours p and q
    that leaves ``x`` by its q edge, up to a vertex that misses the next
    colour or back at ``x``, which then is not listed twice."""
    start = x
    verts, path = [x], []
    col = q
    e = at[4 * x + q]
    while e >= 0:
        path.append(e)
        a, b = edges[e]
        x = a ^ b ^ x
        if x == start:
            break
        verts.append(x)
        col ^= p ^ q
        e = at[4 * x + col]
    return verts, path


def _component(at, edges, x: int, p: int, q: int) -> tuple[list[int], list[int]]:
    """The vertices and edges of the (p, q) Kempe chain through ``x``: a
    path or a cycle of edges coloured p and q alternately."""
    verts, path = _kempe_chain(at, edges, x, p, q)
    back = at[4 * x + p]
    if back >= 0 and (not path or path[-1] != back):  # else a cycle closed by back
        more, rest = _kempe_chain(at, edges, x, q, p)
        verts += more[1:]
        path += rest
    return verts, path


def _swap(at, cols, verts, path, p: int, q: int) -> None:
    """Exchange colours p and q along a chain from :func:`_kempe_chain`."""
    for e in path:
        cols[e] ^= p ^ q
    for x in verts:
        at[4 * x + p], at[4 * x + q] = at[4 * x + q], at[4 * x + p]
