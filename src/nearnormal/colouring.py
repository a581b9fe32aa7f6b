"""Edge colourings: classification, the one exhaustive colour search, and
the construction that colours the matching 4, gives every odd cycle exactly
one colour-3 edge, and fills the rest with {1,2} paths.

Colours are integers 1..k.  An edge is poor/medium/rich according to how many
distinct colours its adjacent edges carry (2/3/4); a colouring with no medium
edge is normal.

A 3-edge-colouring is first sought without search:
:func:`kempe_3_colouring` reads it off a 2-factor with no odd cycle, and
repairs one with odd cycles by a budgeted run of Kempe chain swaps.  One
exhaustive search, :func:`_min_medium_search`, serves both the 3-colour
attempt :func:`try_3_edge_colouring`, which runs when the repair gives up
and may itself stop undecided after a fixed number of backtracks, and the
oracles in :mod:`nearnormal.oracle`, which run it with no budget.  It
colours the edges in maximum cardinality order, which keeps the frontier of
coloured edges narrow.  At k = 3 a search that runs long keeps the states it
has refuted, keyed by the colours on its frontier up to renaming, which
refutes ring-like snarks such as the flower snarks with linearly many
backtracks.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

from .factor import TwoFactor
from .graph import ColouringError, MultiGraph
from .selection import SComponent, _attachments, s_components

POOR = "poor"
MEDIUM = "medium"
RICH = "rich"


@dataclass(frozen=True)
class EdgeColouring:
    """Total edge colouring with palette ``1..k``."""

    k: int
    colour_of: tuple[int, ...]

    def __post_init__(self):
        if self.colour_of and not 1 <= min(self.colour_of) <= max(self.colour_of) <= self.k:
            col = next(col for col in self.colour_of if col < 1 or col > self.k)
            raise ColouringError(f"colour {col} outside palette 1..{self.k}")


def _edge_class(colour_of, e: int, nbrs) -> str:
    """The class of edge ``e`` from the colours on ``nbrs``, the edges
    around it (``e`` itself is skipped): medium iff they show exactly three
    colours.  Raises :class:`ColouringError` when one of them has ``e``'s
    colour."""
    seen = 0
    for x in nbrs:
        if x != e:
            seen |= 1 << colour_of[x]
    if seen >> colour_of[e] & 1:
        raise ColouringError(f"colouring is not proper at edge {e}")
    count = seen.bit_count()
    return POOR if count == 2 else RICH if count == 4 else MEDIUM


def _colour_masks(g: MultiGraph, colour_of) -> list[int]:
    """Per vertex, the colours of its edges as a bitmask, bit c for colour c."""
    masks = [0] * g.n
    for (u, v), col in zip(g.edges, colour_of):
        masks[u] |= 1 << col
        masks[v] |= 1 << col
    return masks


def _colour_counts(g: MultiGraph, colour_of) -> list[int]:
    """Per edge, the colours on it and the edges around it, counted from the
    vertex masks; proper means a bit per edge in every mask.  Else raises
    :class:`ColouringError` at the first edge sharing a colour nearby."""
    if len(colour_of) != g.m:
        raise ColouringError(f"{len(colour_of)} colours for {g.m} edges")
    masks = _colour_masks(g, colour_of)
    if list(map(int.bit_count, masks)) != list(map(len, g._incident)):
        for e, (u, v) in enumerate(g.edges):
            _edge_class(colour_of, e, g._incident[u] + g._incident[v])
    return [(masks[u] | masks[v]).bit_count() for u, v in g.edges]


def classify_all(g: MultiGraph, c: EdgeColouring) -> tuple[str, ...]:
    """Every edge's class, in one pass; raises :class:`ColouringError` when
    ``c`` is not a proper colouring of ``g``."""
    return tuple(map({3: POOR, 5: RICH}.get, _colour_counts(g, c.colour_of), itertools.repeat(MEDIUM)))


def class_counts(g: MultiGraph, c: EdgeColouring, counts: list[int] | None = None) -> dict[str, int]:
    counts = _colour_counts(g, c.colour_of) if counts is None else counts
    poor, rich = counts.count(3), counts.count(5)
    return {POOR: poor, MEDIUM: g.m - poor - rich, RICH: rich}


def medium_count(g: MultiGraph, c: EdgeColouring) -> int:
    return class_counts(g, c)[MEDIUM]


def _search_order(g: MultiGraph) -> list[int]:
    """Edges in maximum cardinality order (Tarjan & Yannakakis 1984):
    vertex 0's edges in id order, then always an edge with the most ordered
    edges around it (one sharing both ends counts twice), ties first in,
    first out, and the lowest unordered id when no edge is queued.  The
    coloured frontier stays narrow, so a dead branch shows early."""
    edges, inc = g.edges, g._incident
    count = [0] * g.m  # per edge, its ordered neighbours; -1 once ordered
    # queues[c]: edges in the order they reached count c (stale entries are
    # skipped); the last, above every count, holds vertex 0's edges
    queues = [deque() for _ in range(2 * max(map(len, inc), default=0) + 1)]
    queues[-1].extend(sorted(inc[0]) if g.n else ())
    push = [queue.append for queue in queues]
    top = len(queues) - 1  # no live entry above it
    order: list[int] = []
    low = 0
    for _ in range(g.m):
        while top:
            queue = queues[top]
            while queue and count[queue[0]] < 0:
                queue.popleft()
            if queue:
                e = queue.popleft()
                break
            top -= 1
        else:
            while count[low] < 0:
                low += 1
            e = low
        count[e] = -1
        order.append(e)
        for x in edges[e]:
            for f in inc[x]:
                c = count[f]
                if c >= 0:
                    count[f] = c = c + 1
                    push[c](f)
                    if c > top:
                        top = c
    return order


class _SearchOpen(Exception):
    """The budgeted 3-colour search ran out of backtracks undecided."""


def _min_medium_search(
    g: MultiGraph, k: int, bound: float = math.inf, backtracks: float = math.inf
) -> tuple[int, tuple[int, ...]] | None:
    """Branch and bound over the proper k-edge-colourings of ``g``.

    Returns the fewest medium edges below ``bound`` together with the first
    colouring in search order that has that many, or ``None`` when every
    proper k-edge-colouring has at least ``bound``.  Edges are coloured in
    maximum cardinality order (:func:`_search_order`), colours are tried
    from low to high, and the edges at vertex 0 (positions 0-2) are pinned
    to 1, 2, 3 in edge-id order (sound: classes do not change when colours
    are renamed).
    A branch dies once the mediums it has counted reach the bound, each
    complete colouring lowers the bound to its own count, and the search
    stops at 0.  When an edge is counted depends on ``k``:

    * k = 3: never; every proper 3-edge-colouring has all edges poor;
    * k = 4: as soon as its coloured neighbours show three colours.  No
      edge can be rich, since its neighbours never show its own colour, so
      it is medium in every completion;
    * k >= 5: when its last neighbour is coloured, since a fourth colour
      could still make it rich.

    Each count is a lower bound on every completion, so a branch holding
    the first optimal colouring is never cut, whatever the bound.  The stack
    is explicit, with a bitmask of the colours still to try per position, so
    no graph is too large for Python's recursion limit.  A backtrack is a
    position that runs out of colours; after more than ``backtracks`` of
    them the search raises :class:`_SearchOpen`.

    At k = 3, once it has made ``_MEMO_AFTER * m`` backtracks, the search
    keeps the states it has refuted.  The *frontier* at position i is the
    set of edges at earlier positions with a neighbour at position i or
    later.  With no medium counted, whether positions i on can be completed
    depends only on i and the frontier's colours, and past the pinned
    positions not on how the colours are named.  A position that runs out
    of colours records (i, its frontier colours up to renaming), and a
    colour whose next state is recorded is skipped, which is no backtrack.
    Skipped subtrees hold no colouring, so the witness is the same.  At
    k >= 4 the counted mediums and the bound belong to the state: no memo.
    """
    order = _search_order(g)
    m = len(order)
    if not m:
        return 0, ()
    edges, inc = g.edges, g._incident
    pos = [0] * m  # pos[e]: the position of edge e in the order
    for i, e in enumerate(order):
        pos[e] = i
    # watch[i]: for each edge whose class may be decided when position i is
    # coloured, its distinct neighbours at earlier positions (none at k = 3)
    watch = [[] for _ in range(m)] if k > 3 else [()] * m
    if k > 3:
        for f, (u, v) in enumerate(edges):
            at = sorted(pos[x] for x in {*inc[u], *inc[v]} - {f})
            first = 2 if k == 4 else len(at) - 1
            for j in range(first, len(at)):
                watch[at[j]].append(tuple(order[p] for p in at[:j]))
    early = k == 4
    palette = [(1 << (k + 1)) - 2] * m
    if g.n and len(inc[0]) == 3:
        for col, e in enumerate(sorted(inc[0]), start=1):
            palette[pos[e]] = 1 << col
    colours = [0] * g.m
    todo = palette[:]  # per position, the colours still to try
    counted = [0] * m  # per position, the mediums counted before it
    wait = _MEMO_AFTER * m if k == 3 else math.inf  # backtracks before the memo
    refuted = None  # k = 3, once set up: the refuted states
    best = None
    i = 0
    while i >= 0:
        e = order[i]
        options = todo[i]
        if not options:
            backtracks -= 1
            if backtracks < 0:
                raise _SearchOpen
            if refuted is None:
                wait -= 1
                if wait < 0:
                    refuted = [set() for _ in range(m)]  # per position
                    add, dies, pick, lane_of, mask = _frontier_tables(order, pos, edges, inc)
                    codes = [0] * m  # codes[j]: the frontier's colours at j, in every renaming
                    for j in range(i):  # along the current path
                        code = codes[j] + add[j][colours[order[j]]]
                        codes[j + 1] = code - sum(sub[colours[f]] for f, sub in dies[j])
            if refuted is not None and i > 2:  # positions 0-2 are pinned
                a, b = pick[i]
                refuted[i].add(codes[i] >> lane_of[colours[a] << 2 | colours[b]] & mask)
            colours[e] = 0
            i -= 1
            continue
        low = options & -options
        todo[i] = options ^ low
        colours[e] = col = low.bit_length() - 1
        mediums = counted[i]
        for before in watch[i]:
            seen = 0
            for x in before:
                seen |= 1 << colours[x]
            # k = 4: count the edge when this colour is a third one shown;
            # k >= 5: when all its neighbours show three
            mediums += ((seen ^ low) if early else (seen | low)).bit_count() == 3
        if mediums >= bound:
            continue
        if i + 1 == m:
            best = mediums, tuple(colours)
            bound = mediums
            if not bound:
                break
            continue
        if refuted is not None:
            code = codes[i] + add[i][col]
            for f, sub in dies[i]:
                code -= sub[colours[f]]
            if i > 1:
                a, b = pick[i + 1]
                if code >> lane_of[colours[a] << 2 | colours[b]] & mask in refuted[i + 1]:
                    continue
            codes[i + 1] = code
        i += 1
        u, v = edges[order[i]]
        blocked = 0  # the edge's own colour is 0, never in the palette
        for x in inc[u]:
            blocked |= 1 << colours[x]
        for x in inc[v]:
            blocked |= 1 << colours[x]
        todo[i] = palette[i] & ~blocked
        counted[i] = mediums
    return best


def _frontier_tables(order, pos, edges, inc):
    """What the k = 3 memo of :func:`_min_medium_search` needs, by search
    position.  A code holds the frontier's colours once per renaming of
    1, 2, 3, in six lanes side by side; in each, a frontier edge has a 2-bit
    slot that no other edge holds while it is on the frontier.  Returned:
    ``add[p][c]``, what the edge at p adds to a code when it joins the
    frontier coloured c (0 if it never joins); ``dies[j]``, the edges that
    leave once position j is coloured, with their ``add`` entries;
    ``pick[j]``, two adjacent frontier edges at j, whose colours (distinct)
    choose the lane of the key, or the first edge twice when there are none
    (then the first lane: no renaming); ``lane_of[a << 2 | b]``, the offset
    of the lane that renames a to 1 and b to 2; and the lane mask.
    """
    m = len(order)
    last = [max(pos[x] for x in inc[u] + inc[v]) for u, v in map(edges.__getitem__, order)]
    leave: list[list[int]] = [[] for _ in range(m)]
    for p, d in enumerate(last):
        if d > p:
            leave[d].append(p)
    slot, free, fresh = [-1] * m, [], itertools.count()
    for j in range(m):
        free += (slot[p] for p in leave[j])
        if last[j] > j:
            slot[j] = free.pop() if free else next(fresh)
    lane = 2 * next(fresh)
    renamings = list(itertools.permutations((1, 2, 3)))
    lanes = [sum(r[c - 1] << t * lane for t, r in enumerate(renamings)) for c in (1, 2, 3)]
    add = [(0, *(x << 2 * s for x in lanes)) if s >= 0 else (0, 0, 0, 0) for s in slot]
    dies = [[(order[p], add[p]) for p in ps] for ps in leave]
    lane_of = [0] * 16
    for t, r in enumerate(renamings):
        lane_of[r.index(1) + 1 << 2 | r.index(2) + 1] = t * lane
    # pick from the latest vertex with two edges coloured, one not
    pick = [(order[0], order[0])] * m
    done = [0] * len(inc)  # per vertex, its edges at positions before j
    stack: list[int] = []
    for j in range(1, m):
        for x in edges[order[j - 1]]:
            done[x] += 1
            if done[x] == 2 < len(inc[x]):
                stack.append(x)
        while stack and done[stack[-1]] == len(inc[stack[-1]]):
            stack.pop()
        if stack:
            pick[j] = tuple([f for f in inc[stack[-1]] if pos[f] < j][:2])
    return add, dies, pick, lane_of, (1 << lane) - 1


# The perturbing chain swaps kempe_3_colouring may make before it gives
# up, and the seed of the generator that picks them.  A base with no
# 3-colouring pays all of them before the 3-colour search runs.  With 16,
# the repair colours 153 of the 166 class1_random bases (seed 47) whose
# 2-factor is odd; scripts/kempe_budget.py prints this and the moves that
# seeded random graphs need without a cap.
_KEMPE_MOVES = 16
_KEMPE_SEED = 0

# The backtracks try_3_edge_colouring may make before it leaves a graph
# open: class1_random finds (seeds 0-39) need up to 1,073, and random44#103
# (seed 12) is refuted, as scripts/kempe_budget.py prints; flower snarks up
# to J99 are refuted.
_BACKTRACKS = 1 << 15

# The k = 3 search keeps refuted states only after _MEMO_AFTER * m
# backtracks, so that short searches and large graphs, which seldom revisit
# a state, skip the memo's set-up and its cost per node: 1 of the 642
# class1_random searches at seeds 0-39 reaches it.
_MEMO_AFTER = 32


def kempe_3_colouring(tf: TwoFactor) -> EdgeColouring | None:
    """A proper 3-edge-colouring repaired from the 2-factor ``tf`` by Kempe
    chain swaps, or ``None`` when the repair gives up.

    Colours 1 and 2 alternate along every cycle and the matching takes 3;
    the last edge of each odd cycle stays uncoloured, a *defect*.  A defect
    uv whose ends miss colours a and b is coloured a: at once if a = b,
    else after swapping the (a, b) chain from v, unless that chain ends at
    u.  By the parity lemma every colour is missing at an even number of
    vertices, so a lone last defect always has a = b.  When every defect's
    chain ends at its own edge, one move perturbs the colouring: it swaps
    the (p, q) chain through an end x of a defect, a path or a cycle.
    Mostly p is a or b and q the colour missing at neither end, which links
    the defect to the rest of the graph; one move in seven takes the
    defect's own (a, b), without which the moves can cycle among a few
    colourings.
    A generator seeded with ``_KEMPE_SEED``, not the global one, picks the
    defect, the pair and x, so reruns are identical.  After
    ``_KEMPE_MOVES`` moves the repair gives up.

    A 2-factor with no odd cycle has no defect: it is the colouring.  The
    result is checked to show 1, 2 and 3 at every vertex.  ``None`` decides
    nothing about 3-colourability.
    """
    g = tf.graph
    edges = g.edges
    cols = [3] * g.m
    defects = []
    for eids in tf.cycle_edges:
        odd = len(eids) % 2
        if odd:
            cols[eids[-1]] = 0
            defects.append(eids[-1])
        for col, half in ((1, eids[: len(eids) - odd : 2]), (2, eids[1::2])):
            for e in half:
                cols[e] = col
    if defects:
        # at[4 * v + c]: the edge of colour c at v, -1 when v misses c
        # (slot 0 takes the defects, and is never read)
        at = [-1] * (4 * g.n)
        for e, ((u, v), col) in enumerate(zip(edges, cols)):
            at[4 * u + col] = at[4 * v + col] = e
    rng = None
    moves = 0
    # The first round is stuck with no walk: a defect's ends miss 2 and 1,
    # and colours 1 and 2 lie only on the cycles, so the (1, 2) chain from
    # either end runs along the defect's own cycle to the other end.
    stuck = defects
    while stuck:
        if len(stuck) == len(defects):
            if moves == _KEMPE_MOVES:
                return None
            moves += 1
            rng = rng or random.Random(_KEMPE_SEED)
            ends = edges[stuck[rng.randrange(len(stuck))]]
            a, b = _missing(at, ends[0]), _missing(at, ends[1])
            p, q = (a, b) if rng.randrange(7) == 0 else (rng.choice((a, b)), 6 - a - b)
            x = ends[rng.randrange(2)]
            _swap(at, cols, *_component(at, edges, x, p, q), p, q)
        defects, stuck = stuck, []
        for e in defects:
            u, v = edges[e]
            a, b = _missing(at, u), _missing(at, v)
            if a != b:
                verts, path = _kempe_chain(at, edges, v, b, a)
                if verts[-1] == u:
                    stuck.append(e)
                    continue
                _swap(at, cols, verts, path, a, b)
            cols[e] = a
            at[4 * u + a] = at[4 * v + a] = e
    if _colour_masks(g, cols).count(0b1110) != g.n:
        raise ColouringError("Kempe repair left a vertex without all of 1, 2, 3")
    return EdgeColouring(3, tuple(cols))


def _missing(at: list[int], x: int) -> int:
    """The colour missing at ``x``, a vertex with an uncoloured edge."""
    return 1 if at[4 * x + 1] < 0 else 2 if at[4 * x + 2] < 0 else 3


def _kempe_chain(at, edges, x: int, p: int, q: int) -> tuple[list[int], list[int]]:
    """The vertices (from ``x``) and edges of the chain of colours p and q
    that leaves ``x`` by its q edge, up to a vertex that misses the next
    colour or back at ``x``, which then is not listed twice."""
    start, flip = x, p ^ q
    verts, path = [x], []
    e = at[4 * x + q]
    while e >= 0:
        path.append(e)
        a, b = edges[e]
        x ^= a ^ b
        if x == start:
            break
        verts.append(x)
        q ^= flip  # the next colour
        e = at[4 * x + q]
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


def try_3_edge_colouring(g: MultiGraph) -> EdgeColouring | None:
    """A proper 3-edge-colouring, or ``None`` when none exists.

    Exhaustive, through :func:`_min_medium_search` with colours 1, 2, 3
    pinned at vertex 0; the colouring returned is the first in search order.
    After ``_BACKTRACKS`` backtracks the search stops undecided and raises
    :class:`_SearchOpen`; the oracles in :mod:`nearnormal.oracle` run the
    same search with no budget.
    """
    found = _min_medium_search(g, 3, backtracks=_BACKTRACKS)
    return None if found is None else EdgeColouring(3, found[1])


# ---------------------------------------------------------------------------
# the construction


@dataclass(frozen=True)
class Construction:
    """What :func:`construct_colouring` builds, each artefact once: the
    2-factor and the set of selected edge ids it was handed, the selection's
    components, the vertices where selected edges attach to each cycle (a
    list as long as the cycle's selection degree), the colour-3 edge of each
    odd cycle, and the colouring.  The charge rules and the audit read them
    from here; the graph is ``two_factor.graph``."""

    two_factor: TwoFactor
    selection: frozenset[int]
    components: tuple[SComponent, ...]
    attachments: dict[int, list[int]]
    three_edges: dict[int, int]
    colouring: EdgeColouring


def place_colour_3(tf: TwoFactor, attachments: dict[int, list[int]]) -> dict[int, int]:
    """Choose the colour-3 edge of every odd cycle from the attachment
    vertices of a valid selection: an edge adjacent to every selected edge
    at the cycle.  It leaves position 0 at degree 0, the attachment's
    position p at degree 1, and at degree 2, with positions p and q in
    edge-id order, p if q - p = 1 modulo the length, else q."""
    placed: dict[int, int] = {}
    for c in tf.odd_cycles():
        at = [tf.position[x] for x in attachments.get(c, ())] or [0]
        p = at[0] if len(at) == 1 or (at[1] - at[0]) % len(tf.cycles[c]) == 1 else at[1]
        placed[c] = tf.cycle_edges[c][p]
    return placed


def solve_path_phases(
    tf: TwoFactor, components: tuple[SComponent, ...], three_edges: dict[int, int]
) -> dict[int, int]:
    """The colour of every cycle edge except the colour-3 edges.

    Cycle c alternates 1, 2 from position s_c, 0 on an even cycle and one
    past the colour-3 edge on an odd one, or 2, 1 when its phase is 1.  A
    selected edge is poor when its two flanks, the cycle edges at its ends
    other than colour-3 edges, get one colour; a flank at position p has
    parity ((p - s_c) mod length) mod 2, or 1 at the colour-3 edge's first
    end.  So each selected edge ties the phases of its two cycles, spread by
    one breadth-first search per component from its smallest cycle.  On an
    odd quotient cycle one tie must break: the smallest edge's, left out.
    Nothing is checked here: :func:`discharging.run_discharging` checks the
    outcome (one medium selected edge per odd-quotient component, none
    elsewhere) on the colouring.
    """
    edges, cyc, pos = tf.graph.edges, tf.cycle_of_vertex, tf.position
    length = list(map(len, tf.cycles))
    start = [0] * len(length)
    for c, e in three_edges.items():
        u, v = edges[e]
        start[c] = pos[v] if (pos[v] - pos[u]) % length[c] == 1 else pos[u]

    def flank(x: int) -> int:
        c = cyc[x]
        return min((pos[x] - start[c]) % length[c], length[c] - 2) & 1

    phase: dict[int, int] = {}
    for comp in components:
        if not comp.associated_edges:
            continue
        skip = min(comp.associated_edges) if comp.odd_quotient else None
        links: dict[int, list[tuple[int, int]]] = {c: [] for c in comp.cycles}
        for e in sorted(comp.associated_edges - {skip}):
            u, v = edges[e]
            rel = flank(u) ^ flank(v)
            links[cyc[u]].append((cyc[v], rel))
            links[cyc[v]].append((cyc[u], rel))
        root = min(comp.cycles)
        phase[root] = 0
        queue = deque([root])
        while queue:
            c = queue.popleft()
            for d, rel in links[c]:
                if d not in phase:
                    phase[d] = phase[c] ^ rel
                    queue.append(d)
    colours: dict[int, int] = {}
    for c, eids in enumerate(tf.cycle_edges):
        s, b = start[c], phase.get(c, 0)
        path = (eids[s:] + eids[:s])[: length[c] - length[c] % 2]  # the colour-3 edge comes last
        colours.update(zip(path, itertools.cycle((1 + b, 2 - b))))
    return colours


def construct_colouring(tf: TwoFactor, selected: frozenset[int]) -> Construction:
    """The 4-edge-colouring of ``tf.graph`` with the construction's four
    properties:

    * matching edges are exactly the colour-4 edges;
    * colour 3 appears only on odd cycles, exactly once per odd cycle;
    * every selected edge is adjacent to two colour-3 edges;
    * a selected edge is medium only in a component whose quotient is an
      odd cycle, and then it is the unique one there.

    It comes in a :class:`Construction`, with the artefacts it was built
    from.  Only the input is checked here.  The graph, read off ``tf``, is
    simple and triangle-free iff no cycle is shorter than 4 and no matching
    edge joins two vertices 1 or 2 steps apart on one cycle: as matching
    edges are disjoint, a parallel pair is a 2-cycle or a chord 1 step long,
    a triangle a 3-cycle or a chord 2 steps long, and an edge between two
    cycles lies on neither.  The selection is checked by
    :func:`selection._attachments`, which builds the attachment lists as it
    checks them.
    The output's properties are checked by
    :func:`discharging.run_discharging`, whose rules rely on them, on the
    classes it computes anyway.
    """
    g, cyc, pos, lengths = tf.graph, tf.cycle_of_vertex, tf.position, list(map(len, tf.cycles))
    shapes = set(lengths)  # with the shortest cycle each chord closes: 2 is a parallel pair, 3 a triangle
    for u, v in map(g.edges.__getitem__, tf.matching):
        if cyc[u] == cyc[v]:
            d = (pos[u] - pos[v]) % lengths[cyc[u]]
            shapes.add(min(d, lengths[cyc[u]] - d) + 1)
    if 2 in shapes or 3 in shapes:
        raise ColouringError(f"construction requires a {'simple' if 2 in shapes else 'triangle-free'} graph")
    attachments = _attachments(tf, selected)  # raises on an invalid selection
    three = place_colour_3(tf, attachments)
    components = tuple(s_components(tf, selected))
    cols = [4] * g.m  # every edge off the cycles is a matching edge
    for e, col in solve_path_phases(tf, components, three).items():
        cols[e] = col
    for e in three.values():
        cols[e] = 3
    return Construction(tf, selected, components, attachments, three, EdgeColouring(4, tuple(cols)))


def bullet_violations(con: Construction, mediums: frozenset[int]) -> list[str]:
    """Audit the four structural properties of the construction on its
    colouring, and that each odd cycle's colour-3 edge is the one the
    record names; ``mediums`` is the set of the colouring's medium edges."""
    tf, selected, c = con.two_factor, con.selection, con.colouring
    g = tf.graph
    out: list[str] = []
    for e in range(g.m):
        if (e in tf.matching) != (c.colour_of[e] == 4):
            out.append(f"edge {e}: colour-4 does not coincide with the matching")
    odd = set(tf.odd_cycles())
    for e in range(g.m):
        if c.colour_of[e] == 3 and (e in tf.matching or tf.cycle_of_vertex[g.edges[e][0]] not in odd):
            out.append(f"edge {e}: colour 3 off the odd cycles")
    for cyc, eids in enumerate(tf.cycle_edges):
        threes = [e for e in eids if c.colour_of[e] == 3]
        want = [con.three_edges[cyc]] if cyc in odd else []
        if threes != want:
            out.append(f"cycle {cyc}: colour-3 edges {threes}, expected {want}")
    for e in sorted(selected):
        u, v = g.edges[e]
        adj3 = sum(1 for x in g._incident[u] + g._incident[v] if x != e and c.colour_of[x] == 3)
        if adj3 != 2:
            out.append(f"selected edge {e}: adjacent to {adj3} colour-3 edges")
    medium_sel = selected & mediums
    for comp in con.components:
        inside = medium_sel & comp.associated_edges
        want = int(comp.odd_quotient)
        if len(inside) != want:
            out.append(
                f"component {sorted(comp.cycles)}: {len(inside)} medium selected "
                f"edges, expected {want}"
            )
    return out


def fact_one_violations(tf: TwoFactor, mediums: frozenset[int]) -> list[str]:
    """Per-cycle medium counts: 0 on even cycles, exactly 3 on odd ones;
    ``mediums`` is the set of the colouring's medium edges."""
    out: list[str] = []
    for cyc, eids in enumerate(tf.cycle_edges):
        count = sum(1 for e in eids if e in mediums)
        want = 3 if len(eids) % 2 else 0
        if count != want:
            out.append(f"cycle {cyc}: {count} medium cycle edges, expected {want}")
    return out
