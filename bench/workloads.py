"""The benchmark's four workloads, built from a seed.

Each workload is a list of :class:`Case` objects.  Every graph comes from a
seeded generator in :mod:`generators` or from the package's corpus; the
program under test only ever sees the finished ``MultiGraph``.

Why each workload exists (the layer it loads, and the layers it leaves
idle) is written next to the function that makes it; README.md has the
full make-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import generators as gen
from nearnormal import build_graph, corpus

@dataclass(frozen=True)
class Case:
    """One graph of a workload.

    ``oracle`` asks for the exact minimum over 4-edge-colourings as well;
    ``fault`` marks a graph on which ``colour_graph`` is known to raise
    ``RecursionError`` (the recursive 3-colour search runs out of stack).
    """

    name: str
    graph: object  # nearnormal.graph.MultiGraph
    oracle: bool = False
    fault: bool = False


def _case(name: str, g: gen.Graph, **kw) -> Case:
    return Case(name, build_graph(*g), **kw)


def corpus_sweep(seed: int) -> list[Case]:
    """Every bridgeless graph of the packaged corpus (n = 4..14) in a seeded
    order, with the exact oracle at n <= 12: hundreds of tiny calls, so
    per-call overhead and the oracle dominate."""
    cases = [
        Case(f"cubic{n:02d}#{i}", g, oracle=n <= 12)
        for n in corpus.CORPUS_ORDERS
        for i, g in enumerate(corpus.load_cubic_corpus(n))
    ]
    random.Random(f"corpus_sweep:{seed}").shuffle(cases)
    return cases


# Random graphs stay within n = 38..44.  From about n = 46 on, the recursive
# 3-colour search has a heavy tail in time (single graphs 40-100x the
# median), so a pass's total would depend on the seed more than on the code;
# below n = 38 the search is less than half of a graph's time.  They are
# triangle-free so that the reductions do nothing.
RANDOM_ORDERS = (38, 40, 42, 44)
RANDOM_PER_ORDER = 120
# Prisms and Moebius ladders on 8..100 vertices, and twelve larger ones
# (n = 500..600) that are slower than almost every random graph; m <= 900
# keeps the recursive search about 100 frames below the recursion limit.
# With the four failing graphs they fill the top of the distribution, so the
# graph at the tail percentile (p98, the 11th slowest) does not depend on the
# seed's heavy-tailed random graphs.
LADDER_SIZES = tuple(range(4, 52, 2)) + tuple(range(250, 310, 10))
# m >= 1020 edges: deeper than the default recursion limit of 1000.
FAULT_GRAPHS = (("prism", 340), ("prism", 360), ("moebius_ladder", 350), ("moebius_ladder", 400))


def class1_random(seed: int) -> list[Case]:
    """3-edge-colourable graphs, so the 3-colour search finds a colouring
    and the 2-factor, selection and audit never run."""
    rng = random.Random(f"class1_random:{seed}")
    cases = [
        _case(f"random{n}#{i}", gen.random_cubic(n, rng, triangle_free=True))
        for n in RANDOM_ORDERS
        for i in range(RANDOM_PER_ORDER)
    ]
    for k in LADDER_SIZES:
        cases.append(Case(f"prism({k})", corpus.prism(k)))
        cases.append(Case(f"moebius_ladder({k})", corpus.moebius_ladder(k)))
    for family, k in FAULT_GRAPHS:
        cases.append(Case(f"{family}({k})", getattr(corpus, family)(k), fault=True))
    return cases


FLOWER_KS = (5, 7, 9, 11, 13, 15)
# (base order, count): each base vertex becomes 9 vertices.  With 43 graphs
# the tail percentile is p76, the 11th slowest graph: J9, since only J15,
# J13, J11 and the seven inflations with n >= 54 are slower.
INFLATIONS = ((4, 29), (6, 5), (8, 2))


def snarks(seed: int) -> list[Case]:
    """Graphs with no 3-edge-colouring: the 3-colour search refutes, and the
    2-factor search enumerates matchings (up to its 10,000 cap on J15).
    None has a triangle or a parallel pair, so nothing reduces."""
    rng = random.Random(f"snarks:{seed}")
    cases = [_case(f"J{k}", gen.flower_snark(k)) for k in FLOWER_KS]
    cases.append(_case("petersen", gen.petersen()))
    for base_n, count in INFLATIONS:
        for i in range(count):
            base = gen.random_cubic(base_n, rng)
            cases.append(_case(f"inflation{9 * base_n}#{i}", gen.petersen_inflation(base, rng)))
    return cases


REDUCE_TARGETS = tuple(range(30, 110, 2)) + (200, 400)


def _reduce_bases() -> list[tuple[str, gen.Graph]]:
    k4 = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    k33 = (6, [(u, v) for u in range(3) for v in range(3, 6)])
    prism3 = (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    return [("petersen", gen.petersen()), ("J5", gen.flower_snark(5)),
            ("K4", k4), ("K33", k33), ("prism3", prism3)]


def reduce_lift(seed: int) -> list[Case]:
    """Small snarks and class-1 graphs grown by seeded triangle truncations
    and digon insertions, so reductions of both kinds interleave while the
    fully reduced base stays small: reduce and lift dominate."""
    rng = random.Random(f"reduce_lift:{seed}")
    bases = _reduce_bases()
    cases = []
    for i, target in enumerate(REDUCE_TARGETS):
        name, g = bases[i % len(bases)]
        base_n = g[0]
        while g[0] < target:
            if rng.random() < 0.5:
                g = gen.truncate_vertex(g, rng.randrange(g[0]))
            else:
                g = gen.insert_digon(g, rng.randrange(len(g[1])))
        cases.append(_case(f"{name}+{(g[0] - base_n) // 2}ops", g))
    return cases


WORKLOADS = {
    "corpus_sweep": corpus_sweep,
    "class1_random": class1_random,
    "snarks": snarks,
    "reduce_lift": reduce_lift,
}
