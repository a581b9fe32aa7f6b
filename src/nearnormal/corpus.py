"""Small-graph corpus: named graphs and the loader for the packaged graph6
files of all connected cubic simple graphs with n = 4 to 14.

``scripts/generate_corpus.py`` regenerates those files offline and checks
their counts against ``CONNECTED_CUBIC_COUNTS`` before it writes them.
"""

from __future__ import annotations

from importlib import resources
from itertools import combinations

from .graph import GraphError, MultiGraph, build_graph, validate_input


def petersen_graph() -> MultiGraph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i--i+5."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def complete_graph_k4() -> MultiGraph:
    return build_graph(4, list(combinations(range(4), 2)))


def k33() -> MultiGraph:
    return build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def prism(k: int) -> MultiGraph:
    """Two k-cycles joined by a perfect matching of spokes."""
    if k < 3:
        raise GraphError("prism needs k >= 3")
    top = [(i, (i + 1) % k) for i in range(k)]
    bottom = [(k + i, k + (i + 1) % k) for i in range(k)]
    spokes = [(i, k + i) for i in range(k)]
    return build_graph(2 * k, top + bottom + spokes)


def triple_edge() -> MultiGraph:
    return build_graph(2, [(0, 1)] * 3)


def moebius_ladder(k: int) -> MultiGraph:
    """2k-cycle plus the k long chords (cubic for k >= 2)."""
    n = 2 * k
    rim = [(i, (i + 1) % n) for i in range(n)]
    chords = [(i, i + k) for i in range(k)]
    return build_graph(n, rim + chords)


# Published counts of connected cubic simple graphs, used to sanity-check
# both the corpus script and the packaged corpus files.
CONNECTED_CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}

CORPUS_ORDERS = (4, 6, 8, 10, 12, 14)


def load_cubic_corpus(n: int, bridgeless_only: bool = True) -> list[MultiGraph]:
    """Load the packaged corpus of connected cubic graphs on n vertices."""
    from .graphio import parse_graph6

    if n not in CORPUS_ORDERS:
        raise GraphError(f"no packaged corpus for n={n}")
    path = resources.files("nearnormal").joinpath(f"data/cubic{n:02d}.g6")
    graphs = [parse_graph6(line) for line in path.read_text().splitlines() if line.strip()]
    if bridgeless_only:
        graphs = [g for g in graphs if validate_input(g).ok]
    return graphs
