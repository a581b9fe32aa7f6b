"""The two-pass edge classification that ``colouring.classify_all`` replaced,
kept as a test oracle: a whole-graph properness check, then a set of the
neighbour colours per edge."""

from __future__ import annotations

from nearnormal.colouring import MEDIUM, POOR, RICH, ColouringError, EdgeColouring
from nearnormal.graph import MultiGraph


def is_proper(g: MultiGraph, c: EdgeColouring) -> bool:
    if len(c.colour_of) != g.m:
        return False
    for v in range(g.n):
        cols = [c.colour_of[e] for e in g.incident_edges(v)]
        if len(set(cols)) != len(cols):
            return False
    return True


def check_proper(g: MultiGraph, c: EdgeColouring) -> None:
    if not is_proper(g, c):
        raise ColouringError("colouring is not proper")


def classify_edge(g: MultiGraph, c: EdgeColouring, e: int) -> str:
    own = c.colour_of[e]
    seen = set()
    for x in {x for w in g.endpoints(e) for x in g.incident_edges(w) if x != e}:
        if c.colour_of[x] == own:
            raise ColouringError(f"edges {e} and {x} share a vertex and a colour")
        seen.add(c.colour_of[x])
    if len(seen) == 2:
        return POOR
    if len(seen) == 4:
        return RICH
    return MEDIUM


def classify_all(g: MultiGraph, c: EdgeColouring) -> tuple[str, ...]:
    check_proper(g, c)
    return tuple(classify_edge(g, c, e) for e in range(g.m))
