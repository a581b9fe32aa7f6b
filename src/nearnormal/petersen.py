"""The Kneser-graph model of the Petersen graph, the induced edge labelling,
and the two directions of the normal / Petersen colouring correspondence.

Vertices of the model are the ten 2-element subsets of {1..5}; two are
adjacent when the subsets are disjoint, and each edge is labelled by the
unique element missing from the union of its endpoints.  Each label class is
a perfect matching of three edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .colouring import MEDIUM, EdgeColouring, classify_all
from .graph import GraphError, MultiGraph

TRIVIAL = "trivial"
SURJECTIVE = "surjective"
NEITHER = "neither"


@dataclass(frozen=True)
class KneserPetersen:
    """The labelled model: vertex ``w`` carries the 2-subset
    ``vertex_subsets[w]`` and edge ``e`` the label ``label[e]``."""

    vertex_subsets: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    label: tuple[int, ...]

    def vertex_of_subset(self, pair) -> int:
        return self.vertex_subsets.index(tuple(sorted(pair)))

    def edge_between(self, w: int, z: int) -> int:
        pair = (min(w, z), max(w, z))
        return self.edges.index(pair)


@lru_cache(maxsize=1)
def build_kneser_petersen() -> KneserPetersen:
    subsets = tuple(combinations(range(1, 6), 2))  # lexicographic
    edges = []
    labels = []
    for i, j in combinations(range(len(subsets)), 2):
        a, b = set(subsets[i]), set(subsets[j])
        if a & b:
            continue
        edges.append((i, j))
        missing = set(range(1, 6)) - a - b
        labels.append(missing.pop())
    return KneserPetersen(subsets, tuple(edges), tuple(labels))


@dataclass(frozen=True)
class PetersenColouring:
    """Assignment of a model edge to every edge of the host graph."""

    assignment: tuple[int, ...]


@dataclass(frozen=True)
class PetersenClassification:
    kind: str
    witness: tuple[int, ...] | None = None  # image edge ids when "neither"


def petersen_colouring_violation(g: MultiGraph, pc: PetersenColouring) -> str | None:
    """None when the assignment is incidence-preserving.

    Edges sharing a vertex must map to distinct model edges sharing a
    vertex; distinctness is what makes the label composition proper, and the
    model's girth forces the three images at any host vertex to meet in a
    single model vertex.
    """
    kp = build_kneser_petersen()
    if len(pc.assignment) != g.m:
        return "assignment does not cover every edge"
    for p in pc.assignment:
        if not (0 <= p < len(kp.edges)):
            return f"image edge id {p} out of range"
    for v in range(g.n):
        ids = g.incident_edges(v)
        images = [pc.assignment[e] for e in ids]
        if len(set(images)) != len(images):
            return f"edges at vertex {v} share an image"
        for x, y in combinations(images, 2):
            if not set(kp.edges[x]) & set(kp.edges[y]):
                return f"images of edges at vertex {v} are not adjacent"
    return None


def _check_normal(g: MultiGraph, f: EdgeColouring) -> None:
    if f.k > 5 or any(col > 5 for col in f.colour_of):
        raise GraphError("normal colourings here use at most 5 colours")
    classes = classify_all(g, f)
    bad = [e for e in range(g.m) if classes[e] == MEDIUM]
    if bad:
        raise GraphError(f"colouring is not normal: medium edge(s) {bad}")


def normal_to_petersen(g: MultiGraph, f: EdgeColouring) -> PetersenColouring:
    """Send each edge to the model edge with its colour as label, incident
    to the model vertex carrying the other two colours at the edge's end.

    Normality makes the choice independent of which end is used; the lookup
    breaks down exactly on medium edges, which the precondition excludes.
    """
    _check_normal(g, f)
    kp = build_kneser_petersen()
    full = set(range(1, 6))
    assignment = []
    for e in range(g.m):
        u, v = g.endpoints(e)
        fe = f.colour_of[e]
        image = None
        for end in (u, v):
            cols = {f.colour_of[x] for x in g.incident_edges(end)}
            x_w = cols - {fe}
            if len(x_w) != 2:
                raise GraphError(f"vertex {end} does not see three colours")
            w = kp.vertex_of_subset(x_w)
            z = kp.vertex_of_subset(full - x_w - {fe})
            candidate = kp.edge_between(w, z)
            if image is None:
                image = candidate
            elif image != candidate:
                raise GraphError(
                    f"edge {e}: endpoints disagree on the image (colouring not normal?)"
                )
        assignment.append(image)
    pc = PetersenColouring(tuple(assignment))
    violation = petersen_colouring_violation(g, pc)
    if violation is not None:
        raise GraphError(f"constructed map is not a Petersen colouring: {violation}")
    return pc


def petersen_to_normal(g: MultiGraph, pc: PetersenColouring) -> EdgeColouring:
    """Compose the assignment with the edge labelling; the result is a
    proper 5-colouring with no medium edge."""
    violation = petersen_colouring_violation(g, pc)
    if violation is not None:
        raise GraphError(f"invalid Petersen colouring: {violation}")
    kp = build_kneser_petersen()
    f = EdgeColouring(5, tuple(kp.label[p] for p in pc.assignment))
    _check_normal(g, f)
    return f


def classify_petersen_colouring(pc: PetersenColouring) -> PetersenClassification:
    """Trivial when the image sits inside one vertex's star; surjective when
    it is everything; otherwise reports the image as a counterexample
    witness (no bridgeless input is expected to produce one)."""
    kp = build_kneser_petersen()
    image = set(pc.assignment)
    if len(image) == len(kp.edges):
        return PetersenClassification(SURJECTIVE)
    for w in range(len(kp.vertex_subsets)):
        if all(w in kp.edges[p] for p in image):
            return PetersenClassification(TRIVIAL)
    return PetersenClassification(NEITHER, tuple(sorted(image)))


def is_petersen_graph(g: MultiGraph) -> bool:
    """Exact recognition: the Petersen graph is the only cubic graph on 10
    vertices with girth 5 (Hoffman & Singleton 1960, the unique (3,5)-cage).
    Girth 5 is read off neighbour sets: three distinct neighbours at every
    vertex, none shared by two adjacent vertices (no triangle), and at most
    one shared by any two (no 4-cycle)."""
    if g.n != 10 or not g.is_cubic():
        return False
    nb = [set(g.neighbours(v)) for v in range(10)]
    return all(len(s) == 3 for s in nb) and all(
        len(nb[u] & nb[v]) <= (v not in nb[u]) for u, v in combinations(range(10), 2))
