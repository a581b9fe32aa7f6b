"""Graph and colouring file formats.

graph6 is the only simple-graph interchange format supported (bit-exact per
the published encoding: 6-bit chunks, value+63 bytes, upper triangle in
column-major order).  The edge-list format is the single ingestion path that
can express parallel edges.
"""

from __future__ import annotations

from .colouring import EdgeColouring
from .graph import GraphError, MultiGraph, build_graph

_G6_HEADER = ">>graph6<<"


class FormatError(GraphError):
    """Malformed input text."""


def _g6_read_n(data: str) -> tuple[int, int]:
    """Decode the leading vertex count, returning (n, chars consumed)."""
    if not data:
        raise FormatError("empty graph6 string")
    c = ord(data[0]) - 63
    if c < 0 or c > 63:
        raise FormatError(f"invalid graph6 byte {data[0]!r}")
    if c < 63:
        return c, 1
    if len(data) >= 4 and ord(data[1]) - 63 < 63:
        n = 0
        for ch in data[1:4]:
            v = ord(ch) - 63
            if v < 0 or v > 63:
                raise FormatError(f"invalid graph6 byte {ch!r}")
            n = (n << 6) | v
        return n, 4
    raise FormatError("unsupported graph6 size header")


def parse_graph6(line: str) -> MultiGraph:
    """Decode one graph6 line into a simple graph."""
    s = line.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if s.startswith(":") or s.startswith("&"):
        raise FormatError("sparse6/digraph6 input is not supported")
    n, used = _g6_read_n(s)
    body = s[used:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise FormatError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}"
        )
    bits = []
    for ch in body:
        v = ord(ch) - 63
        if v < 0 or v > 63:
            raise FormatError(f"invalid graph6 byte {ch!r}")
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return build_graph(n, edges)


def write_graph6(g: MultiGraph) -> str:
    """Encode a simple graph as one graph6 line."""
    if not g.is_simple():
        raise FormatError("graph6 cannot encode parallel edges")
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + "".join(
            chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0)
        )
    else:
        raise FormatError("graph too large for graph6")
    present = set(g.edges)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr(63 + (bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3
                  | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]))
        for i in range(0, len(bits), 6)
    )
    return head + body


def iter_graph6_lines(text: str):
    """Yield (line_number, MultiGraph) for every non-blank line; a line that
    is not graph6 raises :class:`FormatError` prefixed with ``line N:``."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            try:
                g = parse_graph6(line)
            except FormatError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
            yield lineno, g


def parse_edge_list(text: str) -> MultiGraph:
    """Parse the ``n <count>`` + ``u v`` line format.

    Duplicate ``u v`` lines create parallel edges; loops are rejected.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty edge list")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise FormatError(f"expected header 'n <count>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad vertex count {head[1]!r}") from exc
    if n > 2 * (len(lines) - 1):  # some vertex is isolated; refused before any allocation
        raise FormatError(f"header 'n {n}' is more than twice the {len(lines) - 1} edge lines")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    return build_graph(n, edges)


def parse_colouring(text: str, g: MultiGraph) -> EdgeColouring:
    """Parse a ``u v colour`` file against a known graph.

    The format is order-insensitive in both line order and endpoint order.
    Parallel edges are covered by repeating their endpoint pair; colours for
    a parallel class are assigned to its edge ids in ascending id order.
    Colours run from 1 to ``max(m, 5)``: enough for one colour per edge and
    for any normal 5-edge-colouring.
    """
    top = max(g.m, 5)
    wanted: dict[tuple[int, int], list[int]] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError(f"bad colouring line {ln!r}")
        try:
            u, v, col = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FormatError(f"bad colouring line {ln!r}") from exc
        if col < 1:
            raise FormatError(f"colours must be positive, got {col}")
        if col > top:
            raise FormatError(f"colour {col} is above max(m, 5) = {top}")
        wanted.setdefault((min(u, v), max(u, v)), []).append(col)
    colours = [0] * g.m
    groups: dict[tuple[int, int], list[int]] = {}
    for eid, pair in enumerate(g.edges):
        groups.setdefault(pair, []).append(eid)
    for pair, ids in groups.items():
        cols = wanted.pop(pair, None)
        if cols is None or len(cols) != len(ids):
            raise FormatError(f"colouring does not cover edge(s) {pair}")
        for eid, col in zip(sorted(ids), sorted(cols)):
            colours[eid] = col
    if wanted:
        pair = next(iter(wanted))
        raise FormatError(f"colouring mentions a non-edge {pair}")
    return EdgeColouring(max(colours, default=1), tuple(colours))


def format_colouring(g: MultiGraph, c: EdgeColouring) -> str:
    lines = [
        f"{u} {v} {c.colour_of[eid]}" for eid, (u, v) in enumerate(g.edges)
    ]
    return "\n".join(lines) + "\n"
