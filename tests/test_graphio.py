from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearnormal.colouring import try_3_edge_colouring
from nearnormal.graph import build_graph, girth
from nearnormal.graphio import (
    FormatError,
    format_colouring,
    iter_graph6_lines,
    parse_colouring,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)


class TestGraph6:
    def test_k4_is_C_tilde(self, k4):
        # n=4 -> chr(63+4)='C'; all six upper-triangle bits set -> chr(63+63)='~'
        assert write_graph6(k4) == "C~"
        g = parse_graph6("C~")
        assert g.n == 4 and sorted(g.edges) == sorted(k4.edges)

    def test_empty_graph(self):
        g = parse_graph6("?")
        assert g.n == 0 and g.m == 0

    def test_petersen_roundtrip_structure(self, petersen):
        # edge ids come back in graph6 bit order; the labelled graph matches
        g = parse_graph6(write_graph6(petersen))
        assert g.n == 10 and g.m == 15
        assert girth(g) == 5
        assert sorted(g.edges) == sorted(petersen.edges)

    def test_header_stripped(self, k4):
        g = parse_graph6(">>graph6<<C~")
        assert sorted(g.edges) == sorted(k4.edges)

    def test_truncated_rejected(self):
        with pytest.raises(FormatError, match="expected"):
            parse_graph6("I?")  # n=10 needs 8 body bytes

    def test_sparse6_rejected(self):
        with pytest.raises(FormatError, match="sparse6"):
            parse_graph6(":Fa@x^")

    def test_bad_byte_rejected(self):
        with pytest.raises(FormatError):
            parse_graph6("C\x1f\x1f")

    def test_parallel_edges_unencodable(self, triple):
        with pytest.raises(FormatError, match="parallel"):
            write_graph6(triple)

    def test_large_n_header(self):
        g = build_graph(63, [(0, 62)])
        again = parse_graph6(write_graph6(g))
        assert again == g

    def test_lines_yield_numbered_and_name_the_bad_one(self):
        k4 = parse_graph6("C~")
        lines = iter_graph6_lines("C~\n\n  \nC~\nI?\nC~\n")
        assert next(lines) == (1, k4) and next(lines) == (4, k4)
        with pytest.raises(FormatError, match="^line 5: graph6 body has 1 bytes, expected 8 for n=10$"):
            next(lines)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_roundtrip_random_simple_graphs(self, data):
        n = data.draw(st.integers(min_value=0, max_value=12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        g = build_graph(n, sorted(chosen))
        s = write_graph6(g)
        again = parse_graph6(s)
        assert again.n == g.n and sorted(again.edges) == sorted(g.edges)
        assert write_graph6(again) == s


class TestEdgeList:
    def test_triple_edge(self, triple):
        g = parse_edge_list("n 2\n0 1\n0 1\n0 1\n")
        assert g == triple

    def test_k4(self, k4):
        text = "n 4\n" + "\n".join(f"{u} {v}" for u, v in k4.edges)
        assert parse_edge_list(text) == k4

    def test_loop_rejected(self):
        with pytest.raises(Exception, match="loop"):
            parse_edge_list("n 1\n0 0\n")

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_edge_list("0 1\n")

    def test_vertex_count_above_twice_the_edges_rejected(self):
        assert parse_edge_list("n 6\n0 1\n0 1\n0 1\n").n == 6  # checked by validate_input
        with pytest.raises(FormatError, match="more than twice"):
            parse_edge_list("n 7\n0 1\n0 1\n0 1\n")

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# a triangle-ish\nn 2\n\n0 1\n0 1\n0 1\n")
        assert g.m == 3


class TestColouringFiles:
    def test_roundtrip(self, k4):
        c = try_3_edge_colouring(k4)
        text = format_colouring(k4, c)
        again = parse_colouring(text, k4)
        assert again.colour_of == c.colour_of

    def test_endpoint_order_insensitive(self, k4):
        c = try_3_edge_colouring(k4)
        lines = [
            f"{v} {u} {c.colour_of[e]}" for e, (u, v) in enumerate(k4.edges)
        ]
        again = parse_colouring("\n".join(reversed(lines)), k4)
        assert again.colour_of == c.colour_of

    def test_parallel_edges_by_multiplicity(self, triple):
        c = parse_colouring("0 1 3\n0 1 1\n0 1 2\n", triple)
        assert sorted(c.colour_of) == [1, 2, 3]

    def test_missing_edge_rejected(self, k4):
        with pytest.raises(FormatError, match="cover"):
            parse_colouring("0 1 1\n", k4)

    def test_unknown_edge_rejected(self, triple):
        with pytest.raises(FormatError):
            parse_colouring("0 1 1\n0 1 2\n0 1 3\n1 2 1\n", triple)

    def test_bad_colour_rejected(self, k4):
        with pytest.raises(FormatError, match="positive"):
            parse_colouring("0 1 0\n", k4)

    def test_colour_above_the_cap_rejected(self, k4, triple):
        # a colour that large would make the class bitmasks huge integers
        with pytest.raises(FormatError, match="above max"):
            parse_colouring("0 1 40000000000\n", k4)
        rows = [f"{u} {v} {c}" for (u, v), c in zip(k4.edges, (1, 2, 3, 4, 5, 6))]
        assert parse_colouring("\n".join(rows), k4).colour_of == (1, 2, 3, 4, 5, 6)
        with pytest.raises(FormatError, match="above max"):
            parse_colouring("\n".join(rows[:-1] + [rows[-1][:-1] + "7"]), k4)
        assert parse_colouring("0 1 5\n0 1 4\n0 1 3\n", triple).k == 5
        with pytest.raises(FormatError, match="above max"):
            parse_colouring("0 1 6\n0 1 4\n0 1 3\n", triple)
