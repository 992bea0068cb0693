import json

import pytest

from mistkernel import Graph, InvariantError, PreconditionError, kernelize
from mistkernel.fileformats import (
    FormatError,
    parse_edge_list,
    serialize_edge_list,
    trace_from_json,
    trace_to_json,
    verify_trace,
)
from graphs import star_with_tail


def two_star_chain(c):
    # c blocks of two adjacent 8-leaf stars; block i's second center meets
    # block i + 1's first center
    edges = []
    for i in range(c):
        o = 18 * i
        edges += [(o, o + 1)] + [(o, o + v) for v in range(2, 10)]
        edges += [(o + 1, o + v) for v in range(10, 18)]
        if i:
            edges.append((o - 17, o))
    return Graph(18 * c, edges)


def count_ints(node):
    if isinstance(node, list):
        return sum(map(count_ints, node))
    return 1 if type(node) is int else 0


class TestEdgeList:
    def test_round_trip(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 4), (3, 4)])
        assert parse_edge_list(serialize_edge_list(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# hello\n\np 3 2\n# mid\ne 0 1\ne 1 2\n"
        assert parse_edge_list(text) == Graph(3, [(0, 1), (1, 2)])

    def test_trailing_comment_rejected(self):
        # a comment takes a whole line; after an edge's fields it is malformed
        with pytest.raises(FormatError, match="^bad edge line: 'e 0 1 # note'$"):
            parse_edge_list("p 3 2\ne 0 1 # note\ne 1 2\n")

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_edge_list("q 3 2\ne 0 1\ne 1 2\n")

    def test_comments_only_is_empty(self):
        with pytest.raises(FormatError, match="^empty document$"):
            parse_edge_list("# a comment\n\n# another\n")

    def test_header_counts_must_be_integers(self):
        with pytest.raises(FormatError, match="^bad header line: 'p three 2'$"):
            parse_edge_list("p three 2\ne 0 1\ne 1 2\n")

    def test_negative_header_counts_rejected(self):
        for head in ("p -1 0", "p 3 -2"):
            with pytest.raises(FormatError, match="^negative counts in header$"):
                parse_edge_list(head + "\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_edge_list("p 3 2\ne 0 1\n")

    def test_unordered_edge_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("p 3 1\ne 1 0\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("p 3 2\ne 0 1\ne 0 1\n")

    def test_out_of_range_and_loop_rejected(self):
        # the parser checks 0 <= u < v < n on every edge line
        for edge in ("e 0 3", "e -1 2", "e 1 1"):
            with pytest.raises(FormatError):
                parse_edge_list(f"p 3 1\n{edge}\n")

    def test_too_few_edges_to_connect(self):
        # m edges touch at most 2m vertices, so n > 2m leaves one isolated
        for text in ("p 2 0\n", "p 5 2\ne 0 1\ne 2 3\n"):
            with pytest.raises(PreconditionError, match="connected"):
                parse_edge_list(text)
        assert parse_edge_list("p 1 0\n") == Graph(1)
        assert parse_edge_list("p 4 2\ne 0 1\ne 2 3\n") == Graph(4, [(0, 1), (2, 3)])

    def test_serialization_canonical(self):
        a = Graph(4, [(2, 3), (0, 1)])
        b = Graph(4, [(0, 1), (2, 3)])
        assert serialize_edge_list(a) == serialize_edge_list(b)


class TestTraceDocument:
    def test_round_trip_and_verify(self):
        g = star_with_tail()
        res = kernelize(g, 3)
        assert res.outcome == "kernel" and res.trace
        text = trace_to_json(res, 3)
        meta, records = trace_from_json(text)
        assert meta["k_original"] == 3
        assert meta["k_prime"] == res.k_prime
        verify_trace(g, meta, records, res.graph)

    def test_verify_rejects_tampered_l(self):
        g = Graph(12, [(0, 1)] + [(0, v) for v in range(2, 8)] + [(1, v) for v in range(8, 12)])
        res = kernelize(g, 3)
        assert res.outcome == "kernel" and res.trace
        doc = json.loads(trace_to_json(res, 3))
        rec = doc["reductions"][0]
        # drop the last L-vertex and its tree edges
        w = rec["l"].pop()
        rec["bsl_tree"] = [e for e in rec["bsl_tree"] if w not in e]
        meta, records = trace_from_json(json.dumps(doc))
        with pytest.raises(InvariantError):
            verify_trace(g, meta, records, res.graph)

    def test_records_hold_only_the_certificate(self):
        doc = json.loads(trace_to_json(kernelize(two_star_chain(2), 5), 5))
        assert doc["format"] == "mist-trace-v2" and doc["reductions"]
        for rec in doc["reductions"]:
            assert set(rec) == {"s", "l", "bsl_tree"}

    def test_record_size_does_not_grow_with_n(self):
        # |S| + |L| ids plus a tree of |S| + |L| - 1 edges, whatever n is
        sizes = set()
        for c in (1, 2, 4):
            res = kernelize(two_star_chain(c), 2 * c + 1)
            assert res.outcome == "kernel" and len(res.trace) >= c
            for rec in json.loads(trace_to_json(res, 2 * c + 1))["reductions"]:
                ints = count_ints(list(rec.values()))
                assert ints == 3 * (len(rec["s"]) + len(rec["l"])) - 2
                sizes.add(ints)
        assert len(sizes) == 1

    def test_v1_document_rejected(self):
        # star_with_tail() at k = 3, as the previous trace format wrote it
        v1 = {
            "format": "mist-trace-v1", "k_original": 3, "k_prime": 3,
            "kernel_edges": 3, "kernel_vertices": 4, "outcome": "kernel",
            "reductions": [{
                "s": [0], "l": [2, 3, 4, 5, 6, 7, 8, 9],
                "bsl_tree": [[0, v] for v in range(2, 10)],
                "v_s": 2, "v_l": 3, "neighbor_map": [1],
                "index_map": [[1, 0], [10, 1]], "delta_k": 0,
            }],
        }
        with pytest.raises(FormatError, match="mist-trace-v1"):
            trace_from_json(json.dumps(v1))

    def test_verify_rejects_non_independent_l(self):
        g = star_with_tail()
        res = kernelize(g, 3)
        doc = json.loads(trace_to_json(res, 3))
        rec = doc["reductions"][0]
        # claim the hub belongs to L; the hub-leaf edge breaks independence
        rec["s"] = [2]
        rec["l"] = [0, 1]
        rec["bsl_tree"] = [[0, 2], [1, 2]]
        meta, records = trace_from_json(json.dumps(doc))
        with pytest.raises(InvariantError):
            verify_trace(g, meta, records, res.graph)

    def test_verify_rejects_wrong_kernel(self):
        g = star_with_tail()
        res = kernelize(g, 3)
        text = trace_to_json(res, 3)
        meta, records = trace_from_json(text)
        other = Graph(res.graph.n, [])
        with pytest.raises(InvariantError):
            verify_trace(g, meta, records, other)

    def test_malformed_json(self):
        with pytest.raises(FormatError):
            trace_from_json("{not json")
        with pytest.raises(FormatError):
            trace_from_json(json.dumps({"format": "other"}))

    def test_json_array_rejected(self):
        with pytest.raises(FormatError, match="^not a recognized trace document$"):
            trace_from_json("[1, 2]")

    def test_malformed_fields(self):
        doc = json.loads(trace_to_json(kernelize(star_with_tail(), 3), 3))
        for key, value in (("reductions", 5), ("reductions", None),
                           ("k_original", "x"), ("k_prime", 1.5),
                           ("kernel_vertices", True)):
            bad = dict(doc, **{key: value})
            with pytest.raises(FormatError):
                trace_from_json(json.dumps(bad))
        rec = doc["reductions"][0]
        for key, value in (("s", [float(v) for v in rec["s"]]), ("l", None),
                           ("bsl_tree", [[0, 1, 2]]), ("bsl_tree", [[0, True]])):
            bad = dict(doc, reductions=[dict(rec, **{key: value})])
            with pytest.raises(FormatError):
                trace_from_json(json.dumps(bad))
