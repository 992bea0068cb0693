"""On-disk formats: the edge-list graph format and the JSON reduction trace.

Edge lists look like::

    # optional comments
    p <n> <m>
    e <u> <v>        (0 <= u < v < n, one line per edge, m lines)

Serialization is canonical (edges sorted lexicographically) so identical
graphs produce identical bytes.  A trace is one line of JSON with sorted
keys.  It records every reduction step as its certificate (S, L, B(S, L)
tree); replaying it derives the rest, so the kernelization can be checked
bit-exactly and kernel solutions lifted offline.
"""

from __future__ import annotations

import json

from .graph import Graph, InvariantError, PreconditionError, SpanningTree, _nogc
from .kernelizer import KernelResult, SLCertificate, replay_reduction

TRACE_FORMAT = "mist-trace-v2"


class FormatError(ValueError):
    """Malformed input file."""


@_nogc
def parse_edge_list(text: str) -> Graph:
    # each line split into its fields once; blank and comment lines dropped
    rows = (f for f in map(str.split, text.splitlines()) if f and f[0][0] != "#")
    head = next(rows, None)
    if head is None:
        raise FormatError("empty document")
    if len(head) != 3 or head[0] != "p":
        raise FormatError(f"bad header line: {' '.join(head)!r}")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise FormatError(f"bad header line: {' '.join(head)!r}") from None
    if n < 0 or m < 0:
        raise FormatError("negative counts in header")
    edges = []
    for parts in rows:
        if len(parts) != 3 or parts[0] != "e":
            raise FormatError(f"bad edge line: {' '.join(parts)!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(f"bad edge line: {' '.join(parts)!r}") from None
        if not 0 <= u < v < n:
            raise FormatError(f"edge ({u}, {v}) violates 0 <= u < v < {n}")
        edges.append((u, v))
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, found {len(edges)}")
    # m edges touch at most 2m vertices; refuse before allocating n of them
    if n >= 2 and n > 2 * m:
        raise PreconditionError("graph must be connected")
    try:
        return Graph(n, edges)  # rejects repeated edges
    except PreconditionError as exc:
        raise FormatError(str(exc)) from None


def serialize_edge_list(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Trace documents


def _record_to_obj(cert: SLCertificate) -> dict:
    return {
        "s": sorted(cert.s),
        "l": sorted(cert.l),
        "bsl_tree": sorted(cert.tree.edges),  # pairs encode as JSON arrays
    }


def _int(value) -> int:
    """A JSON integer; JSON true is a bool, not an id or a count."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _record_from_obj(obj: dict) -> SLCertificate:
    try:
        s = frozenset(map(_int, obj["s"]))
        l = frozenset(map(_int, obj["l"]))
        tree = SpanningTree(s | l, [(_int(u), _int(v)) for u, v in obj["bsl_tree"]])
        return SLCertificate(s, l, tree)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad reduction record: {exc}") from None


def trace_to_json(result: KernelResult, k_original: int) -> str:
    doc = {
        "format": TRACE_FORMAT,
        "k_original": k_original,
        "outcome": result.outcome,
        "k_prime": result.k_prime,
        "kernel_vertices": result.graph.n if result.graph is not None else None,
        "kernel_edges": result.graph.m if result.graph is not None else None,
        "reductions": [_record_to_obj(r) for r in result.trace],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def trace_from_json(text: str):
    """Parse a trace document; returns (meta dict, list of SLCertificates)."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"trace is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("not a recognized trace document")
    if doc.get("format") != TRACE_FORMAT:
        raise FormatError(f"trace format {doc.get('format')!r} is not {TRACE_FORMAT}")
    if not isinstance(doc.get("reductions"), list):
        raise FormatError("trace reductions must be a list")
    records = [_record_from_obj(o) for o in doc["reductions"]]
    meta = {k: doc.get(k) for k in
            ("k_original", "outcome", "k_prime", "kernel_vertices", "kernel_edges")}
    for key in ("k_original", "k_prime", "kernel_vertices", "kernel_edges"):
        if meta[key] is not None and type(meta[key]) is not int:
            raise FormatError(f"trace field {key} must be an integer or null")
    return meta, records


def verify_trace(g: Graph, meta: dict, records, kernel: Graph) -> None:
    """Replay a trace against its input graph and check the kernel matches
    and holds at most 3k' vertices.

    Raises InvariantError naming the first violated invariant;
    replay_reduction checks each certificate against the graph it reduces.
    """
    cur = g
    for cert in records:
        cur = replay_reduction(cur, cert)
    if cur != kernel:
        raise InvariantError("replayed kernel differs from the kernel file")
    if meta.get("outcome") != "kernel":
        raise InvariantError(f"trace outcome is {meta.get('outcome')!r}, not a kernel")
    if meta.get("kernel_vertices") != kernel.n or meta.get("kernel_edges") != kernel.m:
        raise InvariantError("kernel size in the trace differs from the kernel file")
    k_original, k_prime = meta.get("k_original"), meta.get("k_prime")
    if type(k_original) is not int or type(k_prime) is not int:
        raise InvariantError("a kernel trace needs integer k_original and k_prime")
    if k_original - sum(cert.delta_k for cert in records) != k_prime:
        raise InvariantError("k' is inconsistent with the recorded reductions")
    if kernel.n > 3 * k_prime:
        raise InvariantError(
            f"kernel has {kernel.n} vertices, above the 3k' = {3 * k_prime} bound"
        )
