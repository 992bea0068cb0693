"""Seeded generators for connected test instances.

Three families: uniform random graphs with a fixed edge count, a random
spanning tree plus extra edges, and star clusters (few centers, many
pendant-ish vertices) that bias toward the large independent sets the
reduction rule feeds on.  All output is deterministic given the seed.
"""

from __future__ import annotations

import heapq
import random

from .graph import (
    Graph,
    InvariantError,
    PreconditionError,
    _nogc,
    is_connected,
    normalize_edge,
)

FAMILIES = ("random-gnm", "tree-plus", "star-cluster")


def _prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n vertices via a Prüfer sequence."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    count = [0] * n
    for v in seq:
        count[v] += 1
    edges = []
    leaf_heap = [v for v in range(n) if count[v] == 0]  # ascending, so a heap
    for v in seq:
        leaf = heapq.heappop(leaf_heap)
        edges.append(normalize_edge(leaf, v))
        count[v] -= 1
        if count[v] == 0:
            heapq.heappush(leaf_heap, v)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    edges.append(normalize_edge(u, v))
    return edges


def _sample_pairs(n: int, m: int, rng: random.Random, forbidden=frozenset()):
    """m distinct vertex pairs outside `forbidden`, by rejection sampling."""
    out = set()
    total = n * (n - 1) // 2 - len(forbidden)
    if m > total:  # every caller bounds m first, so this is a bug
        raise InvariantError("requested more edges than the graph can hold")
    while len(out) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = normalize_edge(u, v)
        if e in out or e in forbidden:
            continue
        out.add(e)
    return sorted(out)


@_nogc
def generate(family: str, n: int, m: int | None = None, seed: int = 0) -> Graph:
    """Build a connected instance from the named family, deterministically."""
    if family not in FAMILIES:
        raise PreconditionError(f"unknown family {family!r}")
    if family != "star-cluster" and m is None:
        raise PreconditionError("random-gnm and tree-plus need an edge count m")
    rng = random.Random(seed)
    if family == "random-gnm":
        if n < 1 or m < n - 1 or m > n * (n - 1) // 2:
            raise PreconditionError("random-gnm needs n >= 1 and n-1 <= m <= n(n-1)/2")
        for _ in range(20):
            g = Graph(n, _sample_pairs(n, m, rng))
            if is_connected(g):
                return g
        # Sparse draws rarely come out connected; seed with a spanning tree.
        tree = _prufer_tree(n, rng)
        extra = _sample_pairs(n, m - len(tree), rng, frozenset(tree))
        return Graph(n, tree + extra)
    if family == "tree-plus":
        if n < 1 or m < n - 1 or m > n * (n - 1) // 2:
            raise PreconditionError("tree-plus needs n >= 1 and n-1 <= m <= n(n-1)/2")
        tree = _prufer_tree(n, rng)
        extra = _sample_pairs(n, m - len(tree), rng, frozenset(tree))
        return Graph(n, tree + extra)
    # star-cluster
    if n < 3:
        raise PreconditionError("star-cluster needs n >= 3")
    if m is not None:
        raise PreconditionError("star-cluster does not take an edge count")
    centers = max(1, n // 5)
    edges = set(_prufer_tree(centers, rng))
    for v in range(centers, n):
        hubs = {rng.randrange(centers)}
        if centers >= 2 and rng.random() < 0.6:
            hubs.add(rng.randrange(centers))
        for h in hubs:
            edges.add(normalize_edge(v, h))
    g = Graph(n, sorted(edges))
    # a tree over the centers, and every other vertex on a center
    if not is_connected(g):
        raise InvariantError("star-cluster construction came out disconnected")
    return g
