"""Small test graphs shared by the test modules."""

from __future__ import annotations

from mistkernel.generate import generate
from mistkernel.graph import Graph


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(m):
    return Graph(m + 1, [(0, i) for i in range(1, m + 1)])


def star_with_tail():
    # hub 0 with leaves 1..9 plus a pendant 10 hanging off leaf 1
    return Graph(11, [(0, i) for i in range(1, 10)] + [(1, 10)])


def cluster_graph(rng, max_n=12):
    """Connected graph with a large independent set: few hubs, many leaves.
    The hubs are 0..max(1, n // 4) - 1 and the rest form the set."""
    n = rng.randrange(6, max_n + 1)
    hubs = max(1, n // 4)
    edges = set()
    for h in range(1, hubs):
        edges.add((rng.randrange(h), h))
    for v in range(hubs, n):
        edges.add((rng.randrange(hubs), v))
        if hubs > 1 and rng.random() < 0.5:
            edges.add((rng.randrange(hubs), v))
    return Graph(n, edges)


def chained_clusters(c):
    """c copies of star-cluster n = 300, copy i with seed i on the vertices
    300i .. 300i + 299, and vertex 300i joined to vertex 0.  At the target
    n/3 - 1 Rule 3 fires round after round: 18 times at c = 8."""
    edges = [(0, 300 * i) for i in range(1, c)]
    for i in range(c):
        off = 300 * i
        cluster = generate("star-cluster", 300, seed=i)
        edges += [(u + off, v + off) for u, v in cluster.edges]
    return Graph(300 * c, edges)
