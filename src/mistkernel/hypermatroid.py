"""Hypergraphic matroid machinery.

A set F of hyperedges is a hyperforest when it satisfies the strong Hall
condition: every nonempty F' ⊆ F covers at least |F'| + 1 vertices.  By
Lovász's characterisation this holds exactly when each hyperedge of F can
pick two of its vertices so that the picked pairs form a forest.  Such a
choice, {edge id: (a, b)} with a < b, is a *pair forest*; a hyperforest
with |V| - 1 edges is a hypertree, and its pair forest a spanning tree.
The pair forest is the certificate: `greedy_hypertree` returns the one it
builds, and `shrink_to_tree` checks it instead of searching again.  The
greedy runs once per hypergraph: `greedy_hypertree` and
`deficient_partition` both read the forest `_greedy` keeps on it.

Pair forests are the common independent sets of two matroids on the
vertex pairs inside hyperedges: the graphic matroid, and the partition
matroid that allows one pair per hyperedge.  `_search` is a breadth-first
search of their exchange graph.  It either extends a pair forest by a new
hyperedge, re-pairing the hyperedges along a shortest augmenting path, or
reports the forest pairs it reached.  The greedy hypertree adds hyperedges
this way in ascending id order.  When it stops short of |V| - 1, a last
search from every unchosen hyperedge reaches a set U of forest pairs, and
by the min-max theorem of matroid intersection the components of U form a
partition with at most |parts| - 2 border hyperedges.  So a hypergraph
contains a hypertree exactly when every partition of its vertices has at
least |parts| - 1 border hyperedges (partition-connectivity; Frank,
Király and Kriesell).
"""

from __future__ import annotations

from collections import deque

from .graph import (
    InvariantError,
    PreconditionError,
    SpanningTree,
    _components,
    _tree_path,
)


class Hypergraph:
    """Vertices 0..n-1 plus a list of hyperedges (nonempty vertex subsets).

    Edge ids are positions in the list and stay stable under sub-selection.
    Duplicate hyperedges are allowed.
    """

    __slots__ = ("n", "hyperedges", "_forest")

    def __init__(self, n: int, hyperedges):
        if n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        edges = []
        for e in hyperedges:
            fs = frozenset(e)
            if not fs:
                raise PreconditionError("hyperedges must be nonempty")
            if any(not (0 <= v < n) for v in fs):
                raise PreconditionError(f"hyperedge {sorted(fs)} out of range")
            edges.append(fs)
        self.n = n
        self.hyperedges = tuple(edges)
        self._forest = None  # the greedy's (pairs, adj), once `_greedy` ran

    @property
    def m(self) -> int:
        return len(self.hyperedges)

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m})"


class Partition:
    """Disjoint nonempty parts covering 0..n-1, canonically ordered by minimum."""

    __slots__ = ("n", "parts")

    def __init__(self, n: int, parts):
        ps = [frozenset(p) for p in parts]
        if any(not p for p in ps):
            raise PreconditionError("partition parts must be nonempty")
        seen: set = set()
        for p in ps:
            if seen & p:
                raise PreconditionError("partition parts overlap")
            seen |= p
        if seen != set(range(n)):
            raise PreconditionError("parts do not cover the vertex set")
        self.n = n
        self.parts = tuple(sorted(ps, key=min))

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return f"Partition({[sorted(p) for p in self.parts]})"


# ---------------------------------------------------------------------------
# The exchange-graph search


def _search(h: Hypergraph, pairs: dict, adj: dict, starts):
    """Breadth-first search of the exchange graph from the hyperedges `starts`,
    which hold no pair of the pair forest `pairs`; `adj` is the forest's
    adjacency with owners, {a: {b: edge id}}.

    The nodes are hyperedges, each standing for its pairs.  Let r be the
    lowest vertex of a hyperedge.  A pair (r, b) whose ends lie in two
    forest components ends the search; otherwise it leads to the forest
    pairs on the forest path from r to b, and from each of those to the
    other pairs of its hyperedge.  The forest paths from r cover every
    forest pair that any pair of the hyperedge leads to, so hyperedges are
    reached at their exchange-graph distance, and the first end found
    closes a shortest augmenting path: swapping its pairs in keeps the
    pairs a forest with one pair per hyperedge.

    Returns ({edge id: new pair} along that path, None) on success, and
    (None, ids of the forest hyperedges reached) otherwise.
    """
    came_from = dict.fromkeys(starts)
    queue = deque(came_from)
    while queue:
        eid = queue.popleft()
        r, *rest = sorted(h.hyperedges[eid])
        for b in rest:
            if pairs.get(eid) == (r, b):
                continue
            path = _tree_path(adj, r, b)
            if path is None:
                swap, step = {}, (eid, (r, b))
                while step is not None:
                    eid, pair = step
                    swap[eid] = pair
                    step = came_from[eid]
                return swap, None
            for a, c in zip(path, path[1:]):
                owner = adj[a][c]
                if owner not in came_from:
                    came_from[owner] = (eid, (r, b))
                    queue.append(owner)
    return None, [eid for eid in came_from if eid in pairs]


def _pair_forest(h: Hypergraph, ids):
    """Matroid greedy over the edge ids in the given order; the pair forest
    of the hyperedges it keeps, and its adjacency as `_search` takes it."""
    pairs: dict = {}
    adj: dict = {}
    for eid in ids:
        if len(pairs) == h.n - 1:
            break
        swap, _ = _search(h, pairs, adj, [eid])
        if swap is None:
            continue
        # Drop every old pair before adding a new one: a new pair may repeat
        # the old pair of the next hyperedge on the path.
        for e in swap.keys() & pairs.keys():
            a, b = pairs[e]
            del adj[a][b], adj[b][a]
        for e, (a, b) in swap.items():
            adj.setdefault(a, {})[b] = e
            adj.setdefault(b, {})[a] = e
        pairs.update(swap)
    return pairs, adj


def _greedy(h: Hypergraph):
    """The greedy over all hyperedges in ascending id order, as
    `_pair_forest` returns it; it runs once per hypergraph and is kept on
    it.  Callers must not change the result."""
    if h._forest is None:
        h._forest = _pair_forest(h, range(h.m))
    return h._forest


# ---------------------------------------------------------------------------
# Operations


def is_hyperforest(h: Hypergraph, edge_ids) -> bool:
    """Strong Hall test for the selected hyperedges."""
    ids = sorted(set(edge_ids))
    if any(not (0 <= i < h.m) for i in ids):
        raise PreconditionError("edge id out of range")
    return len(_pair_forest(h, ids)[0]) == len(ids)


def greedy_hypertree(h: Hypergraph) -> dict | None:
    """The pair forest {edge id: (a, b)} of a hypertree built greedily in
    ascending edge-id order, or None if the hypergraph has no hypertree.
    The dict is a copy: changing it does not reach `deficient_partition`."""
    if h.n < 1:
        raise PreconditionError("hypergraph must have at least one vertex")
    pairs, _ = _greedy(h)
    return dict(pairs) if len(pairs) == h.n - 1 else None


def shrink_to_tree(h: Hypergraph, pairs: dict):
    """Shrink a hypertree to a spanning tree, given its pair forest as
    `greedy_hypertree` returns it: n - 1 pairs, each a 2-subset of its own
    hyperedge, that form no cycle.  Returns the tree and the mapping."""
    if len(pairs) != h.n - 1:
        raise PreconditionError(f"a hypertree on {h.n} vertices needs {h.n - 1} pairs")
    for eid, (a, b) in pairs.items():
        if not 0 <= eid < h.m or a == b or not {a, b} <= h.hyperedges[eid]:
            raise PreconditionError(f"pair ({a}, {b}) is not a 2-subset of hyperedge {eid}")
    mapping = dict(sorted(pairs.items()))
    return SpanningTree(range(h.n), mapping.values()), mapping


def border(h: Hypergraph, p: Partition) -> frozenset:
    """Ids of the hyperedges intersecting at least two parts of the partition."""
    if p.n != h.n:
        raise PreconditionError("partition is over a different vertex set")
    part_of = {}
    for idx, part in enumerate(p.parts):
        for v in part:
            part_of[v] = idx
    out = []
    for eid, e in enumerate(h.hyperedges):
        if len({part_of[v] for v in e}) >= 2:
            out.append(eid)
    return frozenset(out)


def deficient_partition(h: Hypergraph) -> Partition | None:
    """A partition with |border| <= |parts| - 2, or None if partition-connected.

    Searches from every hyperedge the greedy left out; the parts are the
    components of the forest pairs it reaches.  Every pair it reaches lies
    within one part, so a border hyperedge is a forest member whose pair
    was not reached: |border| <= |forest| - |reached| <= |parts| - 2.
    """
    if h.n < 2:
        raise PreconditionError("need at least two vertices")
    pairs, adj = _greedy(h)
    if len(pairs) == h.n - 1:
        return None
    swap, reached = _search(h, pairs, adj, [i for i in range(h.m) if i not in pairs])
    if swap is not None:
        raise InvariantError("the greedy missed an augmenting path")
    comp = _components(range(h.n), [pairs[i] for i in reached])
    parts: dict = {}
    for v, root in comp.items():
        parts.setdefault(root, []).append(v)
    p = Partition(h.n, parts.values())
    if len(border(h, p)) > len(p) - 2:
        raise InvariantError("the reached forest pairs gave no deficient partition")
    return p
