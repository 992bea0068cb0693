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
this way in ascending id order, but it searches only where the answer is
not known before.  A union-find over the forest's components tells in
near-constant time whether two vertices lie in different components.  A
new hyperedge with lowest vertex r and a vertex outside r's component C
takes (r, b) for the first such b: that is what the search finds at its
first node.  A new hyperedge inside C can join only by re-pairing a
forest hyperedge of C, and only one of three or more vertices has another
pair to move to; when C holds none, the search cannot succeed and is
skipped.  `_pair_forest` proves both shortcuts.  So on hypergraphs of
pairs the greedy is Kruskal's algorithm.  When it stops short of |V| - 1,
a last search from every unchosen hyperedge reaches a set U of forest
pairs, and by the min-max theorem of matroid intersection the components
of U form a partition with at most |parts| - 2 border hyperedges.  So a
hypergraph contains a hypertree exactly when every partition of its
vertices has at least |parts| - 1 border hyperedges
(partition-connectivity; Frank, Király and Kriesell).
"""

from __future__ import annotations

from collections import deque

from .graph import (
    InvariantError,
    PreconditionError,
    _components,
    _find,
    _tree_path,
)


class Hypergraph:
    """Vertices 0..n-1 plus a list of hyperedges (nonempty vertex subsets).

    Edge ids are positions in the list and stay stable under sub-selection.
    Duplicate hyperedges are allowed.
    """

    __slots__ = ("n", "hyperedges", "_ascending", "_forest")

    def __init__(self, n: int, hyperedges):
        if n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        edges, ascending = [], []
        for e in hyperedges:
            fs = frozenset(e)
            t = tuple(sorted(fs))
            if not t:
                raise PreconditionError("hyperedges must be nonempty")
            if t[0] < 0 or t[-1] >= n:
                raise PreconditionError(f"hyperedge {list(t)} out of range")
            edges.append(fs)
            ascending.append(t)
        self.n = n
        self.hyperedges = tuple(edges)
        self._ascending = tuple(ascending)  # each hyperedge's vertices, ascending
        self._forest = None  # the greedy's (pairs, adj, comp), once `_greedy` ran

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


def _search(h: Hypergraph, pairs: dict, adj: dict, comp: list, starts):
    """Breadth-first search of the exchange graph from the hyperedges `starts`,
    which hold no pair of the pair forest `pairs`; `adj` is the forest's
    adjacency with owners, {a: {b: edge id}}, and `comp` a union-find over
    its components, as `_pair_forest` keeps them.

    The nodes are hyperedges, each standing for its pairs.  Let r be the
    lowest vertex of a hyperedge.  A pair (r, b) is an end when r and b
    have different roots in `comp`, a test that walks no forest path.
    Otherwise they lie in one forest component, and the pair leads to the
    forest pairs on the forest path from r to b, which exists, and from
    each of those to the other pairs of its hyperedge.  The forest paths
    from r cover every forest pair that any pair of the hyperedge leads
    to, so hyperedges are reached at their exchange-graph distance, and
    the first end found closes a shortest augmenting path: swapping its
    pairs in keeps the pairs a forest with one pair per hyperedge.

    `_pair_forest` takes the end of a new hyperedge itself, without a
    search, so it searches only from a hyperedge inside one component,
    where an end can only be a re-paired forest hyperedge of three or
    more vertices.  The search from `deficient_partition` meets no end.

    Returns ({edge id: new pair} along that path, None) on success, the
    end first, and (None, ids of the forest hyperedges reached) otherwise.
    """
    came_from = dict.fromkeys(starts)
    queue = deque(came_from)
    while queue:
        eid = queue.popleft()
        r, *rest = h._ascending[eid]
        root = _find(comp, r)
        for b in rest:
            if pairs.get(eid) == (r, b):
                continue
            if _find(comp, b) != root:
                swap, step = {}, (eid, (r, b))
                while step is not None:
                    eid, pair = step
                    swap[eid] = pair
                    step = came_from[eid]
                return swap, None
            path = _tree_path(adj, r, b)
            for a, c in zip(path, path[1:]):
                owner = adj[a][c]
                if owner not in came_from:
                    came_from[owner] = (eid, (r, b))
                    queue.append(owner)
    return None, [eid for eid in came_from if eid in pairs]


def _pair_forest(h: Hypergraph, ids):
    """Matroid greedy over the edge ids in the given order: the pair forest
    of the hyperedges it keeps, its adjacency and the union-find over its
    components, as `_search` takes them.

    It keeps exactly what a `_search` from each new hyperedge s in turn
    would keep, but searches only where the answer is not known before.
    Let r be the lowest vertex of s, and C its forest component.

    - Components only merge.  Every forest pair holds its hyperedge's
      lowest vertex, as every pair the search tries does.  Along an
      augmenting path s = e0, e1, ..., ek, the old pair of e(i+1) lies on
      the forest path of the new pair of ei, so by induction every pair
      on the path, old and new, lies in C, except the last new pair
      (rk, b), which joins C to the component of b.  The new forest has one
      pair more than the old one and lies within the old components with
      those two merged, so its components are exactly those.
    - Direct add.  When a vertex of s lies outside C, s takes (r, b) for
      the first such b: the search dequeues s first and tries its pairs
      (r, b) in ascending b, and that b is the first end it meets.
    - Skip.  When every vertex of s lies in C, every forest path the
      search walks lies in C, so it reaches only hyperedges whose forest
      pair lies in C.  A hyperedge of two vertices has no pair but its
      forest pair, which the search does not try, so it leads nowhere.
      Hence when no forest hyperedge of three or more vertices lies in C
      the search fails, and the greedy skips it.  `wide` counts those
      hyperedges per component root; a merge adds the two counts, and one
      more when s itself has three or more vertices (its new pair lies in
      the merged component, with every other pair on the path).
    """
    pairs: dict = {}
    adj: dict = {}
    comp = list(range(h.n))
    wide = [0] * h.n
    for eid in ids:
        if len(pairs) == h.n - 1:
            break
        r, *rest = h._ascending[eid]
        root = _find(comp, r)
        for b in rest:
            other = _find(comp, b)
            if other != root:
                swap = {eid: (r, b)}
                break
        else:
            if not wide[root]:
                continue
            swap, _ = _search(h, pairs, adj, comp, [eid])
            if swap is None:
                continue
            _, b = next(iter(swap.values()))  # the pair that ends the path
            other = _find(comp, b)
        comp[other] = root
        wide[root] += wide[other] + (len(rest) >= 2)
        # Drop every old pair before adding a new one: a new pair may repeat
        # the old pair of the next hyperedge on the path.
        for e in swap.keys() & pairs.keys():
            a, b = pairs[e]
            del adj[a][b], adj[b][a]
        for e, (a, b) in swap.items():
            adj.setdefault(a, {})[b] = e
            adj.setdefault(b, {})[a] = e
        pairs.update(swap)
    return pairs, adj, comp


def _greedy(h: Hypergraph):
    """The greedy over all hyperedges in ascending id order, as
    `_pair_forest` returns it; it runs once per hypergraph and is kept on
    it.  Callers must not change the result."""
    if h._forest is None:
        h._forest = _pair_forest(h, range(h.m))
    return h._forest


# ---------------------------------------------------------------------------
# Operations


def greedy_hypertree(h: Hypergraph) -> dict | None:
    """The pair forest {edge id: (a, b)} of a hypertree built greedily in
    ascending edge-id order, or None if the hypergraph has no hypertree.
    The dict is a copy: changing it does not reach `deficient_partition`."""
    if h.n < 1:
        raise PreconditionError("hypergraph must have at least one vertex")
    pairs = _greedy(h)[0]
    return dict(pairs) if len(pairs) == h.n - 1 else None


def shrink_to_tree(h: Hypergraph, pairs: dict) -> dict:
    """Shrink a hypertree to a spanning tree, given its pair forest as
    `greedy_hypertree` returns it: n - 1 pairs, each a 2-subset of its own
    hyperedge, that form no cycle.  Returns the checked pairs, the tree's
    edges, as {edge id: (a, b)} in ascending id order."""
    if len(pairs) != h.n - 1:
        raise PreconditionError(f"a hypertree on {h.n} vertices needs {h.n - 1} pairs")
    parent = list(range(h.n))
    for eid, (a, b) in pairs.items():
        if not 0 <= eid < h.m or a == b or not {a, b} <= h.hyperedges[eid]:
            raise PreconditionError(f"pair ({a}, {b}) is not a 2-subset of hyperedge {eid}")
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            raise PreconditionError("the pairs contain a cycle")
        parent[ra] = rb
    return dict(sorted(pairs.items()))


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
    pairs, adj, comp = _greedy(h)
    if len(pairs) == h.n - 1:
        return None
    unchosen = [i for i in range(h.m) if i not in pairs]
    swap, reached = _search(h, pairs, adj, comp, unchosen)
    if swap is not None:
        raise InvariantError("the greedy missed an augmenting path")
    parts: dict = {}
    for v, root in _components(range(h.n), [pairs[i] for i in reached]).items():
        parts.setdefault(root, []).append(v)
    p = Partition(h.n, parts.values())
    if len(border(h, p)) > len(p) - 2:
        raise InvariantError("the reached forest pairs gave no deficient partition")
    return p
