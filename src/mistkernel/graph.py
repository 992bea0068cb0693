"""Undirected simple graphs, spanning trees and the traversal and forest
helpers shared by the rest of the package.

All structures are immutable after construction and every operation is a
pure function, so values can be shared freely across threads.  Determinism
is part of the contract: neighbor lists are kept sorted and every search
visits vertices in ascending index order.

Parsing, generation and kernelization pause the cyclic garbage collector
while they run (`_nogc`).  The pause is process-wide, and a call restores
only the state it changed: a thread that disables the collector while such
a call runs in another thread can find it re-enabled when that call
returns.  Values stay shareable across threads.
"""

from __future__ import annotations

import functools
import gc
from collections import Counter, deque
from operator import countOf, lt


class PreconditionError(ValueError):
    """An operation was called on input that violates its contract."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class ResourceLimitError(RuntimeError):
    """Valid input that exceeds a fixed resource limit, such as the size
    the exact oracle accepts."""


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    No self-loops, no parallel edges.  Adjacency lists are sorted, so
    iteration order is always ascending.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        es = set()
        adj = [[] for _ in range(n)]
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            # a pair that already is a canonical tuple is kept as given
            if u > v:
                e = (v, u)
            elif type(e) is not tuple:
                e = (u, v)
            if e in es:
                raise PreconditionError(f"parallel edge {e}")
            es.add(e)
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            a.sort()
        self.n = n
        self.edges = frozenset(es)
        self._adj = tuple(map(tuple, adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def neighborhood(self, vertices) -> frozenset:
        """N(S): union of neighbors of the given vertices, minus the set itself."""
        vs = set(vertices)
        out = set()
        for v in vs:
            out.update(self._adj[v])
        return frozenset(out - vs)

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class SpanningTree:
    """A tree on an explicit vertex set, with edges in canonical form.

    The vertex set does not have to be 0..n-1; trees over subsets of a host
    graph's vertices (e.g. over S ∪ L) keep their original labels.

    The constructor checks any edge set: |V| - 1 distinct edges inside the
    vertex set, and no cycle among them (by union-find).  `dfs_tree` builds
    its trees through `_from_parents` instead, which checks a parent array
    against the discovery order.
    """

    __slots__ = ("vertices", "edges", "_deg")

    def __init__(self, vertices, edges):
        vs = frozenset(vertices)
        if not vs:
            raise PreconditionError("a tree needs at least one vertex")
        es = frozenset((u, v) if u < v else (v, u) for u, v in edges)
        if len(es) != len(vs) - 1:
            raise PreconditionError(
                f"tree on {len(vs)} vertices needs {len(vs) - 1} edges, got {len(es)}"
            )
        deg = {v: 0 for v in vs}
        parent = {v: v for v in vs}
        for u, v in es:
            if u not in deg or v not in deg:
                raise PreconditionError(f"edge ({u}, {v}) leaves the vertex set")
            deg[u] += 1
            deg[v] += 1
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                raise PreconditionError("edge set contains a cycle")
            parent[ru] = rv
        self.vertices = vs
        self.edges = es
        self._deg = deg

    @classmethod
    def _from_parents(cls, root: int, parent: list, order: list) -> SpanningTree:
        """The tree on 0..n-1 (n = len(parent)) whose edges join each vertex
        v != root to parent[v].

        PreconditionError unless every such parent is a vertex discovered
        before its child, order[parent[v]] < order[v].  That is enough:
        following parents then strictly lowers the order, so from any
        vertex it ends at the one vertex without a parent, the root.  The
        n - 1 edges thus connect all n vertices, which makes them a tree.
        parent[root] is ignored.
        """
        n = len(parent)
        kids = [*range(root), *range(root + 1, n)]
        ps = parent[:root] + parent[root + 1:]
        if ps and not (
            0 <= min(ps)
            and max(ps) < n
            and all(map(lt, map(order.__getitem__, ps), map(order.__getitem__, kids)))
        ):
            raise PreconditionError(
                "parent array has a cycle or a vertex without a parent"
            )
        # degree: 1 for the edge to the parent (none at the root), plus 1
        # for each child
        deg = Counter(dict.fromkeys(range(n), 1))
        deg[root] = 0
        deg.update(ps)
        t = cls.__new__(cls)
        t.vertices = frozenset(range(n))
        t.edges = frozenset((v, p) if v < p else (p, v) for v, p in zip(kids, ps))
        t._deg = dict(deg)
        return t

    def degree(self, v: int) -> int:
        return self._deg[v]

    def internal(self) -> frozenset:
        return frozenset(v for v, d in self._deg.items() if d >= 2)

    def leaves(self) -> frozenset:
        return frozenset(v for v, d in self._deg.items() if d == 1)

    def __eq__(self, other):
        return (
            isinstance(other, SpanningTree)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"SpanningTree(|V|={len(self.vertices)})"


# ---------------------------------------------------------------------------
# Operations


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (vacuously for n <= 1)."""
    if g.n <= 1:
        return True
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


def dfs_tree(g: Graph, root: int) -> SpanningTree:
    """DFS spanning tree from `root`, visiting neighbors in ascending order.

    A vertex the search does not reach means g is disconnected, which
    raises PreconditionError.  The search numbers the vertices in the
    order it discovers them, and `SpanningTree._from_parents` checks the
    tree by that numbering: each parent is discovered before its child.
    """
    if not (0 <= root < g.n):
        raise PreconditionError(f"root {root} out of range")
    adj = g._adj
    parent = [-1] * g.n
    # order[v] is v's discovery index, counted from 1; 0 means not yet seen
    order = [0] * g.n
    order[root] = seen = 1
    # each stack entry is a vertex with the iterator over its unscanned neighbors
    stack = [(root, iter(adj[root]))]
    while stack:
        u, rest = stack[-1]
        for w in rest:
            if not order[w]:
                seen += 1
                order[w] = seen
                parent[w] = u
                stack.append((w, iter(adj[w])))
                break
        else:
            stack.pop()
    if seen < g.n:
        raise PreconditionError("graph must be connected")
    return SpanningTree._from_parents(root, parent, order)


def internal_count(t: SpanningTree, subset=None) -> int:
    """Number of subset vertices with tree degree >= 2 (subset defaults to all)."""
    if subset is None:
        degs = t._deg.values()
        return len(degs) - countOf(degs, 0) - countOf(degs, 1)
    try:
        return sum(1 for v in subset if t._deg[v] >= 2)
    except KeyError as exc:
        raise PreconditionError(f"vertex {exc.args[0]} is not in the tree") from None


def _check_spans(g: Graph, t: SpanningTree) -> None:
    """PreconditionError unless t is a spanning tree of g: its vertices are
    0..n-1 and its edges are edges of g."""
    if not (len(t.vertices) == g.n and t.vertices.issuperset(range(g.n))):
        raise PreconditionError("tree does not span the graph")
    if not t.edges <= g.edges:
        raise PreconditionError("tree has an edge that is not in the graph")


def _find(parent, x):
    """The root of x in a union-find forest, halving the path on the way.

    `parent` maps each element to its parent, a root to itself; it may be a
    dict or a list.  The package's only union-find lookup.
    """
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _components(vertices, edges) -> dict:
    """Maps each vertex to the lowest vertex of its component."""
    parent = {v: v for v in vertices}
    for u, v in edges:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {v: _find(parent, v) for v in vertices}


def _adjacency(edges) -> dict:
    """{vertex: neighbors} of the vertices the edges touch, as `_tree_path`
    takes it."""
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


def _tree_path(adj: dict, u, v) -> list | None:
    """The vertex path from u to v in a forest, or None when they lie in
    different components.  `adj` maps a vertex to its neighbors (any
    iterable of them); a vertex without edges may be missing."""
    prev = {u: None}
    stack = [u]
    while stack and v not in prev:
        a = stack.pop()
        for b in adj.get(a, ()):
            if b not in prev:
                prev[b] = a
                stack.append(b)
    if v not in prev:
        return None
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path[::-1]


def _nogc(fn):
    """Decorator: run `fn` with the cyclic garbage collector paused.

    The functions it wraps build large containers that are all acyclic:
    edge and adjacency tuples, per-vertex lists, DFS stack entries,
    frozensets and dicts of ints.  Reference counting frees every one of
    them, so a collection during the call only rescans live objects it can
    never free.  A caller that has disabled the collector keeps it
    disabled; otherwise it is enabled again however `fn` returns.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused
