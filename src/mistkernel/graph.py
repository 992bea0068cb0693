"""Undirected simple graphs, spanning trees and the traversal and forest
helpers shared by the rest of the package.

All structures are immutable after construction and every operation is a
pure function, so values can be shared freely across threads.  Determinism
is part of the contract: neighbor lists are kept sorted and every search
visits vertices in ascending index order.
"""

from __future__ import annotations

from collections import deque


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
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            e = normalize_edge(u, v)
            if e in es:
                raise PreconditionError(f"parallel edge {e}")
            es.add(e)
        adj = [[] for _ in range(n)]
        for u, v in es:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = frozenset(es)
        self._adj = tuple(tuple(sorted(a)) for a in adj)

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
    """

    __slots__ = ("vertices", "edges", "root", "_deg")

    def __init__(self, vertices, edges, root=None):
        vs = frozenset(vertices)
        if not vs:
            raise PreconditionError("a tree needs at least one vertex")
        es = frozenset(normalize_edge(u, v) for u, v in edges)
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
        if root is not None and root not in vs:
            raise PreconditionError(f"root {root} not in the vertex set")
        self.vertices = vs
        self.edges = es
        self.root = root
        self._deg = deg

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
        return f"SpanningTree(|V|={len(self.vertices)}, root={self.root})"


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
    raises PreconditionError.
    """
    if not (0 <= root < g.n):
        raise PreconditionError(f"root {root} out of range")
    parent = [-1] * g.n
    visited = [False] * g.n
    visited[root] = True
    ptr = [0] * g.n
    stack = [root]
    while stack:
        u = stack[-1]
        nbrs = g.neighbors(u)
        advanced = False
        while ptr[u] < len(nbrs):
            w = nbrs[ptr[u]]
            ptr[u] += 1
            if not visited[w]:
                visited[w] = True
                parent[w] = u
                stack.append(w)
                advanced = True
                break
        if not advanced:
            stack.pop()
    if not all(visited):
        raise PreconditionError("graph must be connected")
    edges = [(v, parent[v]) for v in range(g.n) if parent[v] >= 0]
    return SpanningTree(range(g.n), edges, root=root)


def internal_count(t: SpanningTree, subset=None) -> int:
    """Number of subset vertices with tree degree >= 2 (subset defaults to all)."""
    if subset is None:
        return sum(1 for v in t.vertices if t.degree(v) >= 2)
    return sum(1 for v in subset if t.degree(v) >= 2)


def dfs_leaf_independent_set(g: Graph, t: SpanningTree) -> frozenset:
    """Leaves of a DFS tree minus its root; pairwise nonadjacent in g."""
    out = t.leaves() - ({t.root} if t.root is not None else frozenset())
    for v in out:
        for w in g.neighbors(v):
            if w in out:
                raise PreconditionError(
                    "tree is not a DFS tree of g: two non-root leaves are adjacent"
                )
    return out


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
    """Maps each vertex to the lowest vertex of its component.  The result
    is itself a union-find forest of depth one, so `_find` can go on
    joining components in it."""
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
