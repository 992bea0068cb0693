"""Independent brute-force oracles used to cross-check the library.

Everything here is definitional enumeration, except `reference_greedy`,
the hypertree greedy without shortcuts, and `reference_rearrange`, the
tree rearrangement as a fixpoint; none of it shares code with the
algorithms under test.
"""

from __future__ import annotations

import itertools
from collections import deque

from mistkernel.graph import Graph, SpanningTree, normalize_edge


def all_set_partitions(items):
    """Yield every partition of `items` as a list of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def is_tree_edge_set(vertices, edges) -> bool:
    vs = set(vertices)
    if len(edges) != len(vs) - 1:
        return False
    parent = {v: v for v in vs}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        if u not in vs or v not in vs:
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def all_spanning_trees(g: Graph):
    """Yield every spanning tree of g as a frozenset of edges."""
    edges = sorted(g.edges)
    for combo in itertools.combinations(edges, g.n - 1):
        if is_tree_edge_set(range(g.n), combo):
            yield frozenset(combo)


def brute_opt_internal(g: Graph) -> int:
    """Maximum internal count over all spanning trees, by full enumeration."""
    best = -1
    for tree in all_spanning_trees(g):
        deg = {v: 0 for v in range(g.n)}
        for u, v in tree:
            deg[u] += 1
            deg[v] += 1
        best = max(best, sum(1 for d in deg.values() if d >= 2))
    return best


def brute_strong_hall(sets) -> bool:
    """Definitional hyperforest check: every nonempty subfamily covers
    at least one more vertex than its size."""
    sets = list(sets)
    for r in range(1, len(sets) + 1):
        for combo in itertools.combinations(sets, r):
            union = set()
            for s in combo:
                union |= set(s)
            if len(union) < r + 1:
                return False
    return True


def brute_has_deficient_partition(n, sets):
    """A partition with |border| <= |parts| - 2, by enumerating all partitions."""
    for part in all_set_partitions(range(n)):
        if len(part) < 2:
            continue
        part_of = {}
        for idx, p in enumerate(part):
            for v in p:
                part_of[v] = idx
        b = sum(1 for s in sets if len({part_of[v] for v in s}) >= 2)
        if b <= len(part) - 2:
            return part
    return None


def brute_max_matching_size(pairs) -> int:
    """Maximum matching cardinality by subset enumeration."""
    pairs = list(pairs)
    best = 0
    for r in range(len(pairs), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(pairs, r):
            seen = set()
            ok = True
            for u, v in combo:
                if u in seen or v in seen:
                    ok = False
                    break
                seen.add(u)
                seen.add(v)
            if ok:
                best = max(best, r)
                break
    return best


def verify_expansion(g: Graph, x, y, x_prime, y_prime, c: int) -> bool:
    """Definitional expansion check by subset enumeration (|X'| <= 20).

    Only X-Y edges of g count.  True iff X' ⊆ X, Y' ⊆ Y, the X-neighborhood
    of Y' is exactly X', and every nonempty Z ⊆ X' has at least c * |Z|
    neighbors inside Y'.
    """
    xs = sorted(x_prime)
    if len(xs) > 20:
        raise ValueError("X' too large for exhaustive verification")
    x, y, y_prime = set(x), set(y), set(y_prime)
    if not set(xs) <= x or not y_prime <= y:
        return False
    if {u for w in y_prime for u in g.neighbors(w) if u in x} != set(xs):
        return False
    x_adj = {v: {w for w in g.neighbors(v) if w in y_prime} for v in xs}
    for mask in range(1, 1 << len(xs)):
        z = [xs[i] for i in range(len(xs)) if mask >> i & 1]
        seen: set = set()
        for v in z:
            seen |= x_adj[v]
        if len(seen) < c * len(z):
            return False
    return True


def brute_hamiltonian_path(g: Graph) -> bool:
    if g.n <= 1:
        return True
    for perm in itertools.permutations(range(g.n)):
        if perm[0] > perm[-1]:
            continue
        if all(g.has_edge(perm[i], perm[i + 1]) for i in range(g.n - 1)):
            return True
    return False


def random_spanning_tree(g: Graph, rng) -> SpanningTree:
    """A spanning tree picked by shuffling edges and running Kruskal."""
    edges = sorted(g.edges)
    rng.shuffle(edges)
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(normalize_edge(u, v))
    return SpanningTree(range(g.n), chosen)


def _walk(adj, u):
    """{vertex: predecessor} over u's component of the forest `adj`
    ({a: {b: owner}}), by depth-first search from u."""
    prev = {u: None}
    stack = [u]
    while stack:
        a = stack.pop()
        for b in adj.get(a, ()):
            if b not in prev:
                prev[b] = a
                stack.append(b)
    return prev


def _forest_path(adj, u, v):
    """The vertex path from u to v in the forest `adj`, or None when they
    lie in different components."""
    prev = _walk(adj, u)
    if v not in prev:
        return None
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path[::-1]


def _reference_search(edges, pairs, adj, starts):
    """Breadth-first exchange-graph search in which every pair (r, b) of a
    hyperedge, r its lowest vertex, walks the forest from r: a pair whose
    ends the walk does not connect ends the search."""
    came_from = dict.fromkeys(starts)
    queue = deque(came_from)
    while queue:
        eid = queue.popleft()
        r, *rest = edges[eid]
        for b in rest:
            if pairs.get(eid) == (r, b):
                continue
            path = _forest_path(adj, r, b)
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


def reference_greedy(n, hyperedges):
    """The hypertree greedy that searches from every hyperedge in ascending
    id order: (its pair forest, in insertion order, and the parts of the
    deficient partition that a last search from every unchosen hyperedge
    reaches, as sorted lists ordered by minimum; None for a hypertree)."""
    edges = [tuple(sorted(set(e))) for e in hyperedges]
    pairs, adj = {}, {}
    for eid in range(len(edges)):
        if len(pairs) == n - 1:
            break
        swap, _ = _reference_search(edges, pairs, adj, [eid])
        if swap is None:
            continue
        for e in swap.keys() & pairs.keys():
            a, b = pairs[e]
            del adj[a][b], adj[b][a]
        for e, (a, b) in swap.items():
            adj.setdefault(a, {})[b] = e
            adj.setdefault(b, {})[a] = e
        pairs.update(swap)
    if len(pairs) == n - 1:
        return pairs, None
    _, reached = _reference_search(
        edges, pairs, adj, [i for i in range(len(edges)) if i not in pairs]
    )
    reached_adj = {}
    for i in reached:
        a, b = pairs[i]
        reached_adj.setdefault(a, {})[b] = i
        reached_adj.setdefault(b, {})[a] = i
    parts, seen = [], set()
    for v in range(n):
        if v not in seen:
            part = sorted(_walk(reached_adj, v))
            seen.update(part)
            parts.append(part)
    return pairs, parts


def reference_rearrange(t: SpanningTree, cert):
    """The tree rearrangement as a fixpoint: drop t's edges at L, then, while
    some S-vertex shares a forest component with another, take the lowest
    such v and cut the first edge of its path to the lowest S-vertex in its
    component.  Returns (the forest plus the certificate tree's edges, the
    cuts as (v, edge) in order)."""
    forest = {e for e in t.edges if cert.l.isdisjoint(e)}
    cuts = []
    while True:
        adj = {}
        for a, b in forest:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        for v in sorted(cert.s):
            mates = sorted(w for w in _walk(adj, v) if w in cert.s and w != v)
            if mates:
                break
        else:
            return forest | cert.tree.edges, cuts
        path = _forest_path(adj, v, mates[0])
        e = normalize_edge(path[0], path[1])
        forest.remove(e)
        cuts.append((v, e))
