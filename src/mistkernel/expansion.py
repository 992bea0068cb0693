"""Constructive 2-expansion between two vertex sets of a graph.

Given disjoint X and Y with |Y| >= 2|X| and every Y-vertex adjacent to X,
find X' ⊆ X and Y' ⊆ Y such that the X-neighborhood of Y' is exactly X'
and every Z ⊆ X' has at least 2|Z| neighbors inside Y'.  Only the X-Y
edges of the graph count.  The witness comes with a doubled matching that
gives every X'-vertex two private Y'-neighbors, which is Hall's form of
the same condition; one matching finds both, as in the expansion lemma's
proof (Thomassé).  This module holds the package's one matching routine.
"""

from __future__ import annotations

from .graph import Graph, InvariantError, PreconditionError


class ExpansionPair:
    """A witness (X', Y') for expansion 2: N(Y') = X' and |N(Z) ∩ Y'| >= 2|Z|.

    `mates` maps each X'-vertex to its two private Y'-neighbors, in
    ascending order; the 2|X'| mates are distinct, which certifies the
    expansion.
    """

    __slots__ = ("x_prime", "y_prime", "mates")

    def __init__(self, x_prime, y_prime, mates):
        self.x_prime = frozenset(x_prime)
        self.y_prime = frozenset(y_prime)
        self.mates = mates
        if not self.x_prime or not self.y_prime:
            raise PreconditionError("expansion pair sides must be nonempty")

    def __repr__(self):
        return f"ExpansionPair(X'={sorted(self.x_prime)}, Y'={sorted(self.y_prime)})"


def _augment(adj: dict, left_order) -> dict:
    """Kuhn's augmenting-path matching.

    `adj` maps each left vertex to an ascending tuple of right vertices.
    Distinct left vertices are scanned in the given order, and each
    augmentation newly matches only its own root; returns {left: right}.
    The depth-first search for an augmenting path keeps an explicit stack,
    so path length is not bounded by the recursion limit.
    """
    match_left: dict = {}
    match_right: dict = {}
    for root in left_order:
        seen = set()
        # stack[i] is a left vertex with the iterator over its remaining
        # neighbors; path[i] is the right vertex stack[i] currently tries.
        stack = [(root, iter(adj[root]))]
        path: list = []
        while stack:
            for w in stack[-1][1]:
                if w not in seen:
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen.add(w)
            path.append(w)
            if w in match_right:
                u = match_right[w]
                stack.append((u, iter(adj[u])))
                continue
            for (u, _), w in zip(stack, path):
                match_left[u] = w
                match_right[w] = u
            break
    return match_left


def find_expansion_2(g: Graph, x, y) -> ExpansionPair:
    """Find a valid expansion pair between X and Y in g; deterministic given
    vertex index order.

    Matches two copies of every X-vertex into Y, once.  The X-vertices with
    a copy that alternating paths from unmatched copies reach form a Hall
    violator, and the Y-vertices reached are exactly their neighbours; both
    are discarded.  Each copy left is matched outside the reached Y, or the
    search would have reached it through its mate, so the same matching
    saturates the remainder and gives the mates.
    """
    x_set = frozenset(x)
    ys = set(y)
    if x_set & ys:
        raise PreconditionError("sides of the bipartition overlap")
    if any(not 0 <= v < g.n for v in x_set | ys):
        raise PreconditionError(f"a side holds a vertex outside 0..{g.n - 1}")
    if not x_set:
        raise PreconditionError("side X is empty")
    if len(ys) < 2 * len(x_set):
        raise PreconditionError("side Y must have at least twice the size of X")
    for w in sorted(ys):
        if x_set.isdisjoint(g.neighbors(w)):
            raise PreconditionError(f"Y-vertex {w} has no neighbor in X")

    xs = sorted(x_set)
    left = [(v, c) for v in xs for c in (0, 1)]
    adj = {}
    for v in xs:
        adj[v, 0] = adj[v, 1] = tuple(w for w in g.neighbors(v) if w in ys)
    match_left = _augment(adj, left)
    if len(match_left) < len(left):
        match_right = {w: u for u, w in match_left.items()}
        # Alternating search: free edge to Y, matched edge back to its mate.
        stack = [u for u in left if u not in match_left]
        x_bad = set()
        while stack:
            u = stack.pop()
            x_bad.add(u[0])
            for w in adj[u]:
                if w in ys:
                    ys.remove(w)
                    if w in match_right:
                        stack.append(match_right[w])
        xs = [v for v in xs if v not in x_bad]
        if not xs:
            raise InvariantError("alternating search produced a degenerate violator")
    mates = {v: tuple(sorted((match_left[v, 0], match_left[v, 1]))) for v in xs}
    return ExpansionPair(xs, ys, mates)
