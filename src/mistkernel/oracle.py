"""Exact solver for the kernel's question: is there a spanning tree with at
least k internal vertices?

`decide_pist` kernelizes and asks `opt_internal(kernel, k')`, which stops at
the first tree that reaches k'; that tree need not have the most.  No tree
on n >= 2 vertices has more than n - 2, so above it the answer is no, and
at it a Hamiltonian-path DP over 2^n end-sets answers.  Below it one
branch-and-bound search over the spanning trees answers: each edge in turn
is included or excluded, a branch that can no longer connect the graph is
dropped, and a branch is cut when an upper bound falls below k': the
vertices that can still reach degree 2, or n - 2 less the chosen degrees'
excess over 2 (a tree has 2 + sum(max(0, deg - 2)) leaves).

Without a target, `opt_internal(g)` gives the exact optimum, the ground
truth of the tests: the DP first, then the same search, which cuts a branch
whose bound cannot beat the best tree found so far.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    InvariantError,
    PreconditionError,
    ResourceLimitError,
    SpanningTree,
    _find,
    internal_count,
    is_connected,
)
from .kernelizer import kernelize, lift_solution

MAX_N = 18  # the largest graph opt_internal accepts: 2^n end-sets, about 10 MB at 18


@dataclass(frozen=True)
class OptResult:
    """A spanning tree with its internal-vertex count `opt`: the maximum over
    all spanning trees, unless the tree answers a target (`at_least`)."""

    opt: int
    witness: SpanningTree


def hamiltonian_path(g: Graph) -> list[int] | None:
    """A Hamiltonian path as a vertex list, or None.  Bitmask DP (Bellman;
    Held and Karp, 1962): `ends[mask]` holds the vertices where a path
    through exactly `mask` can end.  The walk back starts at the lowest end
    of the full set and steps to the lowest neighbour that ends a path
    through the rest, so no parent is stored.

    Only the two ends of a Hamiltonian path have degree 1 on it, so a graph
    with more than two vertices of degree at most 1 has none; the DP is
    skipped for those.  A graph on more than MAX_N vertices raises
    ResourceLimitError.
    """
    n = g.n
    if n > MAX_N:
        raise ResourceLimitError(f"graph exceeds the oracle size guard ({MAX_N})")
    if sum(1 for v in range(n) if g.degree(v) <= 1) > 2:
        return None
    nbr_mask = [0] * n
    for u, v in g.edges:
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    full = (1 << n) - 1
    ends = [0] * (1 << n)
    for v in range(n):
        ends[1 << v] = 1 << v
    for mask in range(1, full):
        em = ends[mask]
        while em:
            low = em & -em
            em ^= low
            ext = nbr_mask[low.bit_length() - 1] & ~mask
            while ext:
                w = ext & -ext
                ext ^= w
                ends[mask | w] |= w
    if not ends[full]:
        return None
    path = [(ends[full] & -ends[full]).bit_length() - 1]
    mask = full
    while len(path) < n:
        mask ^= 1 << path[-1]
        prev = nbr_mask[path[-1]] & ends[mask]
        path.append((prev & -prev).bit_length() - 1)
    path.reverse()
    return path


def _branch_and_bound(g: Graph, need: int, stop_at: int) -> OptResult | None:
    """Branch-and-bound over the spanning trees of g.

    Each edge in sorted order is either included (if it closes no cycle) or
    excluded (if the remaining edges can still connect the graph), so every
    spanning tree is met exactly once.  A tree with at least `need` internal
    vertices is kept and `need` rises past it, so the result is the first
    tree in this order with the most internal vertices, or None when no tree
    has `need`.  The search stops once a kept tree reaches `stop_at`.

    The bound: an undecided edge can still raise a degree, so a vertex
    whose chosen degree plus undecided incident edges is below 2 ends up a
    leaf.  Including an edge leaves that sum unchanged and excluding one
    lowers it at both ends, so the count of vertices where it is at least 2
    moves only on exclusion.  A branch whose count is below `need` is cut.

    The leaf-count cut: a tree has 2 + sum(max(0, deg - 2)) leaves and
    chosen degrees only grow, so a branch whose chosen degrees exceed 2 by
    `excess` in total keeps at most n - 2 - excess internal vertices.  A
    complete tree that is not cut has exactly that many and is kept.
    """
    edges = sorted(g.edges)
    m = len(edges)
    n = g.n
    room = [g.degree(v) for v in range(n)]  # chosen degree + undecided edges
    deg = [0] * n  # chosen degree
    best: list | None = None
    best_count = -1

    def connectable(parent: list, start: int) -> bool:
        p = parent[:]
        comps = len({_find(p, v) for v in range(n)})
        for i in range(start, m):
            u, v = edges[i]
            ru, rv = _find(p, u), _find(p, v)
            if ru != rv:
                p[ru] = rv
                comps -= 1
                if comps == 1:
                    return True
        return comps == 1

    def rec(i: int, parent: list, chosen: list, bound: int, excess: int):
        nonlocal need, best, best_count
        if best_count >= stop_at or bound < need or n - 2 - excess < need:
            return
        if len(chosen) == n - 1:
            best, best_count, need = chosen[:], n - 2 - excess, n - 1 - excess
            return
        if i == m:
            return
        u, v = edges[i]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            p2 = parent[:]
            p2[ru] = rv
            chosen.append(edges[i])
            deg[u] += 1
            deg[v] += 1
            rec(i + 1, p2, chosen, bound, excess + (deg[u] > 2) + (deg[v] > 2))
            deg[u] -= 1
            deg[v] -= 1
            chosen.pop()
        room[u] -= 1
        room[v] -= 1
        # Leaving out an edge inside a chosen component keeps what can connect.
        if ru == rv or connectable(parent, i + 1):
            rec(i + 1, parent, chosen, bound - (room[u] == 1) - (room[v] == 1), excess)
        room[u] += 1
        room[v] += 1

    rec(0, list(range(n)), [], sum(1 for r in room if r >= 2), 0)
    if best is None:
        return None
    return OptResult(best_count, SpanningTree(range(n), best))


def opt_internal(g: Graph, at_least: int | None = None) -> OptResult | None:
    """The exact optimum with a witness, or, given `at_least`, a tree with at
    least that many internal vertices (not necessarily the most) and None
    when the optimum is below it.  A graph on more than MAX_N vertices
    raises ResourceLimitError.
    """
    if g.n > MAX_N:
        raise ResourceLimitError(f"graph exceeds the oracle size guard ({MAX_N})")
    if not is_connected(g):
        raise PreconditionError("oracle requires a connected graph")
    n = g.n
    top = max(n - 2, 0)  # a tree on two or more vertices has two leaves
    if at_least is not None and at_least > top:
        return None
    if n <= 2:
        result = OptResult(0, SpanningTree(range(n), sorted(g.edges)))
    elif at_least is None or at_least == top:
        path = hamiltonian_path(g)
        if path is not None:
            result = OptResult(top, SpanningTree(range(n), list(zip(path, path[1:]))))
        elif at_least is not None:
            return None
        else:
            # No Hamiltonian path, so the optimum is at most n - 3.
            result = _branch_and_bound(g, 0, n - 3)
    else:
        result = _branch_and_bound(g, at_least, at_least)
        if result is None:
            return None
    if internal_count(result.witness) != result.opt:
        raise InvariantError("oracle witness does not match its count")
    return result


def decide_pist(g: Graph, k: int):
    """Kernelize, solve the kernel exactly, and lift the witness.

    Returns (True, witness tree of g) or (False, None); kernelize rejects a
    disconnected graph with PreconditionError.
    """
    res = kernelize(g, k)
    if res.outcome in ("solved", "trivial_yes"):
        return True, res.witness
    if res.outcome == "trivial_no":
        return False, None
    found = opt_internal(res.graph, res.k_prime)
    if found is None:
        return False, None
    lifted = lift_solution(g, res.trace, found.witness)
    if internal_count(lifted) < k:
        raise InvariantError("lifted witness misses the target")
    return True, lifted
