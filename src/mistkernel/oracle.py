"""Exact maximum-internal-spanning-tree solver for desk-scale graphs.

Ground truth for equivalence testing, and the second stage of the
kernelize-then-solve decision procedure.  A Hamiltonian-path bitmask DP
settles the dense case (the optimum is n - 2 exactly when a Hamiltonian
path exists); otherwise all spanning trees are enumerated by edge
inclusion/exclusion with connectivity pruning.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

from .graph import (
    Graph,
    InvariantError,
    PreconditionError,
    ResourceLimitError,
    SpanningTree,
    internal_count,
    is_connected,
)
from .kernelizer import kernelize, lift_solution

DEFAULT_MAX_N = 18


@dataclass(frozen=True)
class OptResult:
    """Maximum internal-vertex count over all spanning trees, with a witness."""

    opt: int
    witness: SpanningTree


def _size_guard() -> int:
    return int(os.environ.get("MIST_ORACLE_MAX_N", DEFAULT_MAX_N))


def hamiltonian_path(g: Graph) -> list[int] | None:
    """A Hamiltonian path as a vertex list, or None.  Bitmask DP."""
    n = g.n
    if n == 0:
        return None
    if n == 1:
        return [0]
    nbr_mask = [0] * n
    for u, v in g.edges:
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    ends = [0] * (1 << n)
    parent: dict = {}
    for v in range(n):
        ends[1 << v] = 1 << v
    full = (1 << n) - 1
    for mask in range(1, 1 << n):
        em = ends[mask]
        if not em:
            continue
        if mask == full:
            break
        v = 0
        while em:
            if em & 1:
                ext = nbr_mask[v] & ~mask
                w = 0
                e2 = ext
                while e2:
                    if e2 & 1:
                        nm = mask | (1 << w)
                        if not ends[nm] >> w & 1:
                            ends[nm] |= 1 << w
                            parent[(nm, w)] = v
                    e2 >>= 1
                    w += 1
            em >>= 1
            v += 1
    if not ends[full]:
        return None
    end = (ends[full] & -ends[full]).bit_length() - 1
    path = [end]
    mask = full
    while len(path) < n:
        prev = parent[(mask, path[-1])]
        mask &= ~(1 << path[-1])
        path.append(prev)
    path.reverse()
    return path


def _enumerate_best(g: Graph, stop_at: int) -> tuple[int, SpanningTree]:
    """Best internal count over all spanning trees, via edge branch-and-prune.

    Each edge in sorted order is either included (if it closes no cycle) or
    excluded (if the remaining edges can still connect the graph), so every
    spanning tree is visited exactly once.  Stops early at `stop_at`.
    """
    edges = sorted(g.edges)
    m = len(edges)
    n = g.n
    best_count = -1
    best_tree: list | None = None

    def connectable(parent: list, start: int) -> bool:
        p = parent[:]

        def find(x):
            while p[x] != x:
                p[x] = p[p[x]]
                x = p[x]
            return x

        comps = len({find(v) for v in range(n)})
        for i in range(start, m):
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                p[ru] = rv
                comps -= 1
                if comps == 1:
                    return True
        return comps == 1

    def rec(i: int, parent: list, chosen: list):
        nonlocal best_count, best_tree
        if best_count >= stop_at:
            return
        if len(chosen) == n - 1:
            deg = [0] * n
            for u, v in chosen:
                deg[u] += 1
                deg[v] += 1
            count = sum(1 for d in deg if d >= 2)
            if count > best_count:
                best_count = count
                best_tree = chosen[:]
            return
        if i == m:
            return

        def find(p, x):
            while p[x] != x:
                p[x] = p[p[x]]
                x = p[x]
            return x

        u, v = edges[i]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            p2 = parent[:]
            p2[ru] = rv
            chosen.append(edges[i])
            rec(i + 1, p2, chosen)
            chosen.pop()
        if connectable(parent, i + 1):
            rec(i + 1, parent, chosen)

    rec(0, list(range(n)), [])
    if best_tree is None:
        raise PreconditionError("graph has no spanning tree")
    return best_count, SpanningTree(range(n), best_tree)


def opt_internal(g: Graph) -> OptResult:
    """Exact optimum with witness; guarded by MIST_ORACLE_MAX_N (default 18)."""
    guard = _size_guard()
    if g.n > guard:
        raise ResourceLimitError(f"graph exceeds the oracle size guard ({guard})")
    if not is_connected(g):
        raise PreconditionError("oracle requires a connected graph")
    return _solve(g)


# Callers decide the same small graphs repeatedly; a long-lived process may
# decide any number of distinct ones, so the cache is bounded.
@functools.lru_cache(maxsize=1024)
def _solve(g: Graph) -> OptResult:
    """opt_internal on a connected graph that passed the size guard; equal
    graphs share one cache entry."""
    if g.n <= 2:
        tree = SpanningTree(range(g.n), sorted(g.edges))
        result = OptResult(0, tree)
    else:
        path = hamiltonian_path(g)
        if path is not None:
            tree = SpanningTree(range(g.n), list(zip(path, path[1:])))
            result = OptResult(g.n - 2, tree)
        else:
            # No Hamiltonian path, so the optimum is at most n - 3.
            count, tree = _enumerate_best(g, g.n - 3)
            result = OptResult(count, tree)
    if internal_count(result.witness) != result.opt:
        raise InvariantError("oracle witness does not match its count")
    return result


def decide_pist(g: Graph, k: int):
    """Kernelize, solve the kernel exactly, and lift the witness.

    Returns (True, witness tree of g) or (False, None).
    """
    if not is_connected(g):
        raise PreconditionError("decide_pist requires a connected graph")
    res = kernelize(g, k)
    if res.outcome in ("solved", "trivial_yes"):
        return True, res.witness
    if res.outcome == "trivial_no":
        return False, None
    best = opt_internal(res.graph)
    if best.opt >= res.k_prime:
        lifted = lift_solution(g, res.trace, best.witness)
        if internal_count(lifted) < k:
            raise InvariantError("lifted witness misses the target")
        return True, lifted
    return False, None
