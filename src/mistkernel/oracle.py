"""Exact solver for the kernel's question: is there a spanning tree with at
least k internal vertices?

The solver decides, and its answer is a witness tree or None.
`decide_pist` kernelizes and asks `opt_internal(kernel, k')`, which
returns the first tree it meets with at least k' internal vertices, or
None; that tree need not have the most.  A caller that wants the count
asks `internal_count` of the tree.

A tree on n >= 2 vertices has two leaves, so no target above n - 2 (above
0 when n = 1) is met, and a target of 0 or less is answered like 0.  At
that top target a Hamiltonian-path DP answers; it visits only the
end-sets that some path covers, size by size, and when the graph has a
vertex of degree at most 1, only the paths that start at such a forced
end.  Below it one branch-and-bound search over the spanning trees
answers: each edge in turn is included or excluded, an exclusion is
allowed only while its ends still reach each other over the edges not
excluded so far (kept as neighbour bitmasks, and searched from both ends
at once, so refusing a bridge costs about its smaller side), and a
branch is cut when an upper bound falls below k': the vertices that can
still reach degree 2, or n - 2 less the chosen degrees' excess over 2 (a
tree has 2 + sum(max(0, deg - 2)) leaves).  The search stops at the
first tree no cut removes.

The search is entered only past two refutations.  The first is its own
root cut, free: fewer vertices of degree at least 2 than k'.  The second
is the hyperforest upper bound ub = |V - I| + rank(H_I), where I is an
independent set and H_I = {N(w) : w in I} the hypergraph on V - I
(Lovász's characterisation; see `_bounds`).  It costs one pair-forest
greedy, so it comes after the free cut, and the DP at the top target
does not wait for it.  Neither changes a tree the search finds.

A kernel on more than MAX_N vertices is beyond the search and the DP, so a
target there is answered by the same two refutations and the lower-bound
tree (a Kruskal tree that makes the hyperforest's I-vertices internal):
None when a refutation holds, that tree when it reaches k', and
ResourceLimitError, naming both bounds, in between.
"""

from __future__ import annotations

from array import array

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
from .hypermatroid import Hypergraph, _pair_forest
from .kernelizer import kernelize, lift_solution

MAX_N = 18  # the largest graph the exhaustive search takes: 2^n end-sets, about 10 MB at 18


def _grow_ends(nbr_mask: list[int], starts: int) -> list[int]:
    """The end-set table of the paths that start in `starts` (a bitmask):
    `ends[mask]` holds the vertices where such a path through exactly
    `mask` can end.  The table grows size by size and visits only the masks
    some path covers: each step extends the masks the last one reached, and
    lists each mask the first time a path reaches it.  A mask is complete
    before it is extended, because every path into it comes from the size
    below.
    """
    n = len(nbr_mask)
    ends = [0] * (1 << n)
    reached = []  # the masks of one size that paths cover
    while starts:
        low = starts & -starts
        starts ^= low
        ends[low] = low
        reached.append(low)
    for _ in range(n - 1):
        grown = array("l")  # 8 bytes a mask, where a list keeps an int object per mask
        for mask in reached:
            em = ends[mask]
            ext = 0  # the vertices next to some end of a path through mask
            while em:
                low = em & -em
                em ^= low
                ext |= nbr_mask[low.bit_length() - 1]
            ext &= ~mask
            while ext:
                w = ext & -ext
                ext ^= w
                grown_mask = mask | w
                have = ends[grown_mask]
                if not have:
                    grown.append(grown_mask)
                ends[grown_mask] = have | w
        reached = grown
    return ends


def hamiltonian_path(g: Graph) -> list[int] | None:
    """A Hamiltonian path as a vertex list, or None.  Bitmask DP (Bellman;
    Held and Karp, 1962) over end-sets, grown by `_grow_ends`.  The walk
    back starts at the lowest end of any Hamiltonian path and steps to the
    lowest neighbour that ends a path through the rest, so no parent is
    stored.

    Forced ends.  A vertex of degree at most 1 cannot be interior to a
    path, so each vertex of D, the vertices of degree at most 1, is an end
    of every Hamiltonian path.  A graph with |D| > 2 has none; the DP is
    skipped for those.  Otherwise the table grows only the paths that
    start in D, or from every vertex when D is empty; let E be its full
    set's ends.  With D empty E holds the ends of all Hamiltonian paths,
    and otherwise each of them has an end in D, so D | E holds them, and
    the walk starts at x = min(D | E), where the walk over the table from
    every vertex starts.

    Why the smaller table gives the walk of the table grown from every
    vertex: the walk asks, for a suffix x, ..., p already fixed and the
    set M of vertices not on it, which neighbours w of p end a path Q
    through M.  Each such Q, followed by the suffix reversed, is a
    Hamiltonian path with ends start(Q) and x, so the table from all
    vertices answers w exactly when the table from the vertices that can
    be start(Q) does.  With D empty every vertex can.  With |D| = 2 both
    ends lie in D, so start(Q) does.  With D = {d} and x != d, the end in
    D is start(Q) = d.  With D = {d} and x = d, which happens when d is
    below every vertex of E, start(Q) is the other end of a Hamiltonian
    path from d, so it lies in E: a second table grown from E answers.
    The first table is released before the second grows, so one table is
    the peak.  A graph on more than MAX_N vertices raises
    ResourceLimitError, and one without vertices PreconditionError.
    """
    n = g.n
    if n < 1:
        raise PreconditionError("graph must have at least one vertex")
    if n > MAX_N:
        raise ResourceLimitError(f"graph exceeds the oracle size guard ({MAX_N})")
    forced = sum(1 << v for v in range(n) if g.degree(v) <= 1)  # D as a bitmask
    if forced.bit_count() > 2:
        return None
    nbr_mask = [0] * n
    for u, v in g.edges:
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    full = (1 << n) - 1
    ends = _grow_ends(nbr_mask, forced or full)
    found = ends[full]
    if not found:
        return None
    lowest = (forced | found) & -(forced | found)
    if not lowest & found:  # the lone forced end, below every end found
        del ends
        ends = _grow_ends(nbr_mask, found)
    path = [lowest.bit_length() - 1]
    mask = full
    while len(path) < n:
        mask ^= 1 << path[-1]
        prev = nbr_mask[path[-1]] & ends[mask]
        path.append((prev & -prev).bit_length() - 1)
    path.reverse()
    return path


def _bounds(g: Graph):
    """An upper bound on the internal vertices of g's spanning trees, and a
    function that builds a spanning tree of g, whose internal count is the
    lower bound.  g is connected, with three or more vertices.

    I is the greedy maximal independent set, taken by lowest degree and
    then by id, and H_I the hypergraph {N(w) : w in I} on V - I.  In any
    spanning tree each internal w in I picks two tree neighbours; the
    picked pairs form a forest, since a cycle of them would be a cycle of
    the tree through the w's, so those N(w) are a hyperforest (Lovász) and
    there are at most rank(H_I) of them.  Hence the optimum is at most
    |V - I| + rank(H_I), and at most n - 2.  The rank is the size of the
    pair forest `_pair_forest` builds.

    The tree is Kruskal's over three edge lists in turn: the paths w-a and
    w-b for each forest pair (a, b) of N(w), which make those w internal;
    the edges inside V - I; all edges.  It is built only when called, so a
    caller that needs the upper bound alone pays for no more.
    """
    n = g.n
    taken = [False] * n  # in I or next to it
    indep = []
    for v in sorted(range(n), key=g.degree):  # a stable sort: ties by id
        if not taken[v]:
            indep.append(v)
            taken[v] = True
            for w in g.neighbors(v):
                taken[w] = True
    in_i = set(indep)
    rest = [v for v in range(n) if v not in in_i]
    index = {v: i for i, v in enumerate(rest)}  # V - I, numbered from 0
    h = Hypergraph(len(rest), [[index[a] for a in g.neighbors(w)] for w in indep])
    pairs = _pair_forest(h, range(h.m))[0]
    ub = min(len(rest) + len(pairs), n - 2)

    def tree() -> SpanningTree:
        edges = sorted(g.edges)
        paths = []
        for eid, (a, b) in pairs.items():
            w = indep[eid]
            paths += [(w, rest[a]), (w, rest[b])]
        inside = [(u, v) for u, v in edges if u in index and v in index]
        parent = list(range(n))
        chosen = []
        for u, v in paths + inside + edges:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                chosen.append((u, v))
        return SpanningTree(range(n), chosen)

    return ub, tree


def _branch_and_bound(g: Graph, need: int) -> SpanningTree | None:
    """The first spanning tree of g, in the search's order, with at least
    `need` internal vertices, or None when no tree has that many.

    Each edge in sorted order is either included (if it closes no cycle) or
    excluded (if the remaining edges can still connect the graph), so every
    spanning tree is met exactly once, and the search stops at the first
    complete tree that no cut removes.

    The exclusion test: `live[v]` is the bitmask of v's neighbours over the
    edges not excluded so far, and those edges stay connected: g is
    connected, an inclusion leaves them as they are, and an exclusion is
    allowed only if they stay connected.  So excluding (u, v) is allowed
    exactly when u still reaches v without it.  A bitmask search answers
    from both sides: u's side and v's side each add one vertex in turn, the
    answer is yes as soon as one side's new neighbours meet the other's
    seen set, and no as soon as either side runs out, which then is its
    whole component.  The sides stay disjoint until they meet, so the
    answer is that of a search from u alone, and refusing a bridge walks
    at most about twice its smaller side, not all of u's.  An edge that closes a cycle of chosen
    edges needs no search.  Backtracking restores the bits.  Once
    every edge is decided, the edges not excluded are the chosen ones, so
    they form a spanning tree: the edges never run out before a tree is
    complete.

    The bound: `live[v]` keeps a bit per edge of v not excluded, and v ends
    up a leaf when fewer than 2 remain.  An inclusion keeps the bits and an
    exclusion drops one at each end, so the count of masks with at least 2
    bits moves only on exclusion.  A branch whose count is below `need` is
    cut.

    The leaf-count cut: a tree has 2 + sum(max(0, deg - 2)) leaves and
    chosen degrees only grow, so a branch whose chosen degrees exceed 2 by
    `excess` in total keeps at most n - 2 - excess internal vertices.  A
    complete tree that is not cut has exactly that many, at least `need`,
    and is returned.
    """
    edges = sorted(g.edges)
    n = g.n
    deg = [0] * n  # chosen degree

    live = [0] * n  # live[v]: v's neighbours over the edges not excluded so far
    for u, v in edges:
        live[u] |= 1 << v
        live[v] |= 1 << u

    def reaches(u: int, v: int) -> bool:
        seen_u = todo_u = 1 << u
        seen_v = todo_v = 1 << v
        while todo_u and todo_v:
            low = todo_u & -todo_u
            nbrs = live[low.bit_length() - 1]
            if nbrs & seen_v:
                return True
            todo_u = (todo_u ^ low) | (nbrs & ~seen_u)
            seen_u |= nbrs
            low = todo_v & -todo_v
            nbrs = live[low.bit_length() - 1]
            if nbrs & seen_u:
                return True
            todo_v = (todo_v ^ low) | (nbrs & ~seen_v)
            seen_v |= nbrs
        return False

    def rec(i: int, parent: list, chosen: list, bound: int, excess: int):
        if bound < need or n - 2 - excess < need:
            return None
        if len(chosen) == n - 1:
            return SpanningTree(range(n), chosen)
        u, v = edges[i]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            p2 = parent[:]
            p2[ru] = rv
            chosen.append(edges[i])
            deg[u] += 1
            deg[v] += 1
            found = rec(i + 1, p2, chosen, bound, excess + (deg[u] > 2) + (deg[v] > 2))
            deg[u] -= 1
            deg[v] -= 1
            chosen.pop()
            if found is not None:
                return found
        live[u] ^= 1 << v
        live[v] ^= 1 << u
        found = None
        # Leaving out an edge inside a chosen component keeps what can connect.
        if ru == rv or reaches(u, v):
            lost = (live[u].bit_count() == 1) + (live[v].bit_count() == 1)
            found = rec(i + 1, parent, chosen, bound - lost, excess)
        live[u] ^= 1 << v
        live[v] ^= 1 << u
        return found

    return rec(0, list(range(n)), [], sum(1 for b in live if b.bit_count() >= 2), 0)


def opt_internal(g: Graph, at_least: int) -> SpanningTree | None:
    """A spanning tree of g with at least `at_least` internal vertices (not
    necessarily the most), or None when no spanning tree has that many.

    g must be connected and have at least one vertex.  A graph on more than
    MAX_N vertices gets the same root cut and upper bound, each of which
    may answer None, and then the lower-bound tree when that reaches the
    target, or ResourceLimitError.
    """
    n = g.n
    if n < 1:
        raise PreconditionError("graph must have at least one vertex")
    top = max(n - 2, 0)  # a tree on two or more vertices has two leaves
    if not is_connected(g):
        raise PreconditionError("oracle requires a connected graph")
    if at_least > top:
        return None
    at_least = max(at_least, 0)  # every tree has at least 0 internal vertices
    if n <= MAX_N and at_least == top:
        path = hamiltonian_path(g)
        if path is None:
            return None
        found = SpanningTree(range(n), list(zip(path, path[1:])))
    else:
        # The search's root cut first: it refutes most NO kernels for free,
        # and only those past it pay for the upper bound.
        if sum(1 for v in range(n) if g.degree(v) >= 2) < at_least:
            return None
        ub, tree = _bounds(g)
        if at_least > ub:
            return None
        if n <= MAX_N:
            found = _branch_and_bound(g, at_least)
        else:
            found = tree()
            lb = internal_count(found)
            if lb < at_least:
                raise ResourceLimitError(
                    f"a graph on {n} vertices with target k' = {at_least} exceeds the oracle "
                    f"size guard ({MAX_N}), and its bounds leave it open: "
                    f"lb = {lb} < k' <= ub = {ub}"
                )
    if found is not None and internal_count(found) < at_least:
        raise InvariantError("oracle tree misses its target")
    return found


def decide_pist(g: Graph, k: int):
    """Kernelize, solve the kernel exactly, and lift the witness.

    Returns (True, witness tree of g) or (False, None); kernelize rejects a
    disconnected graph with PreconditionError.
    """
    res = kernelize(g, k)
    if res.outcome == "solved":
        return True, res.witness
    if res.outcome == "trivial_no":
        return False, None
    found = opt_internal(res.graph, res.k_prime)
    if found is None:
        return False, None
    lifted = lift_solution(g, res.trace, found)
    if internal_count(lifted) < k:
        raise InvariantError("lifted witness misses the target")
    return True, lifted
