"""Kernelization pipeline for the internal-spanning-tree decision problem.

The reduction loop alternates three rules: try to solve directly with a
DFS tree, stop when the graph is already small (n <= 3k), and otherwise
shrink the graph by replacing a certified (S, L) pair with two fresh
vertices while adjusting the target k.  Every reduction is logged as its
SLCertificate, from which the graph surgery is derived again, so kernel
solutions can be lifted back to the original graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .expansion import find_expansion_2
from .graph import (
    Graph,
    InvariantError,
    PreconditionError,
    SpanningTree,
    _adjacency,
    _check_spans,
    _nogc,
    _tree_path,
    dfs_tree,
    internal_count,
    is_connected,
    normalize_edge,
)
from .hypermatroid import (
    Hypergraph,
    deficient_partition,
    greedy_hypertree,
    shrink_to_tree,
)


@dataclass(frozen=True)
class SLCertificate:
    """A certified pair (S, L) with its special spanning tree of B(S, L).

    N(L) = S, L is independent, and `tree` uses only S-L edges of the host
    graph, spans S ∪ L, and has every S-vertex and exactly |S| - 1
    L-vertices internal.  validate_certificate checks all of this.

    A certificate is also the record of its Rule-3 reduction: with the
    graph it fixes the reduced graph (_contract) and the target drop.
    """

    s: frozenset
    l: frozenset
    tree: SpanningTree

    @property
    def delta_k(self) -> int:
        """How much Rule 3 lowers the target: 2|S| - 2."""
        return 2 * len(self.s) - 2


@dataclass(frozen=True)
class KernelResult:
    """Outcome of kernelization.

    outcome is one of "solved", "kernel", "trivial_no".  Solved carries a
    witness tree of the *original* graph (for k <= 0, the first DFS tree);
    kernel carries the reduced graph, the adjusted target and the trace,
    the SLCertificate of each reduction in order.
    """

    outcome: str
    witness: SpanningTree | None = None
    graph: Graph | None = None
    k_prime: int | None = None
    trace: tuple = ()
    reason: str | None = None


# ---------------------------------------------------------------------------
# Finding (S, L)


def _bsl_tree(g: Graph, pair):
    """The induction on (S, L): from an expansion pair, descend until the
    greedy finds a hypertree of {N(w) : w in L} over S, then shrink it to a
    B(S, L) tree with L-degrees <= 2.  Returns (pair, the tree's edges as
    (L-vertex, S-vertex) pairs).

    Each failed greedy gives a deficient partition; a part P with at least
    2|P| L-vertices whose neighbours all lie in P yields the next, smaller
    pair.  An L-vertex outside the pair forest hangs on its lowest neighbour.
    """
    while True:
        s_sorted = sorted(pair.x_prime)
        l_sorted = sorted(pair.y_prime)
        idx = {v: i for i, v in enumerate(s_sorted)}
        h = Hypergraph(
            len(s_sorted), [[idx[u] for u in g.neighbors(w)] for w in l_sorted]
        )
        pairs = greedy_hypertree(h)
        if pairs is not None:
            break
        part = deficient_partition(h)
        if part is None:
            raise InvariantError("greedy failed but no deficient partition exists")
        for p in part.parts:
            x = frozenset(s_sorted[i] for i in p)
            y = [w for w in l_sorted if set(g.neighbors(w)) <= x]
            if len(y) >= 2 * len(x):
                break
        else:
            raise InvariantError("no partition part holds twice its size in L-vertices")
        pair = find_expansion_2(g, x, y)
    mapping = shrink_to_tree(h, pairs)
    edges = [(l_sorted[eid], s_sorted[a]) for eid, ab in mapping.items() for a in ab]
    edges += [
        (w, min(g.neighbors(w))) for i, w in enumerate(l_sorted) if i not in mapping
    ]
    return pair, edges


def _promote_s_leaves(pair, tree_edges) -> SpanningTree:
    """The certificate's tree: edge swaps on the (L, S) edges of a B(S, L)
    tree of the expansion pair that make every S-vertex internal without
    touching L-degrees.

    The pair's `mates` give each S-vertex two private L-neighbors (the
    doubled matching); they supply the replacement edges: while some
    S-vertex is a leaf, add one of its unused mate edges and drop the other
    tree edge at that edge's L-endpoint, keeping the tree spanning.
    """
    s_sorted = sorted(pair.mates)
    edges = {normalize_edge(u, v) for u, v in tree_edges}
    deg = Counter(v for _, v in tree_edges)  # S-degrees; only they change
    for _round in range(len(s_sorted) + 1):
        leaf_s = [v for v in s_sorted if deg[v] == 1]
        if not leaf_s:
            break
        v = leaf_s[0]
        free = [u for u in pair.mates[v] if normalize_edge(u, v) not in edges]
        if not free:
            raise InvariantError("leaf S-vertex has no unused mate edge")
        u = free[0]
        path = _tree_path(_adjacency(edges), u, v)
        if path is None:
            raise InvariantError("endpoints are in different tree components")
        # drop the first edge of the tree path from u to v
        w = path[1]
        edges.remove(normalize_edge(u, w))
        edges.add(normalize_edge(u, v))
        deg[w] -= 1
        deg[v] += 1
    else:
        raise InvariantError("leaf promotion did not terminate within |S| rounds")
    return SpanningTree(pair.x_prime | pair.y_prime, edges)


def validate_certificate(g: Graph, cert: SLCertificate) -> None:
    """Check every invariant of an (S, L) certificate; raise InvariantError."""
    s, l, tree = cert.s, cert.l, cert.tree
    if not s or not l or min(s | l) < 0 or max(s | l) >= g.n:
        raise InvariantError("S and L must be nonempty sets of vertices of the graph")
    if s & l:
        raise InvariantError("S and L overlap")
    n_l = set().union(*map(g.neighbors, l))  # the union of L's neighbour lists
    if not n_l.isdisjoint(l):
        raise InvariantError("L is not independent")
    if n_l != s:
        raise InvariantError("N(L) differs from S")
    if tree.vertices != s | l:
        raise InvariantError("tree does not span S ∪ L")
    for a, b in tree.edges:  # canonical (min, max), as in g.edges
        if (a, b) not in g.edges or (a in s) == (b in s):
            raise InvariantError("tree edge is not an S-L edge of the graph")
    if any(tree.degree(v) < 2 for v in s):
        raise InvariantError("an S-vertex is a leaf of the certificate tree")
    if internal_count(tree, l) != len(s) - 1:
        raise InvariantError("internal L-vertex count differs from |S| - 1")


def find_sl(g: Graph, independent) -> SLCertificate:
    """Find (S, L) with N(L) = S and a B(S, L) tree whose internal vertices
    are all of S plus exactly |S| - 1 vertices of L.

    Requires a connected graph on n >= 3 vertices and an independent set
    of size at least 2n/3.
    """
    n = g.n
    if n < 3:
        raise PreconditionError("need at least 3 vertices")
    if not is_connected(g):
        raise PreconditionError("graph must be connected")
    ind = frozenset(independent)
    if ind and (min(ind) < 0 or max(ind) >= n):
        raise PreconditionError(f"the given set holds a vertex outside 0..{n - 1}")
    if any(not ind.isdisjoint(g.neighbors(v)) for v in ind):
        raise PreconditionError("the given set is not independent")
    if 3 * len(ind) < 2 * n:
        raise PreconditionError("independent set has fewer than 2n/3 vertices")
    pair, edges = _bsl_tree(g, find_expansion_2(g, set(range(n)) - ind, ind))
    if max(Counter(w for w, _ in edges).values()) > 2:
        raise InvariantError("B(S, L) tree gives an L-vertex degree above 2")
    tree = _promote_s_leaves(pair, edges)
    cert = SLCertificate(s=pair.x_prime, l=pair.y_prime, tree=tree)
    validate_certificate(g, cert)
    return cert


# ---------------------------------------------------------------------------
# Rule 3 surgery, replay and lifting


def _survivors(n: int, cert: SLCertificate) -> list:
    """The vertices Rule 3 keeps, in order: survivor i gets id i in the
    reduced graph, followed by v_S = len(survivors) and v_L = v_S + 1."""
    removed = cert.s | cert.l
    return [v for v in range(n) if v not in removed]


def _contract(g: Graph, cert: SLCertificate) -> Graph:
    """The Rule-3 graph: S ∪ L becomes v_S, adjacent to N(S) \\ L, plus a
    pendant v_L on v_S.  S ∪ L must leave a vertex outside it: contracting
    the whole graph to one edge would not keep the answer."""
    survivors = _survivors(g.n, cert)
    if not survivors:
        raise InvariantError("S ∪ L covers the graph, so Rule 3 does not apply")
    new_id = {old: new for new, old in enumerate(survivors)}
    v_s = len(survivors)
    edges = [
        (new_id[u], new_id[v]) for u, v in g.edges if u in new_id and v in new_id
    ]
    edges.extend((new_id[u], v_s) for u in g.neighborhood(cert.s) - cert.l)
    edges.append((v_s, v_s + 1))
    return Graph(v_s + 2, edges)


def apply_rule3(g: Graph, k: int, cert: SLCertificate):
    """Replace S ∪ L by two fresh vertices; returns (G_R, k').

    The new vertex v_S inherits the outside neighborhood N(S) \\ L, v_L is a
    pendant on v_S, and the target drops by cert.delta_k = 2|S| - 2.
    """
    reduced = _contract(g, cert)
    if not is_connected(reduced):
        raise InvariantError("reduced graph is disconnected")
    return reduced, k - cert.delta_k


def replay_reduction(g: Graph, cert: SLCertificate) -> Graph:
    """Re-apply a recorded reduction to `g`, validating its certificate there."""
    validate_certificate(g, cert)
    return _contract(g, cert)


def lift_solution(g_original: Graph, trace, t: SpanningTree) -> SpanningTree:
    """Lift a spanning tree of the final reduced graph back to the original.

    The replay validates each certificate and keeps only its graph's size
    and each u in N(S) \\ L's lowest S-neighbour, holding one graph at a
    time.  Unwinding last-to-first drops the two fresh vertices, splices in
    the B(S, L) tree and hangs each tree-neighbour of v_S on its recorded
    S-neighbour, gaining at least delta_k internal vertices per reduction.
    """
    records = []
    g = g_original
    for cert in trace:
        reduced = replay_reduction(g, cert)
        removed = cert.s | cert.l
        # S descending, so each u is left with its lowest S-neighbour
        s_desc = sorted(cert.s, reverse=True)
        attach = {u: v for v in s_desc for u in g.neighbors(v) if u not in removed}
        records.append((cert, g.n, attach))
        g = reduced
    _check_spans(g, t)
    cur = t
    for cert, n, attach in reversed(records):
        before = internal_count(cur)
        cur = _unwind(n, attach, cert, cur)
        if internal_count(cur) < before + cert.delta_k:
            raise InvariantError("lift lost internal vertices")
    return cur


def _unwind(n: int, attach: dict, cert: SLCertificate, t: SpanningTree) -> SpanningTree:
    inv = _survivors(n, cert)  # reduced id -> id before the reduction
    v_s = len(inv)
    if (v_s, v_s + 1) not in t.edges:
        raise InvariantError("pendant vertex is detached from v_S in the tree")
    edges = set(cert.tree.edges)
    for a, b in t.edges:  # canonical; v_S and v_L are the two highest ids
        if b < v_s:  # inv ascends, so the edge stays canonical
            edges.add((inv[a], inv[b]))
        elif b == v_s:
            u = inv[a]
            if u not in attach:
                raise InvariantError(f"no edge from {u} back into S")
            edges.add(normalize_edge(u, attach[u]))
    return SpanningTree(range(n), edges)


# ---------------------------------------------------------------------------
# The reduction loop


@_nogc
def kernelize(g: Graph, k: int) -> KernelResult:
    """Run the reduction loop; solve, kernelize, or answer no outright.

    Rule 1 returns the current graph once n <= 3k.  Rule 2 answers yes via
    a DFS tree with enough internal vertices (lifted through the trace); for
    k <= 0 that is the first DFS tree, with an empty trace and k' = k.
    Rule 3 shrinks the graph using a fresh (S, L) certificate and repeats.
    A target above n - 2 is answered "trivial_no" before any search.
    """
    if g.n < 1:
        raise PreconditionError("graph must have at least one vertex")
    t = dfs_tree(g, 0)  # raises PreconditionError on a disconnected graph
    max_internal = g.n - 2 if g.n >= 2 else 0
    if k > max_internal:
        return KernelResult(
            "trivial_no",
            k_prime=k,
            reason=f"no spanning tree has more than {max_internal} internal vertices",
        )
    cur = g
    k_cur = k
    trace: list[SLCertificate] = []
    # The DFS solve check runs before the size check so that instances a
    # single DFS already settles are answered, not merely shrunk.
    while internal_count(t) < k_cur:
        if cur.n <= 3 * k_cur:
            return KernelResult("kernel", graph=cur, k_prime=k_cur, trace=tuple(trace))
        # the non-root leaves of a DFS tree are pairwise nonadjacent
        cert = find_sl(cur, t.leaves() - {0})
        if len(cert.s) + len(cert.l) == cur.n:
            # S ∪ L covers the graph, so the reduction would collapse it to a
            # single edge and lose information.  But here the answer is exact:
            # rearrangement shows every spanning tree can be rewritten to have
            # exactly 2|S| - 1 internal vertices, and the certificate tree
            # attains that maximum.
            if 2 * len(cert.s) - 1 < k_cur:
                return KernelResult(
                    "trivial_no",
                    k_prime=k_cur,
                    trace=tuple(trace),
                    reason="the graph is covered by S and L, capping the internal "
                    f"count at {2 * len(cert.s) - 1}",
                )
            t = cert.tree
            break
        reduced, k_next = apply_rule3(cur, k_cur, cert)
        if reduced.n >= cur.n or k_next > k_cur:
            raise InvariantError("reduction failed to make progress")
        trace.append(cert)
        cur, k_cur = reduced, k_next
        t = dfs_tree(cur, 0)
    lifted = lift_solution(g, trace, t)
    if internal_count(lifted) < k:
        raise InvariantError("lifted witness misses the target")
    return KernelResult("solved", witness=lifted, k_prime=k_cur, trace=tuple(trace))


# ---------------------------------------------------------------------------
# Tree rearrangement (used by the correctness argument, not the loop)


def rearrange_tree(g: Graph, t: SpanningTree, cert: SLCertificate) -> SpanningTree:
    """Rebuild `t` around the certificate tree without losing internal vertices.

    Drops all tree edges touching L, separates S-vertices that still share
    a forest component, and splices in the certificate tree.  Every forest
    component then holds exactly one S-vertex (it met L through N(L) = S),
    so the certificate tree, which spans S ∪ L, joins them into a spanning
    tree.  The result keeps at least as many internal vertices as `t`,
    makes every S-vertex internal, and leaves exactly |S| - 1 L-vertices
    internal.

    The separation is one pass: for each S-vertex v and each S-vertex w > v,
    both ascending, a forest path from v to w loses its first edge.  These
    are the cuts of the fixpoint that takes the lowest S-vertex v sharing a
    component and cuts the first edge toward the lowest S-vertex v reaches.
    Cuts only split components, so the fixpoint finishes v before any
    higher S-vertex, and the S-vertices v reaches only shrink, so the next
    one it cuts toward is the next w > v that v still reaches.
    """
    validate_certificate(g, cert)
    _check_spans(g, t)
    s, l = cert.s, cert.l
    forest = {e for e in t.edges if e[0] not in l and e[1] not in l}
    adj = _adjacency(forest)
    for v, w in combinations(sorted(s), 2):
        path = _tree_path(adj, v, w)
        if path is not None:
            a, b = path[:2]
            forest.remove(normalize_edge(a, b))
            adj[a].remove(b)
            adj[b].remove(a)
    try:
        out = SpanningTree(range(g.n), forest | cert.tree.edges)
    except PreconditionError:
        raise InvariantError(
            "forest and certificate tree do not form a spanning tree"
        ) from None
    if internal_count(out) < internal_count(t):
        raise InvariantError("rearrangement lost internal vertices")
    return out
