"""Kernelization pipeline for the internal-spanning-tree decision problem.

The reduction loop alternates three rules: stop when the graph is already
small (n <= 3k), try to solve directly with a DFS tree, and otherwise
shrink the graph by replacing a certified (S, L) pair with two fresh
vertices while adjusting the target k.  Every reduction is logged in a
ReductionRecord so kernel solutions can be lifted back to the original
graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expansion import find_expansion_2
from .graph import (
    Graph,
    InvariantError,
    PreconditionError,
    SpanningTree,
    _adjacency,
    _components,
    _find,
    _tree_path,
    dfs_leaf_independent_set,
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
    """

    s: frozenset
    l: frozenset
    tree: SpanningTree


@dataclass(frozen=True)
class ReductionRecord:
    """One graph surgery: enough data to replay it and to lift solutions back.

    Vertex sets s, l and neighbor_map are in the pre-surgery graph's ids;
    index_map sends surviving old ids to new ids; v_s and v_l are the two
    added vertices (new ids).  delta_k = 2|s| - 2 is how much the target
    dropped.
    """

    s: frozenset
    l: frozenset
    v_s: int
    v_l: int
    neighbor_map: frozenset
    index_map: dict
    bsl_tree: SpanningTree
    delta_k: int


@dataclass(frozen=True)
class KernelResult:
    """Outcome of kernelization.

    outcome is one of "solved", "kernel", "trivial_yes", "trivial_no".
    Solved / trivial_yes carry a witness tree of the *original* graph;
    kernel carries the reduced graph, the adjusted target and the trace.
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
    B(S, L) tree with L-degrees <= 2.  Returns (pair, tree).

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
    _, mapping = shrink_to_tree(h, pairs)
    edges = [(l_sorted[eid], s_sorted[a]) for eid, ab in mapping.items() for a in ab]
    edges += [
        (w, min(g.neighbors(w))) for i, w in enumerate(l_sorted) if i not in mapping
    ]
    return pair, SpanningTree(pair.x_prime | pair.y_prime, edges)


def _promote_s_leaves(tree: SpanningTree, mates: dict) -> SpanningTree:
    """Edge swaps that make every S-vertex internal without touching L-degrees.

    `mates` gives each S-vertex two private L-neighbors (the doubled
    matching of the expansion pair (S, L)); they supply the replacement
    edges: while some S-vertex is a leaf, add one of its unused mate edges
    and drop the other tree edge at that edge's L-endpoint, keeping the
    tree spanning.
    """
    s_sorted = sorted(mates)
    edges = set(tree.edges)
    deg = {v: tree.degree(v) for v in tree.vertices}
    for _round in range(len(s_sorted) + 1):
        leaf_s = [v for v in s_sorted if deg[v] == 1]
        if not leaf_s:
            break
        v = leaf_s[0]
        free = [u for u in mates[v] if normalize_edge(u, v) not in edges]
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
    return SpanningTree(tree.vertices, edges)


def validate_certificate(g: Graph, cert: SLCertificate) -> None:
    """Check every invariant of an (S, L) certificate; raise InvariantError."""
    s, l, tree = cert.s, cert.l, cert.tree
    if not s or not l or (s | l) - set(range(g.n)):
        raise InvariantError("S and L must be nonempty sets of vertices of the graph")
    if s & l:
        raise InvariantError("S and L overlap")
    for u, v in g.edges:
        if u in l and v in l:
            raise InvariantError("L is not independent")
    if g.neighborhood(l) != s:
        raise InvariantError("N(L) differs from S")
    if tree.vertices != s | l:
        raise InvariantError("tree does not span S ∪ L")
    for a, b in tree.edges:
        if not g.has_edge(a, b) or (a in s) == (b in s):
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
    for u, v in g.edges:
        if u in ind and v in ind:
            raise PreconditionError("the given set is not independent")
    if 3 * len(ind) < 2 * n:
        raise PreconditionError("independent set has fewer than 2n/3 vertices")
    pair, tree = _bsl_tree(g, find_expansion_2(g, set(range(n)) - ind, ind))
    if any(tree.degree(w) > 2 for w in pair.y_prime):
        raise InvariantError("B(S, L) tree gives an L-vertex degree above 2")
    tree = _promote_s_leaves(tree, pair.mates)
    cert = SLCertificate(s=pair.x_prime, l=pair.y_prime, tree=tree)
    validate_certificate(g, cert)
    return cert


# ---------------------------------------------------------------------------
# Rule 3 surgery, replay and lifting


def _contract(g: Graph, s, l):
    """The Rule-3 graph: S ∪ L becomes v_S, adjacent to N(S) \\ L, plus a
    pendant v_L on v_S.  Returns (G_R, index_map, neighbor_map); the
    survivors keep their order, then v_S = n_R - 2 and v_L = n_R - 1."""
    removed = s | l
    survivors = sorted(set(range(g.n)) - removed)
    index_map = {old: new for new, old in enumerate(survivors)}
    v_s = len(survivors)
    neighbor_map = g.neighborhood(s) - l
    edges = [
        (index_map[u], index_map[v])
        for u, v in g.edges
        if u not in removed and v not in removed
    ]
    edges.extend((index_map[u], v_s) for u in neighbor_map)
    edges.append((v_s, v_s + 1))
    return Graph(v_s + 2, edges), index_map, neighbor_map


def apply_rule3(g: Graph, k: int, cert: SLCertificate):
    """Replace S ∪ L by two fresh vertices; returns (G_R, k', record).

    The new vertex v_S inherits the outside neighborhood N(S) \\ L, v_L is a
    pendant on v_S, and the target drops to k' = k - 2|S| + 2.
    """
    reduced, index_map, neighbor_map = _contract(g, cert.s, cert.l)
    if not is_connected(reduced):
        raise InvariantError("reduced graph is disconnected")
    record = ReductionRecord(
        s=cert.s,
        l=cert.l,
        v_s=reduced.n - 2,
        v_l=reduced.n - 1,
        neighbor_map=neighbor_map,
        index_map=index_map,
        bsl_tree=cert.tree,
        delta_k=2 * len(cert.s) - 2,
    )
    return reduced, k - record.delta_k, record


def replay_reduction(g: Graph, record: ReductionRecord) -> Graph:
    """Re-apply a recorded surgery to `g`, validating the record against it."""
    validate_certificate(g, SLCertificate(record.s, record.l, record.bsl_tree))
    reduced, index_map, neighbor_map = _contract(g, record.s, record.l)
    if record.index_map != index_map:
        raise InvariantError("index map does not match the surviving vertices")
    if record.v_s != reduced.n - 2 or record.v_l != reduced.n - 1:
        raise InvariantError("fresh vertex ids are inconsistent")
    if record.neighbor_map != neighbor_map:
        raise InvariantError("neighbor map differs from N(S) \\ L")
    if record.delta_k != 2 * len(record.s) - 2:
        raise InvariantError("delta_k differs from 2|S| - 2")
    return reduced


def lift_solution(g_original: Graph, trace, t: SpanningTree) -> SpanningTree:
    """Lift a spanning tree of the final reduced graph back to the original.

    Records are unwound last-to-first: drop the two fresh vertices, splice
    in the stored B(S, L) tree, and reattach each former tree-neighbor of
    v_S through its lowest-index S-neighbor.  The lifted tree gains at
    least delta_k internal vertices per record.
    """
    graphs = [g_original]
    for rec in trace:
        graphs.append(replay_reduction(graphs[-1], rec))
    if t.vertices != frozenset(range(graphs[-1].n)):
        raise PreconditionError("tree does not span the final reduced graph")
    cur = t
    for rec, g_pre in zip(reversed(list(trace)), reversed(graphs[:-1])):
        before = internal_count(cur)
        cur = _unwind(g_pre, rec, cur)
        if internal_count(cur) < before + rec.delta_k:
            raise InvariantError("lift lost internal vertices")
    return cur


def _unwind(g_pre: Graph, rec: ReductionRecord, t: SpanningTree) -> SpanningTree:
    inv = {new: old for old, new in rec.index_map.items()}
    vs_neighbors = []
    edges = set()
    for a, b in t.edges:
        if rec.v_s in (a, b):
            vs_neighbors.append(b if a == rec.v_s else a)
        elif rec.v_l not in (a, b):
            edges.add(normalize_edge(inv[a], inv[b]))
    if rec.v_l not in vs_neighbors:
        raise InvariantError("pendant vertex is detached from v_S in the tree")
    edges |= rec.bsl_tree.edges
    s_sorted = sorted(rec.s)
    for u_new in vs_neighbors:
        if u_new == rec.v_l:
            continue
        u_old = inv[u_new]
        attach = next((v for v in s_sorted if g_pre.has_edge(u_old, v)), None)
        if attach is None:
            raise InvariantError(f"no edge from {u_old} back into S")
        edges.add(normalize_edge(u_old, attach))
    return SpanningTree(range(g_pre.n), edges)


# ---------------------------------------------------------------------------
# The reduction loop


def kernelize(g: Graph, k: int) -> KernelResult:
    """Run the reduction loop; solve, kernelize, or answer trivially.

    Rule 1 returns the current graph once n <= 3k.  Rule 2 answers yes via
    a DFS tree with enough internal vertices (lifted through the trace).
    Rule 3 shrinks the graph using a fresh (S, L) certificate and repeats.
    """
    if g.n < 1:
        raise PreconditionError("graph must have at least one vertex")
    t = dfs_tree(g, 0)  # raises PreconditionError on a disconnected graph
    if k <= 0:
        return KernelResult(
            "trivial_yes",
            witness=t,
            k_prime=k,
            reason="every spanning tree has at least zero internal vertices",
        )
    max_internal = g.n - 2 if g.n >= 2 else 0
    if k > max_internal:
        return KernelResult(
            "trivial_no",
            k_prime=k,
            reason=f"no spanning tree has more than {max_internal} internal vertices",
        )
    cur = g
    k_cur = k
    trace: list[ReductionRecord] = []
    # The DFS solve check runs before the size check so that instances a
    # single DFS already settles are answered, not merely shrunk.
    while internal_count(t) < k_cur:
        if cur.n <= 3 * k_cur:
            return KernelResult("kernel", graph=cur, k_prime=k_cur, trace=tuple(trace))
        ind = dfs_leaf_independent_set(cur, t)
        cert = find_sl(cur, ind)
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
        reduced, k_next, rec = apply_rule3(cur, k_cur, cert)
        if reduced.n >= cur.n or k_next > k_cur:
            raise InvariantError("reduction failed to make progress")
        trace.append(rec)
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
    a forest component, splices in the certificate tree, and reconnects the
    remaining components with graph edges avoiding L.  The result keeps at
    least as many internal vertices as `t`, makes every S-vertex internal,
    and leaves exactly |S| - 1 L-vertices internal.
    """
    validate_certificate(g, cert)
    if t.vertices != frozenset(range(g.n)):
        raise PreconditionError("tree does not span the graph")
    s, l = cert.s, cert.l
    forest = {e for e in t.edges if e[0] not in l and e[1] not in l}
    while True:
        comp = _components(range(g.n), forest)
        pair = None
        for v in sorted(s):
            mates = [w for w in s if w != v and comp[w] == comp[v]]
            if mates:
                pair = (v, min(mates))
                break
        if pair is None:
            break
        path = _tree_path(_adjacency(forest), *pair)
        forest.remove(normalize_edge(path[0], path[1]))
    edges = forest | cert.tree.edges
    comp = _components(range(g.n), edges)
    for a, b in sorted(g.edges):
        if a in l or b in l:
            continue
        ra, rb = _find(comp, a), _find(comp, b)
        if ra != rb:
            edges.add((a, b))
            comp[rb] = ra
    out = SpanningTree(range(g.n), edges)
    if internal_count(out) < internal_count(t):
        raise InvariantError("rearrangement lost internal vertices")
    return out

