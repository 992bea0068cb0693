import itertools
import random
import tracemalloc

import pytest

import mistkernel
from mistkernel import (
    Graph,
    InvariantError,
    PreconditionError,
    SpanningTree,
    dfs_tree,
    internal_count,
    is_connected,
)
from mistkernel.generate import _sample_pairs, generate
from mistkernel.graph import _components
from bruteforce import is_tree_edge_set
from graphs import path_graph, star_graph


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestGraphBasics:
    def test_rejects_negative_vertex_count(self):
        with pytest.raises(PreconditionError, match="^vertex count must be nonnegative$"):
            Graph(-1)

    def test_rejects_self_loop(self):
        with pytest.raises(PreconditionError, match=r"^self-loop at vertex 1$"):
            Graph(3, [(1, 1)])

    def test_rejects_parallel_edges(self):
        # the message names the edge in canonical (min, max) form
        with pytest.raises(PreconditionError, match=r"^parallel edge \(0, 1\)$"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_edges(self):
        for edge in ((0, 3), (-1, 2), (3, 3)):
            # the range check comes before the self-loop check
            with pytest.raises(
                PreconditionError,
                match=rf"^edge \({edge[0]}, {edge[1]}\) out of range for n=3$",
            ):
                Graph(3, [(0, 1), edge])

    def test_adjacency_symmetric_and_sorted(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1)])
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)
            assert list(g.neighbors(u)) == sorted(g.neighbors(u))
        assert g.degree(0) == 2


class TestGraphInputs:
    def test_any_pair_form_gives_the_same_graph(self):
        g = Graph(3, [(0, 1), (1, 2)])
        for edges in (
            [[0, 1], [2, 1]],
            [(1, 0), (2, 1)],
            ((u, v) for u, v in [(0, 1), (2, 1)]),
        ):
            h = Graph(3, edges)
            assert h.edges == g.edges
            assert all(type(e) is tuple and e[0] < e[1] for e in h.edges)
            assert h._adj == g._adj == ((1,), (0, 2), (1,))

    def test_canonical_tuples_are_kept(self):
        pairs = [(0, 2), (1, 2)]
        g = Graph(3, pairs)
        assert {id(e) for e in g.edges} == {id(e) for e in pairs}


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path_graph(4))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(Graph(1))


class TestSpanningTree:
    def test_accepts_exactly_the_trees(self):
        # every (n-1)-edge subset of K5 and of seeded graphs: a tree is
        # accepted as given, anything else raises
        graphs = [Graph(5, itertools.combinations(range(5), 2))]
        graphs += [generate("random-gnm", 7, m=10, seed=s) for s in range(4)]
        graphs += [generate("tree-plus", 8, m=11, seed=s) for s in range(4)]
        trees = others = 0
        for g in graphs:
            for combo in itertools.combinations(sorted(g.edges), g.n - 1):
                if is_tree_edge_set(range(g.n), combo):
                    t = SpanningTree(range(g.n), [(v, u) for u, v in combo])
                    assert t.edges == frozenset(combo)
                    for v in range(g.n):
                        assert t.degree(v) == sum(v in e for e in combo)
                    trees += 1
                else:
                    with pytest.raises(PreconditionError, match="cycle"):
                        SpanningTree(range(g.n), combo)
                    others += 1
        assert trees > 500 and others > 500

    def test_rejects_malformed_input(self):
        with pytest.raises(PreconditionError, match="leaves the vertex set"):
            SpanningTree({0, 1, 2}, [(0, 1), (1, 3)])
        with pytest.raises(PreconditionError, match="at least one vertex"):
            SpanningTree((), ())
        with pytest.raises(PreconditionError, match="needs 2 edges"):
            SpanningTree({0, 1, 2}, [(0, 1), (1, 0)])
        assert SpanningTree({5}, ()).vertices == frozenset({5})


def test_components_match_bfs_labels():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randrange(1, 13)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randrange(len(pairs) + 1) // 3)
        g = Graph(n, edges)
        label = {}
        for v in range(n):
            if v in label:
                continue
            label[v] = v
            queue = [v]
            for u in queue:
                for w in g.neighbors(u):
                    if w not in label:
                        label[w] = v
                        queue.append(w)
        rng.shuffle(edges)
        assert _components(range(n), edges) == label


class TestDfsTree:
    def test_cycle_yields_hamiltonian_path(self):
        t = dfs_tree(cycle_graph(6), 0)
        assert internal_count(t) == 4

    def test_star_from_center(self):
        t = dfs_tree(star_graph(5), 0)
        assert internal_count(t) == 1

    def test_path_from_endpoint(self):
        g = path_graph(5)
        t = dfs_tree(g, 0)
        assert t.edges == g.edges
        assert internal_count(t) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError, match="connected"):
            dfs_tree(Graph(4, [(0, 1), (2, 3)]), 0)

    def test_root_out_of_range_rejected(self):
        for root in (-1, 5):
            with pytest.raises(PreconditionError, match=rf"^root {root} out of range$"):
                dfs_tree(path_graph(5), root)

    def test_always_a_spanning_tree(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randrange(2, 10)
            edges = {(i, rng.randrange(i)) for i in range(1, n)}
            for _ in range(rng.randrange(0, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((max(u, v), min(u, v)))
            g = Graph(n, edges)
            t = dfs_tree(g, rng.randrange(n))
            assert len(t.edges) == n - 1
            assert t.edges <= g.edges

    def test_non_root_leaves_are_independent(self):
        # the set kernelize hands to find_sl
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randrange(3, 12)
            edges = {(i, rng.randrange(i)) for i in range(1, n)}
            for _ in range(n):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((max(u, v), min(u, v)))
            g = Graph(n, edges)
            out = dfs_tree(g, 0).leaves() - {0}
            for u in out:
                assert not set(g.neighbors(u)) & out

    def test_equals_the_checked_tree_from_every_root(self):
        # the tree _from_parents builds equals the one the general
        # constructor accepts from the same edges
        graphs = [Graph(1), Graph(2, [(0, 1)])]
        graphs += [generate("random-gnm", n, m=2 * n, seed=s)
                   for n in (5, 9, 14) for s in range(3)]
        graphs += [generate("tree-plus", n, m=n + 3, seed=s)
                   for n in (6, 12) for s in range(3)]
        graphs += [generate("star-cluster", 20, seed=s) for s in range(2)]
        for g in graphs:
            for root in range(g.n):
                t = dfs_tree(g, root)
                u = SpanningTree(range(g.n), t.edges)
                assert t == u and t.vertices == frozenset(range(g.n))
                assert t._deg == u._deg

    def test_large_path_and_star(self):
        n = 100_000
        assert internal_count(dfs_tree(path_graph(n), 0)) == n - 2
        assert internal_count(dfs_tree(path_graph(n), n // 2)) == n - 2
        assert internal_count(dfs_tree(star_graph(n - 1), 0)) == 1
        assert internal_count(dfs_tree(star_graph(n - 1), n - 1)) == 1

    def test_bytes_per_vertex(self):
        # A tree keeps its vertices once, as the keys of its degree map.  On
        # CPython 3.11 to 3.13 this tree holds 214 bytes per vertex and
        # peaks at 287 while it is built (3.10: 206 and 275); a second copy
        # of the vertex set, such as a frozenset beside the degree dict,
        # breaks both bounds (288 and 404; 3.10: 276 and 389).
        n = 100_000
        g = generate("tree-plus", n, m=n * 6 // 5, seed=1)
        tracemalloc.start()
        try:
            t = dfs_tree(g, 0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(t.edges) == n - 1
        assert held / n <= 250
        assert peak / n <= 340


class TestFromParents:
    def test_builds_the_tree_of_a_parent_array(self):
        # 2 is the root; 0 and 3 hang off it, 1 off 0
        t = SpanningTree._from_parents(2, [2, 0, -1, 2], [2, 3, 1, 4])
        assert t == SpanningTree(range(4), [(0, 2), (0, 1), (2, 3)])
        assert [t.degree(v) for v in range(4)] == [2, 1, 2, 1]
        assert SpanningTree._from_parents(0, [-1], [1])._deg == {0: 0}

    @pytest.mark.parametrize("parent, order", [
        ([-1, 2, 1], [1, 2, 3]),  # 1 and 2 are each other's parent
        ([-1, 0, 1], [1, 3, 2]),  # 2's parent 1 is discovered after it
        # 2 has no parent; read as an index, -1 would name 3, found before 2
        ([-1, 0, -1, 0], [1, 2, 4, 3]),
        ([-1, 0, 2], [1, 2, 3]),  # 2 is its own parent
    ])
    def test_refuses_what_is_not_a_tree(self, parent, order):
        with pytest.raises(PreconditionError, match="cycle"):
            SpanningTree._from_parents(0, parent, order)


class TestDfsLeafIndependentSet:
    # the non-root leaves of a DFS tree, the set kernelize hands to find_sl
    def test_star_center_root(self):
        assert dfs_tree(star_graph(5), 0).leaves() - {0} == frozenset(range(1, 6))

    def test_path_endpoint_root(self):
        assert dfs_tree(path_graph(5), 0).leaves() - {0} == frozenset({4})

    def test_cycle(self):
        assert len(dfs_tree(cycle_graph(6), 0).leaves() - {0}) == 1


class TestInternalCount:
    def test_path_all(self):
        assert internal_count(dfs_tree(path_graph(5), 0)) == 3

    def test_star_all(self):
        assert internal_count(dfs_tree(star_graph(9), 0)) == 1

    def test_path_endpoints_subset(self):
        t = dfs_tree(path_graph(5), 0)
        assert internal_count(t, {0, 4}) == 0

    def test_vertex_outside_tree_rejected(self):
        t = SpanningTree(range(3), [(0, 1), (1, 2)])
        assert internal_count(t, [0, 1]) == 1
        with pytest.raises(PreconditionError, match=r"^vertex 7 is not in the tree$"):
            internal_count(t, [0, 7])

    def test_matches_the_definition(self):
        rng = random.Random(13)
        for n in [1, 2, 2] + [rng.randrange(3, 40) for _ in range(40)]:
            edges = [(i, rng.randrange(i)) for i in range(1, n)]
            t = SpanningTree(range(n), edges)
            degree = {v: sum(v in e for e in edges) for v in range(n)}
            assert internal_count(t) == sum(d >= 2 for d in degree.values())

    def test_matches_leaf_complement(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(2, 12)
            g = Graph(n, [(i, rng.randrange(i)) for i in range(1, n)])
            t = dfs_tree(g, 0)
            assert internal_count(t) == n - len(t.leaves())


class TestValues:
    def test_equal_values_hash_alike(self):
        assert hash(path_graph(4)) == hash(Graph(4, [(2, 3), (1, 2), (0, 1)]))
        t = dfs_tree(path_graph(4), 0)
        assert hash(t) == hash(SpanningTree(range(4), [(2, 3), (1, 2), (0, 1)]))

    def test_reprs_give_the_sizes(self):
        assert repr(path_graph(4)) == "Graph(n=4, m=3)"
        assert repr(dfs_tree(path_graph(4), 0)) == "SpanningTree(|V|=4)"

    def test_internal_vertices(self):
        assert dfs_tree(path_graph(4), 0).internal() == frozenset({1, 2})
        assert dfs_tree(star_graph(3), 1).internal() == frozenset({0})


class TestGenerateInputs:
    def test_unknown_family_rejected(self):
        with pytest.raises(PreconditionError, match="^unknown family 'grid'$"):
            generate("grid", 5)

    def test_star_cluster_needs_three_vertices(self):
        with pytest.raises(PreconditionError, match="^star-cluster needs n >= 3$"):
            generate("star-cluster", 2)

    def test_star_cluster_takes_no_edge_count(self):
        with pytest.raises(
            PreconditionError, match="^star-cluster does not take an edge count$"
        ):
            generate("star-cluster", 10, m=12)

    def test_more_pairs_than_the_graph_holds_is_a_bug(self):
        # both families bound m before they sample, so no input gets here
        with pytest.raises(
            InvariantError, match="^requested more edges than the graph can hold$"
        ):
            _sample_pairs(4, 5, random.Random(0), frozenset({(0, 1), (2, 3)}))

    def test_disconnected_star_cluster_is_a_bug(self, monkeypatch):
        monkeypatch.setattr("mistkernel.generate.is_connected", lambda g: False)
        with pytest.raises(
            InvariantError, match="^star-cluster construction came out disconnected$"
        ):
            generate("star-cluster", 10, seed=1)


def test_public_names_resolve():
    for name in mistkernel.__all__:
        assert getattr(mistkernel, name, None) is not None, name
