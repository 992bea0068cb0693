import itertools
import random

import pytest

import mistkernel
from mistkernel import (
    Graph,
    PreconditionError,
    SpanningTree,
    dfs_leaf_independent_set,
    dfs_tree,
    internal_count,
    is_connected,
)
from mistkernel.expansion import _augment
from mistkernel.generate import generate
from mistkernel.graph import _components
from bruteforce import brute_max_matching_size, is_tree_edge_set


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(m):
    return Graph(m + 1, [(0, i) for i in range(1, m + 1)])


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(PreconditionError):
            Graph(3, [(1, 1)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(PreconditionError):
            Graph(3, [(0, 1), (1, 0)])

    def test_adjacency_symmetric_and_sorted(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1)])
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)
            assert list(g.neighbors(u)) == sorted(g.neighbors(u))
        assert g.degree(0) == 2


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
        with pytest.raises(PreconditionError, match="root"):
            SpanningTree({0, 1}, [(0, 1)], root=2)
        with pytest.raises(PreconditionError, match="needs 2 edges"):
            SpanningTree({0, 1, 2}, [(0, 1), (1, 0)])
        assert SpanningTree({5}, (), root=5).vertices == frozenset({5})


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


class TestInternalCount:
    def test_path_all(self):
        assert internal_count(dfs_tree(path_graph(5), 0)) == 3

    def test_star_all(self):
        assert internal_count(dfs_tree(star_graph(9), 0)) == 1

    def test_path_endpoints_subset(self):
        t = dfs_tree(path_graph(5), 0)
        assert internal_count(t, {0, 4}) == 0

    def test_matches_leaf_complement(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(2, 12)
            g = Graph(n, [(i, rng.randrange(i)) for i in range(1, n)])
            t = dfs_tree(g, 0)
            assert internal_count(t) == n - len(t.leaves())


class TestDfsLeafIndependentSet:
    def test_star_center_root(self):
        g = star_graph(5)
        assert dfs_leaf_independent_set(g, dfs_tree(g, 0)) == frozenset(range(1, 6))

    def test_path_endpoint_root(self):
        g = path_graph(5)
        assert dfs_leaf_independent_set(g, dfs_tree(g, 0)) == frozenset({4})

    def test_cycle(self):
        g = cycle_graph(6)
        out = dfs_leaf_independent_set(g, dfs_tree(g, 0))
        assert len(out) == 1

    def test_independence_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randrange(3, 12)
            edges = {(i, rng.randrange(i)) for i in range(1, n)}
            for _ in range(n):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((max(u, v), min(u, v)))
            g = Graph(n, edges)
            out = dfs_leaf_independent_set(g, dfs_tree(g, 0))
            for u in out:
                assert not set(g.neighbors(u)) & out


class TestMatching:
    def test_k22(self):
        assert len(_augment({0: (2, 3), 1: (2, 3)}, [0, 1])) == 2

    def test_empty(self):
        assert len(_augment({0: ()}, [0])) == 0

    def test_path_three(self):
        assert len(_augment({1: (0, 2)}, [1])) == 1

    def test_against_enumeration(self):
        rng = random.Random(5)
        for _ in range(60):
            nx, ny = rng.randrange(1, 6), rng.randrange(1, 7)
            pairs = {
                (x, nx + y)
                for x in range(nx)
                for y in range(ny)
                if rng.random() < 0.4
            }
            adj = {x: tuple(sorted(y for a, y in pairs if a == x)) for x in range(nx)}
            matching = _augment(adj, range(nx))
            assert set(matching.items()) <= pairs
            assert len(set(matching.values())) == len(matching)
            assert len(matching) == brute_max_matching_size(pairs)

    def test_long_augmenting_path(self):
        # x_i ~ {y_i, y_{i+1}} matches x_i to y_i; the last left vertex sees
        # only y_0, so its one augmenting path runs through the whole chain.
        m = 3000
        ys = range(m + 1, 2 * m + 2)
        adj = {i: (ys[i], ys[i + 1]) for i in range(m)}
        adj[m] = (ys[0],)
        matching = _augment(adj, range(m + 1))
        assert len(matching) == m + 1
        assert len(set(matching.values())) == m + 1
        assert all(y in adj[x] for x, y in matching.items())


class TestSaturatingMatching:
    def test_k23_small_side(self):
        adj = {x: (2, 3, 4) for x in (0, 1)}
        assert len(_augment(adj, [0, 1])) == 2

    def test_one_x_two_y(self):
        # matching the two-vertex side {1, 2} into {0} cannot saturate it
        assert len(_augment({1: (0,), 2: (0,)}, [1, 2])) == 1

    def test_perfect(self):
        assert len(_augment({0: (2,), 1: (3,)}, [0, 1])) == 2
        assert len(_augment({2: (0,), 3: (1,)}, [2, 3])) == 2


def test_public_names_resolve():
    for name in mistkernel.__all__:
        assert getattr(mistkernel, name, None) is not None, name
