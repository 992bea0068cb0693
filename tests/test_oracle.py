import hashlib
import random
import time
import tracemalloc

import pytest

from mistkernel import (
    Graph,
    PreconditionError,
    ResourceLimitError,
    SpanningTree,
    decide_pist,
    hamiltonian_path,
    internal_count,
    opt_internal,
    oracle,
)
from mistkernel.generate import generate
from bruteforce import brute_hamiltonian_path, brute_opt_internal
from graphs import path_graph, star_graph


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def best_tree(g):
    """A spanning tree with the most internal vertices: the answer to the
    highest target, from max(n - 2, 0) down, that is not None."""
    for target in range(max(g.n - 2, 0), -1, -1):
        tree = opt_internal(g, target)
        if tree is not None:
            return tree
    raise AssertionError("no spanning tree answers target 0")


def random_connected(rng, n, extra):
    edges = {(i, rng.randrange(i)) for i in range(1, n)}
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((max(u, v), min(u, v)))
    return Graph(n, edges)


class TestOptInternal:
    def test_path(self):
        for n in (2, 3, 5, 8):
            assert internal_count(best_tree(path_graph(n))) == max(0, n - 2)

    def test_star(self):
        for m in (2, 4, 6):
            assert internal_count(best_tree(star_graph(m))) == 1

    def test_k5(self):
        g = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert internal_count(best_tree(g)) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            opt_internal(Graph(4, [(0, 1), (2, 3)]), 1)

    def test_empty_graph_rejected(self):
        # refused whatever the target, as kernelize refuses it
        for at_least in (1, 0, -1):
            with pytest.raises(PreconditionError, match="at least one vertex"):
                opt_internal(Graph(0), at_least)

    def test_one_and_two_vertices(self):
        # the graph's only spanning tree answers the optimum and every
        # target up to 0; no tree has an internal vertex
        for g in (Graph(1), path_graph(2)):
            only = SpanningTree(range(g.n), g.edges)
            assert best_tree(g) == only
            for at_least in (-1, 0):
                assert opt_internal(g, at_least) == only
            assert opt_internal(g, 1) is None

    def test_witness_is_optimal(self):
        rng = random.Random(61)
        for _ in range(40):
            g = random_connected(rng, rng.randrange(2, 9), rng.randrange(0, 8))
            tree = best_tree(g)
            assert tree.edges <= g.edges
            assert internal_count(tree) == brute_opt_internal(g)

    def test_upper_bound_and_hamiltonian_boundary(self):
        rng = random.Random(67)
        for _ in range(40):
            n = rng.randrange(3, 9)
            g = random_connected(rng, n, rng.randrange(0, 10))
            opt = internal_count(best_tree(g))
            assert opt <= n - 2
            assert (opt == n - 2) == brute_hamiltonian_path(g)


    def test_at_least_agrees_with_brute_force(self):
        rng = random.Random(79)
        for _ in range(40):
            g = random_connected(rng, rng.randrange(2, 10), rng.randrange(0, 8))
            opt = brute_opt_internal(g)
            for at_least in range(g.n + 2):
                tree = opt_internal(g, at_least)
                if opt < at_least:
                    assert tree is None
                    continue
                assert tree is not None
                assert tree.edges <= g.edges
                assert internal_count(tree) >= at_least

    def test_optimum_witnesses_are_pinned(self):
        # sha256 of the optimum witnesses of 100 graphs without a
        # Hamiltonian path, as the unpruned enumeration found them: the
        # bound must not change which maximal tree comes first.
        rng = random.Random(8013)
        h = hashlib.sha256()
        done = 0
        while done < 100:
            n = rng.randrange(8, 14)
            family = rng.choice(("tree-plus", "random-gnm", "star-cluster"))
            m = None if family == "star-cluster" else rng.randrange(n, 3 * n // 2 + 1)
            g = generate(family, n, m, seed=rng.randrange(10**6))
            if hamiltonian_path(g) is not None:
                continue
            tree = best_tree(g)
            h.update(f"{g.n};{internal_count(tree)};{sorted(tree.edges)}\n".encode())
            done += 1
        assert h.hexdigest() == (
            "404459e7b3713bcc700fb401f07e19756a12e77ccce25d6ff48900554336b407"
        )


    def test_target_witnesses_are_pinned(self):
        # sha256 of the target-mode answers on 150 exact-small-style graphs
        # (the benchmark's families, n 16-18, m from n to 3n/2), for every
        # k from n // 2 to n - 3.  With n <= 3k these graphs are their own
        # kernels.  The digest was taken before the search kept its edge
        # set as bitmasks: the same trees must come first.
        h = hashlib.sha256()
        for j in range(150):
            rng = random.Random(j)
            family = ("tree-plus", "random-gnm", "star-cluster")[j % 3]
            n = rng.choice((16, 17, 18))
            m = rng.randint(n, (3 * n) // 2) if family != "star-cluster" else None
            g = generate(family, n, m, seed=j)
            for k in range(n // 2, n - 2):
                tree = opt_internal(g, k)
                found = None if tree is None else (internal_count(tree), sorted(tree.edges))
                h.update(f"{j};{k};{found}\n".encode())
        assert h.hexdigest() == (
            "344839c0680583b66ae7c5ff3838d54372a3e06164ff1a5342a426933e826f43"
        )

    def test_negative_target_is_zero(self):
        # every spanning tree has at least zero internal vertices
        cycle5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        rng = random.Random(83)
        graphs = [cycle5, star_graph(4), path_graph(4)]
        for _ in range(20):
            graphs.append(random_connected(rng, rng.randrange(3, 9), rng.randrange(0, 8)))
        for g in graphs:
            zero = opt_internal(g, 0)
            for at_least in (-1, -5):
                tree = opt_internal(g, at_least)
                assert tree is not None
                assert tree.edges == zero.edges


class TestHamiltonianPath:
    def test_size_guard(self):
        # the DP's table has 2^n entries; above MAX_N it must refuse, not allocate
        with pytest.raises(ResourceLimitError):
            hamiltonian_path(path_graph(19))

    def test_agrees_with_brute_force(self):
        rng = random.Random(71)
        graphs = []
        for _ in range(60):
            n = rng.randrange(1, 8)
            if n == 1:
                graphs.append(Graph(1))
            else:
                graphs.append(random_connected(rng, n, rng.randrange(0, 6)))
        # random edge subsets, possibly disconnected, many with more than
        # two vertices of degree at most 1
        for _ in range(60):
            n = rng.randrange(2, 8)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            graphs.append(Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1))))
        for g in graphs:
            n = g.n
            path = hamiltonian_path(g)
            assert (path is not None) == brute_hamiltonian_path(g)
            if path is not None:
                assert sorted(path) == list(range(n))
                assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))

    def test_paths_are_pinned(self):
        # sha256 of the paths of 500 seeded random edge subsets with n <= 13
        # (325 have one), as the DP with a parent per (mask, end) found
        # them: walking back through the end-sets must give the same paths.
        rng = random.Random(2024)
        h = hashlib.sha256()
        for _ in range(500):
            n = rng.randrange(1, 14)
            p = rng.random()
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            path = hamiltonian_path(Graph(n, [e for e in pairs if rng.random() < p]))
            h.update(f"{n};{path}\n".encode())
        assert h.hexdigest() == (
            "62068f6962d63563af351bb129a0642a9a9b7c5a0c31f8691b2bd07f6a57dffd"
        )

    def test_large_sparse_paths_are_pinned(self):
        # sha256 of the paths of 60 seeded sparse graphs with n 14-18: a
        # random-order path with each edge kept at 0.9, plus n/2 to n
        # chords (40 have a Hamiltonian path, 8 fail the degree test), as
        # the DP over all 2^n masks found them.
        rng = random.Random(1814)
        h = hashlib.sha256()
        for _ in range(60):
            n = rng.randrange(14, 19)
            order = rng.sample(range(n), n)
            edges = {tuple(sorted(e)) for e in zip(order, order[1:]) if rng.random() < 0.9}
            for _ in range(rng.randrange(n // 2, n)):
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            path = hamiltonian_path(Graph(n, edges))
            h.update(f"{n};{path}\n".encode())
        assert h.hexdigest() == (
            "03454f2e26a5bf98fd9792c072dae0cde2f51bf35be53a1fd6beefe73120eaa9"
        )

    def test_memory_is_the_end_set_table(self):
        # 64 bytes per end-set leaves no room for a map per (mask, end)
        # state, which peaks at 1.9 MB on K6,6 and 1.1 MB on K5,7.  A
        # pendant vertex 0 hung on K6,6 takes the second pass, and the first
        # table is released before it grows: the peak stays below two
        # tables' 8-byte slots (one table peaks at about 1.5 of them).
        pendant = Graph(13, [(0, 1)] + [(1 + i, 7 + j) for i in range(6) for j in range(6)])
        for g, has_path in ((complete_bipartite(6, 6), True),
                            (complete_bipartite(5, 7), False), (pendant, True)):
            tracemalloc.start()
            try:
                path = hamiltonian_path(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (path is not None) == has_path
            assert peak < 64 << g.n
        assert path[-1] == 0
        assert peak < 16 << pendant.n

    def test_paths_grow_from_their_forced_ends(self, monkeypatch):
        # The start sets the DP's table grows from.  Vertices of degree at
        # most 1 end every Hamiltonian path, so only they start one; a lone
        # pendant below every other end takes a second pass from those ends.
        starts = []
        grow = oracle._grow_ends
        monkeypatch.setattr(
            oracle, "_grow_ends", lambda nbr_mask, s: starts.append(s) or grow(nbr_mask, s))

        def run(g):
            starts.clear()
            path = hamiltonian_path(g)
            assert path is not None and brute_hamiltonian_path(g)
            assert sorted(path) == list(range(g.n))
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
            return path, list(starts)

        k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        # two pendant vertices, 0 and 4: one pass from exactly them
        two = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 5), (2, 5)])
        assert run(two) == ([4, 3, 5, 2, 1, 0], [0b10001])
        # pendant 0 on K4 {1..4}: the other ends are 2, 3, 4, all above 0
        low = Graph(5, [(0, 1)] + [(u + 1, v + 1) for u, v in k4])
        assert run(low) == ([4, 3, 2, 1, 0], [0b00001, 0b11100])
        # pendant 4 on K4 {0..3}: the end 0 is below it, one pass
        high = Graph(5, k4 + [(3, 4)])
        assert run(high) == ([4, 3, 2, 1, 0], [0b10000])
        # no pendant: the 5-cycle grows from every vertex
        cycle = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert run(cycle) == ([4, 3, 2, 1, 0], [0b11111])


class TestBounds:
    def test_bounds_hold_against_brute_force(self):
        # lb <= opt <= ub on small graphs of the three generator families,
        # and the lower-bound tree spans g over g's own edges
        families = ("random-gnm", "tree-plus", "star-cluster")
        for j in range(300):
            rng = random.Random(j)
            n = rng.randint(3, 12)
            family = families[j % 3]
            m = None if family == "star-cluster" else rng.randint(
                n - 1, min(3 * n // 2, n * (n - 1) // 2))
            g = generate(family, n, m, seed=j)
            ub, tree = oracle._bounds(g)
            t = tree()
            assert t.vertices == frozenset(range(n))
            assert t.edges <= g.edges
            assert internal_count(t) <= brute_opt_internal(g) <= ub

    def test_upper_bound_sits_behind_the_root_cut(self, monkeypatch):
        # The upper bound is computed only for a target below n - 2 that the
        # search's root cut (fewer vertices of degree >= 2 than the target)
        # does not refute: that cut is free, the bound is not.
        calls = []
        bounds = oracle._bounds
        monkeypatch.setattr(oracle, "_bounds", lambda g: calls.append(g) or bounds(g))
        # three centres on a path, two leaves each: 3 vertices of degree >= 2
        legs = [(c, 3 + 2 * c + i) for c in range(3) for i in (0, 1)]
        spider = Graph(9, [(0, 1), (1, 2)] + legs)
        assert opt_internal(spider, 5) is None
        assert opt_internal(spider, 4) is None
        # at n - 2 the Hamiltonian DP answers, with or without a path
        assert opt_internal(path_graph(9), 7) is not None
        assert opt_internal(complete_bipartite(3, 5), 6) is None
        assert opt_internal(complete_bipartite(4, 5), 7) is not None
        assert calls == []
        # past the root cut, one bound per call
        assert opt_internal(complete_bipartite(7, 11), 15) is None
        assert len(calls) == 1


class TestDecidePist:
    def test_p6_hamiltonian(self):
        yes, witness = decide_pist(path_graph(6), 4)
        assert yes and internal_count(witness) >= 4

    def test_star_no(self):
        yes, witness = decide_pist(star_graph(5), 2)
        assert not yes and witness is None

    def test_p6_above_max(self):
        yes, _ = decide_pist(path_graph(6), 5)
        assert not yes

    def test_disconnected_rejected(self):
        # rejected even where the target alone would answer NO
        for k in (1, 3):
            with pytest.raises(PreconditionError, match="connected"):
                decide_pist(Graph(4, [(0, 1), (2, 3)]), k)

    def test_agrees_with_direct_oracle(self):
        rng = random.Random(73)
        for _ in range(40):
            g = random_connected(rng, rng.randrange(2, 10), rng.randrange(0, 6))
            opt = internal_count(best_tree(g))
            for k in range(0, g.n + 1):
                yes, witness = decide_pist(g, k)
                assert yes == (opt >= k)
                if yes:
                    assert witness.edges <= g.edges
                    assert internal_count(witness) >= k

    def test_hard_no_is_fast(self):
        # The slowest instance of the benchmark's exact-small workload; its
        # optimum is 14 (seed 253 in bench/exact_small_key.json, found by
        # full enumeration).  The kernel is the whole graph.  Listing every
        # spanning tree takes 1.5-2.3 s of CPU; the bounded search, 0.03 s.
        g = generate("random-gnm", 18, 26, seed=253)
        t0 = time.process_time()
        yes, witness = decide_pist(g, 15)
        assert time.process_time() - t0 < 0.5
        assert not yes and witness is None
        yes, witness = decide_pist(g, 14)
        assert yes and internal_count(witness) >= 14

    def test_unbalanced_bipartite_no_is_fast(self):
        # Optima 13 and 9, both below 15, and the kernel is the whole graph:
        # the bounded search ran past a minute on each, the upper bound
        # refutes both at once.
        for a, b in ((7, 11), (5, 13)):
            t0 = time.process_time()
            yes, witness = decide_pist(complete_bipartite(a, b), 15)
            assert time.process_time() - t0 < 1.0
            assert not yes and witness is None

    def test_kernels_beyond_the_size_guard(self):
        # star-cluster n=60 leaves kernels larger than MAX_N.  Without the
        # bounds 100 of these 480 runs raised; with them, 3 do (seeds 2, 10
        # and 19 at k = 23, where lb = 22 and ub = 23).
        limits = 0
        for seed in range(20):
            g = generate("star-cluster", 60, seed=seed)
            for k in range(1, 25):
                try:
                    yes, witness = decide_pist(g, k)
                except ResourceLimitError:
                    limits += 1
                    continue
                if yes:
                    assert witness.edges <= g.edges
                    assert internal_count(witness) >= k
        assert limits <= 3

    def test_near_hamiltonian_bipartite_is_fast(self):
        # K(a, a + 2) has no Hamiltonian path and optimum 2a - 1 = n - 3,
        # which only the leaf-count cut reaches quickly: without it each of
        # these ran past 20 s.
        t0 = time.process_time()
        for a in (6, 7, 8):
            g = complete_bipartite(a, a + 2)
            yes, witness = decide_pist(g, 2 * a - 1)
            assert yes
            assert witness.vertices == frozenset(range(g.n))
            assert witness.edges <= g.edges
            assert internal_count(witness) >= 2 * a - 1
        assert time.process_time() - t0 < 1.0
