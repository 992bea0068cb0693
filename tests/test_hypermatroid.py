import random
import time

import pytest

from mistkernel import (
    Hypergraph,
    PreconditionError,
    border,
    deficient_partition,
    greedy_hypertree,
    is_hyperforest,
    shrink_to_tree,
)
from mistkernel.hypermatroid import Partition, _pair_forest
from bruteforce import (
    brute_has_deficient_partition,
    brute_strong_hall,
    is_tree_edge_set,
)


def random_hypergraph(rng, max_n=8, max_m=8):
    n = rng.randrange(2, max_n + 1)
    m = rng.randrange(1, max_m + 1)
    edges = []
    for _ in range(m):
        size = rng.randrange(1, n + 1)
        edges.append(frozenset(rng.sample(range(n), size)))
    return Hypergraph(n, edges)


class TestIsHyperforest:
    def test_single_triple(self):
        h = Hypergraph(3, [{0, 1, 2}])
        assert is_hyperforest(h, {0})

    def test_two_identical_pairs(self):
        h = Hypergraph(2, [{0, 1}, {0, 1}])
        assert not is_hyperforest(h, {0, 1})

    def test_triangle(self):
        h = Hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
        assert not is_hyperforest(h, {0, 1, 2})

    def test_empty_selection(self):
        assert is_hyperforest(Hypergraph(3, [{0, 1}]), set())

    def test_agrees_with_definition(self):
        rng = random.Random(17)
        for _ in range(120):
            h = random_hypergraph(rng, max_n=6, max_m=6)
            ids = [i for i in range(h.m) if rng.random() < 0.6]
            sets = [h.hyperedges[i] for i in ids]
            assert is_hyperforest(h, ids) == brute_strong_hall(sets)


class TestGreedyHypertree:
    def test_path_pairs(self):
        h = Hypergraph(3, [{0, 1}, {1, 2}])
        assert greedy_hypertree(h) == {0: (0, 1), 1: (1, 2)}

    def test_single_big_edge_insufficient(self):
        assert greedy_hypertree(Hypergraph(3, [{0, 1, 2}])) is None

    def test_duplicate_pairs_fail_and_certify(self):
        h = Hypergraph(4, [{0, 1}, {0, 1}, {2, 3}])
        assert greedy_hypertree(h) is None
        p = deficient_partition(h)
        assert p is not None
        assert len(border(h, p)) <= len(p) - 2
        # brute force over all 15 partitions confirms deficiency exists
        assert brute_has_deficient_partition(4, h.hyperedges) is not None

    def test_returned_pairs_are_a_copy(self):
        h = Hypergraph(4, [{0, 1, 2}, {1, 3}, {2, 3}])
        pairs = greedy_hypertree(h)
        assert pairs is not None
        pairs.clear()
        assert deficient_partition(h) is None
        assert len(greedy_hypertree(h)) == 3

    def test_hypertree_size(self):
        rng = random.Random(23)
        for _ in range(80):
            h = random_hypergraph(rng)
            ht = greedy_hypertree(h)
            if ht is not None:
                assert len(ht) == h.n - 1
                assert is_hyperforest(h, ht)


class TestShrinkToTree:
    def test_identity_on_graph_tree(self):
        h = Hypergraph(3, [{0, 1}, {1, 2}])
        t, mapping = shrink_to_tree(h, greedy_hypertree(h))
        assert t.edges == frozenset({(0, 1), (1, 2)})
        assert mapping == {0: (0, 1), 1: (1, 2)}

    def test_mixed_sizes(self):
        h = Hypergraph(3, [{0, 1, 2}, {1, 2}])
        t, mapping = shrink_to_tree(h, greedy_hypertree(h))
        assert is_tree_edge_set(range(3), sorted(t.edges))
        for eid, (u, v) in mapping.items():
            assert {u, v} <= set(h.hyperedges[eid])
        # edge 0 is the only edge holding vertex 0, so the tree reaches 0
        # through edge 0's pair
        assert 0 in mapping[0]

    @pytest.mark.parametrize("edges", [
        [{0, 1, 2}, {0, 1}],
        [{0, 1, 2, 3}, {0, 1}, {0, 1, 2}],
    ])
    def test_later_edge_repairs_an_earlier_one(self, edges):
        # edge 1 can only take the pair (0, 1), which edge 0 would pick
        # first; the hypertree exists only if edge 0 gives that pair up
        h = Hypergraph(len(edges[0]), edges)
        t, mapping = shrink_to_tree(h, greedy_hypertree(h))
        assert is_tree_edge_set(range(h.n), sorted(t.edges))
        assert mapping[1] == (0, 1)
        assert set(mapping[0]) <= h.hyperedges[0]

    def test_star(self):
        h = Hypergraph(5, [{0, i} for i in range(1, 5)])
        t, _ = shrink_to_tree(h, greedy_hypertree(h))
        assert t.edges == frozenset((0, i) for i in range(1, 5))

    def test_rejects_non_hypertree(self):
        # the greedy's pair forest of a hypergraph without a hypertree
        h = Hypergraph(3, [{0, 1}])
        with pytest.raises(PreconditionError):
            shrink_to_tree(h, {0: (0, 1)})

    def test_rejects_bad_pair_forests(self):
        h = Hypergraph(4, [{0, 1, 2, 3}, {0, 1, 2}, {0, 2, 3}])
        t, _ = shrink_to_tree(h, {0: (0, 1), 1: (1, 2), 2: (2, 3)})
        assert t.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        for pairs in (
            {0: (0, 1), 1: (1, 3), 2: (2, 3)},  # (1, 3) is outside hyperedge 1
            {0: (0, 1), 1: (1, 2), 2: (0, 2)},  # the pairs close a cycle
            {0: (0, 1), 1: (1, 2)},  # too few pairs
            {0: (0, 1), 1: (1, 2), 2: (3, 3)},  # not a 2-subset
            {0: (0, 1), 1: (1, 2), 3: (2, 3)},  # no hyperedge 3
        ):
            with pytest.raises(PreconditionError):
                shrink_to_tree(h, pairs)

    def test_random_hypertrees_shrink_cleanly(self):
        rng = random.Random(31)
        for _ in range(60):
            h = random_hypergraph(rng, max_n=7, max_m=10)
            ht = greedy_hypertree(h)
            if ht is None:
                continue
            t, mapping = shrink_to_tree(h, ht)
            assert is_tree_edge_set(range(h.n), sorted(t.edges))
            for eid, (u, v) in mapping.items():
                assert {u, v} <= set(h.hyperedges[eid])

    def test_greedy_pairs_ignore_the_edges_left_out(self):
        # the pairs the greedy hands to shrink_to_tree are the forest it
        # builds from the hypertree's own hyperedges alone
        rng = random.Random(37)
        checked = 0
        while checked < 200:
            h = random_hypergraph(rng, max_n=8, max_m=12)
            pairs = greedy_hypertree(h)
            if pairs is None or len(pairs) == h.m:
                continue
            checked += 1
            assert pairs == _pair_forest(h, sorted(pairs))[0]
            assert shrink_to_tree(h, pairs)[1] == pairs


class TestBorder:
    def test_singletons(self):
        h = Hypergraph(3, [{0, 1}, {2}, {0, 1, 2}])
        p = Partition(3, [{0}, {1}, {2}])
        assert border(h, p) == frozenset({0, 2})

    def test_one_part(self):
        h = Hypergraph(3, [{0, 1}, {1, 2}])
        assert border(h, Partition(3, [{0, 1, 2}])) == frozenset()

    def test_aligned_parts(self):
        h = Hypergraph(4, [{0, 1}, {2, 3}])
        assert border(h, Partition(4, [{0, 1}, {2, 3}])) == frozenset()


class TestDeficientPartition:
    def test_single_edge_connected(self):
        assert deficient_partition(Hypergraph(2, [{0, 1}])) is None

    def test_isolated_vertex(self):
        p = deficient_partition(Hypergraph(3, [{0, 1}]))
        assert p is not None
        h = Hypergraph(3, [{0, 1}])
        assert len(border(h, p)) <= len(p) - 2

    def test_theorem_equivalence_small(self):
        # hypertree exists iff no deficient partition, exhaustively checked
        rng = random.Random(41)
        for _ in range(150):
            h = random_hypergraph(rng, max_n=6, max_m=6)
            greedy = greedy_hypertree(h)
            brute = brute_has_deficient_partition(h.n, h.hyperedges)
            assert (greedy is not None) == (brute is None)
            cert = deficient_partition(h)
            assert (cert is None) == (greedy is not None)
            if cert is not None:
                assert len(border(h, cert)) <= len(cert) - 2


class TestLargerHypergraphs:
    def test_greedy_and_partition_agree_up_to_12_vertices(self):
        rng = random.Random(59)
        found = [0, 0]
        for _ in range(200):
            n = rng.randrange(6, 13)
            h = Hypergraph(n, [
                rng.sample(range(n), rng.choice((2, 2, 3, 4, n // 2)))
                for _ in range(rng.randrange(n - 3, 2 * n))
            ])
            ht = greedy_hypertree(h)
            p = deficient_partition(h)
            assert (ht is None) == (p is not None)
            if p is None:
                t, mapping = shrink_to_tree(h, ht)
                assert is_tree_edge_set(range(n), sorted(t.edges))
                assert all(set(mapping[i]) <= h.hyperedges[i] for i in ht)
            else:
                assert len(border(h, p)) <= len(p) - 2
            found[p is None] += 1
        assert min(found) >= 50

    def test_dense_hyperedges(self):
        rng = random.Random(7)
        h = Hypergraph(60, [rng.sample(range(60), 30) for _ in range(40)])
        t0 = time.perf_counter()
        assert greedy_hypertree(h) is None
        p = deficient_partition(h)
        assert time.perf_counter() - t0 < 30
        assert len(border(h, p)) <= len(p) - 2


class TestMatroidExchange:
    def test_exchange_on_random_instances(self):
        rng = random.Random(53)
        checked = 0
        while checked < 40:
            h = random_hypergraph(rng, max_n=6, max_m=7)
            small = [i for i in range(h.m) if rng.random() < 0.4]
            large = [i for i in range(h.m) if rng.random() < 0.6]
            if not (is_hyperforest(h, small) and is_hyperforest(h, large)):
                continue
            if len(large) <= len(small):
                continue
            checked += 1
            assert any(
                is_hyperforest(h, set(small) | {e})
                for e in set(large) - set(small)
            )
