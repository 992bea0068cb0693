import random
import time

import pytest

from mistkernel import (
    Hypergraph,
    PreconditionError,
    SpanningTree,
    border,
    deficient_partition,
    greedy_hypertree,
    kernelize,
    shrink_to_tree,
)
from mistkernel import hypermatroid, kernelizer
from mistkernel.generate import generate
from mistkernel.hypermatroid import Partition, _pair_forest
from bruteforce import (
    brute_has_deficient_partition,
    brute_strong_hall,
    is_tree_edge_set,
    reference_greedy,
)

# Hyperedge 1 can only take the pair (0, 1), which hyperedge 0 would pick
# first; the hypertree exists only if hyperedge 0 gives that pair up.
REPAIRING = [
    [{0, 1, 2}, {0, 1}],
    [{0, 1, 2, 3}, {0, 1}, {0, 1, 2}],
]


def random_hypergraph(rng, max_n=8, max_m=8):
    n = rng.randrange(2, max_n + 1)
    m = rng.randrange(1, max_m + 1)
    edges = []
    for _ in range(m):
        size = rng.randrange(1, n + 1)
        edges.append(frozenset(rng.sample(range(n), size)))
    return Hypergraph(n, edges)


def keeps_all(h, ids):
    """Whether the pair-forest greedy keeps every selected hyperedge, which
    holds exactly when the selection is a hyperforest."""
    ids = sorted(set(ids))
    return len(_pair_forest(h, ids)[0]) == len(ids)


def hyperforest(h, ids):
    """The definition: strong Hall over the selected hyperedges."""
    return brute_strong_hall([h.hyperedges[i] for i in ids])


class TestIsHyperforest:
    def test_single_triple(self):
        h = Hypergraph(3, [{0, 1, 2}])
        assert keeps_all(h, {0})

    def test_two_identical_pairs(self):
        h = Hypergraph(2, [{0, 1}, {0, 1}])
        assert not keeps_all(h, {0, 1})

    def test_triangle(self):
        h = Hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
        assert not keeps_all(h, {0, 1, 2})

    def test_empty_selection(self):
        assert keeps_all(Hypergraph(3, [{0, 1}]), set())

    def test_agrees_with_definition(self):
        rng = random.Random(17)
        for _ in range(120):
            h = random_hypergraph(rng, max_n=6, max_m=6)
            ids = [i for i in range(h.m) if rng.random() < 0.6]
            assert keeps_all(h, ids) == hyperforest(h, ids)


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
                assert hyperforest(h, ht)


class TestShrinkToTree:
    def test_identity_on_graph_tree(self):
        h = Hypergraph(3, [{0, 1}, {1, 2}])
        mapping = shrink_to_tree(h, greedy_hypertree(h))
        assert mapping == {0: (0, 1), 1: (1, 2)}

    def test_mixed_sizes(self):
        h = Hypergraph(3, [{0, 1, 2}, {1, 2}])
        mapping = shrink_to_tree(h, greedy_hypertree(h))
        assert is_tree_edge_set(range(3), sorted(mapping.values()))
        for eid, (u, v) in mapping.items():
            assert {u, v} <= set(h.hyperedges[eid])
        # edge 0 is the only edge holding vertex 0, so the tree reaches 0
        # through edge 0's pair
        assert 0 in mapping[0]

    @pytest.mark.parametrize("edges", REPAIRING)
    def test_later_edge_repairs_an_earlier_one(self, edges):
        h = Hypergraph(len(edges[0]), edges)
        mapping = shrink_to_tree(h, greedy_hypertree(h))
        assert is_tree_edge_set(range(h.n), sorted(mapping.values()))
        assert mapping[1] == (0, 1)
        assert set(mapping[0]) <= h.hyperedges[0]

    def test_star(self):
        h = Hypergraph(5, [{0, i} for i in range(1, 5)])
        t = SpanningTree(range(h.n), shrink_to_tree(h, greedy_hypertree(h)).values())
        assert t.edges == frozenset((0, i) for i in range(1, 5))

    def test_rejects_non_hypertree(self):
        # the greedy's pair forest of a hypergraph without a hypertree
        h = Hypergraph(3, [{0, 1}])
        with pytest.raises(PreconditionError):
            shrink_to_tree(h, {0: (0, 1)})

    def test_rejects_bad_pair_forests(self):
        h = Hypergraph(4, [{0, 1, 2, 3}, {0, 1, 2}, {0, 2, 3}])
        pairs = shrink_to_tree(h, {0: (0, 1), 1: (1, 2), 2: (2, 3)})
        t = SpanningTree(range(h.n), pairs.values())
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
            mapping = shrink_to_tree(h, ht)
            assert list(mapping) == sorted(ht)  # ascending edge ids
            assert is_tree_edge_set(range(h.n), sorted(mapping.values()))
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
            assert shrink_to_tree(h, pairs) == pairs


def count_searches(monkeypatch):
    """Record the result of every `_search` call from here on."""
    results = []
    search = hypermatroid._search

    def counted(*args):
        results.append(search(*args))
        return results[-1]

    monkeypatch.setattr(hypermatroid, "_search", counted)
    return results


class TestSearchOnlyWhereARepairingCanExist:
    def test_same_forests_and_partitions_as_a_search_from_every_hyperedge(
        self, monkeypatch
    ):
        searches = count_searches(monkeypatch)
        rng = random.Random(61)
        deficient = 0
        for i in range(2000):
            n = rng.randrange(1, 31)
            widest = 2 if i % 2 else 6  # every other one mixes in 3-6 vertices
            h = Hypergraph(n, [
                rng.sample(range(n), rng.randrange(1, min(widest, n) + 1))
                for _ in range(rng.randrange(0, 2 * n + 2))
            ])
            pairs, parts = reference_greedy(n, h.hyperedges)
            assert list(_pair_forest(h, range(h.m))[0].items()) == list(pairs.items())
            if n < 2:
                continue
            p = deficient_partition(h)
            assert (p is None) == (parts is None)
            if p is not None:
                assert [sorted(q) for q in p.parts] == parts
                deficient += 1
        repairs = [swap for swap, _ in searches if swap is not None and len(swap) > 1]
        assert 400 <= deficient <= 1600
        assert len(repairs) >= 1000

    def test_no_search_when_every_hyperedge_is_a_pair(self, monkeypatch):
        # star-cluster n = 150, seed 1: each hypergraph find_sl builds has
        # hyperedges of at most two vertices, so each one joins two
        # components or closes a cycle, and the greedy never searches
        searches = count_searches(monkeypatch)
        runs = []
        greedy = kernelizer.greedy_hypertree

        def counted(h):
            before = len(searches)
            pairs = greedy(h)
            runs.append((h, pairs, len(searches) - before))
            return pairs

        monkeypatch.setattr(kernelizer, "greedy_hypertree", counted)
        kernelize(generate("star-cluster", 150, seed=1), 49)
        assert all(len(e) <= 2 for h, _, _ in runs for e in h.hyperedges)
        # pairs the greedy passed over; a greedy that searches from every
        # hyperedge searches from each of them
        passed_over = [
            i
            for h, pairs, _ in runs
            if pairs is not None
            for i in range(max(pairs))
            if i not in pairs and len(h.hyperedges[i]) == 2
        ]
        assert passed_over
        assert [count for _, _, count in runs] == [0] * len(runs)

    @pytest.mark.parametrize("edges", REPAIRING)
    def test_search_where_a_repairing_can_exist(self, monkeypatch, edges):
        searches = count_searches(monkeypatch)
        h = Hypergraph(len(edges[0]), edges)
        pairs = greedy_hypertree(h)
        assert len(searches) >= 1
        assert pairs[1] == (0, 1)
        assert pairs[0] != (0, 1)


class TestInputChecks:
    def test_hypergraph_rejects_bad_input(self):
        with pytest.raises(PreconditionError, match="^vertex count must be nonnegative$"):
            Hypergraph(-1, [])
        with pytest.raises(PreconditionError, match="^hyperedges must be nonempty$"):
            Hypergraph(3, [{0, 1}, set()])
        with pytest.raises(PreconditionError, match=r"^hyperedge \[1, 3\] out of range$"):
            Hypergraph(3, [{0, 1}, {3, 1}])

    def test_partition_rejects_bad_parts(self):
        with pytest.raises(PreconditionError, match="^partition parts must be nonempty$"):
            Partition(2, [{0, 1}, set()])
        with pytest.raises(PreconditionError, match="^partition parts overlap$"):
            Partition(3, [{0, 1}, {1, 2}])
        with pytest.raises(PreconditionError, match="^parts do not cover the vertex set$"):
            Partition(3, [{0}, {2}])

    def test_border_needs_the_same_vertex_set(self):
        h = Hypergraph(3, [{0, 1}, {1, 2}])
        with pytest.raises(
            PreconditionError, match="^partition is over a different vertex set$"
        ):
            border(h, Partition(2, [{0}, {1}]))

    def test_greedy_needs_a_vertex(self):
        with pytest.raises(
            PreconditionError, match="^hypergraph must have at least one vertex$"
        ):
            greedy_hypertree(Hypergraph(0, []))

    def test_deficient_partition_needs_two_vertices(self):
        with pytest.raises(PreconditionError, match="^need at least two vertices$"):
            deficient_partition(Hypergraph(1, [{0}]))

    def test_reprs(self):
        assert repr(Hypergraph(3, [{0, 1}, {1, 2}])) == "Hypergraph(n=3, m=2)"
        assert repr(Partition(3, [{2}, {1, 0}])) == "Partition([[0, 1], [2]])"


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
                mapping = shrink_to_tree(h, ht)
                assert is_tree_edge_set(range(n), sorted(mapping.values()))
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
            if not (hyperforest(h, small) and hyperforest(h, large)):
                continue
            if len(large) <= len(small):
                continue
            checked += 1
            assert any(
                hyperforest(h, set(small) | {e})
                for e in set(large) - set(small)
            )
