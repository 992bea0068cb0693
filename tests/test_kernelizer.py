import hashlib
import json
import random
import time
import tracemalloc
from collections import Counter

import pytest

from mistkernel import hypermatroid, kernelizer
from mistkernel import (
    Graph,
    InvariantError,
    PreconditionError,
    SLCertificate,
    SpanningTree,
    apply_rule3,
    dfs_tree,
    find_sl,
    internal_count,
    kernelize,
    lift_solution,
    rearrange_tree,
    replay_reduction,
    validate_certificate,
)
from mistkernel.fileformats import trace_to_json
from mistkernel.generate import generate
from bruteforce import (
    all_spanning_trees,
    brute_opt_internal,
    random_spanning_tree,
    reference_rearrange,
)
from graphs import chained_clusters, cluster_graph, star_graph


def double_star():
    # centers 0, 1; leaves 2, 3 on 0; leaves 4, 5 on 1
    return Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


class TestFindSl:
    def test_star_base_case(self):
        g = star_graph(4)
        cert = find_sl(g, {1, 2, 3, 4})
        assert cert.s == frozenset({0})
        assert cert.l == frozenset({1, 2, 3, 4})
        assert internal_count(cert.tree, cert.s) == 1
        assert internal_count(cert.tree, cert.l) == 0

    def test_double_star_descends(self):
        cert = find_sl(double_star(), {2, 3, 4, 5})
        assert cert.s == frozenset({0})
        assert cert.l == frozenset({2, 3})
        assert cert.tree.edges == frozenset({(0, 2), (0, 3)})

    def test_one_hub_goes_through_the_greedy(self, monkeypatch):
        calls = []
        greedy = kernelizer.greedy_hypertree
        monkeypatch.setattr(
            kernelizer, "greedy_hypertree", lambda h: calls.append(h) or greedy(h)
        )
        cert = find_sl(star_graph(4), {1, 2, 3, 4})
        assert len(calls) == 1
        assert cert.tree.edges == star_graph(4).edges

    def test_one_greedy_per_hypergraph(self, monkeypatch):
        # greedy_hypertree and deficient_partition share one greedy run per
        # hypergraph, on the pipeline's own hypergraphs
        counts = {"pair_forest": 0, "greedy": 0, "partition": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for mod, attr, name in (
            (hypermatroid, "_pair_forest", "pair_forest"),
            (kernelizer, "greedy_hypertree", "greedy"),
            (kernelizer, "deficient_partition", "partition"),
        ):
            monkeypatch.setattr(mod, attr, counted(name, getattr(mod, attr)))
        for seed in range(1, 41):
            kernelize(generate("star-cluster", 150, seed=seed), 49)
        assert counts["partition"] > 0
        assert counts["pair_forest"] == counts["greedy"]

    def test_small_independent_set_rejected(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(PreconditionError):
            find_sl(g, {0, 2, 4})

    def test_vertex_outside_graph_rejected(self):
        g = star_graph(5)
        for ind in ({1, 2, 3, 4, 9}, {-1, 1, 2, 3, 4}):
            with pytest.raises(PreconditionError, match=r"outside 0\.\.5"):
                find_sl(g, ind)

    def test_too_few_vertices_rejected(self):
        with pytest.raises(PreconditionError, match="^need at least 3 vertices$"):
            find_sl(Graph(2, [(0, 1)]), {1})

    def test_disconnected_graph_rejected(self):
        g = Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
        with pytest.raises(PreconditionError, match="^graph must be connected$"):
            find_sl(g, {1, 2, 4, 5})

    def test_dependent_set_rejected(self):
        g = star_graph(5)
        with pytest.raises(PreconditionError, match="not independent"):
            find_sl(g, {0, 1, 2, 3, 4})

    def test_random_certificates_validate(self):
        rng = random.Random(7)
        produced = 0
        while produced < 60:
            g = cluster_graph(rng)
            # the non-hub vertices are independent by construction
            ind = frozenset(range(max(1, g.n // 4), g.n))
            if 3 * len(ind) < 2 * g.n:
                continue
            produced += 1
            cert = find_sl(g, ind)
            validate_certificate(g, cert)
            assert cert.l <= ind


class TestApplyRule3:
    def test_delta_zero_for_single_s(self):
        g = double_star()
        cert = find_sl(g, {2, 3, 4, 5})
        reduced, k2 = apply_rule3(g, 3, cert)
        assert k2 == 3
        assert cert.delta_k == 0
        assert reduced.n == g.n - len(cert.s) - len(cert.l) + 2
        # equivalence at k = 3 via brute force on both sides
        assert (brute_opt_internal(g) >= 3) == (brute_opt_internal(reduced) >= k2)

    def test_k_formula(self):
        g = double_star()
        cert = find_sl(g, {2, 3, 4, 5})
        _, k2 = apply_rule3(g, 10, cert)
        assert k2 == 10 - 2 * len(cert.s) + 2

    def test_replay_matches(self):
        g = double_star()
        cert = find_sl(g, {2, 3, 4, 5})
        reduced, _ = apply_rule3(g, 3, cert)
        assert replay_reduction(g, cert) == reduced

    def test_replay_rejects_tampered_record(self):
        from dataclasses import replace

        g = double_star()
        cert = find_sl(g, {2, 3, 4, 5})
        # S = {0}, L = {2, 3}: survivors 1, 4, 5 become 0, 1, 2, then
        # v_S = 3 takes N(S) \ L = {1} and v_L = 4 hangs on it
        assert cert.tree.edges == frozenset({(0, 2), (0, 3)})
        assert replay_reduction(g, cert) == Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        # (2, 3) is not an S-L edge of g
        bad = replace(cert, tree=SpanningTree({0, 2, 3}, [(0, 2), (2, 3)]))
        with pytest.raises(InvariantError, match="S-L edge"):
            replay_reduction(g, bad)


    def test_covering_certificate_is_refused(self):
        # S ∪ L is all of K1,3, which has a tree with one internal vertex;
        # the single edge that contracting it would leave has none.  The
        # certificate itself is valid, and kernelize's cover exit uses it.
        g = star_graph(3)
        tree = SpanningTree(range(4), [(0, 1), (0, 2), (0, 3)])
        cert = SLCertificate(frozenset({0}), frozenset({1, 2, 3}), tree)
        validate_certificate(g, cert)
        assert find_sl(g, {1, 2, 3}) == cert
        with pytest.raises(InvariantError, match="covers the graph"):
            apply_rule3(g, 1, cert)
        with pytest.raises(InvariantError, match="covers the graph"):
            replay_reduction(g, cert)


class TestValidateCertificate:
    def test_vertex_outside_graph(self):
        g = double_star()
        tree = SpanningTree({0, 2, 3, 9}, [(0, 2), (0, 3), (0, 9)])
        cert = SLCertificate(frozenset({0}), frozenset({2, 3, 9}), tree)
        with pytest.raises(InvariantError):
            validate_certificate(g, cert)

    def test_independence_checked_before_neighbourhood(self):
        g = double_star()
        # L = {1, 4} holds the edge (1, 4), and N(L) = {0, 5} is not S = {0}
        tree = SpanningTree({0, 1, 4}, [(0, 1), (1, 4)])
        cert = SLCertificate(frozenset({0}), frozenset({1, 4}), tree)
        with pytest.raises(InvariantError, match="L is not independent"):
            validate_certificate(g, cert)
        # L = {2, 3, 4} is independent, and N(L) = {0, 1} is not S = {0}
        tree = SpanningTree({0, 2, 3, 4}, [(0, 2), (0, 3), (0, 4)])
        cert = SLCertificate(frozenset({0}), frozenset({2, 3, 4}), tree)
        with pytest.raises(InvariantError, match="N\\(L\\) differs from S"):
            validate_certificate(g, cert)

    def test_tree_must_span_s_and_l(self):
        g = double_star()
        tree = SpanningTree({0, 2}, [(0, 2)])
        cert = SLCertificate(frozenset({0}), frozenset({2, 3}), tree)
        with pytest.raises(InvariantError, match="^tree does not span S ∪ L$"):
            validate_certificate(g, cert)

    def test_s_vertex_leaf_rejected(self):
        # K(2, 3) with S = {0, 1}: the tree hangs 1 on L-vertex 4 alone
        g = Graph(5, [(s, l) for s in (0, 1) for l in (2, 3, 4)])
        tree = SpanningTree(range(5), [(0, 2), (0, 3), (0, 4), (1, 4)])
        cert = SLCertificate(frozenset({0, 1}), frozenset({2, 3, 4}), tree)
        with pytest.raises(
            InvariantError, match="^an S-vertex is a leaf of the certificate tree$"
        ):
            validate_certificate(g, cert)

    def test_internal_l_count_checked(self):
        # K(3, 4) with S = {0, 1, 2}: L-vertex 3 joins all of S, so only one
        # L-vertex is internal where |S| - 1 = 2 must be
        g = Graph(7, [(s, l) for s in (0, 1, 2) for l in (3, 4, 5, 6)])
        tree = SpanningTree(range(7), [(0, 3), (1, 3), (2, 3), (0, 4), (1, 5), (2, 6)])
        cert = SLCertificate(frozenset({0, 1, 2}), frozenset({3, 4, 5, 6}), tree)
        with pytest.raises(
            InvariantError, match=r"^internal L-vertex count differs from \|S\| - 1$"
        ):
            validate_certificate(g, cert)


class TestKernelize:
    def test_empty_graph_rejected(self):
        with pytest.raises(
            PreconditionError, match="^graph must have at least one vertex$"
        ):
            kernelize(Graph(0), 0)

    def test_path_solved(self):
        g = Graph(10, [(i, i + 1) for i in range(9)])
        res = kernelize(g, 8)
        assert res.outcome == "solved"
        assert internal_count(res.witness) >= 8

    def test_rule1_immediate(self):
        g = star_graph(5)
        res = kernelize(g, 2)
        assert res.outcome == "kernel"
        assert res.graph == g
        assert res.k_prime == 2
        assert res.trace == ()

    def test_large_cycle_solved_by_dfs(self):
        g = Graph(100, [(i, (i + 1) % 100) for i in range(100)])
        res = kernelize(g, 10)
        assert res.outcome == "solved"
        assert internal_count(res.witness) >= 10

    def test_trivial_guards(self):
        g = star_graph(3)
        # k <= 0: the first DFS tree answers, through an empty trace
        for h, k in ((g, 0), (g, -2), (Graph(1), 0)):
            res = kernelize(h, k)
            assert res.outcome == "solved"
            assert res.witness == dfs_tree(h, 0)
            assert res.trace == ()
            assert res.k_prime == k
        assert kernelize(g, 3).outcome == "trivial_no"  # k > n - 2
        assert kernelize(Graph(1), 1).outcome == "trivial_no"

    def test_disconnected_rejected(self):
        # before any trivial answer: at k = 0, in range, and above n - 2
        for k in (0, 1, 3):
            with pytest.raises(PreconditionError, match="connected"):
                kernelize(Graph(4, [(0, 1), (2, 3)]), k)

    def test_big_star_answered_without_kernel(self):
        # S ∪ L covers the whole star, so the loop answers outright
        g = star_graph(9)
        res = kernelize(g, 2)
        assert res.outcome == "trivial_no"
        assert brute_opt_internal(g) < 2

    def test_covered_graph_solved_exactly(self):
        # two adjacent hubs with leaves on both: S ∪ L covers everything
        # and the certificate tree itself reaches the optimum of 3
        g = Graph(10, [(0, 1), (0, 3), (0, 4), (0, 6), (0, 7), (0, 8), (0, 9),
                       (1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8)])
        res = kernelize(g, 3)
        assert res.outcome == "solved"
        assert internal_count(res.witness) >= 3
        assert res.witness.edges <= g.edges
        assert brute_opt_internal(g) == 3

    def test_star_with_tail_reduces(self):
        # hub 0 with leaves 1..9 plus a pendant 10 hanging off leaf 1
        g = Graph(11, [(0, i) for i in range(1, 10)] + [(1, 10)])
        res = kernelize(g, 3)
        assert res.outcome == "kernel"
        assert len(res.trace) == 1
        assert res.graph.n <= 3 * res.k_prime
        # the original optimum is 2, so the kernel must say no as well
        assert brute_opt_internal(g) < 3
        assert brute_opt_internal(res.graph) < res.k_prime

    def test_monotone_progress_and_kernel_bound(self):
        rng = random.Random(19)
        reduced_cases = 0
        for _ in range(120):
            g = cluster_graph(rng, max_n=14)
            for k in (1, 2, 3):
                res = kernelize(g, k)
                if res.outcome == "kernel":
                    assert res.graph.n <= 3 * res.k_prime
                    assert res.graph.n <= 3 * k
                    assert res.k_prime <= k
                    if res.trace:
                        reduced_cases += 1
                elif res.outcome == "solved":
                    assert internal_count(res.witness) >= k
        assert reduced_cases > 0


class TestLiftSolution:
    def test_empty_trace_identity(self):
        g = double_star()
        t = dfs_tree(g, 0)
        assert lift_solution(g, [], t) == t

    def test_all_kernel_trees_lift(self):
        g = double_star()
        cert = find_sl(g, {2, 3, 4, 5})
        reduced, _ = apply_rule3(g, 3, cert)
        for edges in all_spanning_trees(reduced):
            t = SpanningTree(range(reduced.n), edges)
            lifted = lift_solution(g, [cert], t)
            assert lifted.edges <= g.edges
            assert internal_count(lifted) >= internal_count(t) + cert.delta_k

    def test_stacked_reductions(self):
        # two 8-leaf stars with adjacent centers reduce twice at k = 3
        edges = [(0, 1)]
        edges += [(0, v) for v in range(2, 10)]
        edges += [(1, v) for v in range(10, 18)]
        g = Graph(18, edges)
        res = kernelize(g, 3)
        assert res.outcome == "kernel"
        assert len(res.trace) == 2
        delta = sum(r.delta_k for r in res.trace)
        for tree_edges in all_spanning_trees(res.graph):
            t = SpanningTree(range(res.graph.n), tree_edges)
            lifted = lift_solution(g, res.trace, t)
            assert lifted.edges <= g.edges
            assert internal_count(lifted) >= internal_count(t) + delta

    def test_trace_iterated_once(self):
        # a trace given as an iterator lifts as the same trace as a tuple;
        # the two 8-leaf stars of test_stacked_reductions
        edges = [(0, 1)] + [(0, v) for v in range(2, 10)] + [(1, v) for v in range(10, 18)]
        g = Graph(18, edges)
        res = kernelize(g, 3)
        assert len(res.trace) == 2
        t = dfs_tree(res.graph, 0)
        assert lift_solution(g, iter(res.trace), t) == lift_solution(g, res.trace, t)

    def test_tree_with_a_non_edge_rejected(self):
        # a tree of P4 over two non-edges, with no trace; and, after one
        # reduction, the kernel's DFS tree with (0, 3) swapped for the
        # non-edge (0, 1), and a path over the kernel's ids
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        cases = [(p4, (), SpanningTree(range(4), [(0, 2), (1, 2), (1, 3)]))]
        g = generate("star-cluster", 30, seed=56)
        res = kernelize(g, 9)
        assert res.outcome == "kernel" and len(res.trace) == 1
        kg = res.graph
        assert (0, 3) in kg.edges and (0, 1) not in kg.edges
        swapped = dfs_tree(kg, 0).edges - {(0, 3)} | {(0, 1)}
        path = [(v, v + 1) for v in range(kg.n - 1)]
        for edges in (swapped, path):
            cases.append((g, res.trace, SpanningTree(range(kg.n), edges)))
        for host, trace, t in cases:
            with pytest.raises(PreconditionError, match="not in the graph"):
                lift_solution(host, trace, t)


@pytest.fixture(scope="module")
def chain():
    """The chained clusters at c = 8 (n = 2400) and their kernelization."""
    g = chained_clusters(8)
    return g, kernelize(g, g.n // 3 - 1)


class TestLiftChain:
    def test_witness_is_pinned(self, chain):
        # sha256 of a witness lifted through 18 reductions; the other pins
        # lift through one or two
        _, res = chain
        assert res.outcome == "solved" and len(res.trace) == 18
        digest = hashlib.sha256(repr(sorted(res.witness.edges)).encode())
        assert digest.hexdigest() == (
            "732df30c0f6ad3688f81d4a87047b6f87f59e8875d4ef9331e9cd9c7ef9e533f"
        )

    def test_memory_is_a_few_graphs(self, chain):
        # Lifting keeps n and each u in N(S) \ L's lowest S-neighbour per
        # reduction, so it holds the input, the graph being replayed and the
        # trees: under 4 times the input.  Keeping all 18 replayed graphs
        # peaked at 17 times it.
        g, res = chain
        cur = g
        for cert in res.trace:
            cur = replay_reduction(cur, cert)
        t = dfs_tree(cur, 0)
        del cur
        tracemalloc.start()
        try:
            host = chained_clusters(8)  # a copy of g, built while traced
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lifted = lift_solution(host, res.trace, t)
            peak = tracemalloc.get_traced_memory()[1] - size
        finally:
            tracemalloc.stop()
        assert lifted == res.witness
        assert peak < 8 * size


class TestRearrangeTree:
    def test_preserves_when_tree_is_cert_tree(self):
        g = star_graph(4)
        cert = find_sl(g, {1, 2, 3, 4})
        t = dfs_tree(g, 0)
        out = rearrange_tree(g, t, cert)
        assert internal_count(out) >= internal_count(t)

    def test_double_star_bad_tree(self):
        g = double_star()
        cert = find_sl(g, {2, 3, 4, 5})
        t = dfs_tree(g, 2)  # rooted at a leaf
        out = rearrange_tree(g, t, cert)
        assert all(out.degree(v) >= 2 for v in cert.s)
        assert internal_count(out, cert.l) == len(cert.s) - 1
        assert internal_count(out) >= internal_count(t)

    def test_tree_off_the_graph_rejected(self):
        # the path 2-0-3-4-1-5 uses the non-edge (3, 4); a tree on five of
        # the six vertices does not span
        g = double_star()
        cert = find_sl(g, {2, 3, 4, 5})
        for t in (
            SpanningTree(range(6), [(0, 2), (0, 3), (3, 4), (1, 4), (1, 5)]),
            SpanningTree(range(5), [(0, 1), (0, 2), (0, 3), (1, 4)]),
        ):
            with pytest.raises(PreconditionError):
                rearrange_tree(g, t, cert)

    def test_tree_with_a_vertex_off_the_graph_rejected(self):
        # six vertices and edges of the right shape, but vertex 6 stands
        # where the graph has 5; lift_solution checks the same way
        g = double_star()
        cert = find_sl(g, {2, 3, 4, 5})
        t = SpanningTree([0, 1, 2, 3, 4, 6], [(0, 1), (0, 2), (0, 3), (1, 4), (1, 6)])
        with pytest.raises(PreconditionError, match="^tree does not span the graph$"):
            rearrange_tree(g, t, cert)
        with pytest.raises(PreconditionError, match="^tree does not span the graph$"):
            lift_solution(g, [], t)

    def test_random_monotonicity(self):
        rng = random.Random(37)
        done = 0
        while done < 40:
            g = cluster_graph(rng, max_n=10)
            hubs = max(1, g.n // 4)
            ind = frozenset(range(hubs, g.n))
            if 3 * len(ind) < 2 * g.n:
                continue
            cert = find_sl(g, ind)
            t = random_spanning_tree(g, rng)
            out = rearrange_tree(g, t, cert)
            assert internal_count(out) >= internal_count(t)
            assert all(out.degree(v) >= 2 for v in cert.s)
            assert internal_count(out, cert.l) == len(cert.s) - 1
            done += 1

    def test_outputs_are_pinned(self):
        # sha256 of the rearranged trees of 200 seeded (graph, tree,
        # certificate) triples, in the style of acceptance criterion 6
        rng = random.Random(6006)
        digest = hashlib.sha256()
        done = 0
        while done < 200:
            g = cluster_graph(rng, max_n=16)
            ind = frozenset(range(max(1, g.n // 4), g.n))
            if 3 * len(ind) < 2 * g.n:
                continue
            out = rearrange_tree(g, random_spanning_tree(g, rng), find_sl(g, ind))
            digest.update(repr(sorted(out.edges)).encode())
            done += 1
        assert digest.hexdigest() == (
            "914cc247fbca904206c60c8c98e4deb366c65a58ead9931da04f456b0007a2bb"
        )

    def test_matches_the_fixpoint(self):
        # star-cluster graphs up to n = 119 with certificates from the DFS
        # tree's non-root leaves, as kernelize draws them; many triples make
        # the fixpoint cut two or more edges from one S-vertex
        rng = random.Random(35)
        repeated = 0
        for _ in range(1500):
            n = rng.randrange(6, 120)
            g = generate("star-cluster", n, seed=rng.randrange(10**6))
            t = random_spanning_tree(g, rng)
            cert = find_sl(g, dfs_tree(g, 0).leaves() - {0})
            edges, cuts = reference_rearrange(t, cert)
            assert rearrange_tree(g, t, cert).edges == edges
            repeated += max(Counter(v for v, _ in cuts).values(), default=0) >= 2
        assert repeated >= 500


class TestRule3AtScale:
    def test_outputs_are_pinned(self):
        # sha256 over outcome, k', each certificate's sorted S, L and tree
        # edges, the kernel, the witness and the decoded trace document, on
        # star-cluster instances where Rule 3 fires
        cases = [(150, 49, s) for s in range(1, 41)] + [(800, 266, s) for s in (1, 2, 3)]
        digest = hashlib.sha256()
        for n, k, seed in cases:
            res = kernelize(generate("star-cluster", n, seed=seed), k)
            digest.update(repr((
                res.outcome,
                res.k_prime,
                [(sorted(c.s), sorted(c.l), sorted(c.tree.edges)) for c in res.trace],
                None if res.graph is None else (res.graph.n, sorted(res.graph.edges)),
                None if res.witness is None else sorted(res.witness.edges),
                json.dumps(json.loads(trace_to_json(res, k)), sort_keys=True),
            )).encode())
        assert digest.hexdigest() == (
            "36b1d9b115b9065993607cc893dfd720fa68a62722aaa2d3b8c7b8ef481fe39a"
        )

    def test_star_cluster_800(self):
        # the first DFS does not settle this instance, so Rule 3 fires on an
        # (S, L) pair of several hundred vertices
        g = generate("star-cluster", 800, seed=1)
        t0 = time.perf_counter()
        res = kernelize(g, 266)
        assert time.perf_counter() - t0 < 60
        assert res.trace
        cur = g
        for rec in res.trace:
            cur = replay_reduction(cur, rec)
        if res.outcome == "solved":
            assert internal_count(res.witness) >= 266
        else:
            assert res.outcome == "kernel"
            assert res.graph == cur and res.graph.n <= 3 * res.k_prime
