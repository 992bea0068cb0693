import hashlib
import random
import time

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
from mistkernel.generate import generate
from bruteforce import (
    all_spanning_trees,
    brute_opt_internal,
    random_spanning_tree,
)


def star_graph(m):
    return Graph(m + 1, [(0, i) for i in range(1, m + 1)])


def double_star():
    # centers 0, 1; leaves 2, 3 on 0; leaves 4, 5 on 1
    return Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def cluster_graph(rng, max_n=12):
    """Connected graph with a large independent set: few hubs, many leaves."""
    n = rng.randrange(6, max_n + 1)
    hubs = max(1, n // 4)
    edges = set()
    for h in range(1, hubs):
        edges.add((rng.randrange(h), h))
    for v in range(hubs, n):
        edges.add((rng.randrange(hubs), v))
        if hubs > 1 and rng.random() < 0.5:
            edges.add((rng.randrange(hubs), v))
    return Graph(n, sorted(set((min(u, v), max(u, v)) for u, v in edges)))


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
        reduced, k2, rec = apply_rule3(g, 3, cert)
        assert k2 == 3
        assert rec.delta_k == 0
        assert reduced.n == g.n - len(cert.s) - len(cert.l) + 2
        # equivalence at k = 3 via brute force on both sides
        assert (brute_opt_internal(g) >= 3) == (brute_opt_internal(reduced) >= k2)

    def test_k_formula(self):
        g = double_star()
        cert = find_sl(g, {2, 3, 4, 5})
        _, k2, rec = apply_rule3(g, 10, cert)
        assert k2 == 10 - 2 * len(cert.s) + 2

    def test_replay_matches(self):
        g = double_star()
        cert = find_sl(g, {2, 3, 4, 5})
        reduced, _, rec = apply_rule3(g, 3, cert)
        assert replay_reduction(g, rec) == reduced

    def test_replay_rejects_tampered_record(self):
        from dataclasses import replace

        g = double_star()
        cert = find_sl(g, {2, 3, 4, 5})
        _, _, rec = apply_rule3(g, 3, cert)
        # S = {0}, L = {2, 3}; (2, 3) is not an S-L edge of g
        assert rec.index_map == {1: 0, 4: 1, 5: 2}
        assert rec.bsl_tree.edges == frozenset({(0, 2), (0, 3)})
        tampered = [
            (replace(rec, index_map={1: 1, 4: 0, 5: 2}), "index map"),
            (replace(rec, v_s=rec.v_s + 1), "fresh vertex"),
            (replace(rec, neighbor_map=frozenset()), "neighbor map"),
            (replace(rec, delta_k=rec.delta_k + 2), "delta_k"),
            (replace(rec, bsl_tree=SpanningTree({0, 2, 3}, [(0, 2), (2, 3)])),
             "S-L edge"),
        ]
        for bad, reason in tampered:
            with pytest.raises(InvariantError, match=reason):
                replay_reduction(g, bad)


class TestValidateCertificate:
    def test_vertex_outside_graph(self):
        g = double_star()
        tree = SpanningTree({0, 2, 3, 9}, [(0, 2), (0, 3), (0, 9)])
        cert = SLCertificate(frozenset({0}), frozenset({2, 3, 9}), tree)
        with pytest.raises(InvariantError):
            validate_certificate(g, cert)


class TestKernelize:
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
        assert kernelize(g, 0).outcome == "trivial_yes"
        assert kernelize(g, -2).outcome == "trivial_yes"
        assert kernelize(g, 3).outcome == "trivial_no"  # k > n - 2
        assert kernelize(Graph(1), 1).outcome == "trivial_no"
        assert kernelize(Graph(1), 0).outcome == "trivial_yes"

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
        reduced, _, rec = apply_rule3(g, 3, cert)
        for edges in all_spanning_trees(reduced):
            t = SpanningTree(range(reduced.n), edges)
            lifted = lift_solution(g, [rec], t)
            assert lifted.edges <= g.edges
            assert internal_count(lifted) >= internal_count(t) + rec.delta_k

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


class TestRule3AtScale:
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
