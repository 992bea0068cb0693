"""End-to-end acceptance suite.

Nine numbered criteria, one test each; every test prints a single
"criterion N ... PASS/FAIL" line (straight to the terminal, bypassing
pytest's capture) so the run leaves a readable scorecard.
"""

import itertools
import random
import sys
import time
from contextlib import contextmanager

import pytest

from mistkernel import (
    Graph,
    Hypergraph,
    border,
    decide_pist,
    deficient_partition,
    find_expansion_2,
    find_sl,
    greedy_hypertree,
    internal_count,
    kernelize,
    opt_internal,
    rearrange_tree,
    replay_reduction,
    validate_certificate,
)
from mistkernel.fileformats import serialize_edge_list, trace_to_json
from mistkernel.generate import generate
import scoreboard
from bruteforce import (
    brute_has_deficient_partition,
    brute_hamiltonian_path,
    brute_strong_hall,
    random_spanning_tree,
    verify_expansion,
)
from graphs import cluster_graph


@contextmanager
def scorecard(num, name):
    try:
        yield
    except BaseException:
        _report(f"criterion {num} ({name}): FAIL")
        raise
    _report(f"criterion {num} ({name}): PASS")


def _report(line):
    # the registered line surfaces in the terminal summary after the run;
    # the direct print shows up when capture is off (-s) or the test fails
    scoreboard.record(line)
    print(line, file=sys.__stdout__, flush=True)


# ---------------------------------------------------------------------------
# Shared corpora


def corpus_large():
    """500 seeded connected instances with n <= 60 and k in 1..12."""
    families = ("random-gnm", "tree-plus", "star-cluster")
    cases = []
    for i in range(500):
        rng = random.Random(1000 + i)
        fam = families[i % 3]
        n = rng.randrange(6, 61)
        if fam == "star-cluster":
            m = None
        else:
            m = rng.randrange(n - 1, min(2 * n, n * (n - 1) // 2) + 1)
        k = rng.randrange(1, 13)
        cases.append((fam, n, m, 1000 + i, k))
    return cases


def corpus_small():
    """500 seeded connected instances with n <= 12."""
    families = ("random-gnm", "tree-plus", "star-cluster")
    cases = []
    for i in range(500):
        rng = random.Random(2000 + i)
        fam = families[i % 3]
        n = rng.randrange(3, 13)
        if fam == "star-cluster":
            m = None
        else:
            m = rng.randrange(n - 1, min(2 * n, n * (n - 1) // 2) + 1)
        cases.append((fam, n, m, 2000 + i))
    return cases


@pytest.fixture(scope="module")
def large_runs():
    """Kernelize every large-corpus instance once; reused by criteria 1, 5, 8."""
    t0 = time.perf_counter()
    runs = []
    for fam, n, m, seed, k in corpus_large():
        g = generate(fam, n, m=m, seed=seed)
        runs.append((g, k, kernelize(g, k)))
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def small_runs():
    """Decide every small-corpus instance at every k; reused by criteria 2, 5."""
    t0 = time.perf_counter()
    decisions = []
    traces = []
    for fam, n, m, seed in corpus_small():
        g = generate(fam, n, m=m, seed=seed)
        for k in range(0, g.n + 1):
            yes, witness = decide_pist(g, k)
            exact = opt_internal(g, k) is not None
            decisions.append((g, k, exact, yes, witness))
            if 0 < k <= g.n - 2:
                res = kernelize(g, k)
                if res.trace:
                    traces.append((g, res.trace))
    return {
        "decisions": decisions,
        "traces": traces,
        "elapsed": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_kernel_size(large_runs):
    with scorecard(1, "3k-vertex kernel bound"):
        kernels = 0
        for g, k, res in large_runs["runs"]:
            if res.outcome != "kernel":
                continue
            kernels += 1
            assert res.graph.n <= 3 * k
            if res.k_prime >= 1:
                assert res.graph.n <= 3 * res.k_prime
        assert kernels > 0
        assert large_runs["elapsed"] < 60


def test_criterion_2_kernel_equivalence(small_runs):
    with scorecard(2, "kernelization preserves the answer"):
        for g, k, exact, yes, witness in small_runs["decisions"]:
            assert yes == exact
            if yes:
                assert witness.vertices == frozenset(range(g.n))
                assert witness.edges <= g.edges
                assert internal_count(witness) >= k
        assert small_runs["elapsed"] < 300


def test_criterion_3_hypertree_iff_partition_connected():
    with scorecard(3, "hypertree iff partition-connected"):
        rng = random.Random(3003)
        negatives = 0
        for _ in range(300):
            n = rng.randrange(1, 6)
            m = rng.randrange(0, 6)
            sets = [
                frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
                for _ in range(m)
            ]
            h = Hypergraph(n, sets)
            ht = greedy_hypertree(h)
            bad_partition = brute_has_deficient_partition(n, sets)
            if ht is not None:
                assert bad_partition is None
                assert len(ht) == n - 1
                assert brute_strong_hall([h.hyperedges[eid] for eid in ht])
            else:
                negatives += 1
                assert bad_partition is not None
                p = deficient_partition(h)
                assert p is not None
                assert len(border(h, p)) <= len(p) - 2
        assert negatives > 0


def test_criterion_4_expansion_lemma():
    with scorecard(4, "2-expansion pairs verify"):
        rng = random.Random(4004)
        for _ in range(300):
            px = rng.randrange(1, 7)
            py = rng.randrange(2 * px, 15)
            ys = range(px, px + py)
            edges = []
            for y in ys:
                for x in rng.sample(range(px), rng.randrange(1, px + 1)):
                    edges.append((x, y))
            g = Graph(px + py, edges)
            pair = find_expansion_2(g, range(px), ys)
            assert verify_expansion(g, range(px), ys, pair.x_prime, pair.y_prime, 2)


def _check_trace_certificates(g, trace):
    """Validate every (S, L) certificate along a reduction trace."""
    cur = g
    for cert in trace:
        validate_certificate(cur, cert)
        if len(cert.s) <= 12:
            s_sorted = sorted(cert.s)
            for r in range(1, len(s_sorted) + 1):
                for z in itertools.combinations(s_sorted, r):
                    seen = set()
                    for v in z:
                        seen.update(w for w in cur.neighbors(v) if w in cert.l)
                    assert len(seen) >= 2 * r
        cur = replay_reduction(cur, cert)


def test_criterion_5_certificate_suite(large_runs, small_runs):
    with scorecard(5, "every (S, L) certificate is valid"):
        checked = 0
        for g, _k, res in large_runs["runs"]:
            if res.trace:
                _check_trace_certificates(g, res.trace)
                checked += len(res.trace)
        for g, trace in small_runs["traces"]:
            _check_trace_certificates(g, trace)
            checked += len(trace)
        assert checked > 0


def test_criterion_6_rearrange_monotone():
    with scorecard(6, "tree rearrangement never loses internals"):
        rng = random.Random(6006)
        done = 0
        while done < 100:
            g = cluster_graph(rng, 10)
            ind = frozenset(range(max(1, g.n // 4), g.n))
            if 3 * len(ind) < 2 * g.n:
                continue
            cert = find_sl(g, ind)
            t = random_spanning_tree(g, rng)
            out = rearrange_tree(g, t, cert)
            assert internal_count(out) >= internal_count(t)
            assert all(out.degree(v) >= 2 for v in cert.s)
            assert internal_count(out, cert.l) == len(cert.s) - 1
            done += 1


def test_criterion_7_hamiltonian_boundary():
    with scorecard(7, "k = n-2 matches Hamiltonian paths"):
        rng = random.Random(7007)
        for i in range(200):
            n = rng.randrange(2, 9)
            m = rng.randrange(n - 1, min(2 * n, n * (n - 1) // 2) + 1)
            g = generate("tree-plus", n, m=m, seed=7000 + i)
            yes, _ = decide_pist(g, n - 2)
            assert yes == brute_hamiltonian_path(g)


def test_criterion_8_determinism(large_runs):
    with scorecard(8, "reruns are byte-identical"):
        for (fam, n, m, seed, k), (g, _k, first) in zip(
            corpus_large(), large_runs["runs"]
        ):
            g2 = generate(fam, n, m=m, seed=seed)
            assert g2 == g
            again = kernelize(g2, k)
            assert trace_to_json(again, k) == trace_to_json(first, k)
            if first.outcome == "kernel":
                assert serialize_edge_list(again.graph) == serialize_edge_list(
                    first.graph
                )


def test_criterion_9_desk_scale_performance():
    with scorecard(9, "n = 2000 kernelizes fast"):
        g = generate("random-gnm", 2000, m=4000, seed=909)
        t0 = time.perf_counter()
        res = kernelize(g, 20)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120
        if res.outcome == "solved":
            assert internal_count(res.witness) >= 20
        else:
            assert res.outcome == "kernel" and res.graph.n <= 60
