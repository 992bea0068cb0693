"""The three benchmark workloads: how each builds its inputs, what one
operation is, and how its output is checked.

Every instance is a pure function of its own seed j, so the run with base
seed b uses instances b, b+1, b+2, ... and runs with nearby base seeds
share most of their inputs.  A run does a fixed number of operations,
round(rate * seconds), whatever the speed of the code, so two commits run
on the same seed run exactly the same instances.  Compare runs on the same
or nearby seeds: with disjoint instance sets, the heavy-tailed exact-small
operation times (1 ms to 4 s) move its throughput between runs by more
than its bound (baseline.json, "spaced_seeds").  Operations call the library through module
attributes (``lib.kernelizer.kernelize``), the names the ``mist`` commands
resolve, so the timing wrappers of a traced run see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ANSWER_KEY = os.path.join(HERE, "exact_small_key.json")

EXACT_FAMILIES = ("tree-plus", "random-gnm", "star-cluster")


@dataclass(frozen=True)
class Instance:
    seed: int
    graph: object  # the generated Graph; the checks use it, the operation never does
    text: str  # edge-list document the operation parses
    k: int


@dataclass(frozen=True)
class Workload:
    name: str
    # Operations per second of the seed library.  A run of S seconds does
    # round(rate * S) operations, which takes about S seconds at baseline.
    rate: float
    cycle: int  # cycle through this many graphs; 0: every graph is run once
    fingerprint_ops: int  # the fingerprint covers the first this many operations
    fires: frozenset  # spans a traced run must see
    bypassed: frozenset  # spans a traced run must not see


def graph_digest(g) -> str:
    """Short content hash of a graph, to tie answer-key entries to graphs."""
    text = f"{g.n};" + ";".join(f"{u},{v}" for u, v in sorted(g.edges))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def exact_small_params(j: int):
    """(family, n, m, k) of exact-small instance j, drawn from Random(j)."""
    rng = random.Random(j)
    family = EXACT_FAMILIES[j % 3]
    n = rng.choice((16, 17, 18))
    m = rng.randint(n, (3 * n) // 2) if family != "star-cluster" else None
    k = rng.randint(n // 2, n - 2)
    return family, n, m, k


def make_instance(lib, workload: str, j: int) -> Instance:
    if workload == "rule3-star":
        n = 150
        g = lib.generate.generate("star-cluster", n, seed=j)
        k = (n - 1) // 3
    elif workload == "exact-small":
        family, n, m, k = exact_small_params(j)
        g = lib.generate.generate(family, n, m, seed=j)
    elif workload == "dfs-large":
        n = 10000
        g = lib.generate.generate("tree-plus", n, 12000, seed=j)
        k = n // 4
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Instance(j, g, lib.fileformats.serialize_edge_list(g), k)


def op_count(w: Workload, seconds: float) -> int:
    """How many operations a run of `seconds` does."""
    return max(w.fingerprint_ops, round(w.rate * seconds))


def build_pool(lib, w: Workload, base: int, ops: int) -> list:
    """The run's instances: seeds base, base+1, ...  Without a cycle there
    is one graph per operation, and a graph equal to an earlier one is
    skipped, so no graph is decided twice."""
    pool, seen = [], set()
    j = base
    while len(pool) < (w.cycle or ops):
        inst = make_instance(lib, w.name, j)
        j += 1
        if not w.cycle:
            key = (inst.graph.n, inst.graph.edges)
            if key in seen:
                continue
            seen.add(key)
        pool.append(inst)
    return pool


def warmup_instance(lib, w: Workload, base: int) -> Instance:
    """The input of one untimed operation before the loop.

    It is small, so that its one timing adds little noise to set-up time,
    and its cost hardly depends on the seed: rule3-star warms up on 30
    vertices because its 150-vertex graphs take from 30 ms to seconds.  For
    exact-small it has 12 vertices, outside the pool's 16-18, so the oracle
    never sees a pool graph before its timed call.
    """
    if w.name == "rule3-star":
        g, k = lib.generate.generate("star-cluster", 30, seed=base), 9
    elif w.name == "exact-small":
        g, k = lib.generate.generate("tree-plus", 12, 15, seed=base), 9
    else:
        g, k = lib.generate.generate("tree-plus", 1000, 1200, seed=base), 250
    return Instance(base, g, lib.fileformats.serialize_edge_list(g), k)


def run_op(lib, w: Workload, inst: Instance):
    """One operation: the work of `mist kernelize --out-trace` or `mist solve`."""
    g = lib.fileformats.parse_edge_list(inst.text)
    if w.name == "rule3-star":
        res = lib.kernelizer.kernelize(g, inst.k)
        return res, lib.fileformats.trace_to_json(res, inst.k)
    return lib.oracle.decide_pist(g, inst.k)


# ---------------------------------------------------------------------------
# Output checks (run outside the timed region)


def witness_problem(g, k: int, tree) -> str | None:
    """Why `tree` is not a spanning tree of g with >= k internal vertices,
    or None.  Checked here from the definition, not by the library."""
    if tree is None:
        return "YES answer without a witness"
    if set(tree.vertices) != set(range(g.n)):
        return "witness does not span the input"
    edges = [tuple(sorted(e)) for e in tree.edges]
    if len(edges) != g.n - 1 or len(set(edges)) != len(edges):
        return "witness does not have n - 1 distinct edges"
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deg = [0] * g.n
    for u, v in edges:
        if (u, v) not in g.edges:
            return f"witness edge ({u}, {v}) is not an input edge"
        ru, rv = find(u), find(v)
        if ru == rv:
            return "witness has a cycle"
        parent[ru] = rv
        deg[u] += 1
        deg[v] += 1
    internal = sum(1 for d in deg if d >= 2)
    if internal < k:
        return f"witness has {internal} internal vertices, target {k}"
    return None


def load_answer_key() -> dict:
    """exact-small answer key: instance seed -> {"digest", "best"}; see
    make_answer_key.py."""
    with open(ANSWER_KEY, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def op_facts(outcome: str, yes: bool, trace=()) -> dict:
    """What one operation adds to the workload fingerprint."""
    return {"outcome": outcome, "yes": yes, "reductions": len(trace),
            "s_size": sum(len(r.s) for r in trace),
            "l_size": sum(len(r.l) for r in trace)}


def check_op(lib, w: Workload, inst: Instance, out, key: dict):
    """Returns (verdict, facts).  verdict is "ok", "unchecked" or a message
    naming what is wrong; facts feed the workload fingerprint."""
    if w.name == "rule3-star":
        res, text = out
        facts = op_facts(res.outcome, res.outcome in ("solved", "trivial_yes"), res.trace)
        return _check_kernelize(lib, inst, res, text), facts
    yes, witness = out
    facts = op_facts("yes" if yes else "no", yes)
    if yes:
        return witness_problem(inst.graph, inst.k, witness) or "ok", facts
    entry = key.get(str(inst.seed)) if w.name == "exact-small" else None
    if entry is None or entry["digest"] != graph_digest(inst.graph):
        return "unchecked", facts
    if entry["best"] >= inst.k:
        return f"answered NO, but the key has a tree with {entry['best']} internal", facts
    return "ok", facts


def _check_kernelize(lib, inst: Instance, res, text: str) -> str:
    meta, records = lib.fileformats.trace_from_json(text)
    if records != list(res.trace):
        return "trace does not round-trip through JSON"
    if meta["outcome"] != res.outcome or meta["k_prime"] != res.k_prime:
        return "trace header differs from the result"
    cur = inst.graph
    for rec in records:
        try:
            cur = lib.kernelizer.replay_reduction(cur, rec)
        except lib.graph.InvariantError as exc:
            return f"trace does not replay onto the input: {exc}"
    if inst.k - sum(r.delta_k for r in records) != res.k_prime:
        return "k' differs from k minus the recorded reductions"
    if res.outcome in ("solved", "trivial_yes"):
        return witness_problem(inst.graph, inst.k, res.witness) or "ok"
    if res.outcome == "kernel":
        if res.graph.n > 3 * res.k_prime:
            return f"kernel has {res.graph.n} vertices, above 3k' = {3 * res.k_prime}"
        if cur != res.graph:
            return "replayed trace does not give the kernel"
        return "ok"
    return "unchecked"


_RULE3 = frozenset({
    "hypermatroid.deficient_partition", "hypermatroid.greedy_hypertree",
    "hypermatroid.shrink_to_tree", "expansion.find_expansion_2",
    "kernelizer.find_sl", "kernelizer.validate_certificate",
    "kernelizer.apply_rule3",
})
_ORACLE = frozenset({"oracle.opt_internal", "oracle.hamiltonian_path"})

# Why each workload was chosen is in BENCHMARK.json; the layer shares that
# chose them are in baseline.json.  A span in `fires` must be called during
# a traced run of the workload, one in `bypassed` must not be.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rule3-star", rate=5.4, cycle=0, fingerprint_ops=40,
            fires=_RULE3 | {
                "kernelizer.kernelize", "kernelizer.lift_solution",
                "kernelizer.replay_reduction", "graph.dfs_tree",
                "fileformats.parse_edge_list", "fileformats.trace_to_json"},
            bypassed=_ORACLE | {"oracle.decide_pist"},
        ),
        Workload(
            "exact-small", rate=10.8, cycle=0, fingerprint_ops=60,
            fires=_ORACLE | {
                "oracle.decide_pist", "kernelizer.kernelize",
                "graph.dfs_tree", "fileformats.parse_edge_list"},
            bypassed=_RULE3 | {"fileformats.trace_to_json"},
        ),
        Workload(
            "dfs-large", rate=10.7, cycle=3, fingerprint_ops=6,
            fires=frozenset({
                "oracle.decide_pist", "kernelizer.kernelize",
                "kernelizer.lift_solution", "graph.dfs_tree",
                "fileformats.parse_edge_list"}),
            bypassed=_RULE3 | _ORACLE | {"fileformats.trace_to_json"},
        ),
    )
}
