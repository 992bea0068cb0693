"""Benchmark of the mist-kernel library: one workload per run.

    python3 bench/run.py --workload rule3-star --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  One
process, one thread, closed loop: each operation starts after the previous
one ends.  A run does a fixed number of operations, round(rate * --seconds)
with the workload's rate from workloads.py, so it measures about --seconds
on the seed library and every version of the code runs the same instances
for the same seed.  Operations are timed one by one; each output is
checked outside the timed region.  With --trace 0 the last stdout line is
a JSON object with the end-to-end metrics; with --trace 1 the library's
layer functions are wrapped with timers (see tracing.py) and the line has
the per-layer metrics instead.  A human-readable report goes to stderr.

Times are the process's CPU time (time.process_time).  The library is
single-threaded and computes in memory, so on an idle machine this equals
wall time; on a shared machine wall time also carries the time other
tenants hold the CPU, which moved repeated runs by 10-15%.  A run fails if
an operation starts child processes, whose CPU time this clock misses.

The workload fingerprint (outcomes, reductions, |S|, |L|, and in traced
runs the descent and oracle call counts, over the first operations) is
kept under .bench_state/ per workload, seed and source digest; a later run
of the same code and seed must reproduce it exactly.  The untraced run's
latencies kept there are compared with a traced run's, to report the
tracing overhead next to the wrappers' own calibrated cost.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, process_time

from tracing import Tracer
from workloads import (
    WORKLOADS, build_pool, check_op, load_answer_key, op_count, op_facts, run_op,
    warmup_instance,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".bench_state")
# Input building is timed this many times and the median kept: one build
# takes 0.07-0.2 s, and single builds on a shared VM fall into a fast and a
# slow mode about a third apart.
SETUP_REPEATS = 15
OP_TIMEOUT_S = 60.0
# Safety cap: stop taking new operations after this much wall time, so a
# run of slow code still ends within three minutes.
WALL_LIMIT_S = 100.0


class OpTimeout(Exception):
    """An operation ran past OP_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S:.0f} s")


@dataclass
class Loop:
    """What the closed loop measured and saw."""

    latencies: list = field(default_factory=list)  # seconds; failures count as the timeout
    facts: list = field(default_factory=list)  # per operation, for the fingerprint
    verdicts: Counter = field(default_factory=Counter)  # "ok" / "unchecked"
    failures: Counter = field(default_factory=Counter)  # failure class -> count
    measured: float = 0.0
    wall: float = 0.0
    capped: bool = False  # the wall-time cap stopped the run early

    @property
    def ok(self) -> int:
        return len(self.latencies) - sum(self.failures.values())


def import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mistkernel", "__init__.py")):
        sys.exit("bench: src/mistkernel is missing; run from a checkout of the repository")
    sys.path.insert(0, src)
    import mistkernel
    import mistkernel.fileformats
    import mistkernel.generate
    import mistkernel.graph
    import mistkernel.kernelizer
    import mistkernel.oracle

    if not os.path.abspath(mistkernel.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported mistkernel from {mistkernel.__file__}, not from {src}")
    return argparse.Namespace(
        fileformats=mistkernel.fileformats, generate=mistkernel.generate,
        graph=mistkernel.graph, kernelizer=mistkernel.kernelizer,
        oracle=mistkernel.oracle)


def failure_class(lib, exc: Exception) -> str:
    if isinstance(exc, OpTimeout):
        return "timeout"
    if isinstance(exc, lib.graph.PreconditionError):
        return "precondition"
    if isinstance(exc, lib.graph.InvariantError):
        return "invariant"
    if isinstance(exc, RecursionError):
        return "recursion"
    return type(exc).__name__


def _children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


def closed_loop(lib, w, pool, key, ops: int, tracer) -> Loop:
    loop = Loop()
    wall0 = perf_counter()
    for i in range(ops):
        if perf_counter() - wall0 > WALL_LIMIT_S:
            loop.capped = True
            break
        inst = pool[i % len(pool)]
        if tracer:
            tracer.op = i
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        start = process_time()
        try:
            out = run_op(lib, w, inst)
            dt = process_time() - start
        except Exception as exc:  # every failure is classified; the run goes on
            dt = process_time() - start
            out, cls = None, failure_class(lib, exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer:
                tracer.op = None
        loop.measured += dt
        if out is None:
            loop.failures[cls] += 1
            loop.latencies.append(max(dt, OP_TIMEOUT_S))  # a failure misses any limit
            loop.facts.append(op_facts(f"error:{cls}", False))
            continue
        loop.latencies.append(dt)
        try:
            verdict, facts = check_op(lib, w, inst, out, key)
        except Exception as exc:  # a malformed output is a wrong output
            verdict, facts = f"checking the output raised {exc!r}", op_facts("unreadable", False)
        loop.facts.append(facts)
        if verdict in ("ok", "unchecked"):
            loop.verdicts[verdict] += 1
        else:
            loop.failures["wrong"] += 1
            print(f"bench: wrong output on instance seed {inst.seed}: {verdict}",
                  file=sys.stderr)
    loop.wall = perf_counter() - wall0
    return loop


def fingerprint_of(w, loop: Loop, tracer) -> dict | None:
    """Deterministic counters over the first w.fingerprint_ops operations."""
    n = w.fingerprint_ops
    if len(loop.facts) < n:
        return None
    head = loop.facts[:n]
    fp = {"ops": n, "outcomes": dict(sorted(Counter(f["outcome"] for f in head).items()))}
    for name in ("yes", "reductions", "s_size", "l_size"):
        fp[name] = sum(f[name] for f in head)
    if tracer:
        fp["descents"] = tracer.calls("hypermatroid.deficient_partition", n)
        fp["greedy_calls"] = tracer.calls("hypermatroid.greedy_hypertree", n)
        fp["oracle_calls"] = tracer.calls("oracle.opt_internal", n)
    return fp


def source_digest() -> str:
    h = hashlib.sha256()
    for d in (os.path.join(ROOT, "src", "mistkernel"), os.path.dirname(os.path.abspath(__file__))):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def sync_state(w, seed: int, traced: bool, fp, loop: Loop):
    """Compare the fingerprint with the one an earlier run of the same code
    and seed stored, and store this run's.  Returns (problems, the untraced
    run's latencies in ms or None)."""
    path = os.path.join(STATE_DIR, f"{w.name}-seed{seed}-{source_digest()}.json")
    state = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    problems = []
    if fp is not None:
        old = state.get("fingerprint", {})
        differ = sorted(k for k in fp.keys() & old.keys() if fp[k] != old[k])
        if differ:
            problems.append(f"fingerprint differs from an earlier run of the same code "
                            f"and seed in {differ}: {old} vs {fp}")
        state["fingerprint"] = {**old, **fp}
    untraced_ms = state.get("untraced_ms")
    if not traced:
        state["untraced_ms"] = [1000 * t for t in loop.latencies]
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    return problems, untraced_ms


def end_to_end_metrics(loop: Loop, setup_s: float) -> dict:
    lat_ms = [1000 * t for t in loop.latencies]
    return {
        "ops_per_s": (loop.ok / loop.measured, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "ok_frac": (loop.ok / len(lat_ms), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(w, loop: Loop, tracer, untraced_ms):
    """Returns (metrics, problems): the span metrics, the |S| and |L|
    fingerprint averages, and the self-test of which spans fire."""
    lat_ms = [1000 * t for t in loop.latencies]
    head = loop.facts[:w.fingerprint_ops]
    metrics = tracer.layer_metrics(len(lat_ms))
    metrics["kernelizer.s_size_per_op"] = (sum(f["s_size"] for f in head) / len(head), "count")
    metrics["kernelizer.l_size_per_op"] = (sum(f["l_size"] for f in head) / len(head), "count")
    metrics["trace.op_ms_mean"] = (statistics.fmean(lat_ms), "ms")
    problems = [f"self-test: span {name} never fired on {w.name}"
                for name in sorted(w.fires) if tracer.calls(name) == 0]
    problems += [f"self-test: span {name} fired on {w.name}, which bypasses it"
                 for name in sorted(w.bypassed) if tracer.calls(name)]
    if untraced_ms:
        n = min(len(untraced_ms), len(lat_ms))
        overhead = 100 * (sum(lat_ms[:n]) / sum(untraced_ms[:n]) - 1)
        print(f"bench: traced operations took {overhead:+.1f}% CPU time against the first "
              f"{n} of the untraced run with this seed (machine drift between the two runs "
              f"included; trace.overhead_ms_per_op is the wrappers' own cost)", file=sys.stderr)
    else:
        print("bench: no untraced run of this code and seed recorded; "
              "tracing overhead not computed", file=sys.stderr)
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mist-kernel benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    err = sys.stderr

    ops = op_count(w, args.seconds)

    # Set-up: import, generation and serialization (median of several), warm-up.
    t0 = process_time()
    lib = import_library()
    key = load_answer_key() if w.name == "exact-small" else {}
    import_s = process_time() - t0
    build_s = []
    for _ in range(SETUP_REPEATS):
        pool = None  # one pool alive at a time, so set-up does not set the peak RSS
        t0 = process_time()
        pool = build_pool(lib, w, args.seed, ops)
        build_s.append(process_time() - t0)
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = process_time()
    run_op(lib, w, warmup_instance(lib, w, args.seed))
    warmup_s = process_time() - t0
    setup_s = import_s + statistics.median(build_s) + warmup_s

    tracer = Tracer(lib) if args.trace else None
    if tracer:
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    children0 = _children_cpu()
    try:
        loop = closed_loop(lib, w, pool, key, ops, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    problems = [f"{loop.failures['wrong']} wrong outputs"] if loop.failures["wrong"] else []
    if _children_cpu() > children0:
        problems.append("operations started child processes; their CPU time is not measured")
    fp = fingerprint_of(w, loop, tracer)
    state_problems, untraced_ms = sync_state(w, args.seed, bool(tracer), fp, loop)
    problems += state_problems
    if tracer:
        metrics, layer_problems = per_layer_metrics(w, loop, tracer, untraced_ms)
        problems += layer_problems
    else:
        metrics = end_to_end_metrics(loop, setup_s)

    print(f"bench: {w.name} seed {args.seed}: {len(loop.latencies)} operations in "
          f"{loop.measured:.2f} s CPU ({loop.wall:.2f} s wall), {loop.verdicts['ok']} checked, "
          f"{loop.verdicts['unchecked']} unchecked, failures {dict(loop.failures) or 'none'}",
          file=err)
    if loop.capped:
        print(f"bench: stopped at the {WALL_LIMIT_S:.0f} s wall-time cap after "
              f"{len(loop.latencies)} of {ops} operations", file=err)
    print(f"bench: peak RSS {setup_rss_mb:.1f} MB after building the inputs, "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB at the end",
          file=err)
    print(f"bench: setup {setup_s:.3f} s (import {import_s:.3f}, build median of "
          f"{SETUP_REPEATS} {statistics.median(build_s):.3f}, warm-up {warmup_s:.3f})", file=err)
    print(f"bench: fingerprint {json.dumps(fp, sort_keys=True)}", file=err)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.4f} {unit}", file=err)
    for p in problems:
        print(f"bench: FAIL {p}", file=err)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(loop.latencies),
        "failed": sum(loop.failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
