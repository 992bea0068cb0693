"""Build the answer key that checks NO answers of the exact-small workload.

For each instance seed in [first, last] the key stores the graph's digest
and "best", the largest internal-vertex count over its spanning trees,
found by enumeration with the definitional enumerator of tests/bruteforce.py
(never with the library's oracle).  The enumeration stops once it reaches
k, so best >= k means the answer is YES, and best < k is the exact optimum
of a NO instance.  An instance whose enumeration neither reaches k nor
ends within LIMIT_S seconds gets no entry; the benchmark reports its NO
answers as unchecked.

    python3 bench/make_answer_key.py FIRST LAST

Run from the repository root.  Entries already in the key are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                os.path.dirname(os.path.abspath(__file__))]

import mistkernel.fileformats  # noqa: E402
import mistkernel.generate  # noqa: E402
from bruteforce import all_spanning_trees  # noqa: E402

import workloads  # noqa: E402

LIMIT_S = 30.0


def best_internal(g, stop_at: int) -> int | None:
    """Largest internal count over all spanning trees, stopping at stop_at;
    None if the enumeration runs past LIMIT_S first."""
    best = -1
    start = perf_counter()
    for count, tree in enumerate(all_spanning_trees(g)):
        deg = [0] * g.n
        for u, v in tree:
            deg[u] += 1
            deg[v] += 1
        best = max(best, sum(1 for d in deg if d >= 2))
        if best >= stop_at:
            break
        if count % 1000 == 0 and perf_counter() - start > LIMIT_S:
            return None
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    args = ap.parse_args()
    doc = {"instances": {}}
    if os.path.exists(workloads.ANSWER_KEY):
        with open(workloads.ANSWER_KEY, encoding="utf-8") as fh:
            doc = json.load(fh)
    lib = argparse.Namespace(generate=mistkernel.generate,
                             fileformats=mistkernel.fileformats)
    for j in range(args.first, args.last + 1):
        if str(j) in doc["instances"]:
            continue
        inst = workloads.make_instance(lib, "exact-small", j)
        best = best_internal(inst.graph, inst.k)
        print(f"seed {j}: k = {inst.k}, best {best}", flush=True)
        if best is not None:
            doc["instances"][str(j)] = {"digest": workloads.graph_digest(inst.graph),
                                        "best": best}
    doc["method"] = ("tests/bruteforce.py all_spanning_trees; enumeration stops "
                     "once best reaches k")
    with open(workloads.ANSWER_KEY, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
