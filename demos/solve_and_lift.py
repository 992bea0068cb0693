"""Solve an instance end to end and inspect the lifted witness.

The decision routine kernelizes first, runs the exact oracle on the
small kernel, and lifts the oracle's tree back through the reduction
trace so the witness lives in the original graph.
"""

from mistkernel import Graph, decide_pist, internal_count, opt_internal

edges = [(0, 1), (0, 3), (0, 4), (0, 6), (0, 7), (0, 8), (0, 9),
         (1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8)]
g = Graph(10, edges)

print(f"instance: {g.n} vertices, {g.m} edges")
best = next(k for k in range(g.n - 2, -1, -1) if opt_internal(g, k) is not None)
print(f"exact optimum (for reference): {best}, the highest target opt_internal answers")

for k in (2, 3, 4):
    yes, witness = decide_pist(g, k)
    if yes:
        internal = sorted(witness.internal())
        print(f"k = {k}: YES, witness has internal vertices {internal}")
        assert witness.edges <= g.edges
        assert internal_count(witness) >= k
    else:
        print(f"k = {k}: NO")
