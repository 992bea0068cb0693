"""Walk through the reduction loop on a graph built from two big stars.

The instance has two adjacent hubs, each carrying eight pendant leaves.
Asking for k = 3 internal vertices triggers the (S, L) reduction twice
before the remaining graph is small enough to stop.
"""

from mistkernel import Graph, kernelize, replay_reduction

edges = [(0, 1)]
edges += [(0, v) for v in range(2, 10)]
edges += [(1, v) for v in range(10, 18)]
g = Graph(18, edges)
k = 3

print(f"input: {g.n} vertices, {g.m} edges, target k = {k}")

result = kernelize(g, k)
print(f"outcome: {result.outcome}")

# each trace entry is the (S, L) certificate; the graph fixes the rest
cur = g
for step, cert in enumerate(result.trace, start=1):
    print(f"\nreduction {step}:")
    print(f"  S = {sorted(cert.s)}")
    print(f"  L = {sorted(cert.l)}")
    print(f"  replaced by v_S, adjacent to N(S) \\ L = "
          f"{sorted(cur.neighborhood(cert.s) - cert.l)}, and a pendant v_L")
    print(f"  target dropped by {cert.delta_k}")
    cur = replay_reduction(cur, cert)

if result.outcome == "kernel":
    print(f"\nkernel: {result.graph.n} vertices, {result.graph.m} edges")
    print(f"adjusted target k' = {result.k_prime}")
    print(f"size bound holds: {result.graph.n} <= 3k' = {3 * result.k_prime}")
