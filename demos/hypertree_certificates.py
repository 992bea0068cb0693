"""Hypertrees and their negative certificates.

A hypergraph contains a hypertree exactly when every partition of its
vertices is crossed by enough hyperedges.  This script shows both sides:
a hypertree, whose certificate is one pair of vertices per hyperedge that
together form an ordinary spanning tree, and a deficient partition
certifying that no hypertree exists.
"""

from mistkernel import (
    Hypergraph,
    border,
    deficient_partition,
    greedy_hypertree,
    shrink_to_tree,
)

print("--- positive side ---")
h = Hypergraph(4, [{0, 1, 2}, {1, 2, 3}, {0, 3}])
pairs = greedy_hypertree(h)
print(f"hyperedges: {[sorted(e) for e in h.hyperedges]}")
print(f"greedy hypertree picks edge ids {sorted(pairs)}")

mapping = shrink_to_tree(h, pairs)
print("each hyperedge shrinks to the single pair the greedy chose for it:")
for eid, pair in mapping.items():
    print(f"  edge {eid}: {sorted(h.hyperedges[eid])} -> {pair}")
print(f"the pairs form a spanning tree: {sorted(mapping.values())}")

print("\n--- negative side ---")
h = Hypergraph(4, [{0, 1}, {0, 1}, {2, 3}])
print(f"hyperedges: {[sorted(e) for e in h.hyperedges]}")
print(f"greedy hypertree: {greedy_hypertree(h)}")

p = deficient_partition(h)
print(f"deficient partition: {[sorted(part) for part in p.parts]}")
crossing = border(h, p)
print(f"only {len(crossing)} hyperedge(s) cross it, "
      f"but {len(p) - 1} would be needed")
