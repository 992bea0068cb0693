"""Finding a 2-expansion pair between two vertex sets of a graph.

Side Y is at least twice as large as side X and every Y-vertex has a
neighbor in X.  The lemma promises subsets X' and Y' such that N(Y') is
exactly X' and every Z inside X' sees at least 2|Z| vertices of Y'.  Some
of X may have to be discarded along the way; the demo picks an instance
where that actually happens.  The answer comes with its certificate: two
private Y'-neighbors (mates) for every X'-vertex, which by Hall's theorem
is the same condition.
"""

from mistkernel import Graph, find_expansion_2

# X = {0, 1, 2}, Y = {3, ..., 11}.  Vertex 2 only reaches one Y-vertex,
# so it can never expand by a factor of two and must be dropped.
edges = [
    (0, 3), (0, 4), (0, 5), (0, 6),
    (1, 6), (1, 7), (1, 8), (1, 9),
    (2, 10),
    (0, 10), (0, 11), (1, 11),
]
g = Graph(12, edges)
x, y = range(3), range(3, 12)

pair = find_expansion_2(g, x, y)
print(f"X' = {sorted(pair.x_prime)}")
print(f"Y' = {sorted(pair.y_prime)}")
print(f"discarded from X: {sorted(set(x) - pair.x_prime)}")

print("certificate: two private Y'-neighbors per X'-vertex")
for v, (a, b) in sorted(pair.mates.items()):
    print(f"  {v}: {a}, {b}")
mates = [w for m in pair.mates.values() for w in m]
ok = len(set(mates)) == 2 * len(pair.x_prime) and all(
    g.has_edge(v, w) for v, m in pair.mates.items() for w in m
)
print(f"mates are distinct edges of the graph: {ok}")
