"""Agreement on a periodic network: synchronous updating oscillates forever,
asynchronous updating agrees almost surely.

The 6-agent network here is rooted but periodic (every agent averages only
others' values, never its own).  Updating everyone at once just rotates the
state.  Letting each agent wake up on an independent random clock breaks the
periodicity: along hierarchical wake-up orders (root first, then each level
of a spanning tree) the realized update product gains a strictly positive
column, and the spread collapses.

Run:  python demos/04_async_agreement.py
"""

import numpy as np

import stochprod as sp

# edges (i, j): agent j averages agent i's value
edges = {(2, 1), (1, 2), (2, 5), (5, 3), (3, 4), (4, 5), (4, 0), (1, 0)}
graph = sp.DirectedGraph(6, frozenset(edges))
weights = np.zeros((6, 6))
for (i, j) in edges:
    weights[j, i] = 1.0
weights /= weights.sum(axis=1, keepdims=True)
W = sp.StochasticMatrix(weights)

print("rooted:", sp.is_rooted(graph), " roots:", sp.roots(graph))
print("pattern period of W:", sp.pattern_period(W), "(> 1: periodic)")

# Synchronous baseline: the state of the mutually-averaging pair just swaps.
x = np.arange(6.0)
for k in range(6):
    x = W.entries @ x
print("\nsynchronous spread after 6 rounds:", sp.spread(x), "(no progress)")

# The structural reason asynchrony helps: a hierarchical wake-up order turns
# the product of single-agent updates into a matrix with a positive column.
root = sp.roots(graph)[0]
partition = sp.hierarchical_partition(graph, root)
order = sp.hierarchical_sequence(partition)
print("\nBFS levels from root", root, ":", partition.levels)
print("hierarchical order:", order)
product = sp.hierarchical_product(W, order)
print("product of those single-agent updates is markov:", sp.is_markov(product))
n = graph.n
print("hierarchical words among all length-%d words: %d of %d" %
      (n, sp.hierarchical_word_count(partition), n**n))

# Asynchronous run: independent per-agent clocks, agreement to 1e-12.
clocks = sp.BernoulliClocks(rates=np.full(6, 0.5), seed=3)
trace = sp.simulate_async(W, clocks, np.arange(6.0), steps=600)
print("\nasynchronous spread:")
for k in (0, 25, 50, 100, 200, 400, 600):
    print(f"  after {k:4d} events: {trace.spreads[k]:.3e}")
print("final state:", np.round(trace.final_x, 6))
