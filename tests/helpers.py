"""Shared generators and independent oracles for the test suite."""

import itertools

import numpy as np

from stochprod.matrices import StochasticMatrix, entries_of, tau


def random_stochastic(rng, n, density=0.6, low=0.05, high=1.0):
    """Random stochastic matrix with a random pattern and weights bounded
    away from zero (entries in [low, high] before row normalization)."""
    mask = rng.random((n, n)) < density
    for i in range(n):
        if not mask[i].any():
            mask[i, rng.integers(n)] = True
    w = np.where(mask, rng.uniform(low, high, (n, n)), 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return StochasticMatrix(w)


def random_pattern_stochastic(rng, mask, low=0.05, high=1.0):
    """Stochastic matrix with exactly the given positivity pattern."""
    mask = np.asarray(mask, dtype=bool)
    assert mask.any(axis=1).all(), "every row needs a positive entry"
    w = np.where(mask, rng.uniform(low, high, mask.shape), 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return StochasticMatrix(w)


def tau_of_high_power(matrix, squarings=40):
    """tau of a huge power of A by repeated squaring, stopping early once the
    value is decisively small (further squarings only amplify roundoff once
    the rows already agree to machine precision)."""
    a = entries_of(matrix)
    for _ in range(squarings):
        t = tau(a)
        if t < 1e-9:
            return t
        a = a @ a
    return tau(a)


def powers_converge_to_rank_one(matrix, squarings=40, tol=1e-6):
    """Independent membership oracle for the sia class: the powers of a
    stochastic matrix approach identical rows iff tau of a huge power is
    tiny (for non-members a row pair with disjoint support persists at every
    power, pinning tau at exactly 1)."""
    return tau_of_high_power(matrix, squarings) < tol


def random_rooted_graph(rng, n, extra_edge_prob=0.25):
    """Random rooted digraph in which every vertex has an in-neighbor.

    Build a random spanning arborescence out of a random root, then sprinkle
    extra edges; finally give in-degree-0 vertices (at most the root) an
    incoming edge, which never breaks rootedness.
    """
    from stochprod.graphs import DirectedGraph

    order = rng.permutation(n)
    edges = set()
    for k in range(1, n):
        parent = order[rng.integers(k)]
        edges.add((int(parent), int(order[k])))
    extra = rng.random((n, n)) < extra_edge_prob
    for i in range(n):
        for j in range(n):
            if i != j and extra[i, j]:
                edges.add((i, j))
    for v in range(n):
        if not any(e[1] == v for e in edges):
            u = int(rng.integers(n - 1))
            u = u if u < v else u + 1
            edges.add((u, v))
    return DirectedGraph(n, frozenset(edges))


def weights_for_graph(rng, graph, low=0.1, high=1.0):
    """Random stochastic matrix whose graph (edge (i, j) iff W[j, i] > 0)
    is exactly the given one; requires every vertex to have an in-neighbor."""
    n = graph.n
    w = np.zeros((n, n))
    for (i, j) in graph.edges:
        w[j, i] = rng.uniform(low, high)
    assert (w.sum(axis=1) > 0).all()
    w /= w.sum(axis=1, keepdims=True)
    return StochasticMatrix(w)


def figure_network():
    """The 6-agent rooted periodic benchmark network (0-based edges)."""
    from stochprod.graphs import DirectedGraph

    edges = {(2, 1), (1, 2), (2, 5), (5, 3), (3, 4), (4, 5), (4, 0), (1, 0)}
    return DirectedGraph(6, frozenset(edges))


def uniform_weights(graph):
    """Equal in-neighbor weights for a graph where every vertex has one."""
    n = graph.n
    w = np.zeros((n, n))
    for (i, j) in graph.edges:
        w[j, i] = 1.0
    w /= w.sum(axis=1, keepdims=True)
    return StochasticMatrix(w)


def positive_words(first, step, h):
    """Brute-force word law: every length-h index word of positive
    probability, with that probability, found by trying all m**h words.
    ``first`` is the law of the first index and ``step(a)`` the law of the
    index that follows a."""
    first = np.asarray(first, dtype=float)
    for word in itertools.product(range(first.size), repeat=h):
        p = first[word[0]]
        for a, b in zip(word, word[1:]):
            p *= step(a)[b]
        if p > 0:
            yield word, p


def window_words(model, start, h):
    """Brute-force law of the h indices at positions start+1 .. start+h."""
    from stochprod.sequences import ScriptedModel

    if isinstance(model, ScriptedModel):
        return [(model.scripted_word(start, h), 1.0)]
    return list(positive_words(model.start_distribution(start),
                               model.step_distribution, h))
