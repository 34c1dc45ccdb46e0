"""Asynchronous agreement over possibly periodic averaging networks.

Synchronous iteration with a periodic weight matrix (zero diagonal) never
settles: the state just rotates.  When agents instead wake up on independent
random clocks and only the awake agents replace their rows of the identity
with their rows of W, the realized update-matrix products pick up strictly
positive columns along *hierarchical* activation orders (root first, then
each BFS level of a spanning tree), and agreement is reached almost surely
exactly when the network is rooted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks, matrices
from . import graphs as graphlib
from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    NotReachable,
    StochprodError,
)
from .graphs import DirectedGraph, _vertex
from .matrices import StochasticMatrix
from .sequences import _trial_seed

__all__ = [
    "BernoulliClocks",
    "PoissonClocks",
    "AgreementTrace",
    "HierarchicalPartition",
    "hierarchical_partition",
    "hierarchical_sequence",
    "hierarchical_product",
    "hierarchical_word_count",
    "simulate_async",
]

EVENT_BLOCK = 1024  # update events drawn at once by ``simulate_async``
EVENT_LIMIT = 10**7  # update events one ``simulate_async`` run may take


@dataclass(frozen=True)
class BernoulliClocks:
    """Each tick, agent i fires independently with probability rates[i].
    Raises ``DimensionMismatch`` when the rates are ragged or a rate is not
    a number (a string, None or a boolean), ``InvalidDistribution`` unless
    each lies in (0, 1]."""

    rates: np.ndarray
    seed: int = 0

    def __post_init__(self):
        _checks.seed(self.seed)
        r = _checks.reals(self.rates, finite=False)
        if not np.all((r > 0) & (r <= 1)):
            raise InvalidDistribution("Bernoulli rates must lie in (0, 1]")
        object.__setattr__(self, "rates", r)

    def activation_probabilities(self):
        return self.rates


@dataclass(frozen=True)
class PoissonClocks:
    """Poisson clocks thinned onto a tick grid of width ``delta``: the
    per-tick firing probability is -expm1(-rate * delta), exact when tiny.
    Raises ``DimensionMismatch`` when the rates are ragged or a rate is not
    a number (a string, None or a boolean), ``InvalidDistribution`` unless
    each is positive and finite."""

    rates: np.ndarray
    seed: int = 0
    delta: float = 1.0

    def __post_init__(self):
        _checks.seed(self.seed)
        r = _checks.reals(self.rates, finite=False)
        if not np.all(np.isfinite(r) & (r > 0)):
            raise InvalidDistribution(
                "Poisson intensities must be positive and finite")
        try:  # a finite real number, not a string, None or a boolean
            d = float(_checks.reals(self.delta, 0, "a number"))
        except StochprodError:
            d = 0.0
        if not d > 0:
            raise InvalidDistribution("tick width must be positive and finite")
        object.__setattr__(self, "rates", r)
        object.__setattr__(self, "delta", d)

    def activation_probabilities(self):
        return -np.expm1(-self.rates * self.delta)


@dataclass(frozen=True)
class AgreementTrace:
    """Spread history of an asynchronous run: a read-only float64 array,
    spreads[k] after event k, with spreads[0] the initial disagreement."""

    spreads: np.ndarray
    final_x: np.ndarray
    seed: int


@dataclass(frozen=True)
class HierarchicalPartition:
    """BFS levels of a spanning tree from a root: level r holds the vertices
    at tree distance r, and each vertex's parent sits one level up."""

    root: int
    levels: tuple
    parent: dict

    @property
    def n(self) -> int:
        return sum(len(level) for level in self.levels)


def hierarchical_partition(graph: DirectedGraph, root: int) -> HierarchicalPartition:
    """Partition the vertices by BFS distance from ``root``.

    Parents are tie-broken to the lowest-index candidate, making the
    spanning tree deterministic.  Raises ``DimensionMismatch`` when the root
    is not a vertex, ``NotReachable`` when it does not reach some vertex.
    """
    root = _vertex(root, graph.n, "root")
    adj = graph.adj
    dist = graphlib.bfs_levels(adj, root)
    missing = np.nonzero(dist < 0)[0]
    if missing.size:
        raise NotReachable(int(missing[0]))
    depth = int(dist.max())
    levels = tuple(
        tuple(int(v) for v in np.nonzero(dist == r)[0]) for r in range(depth + 1))
    parent = {}
    for r in range(1, depth + 1):
        for v in levels[r]:
            candidates = [u for u in levels[r - 1] if adj[u, v]]
            parent[v] = min(candidates)
    return HierarchicalPartition(root=root, levels=levels, parent=parent)


def hierarchical_sequence(partition: HierarchicalPartition) -> tuple:
    """One hierarchical activation order: the levels in sequence, each in
    ascending vertex order (any within-level order works)."""
    return tuple(v for level in partition.levels for v in sorted(level))


def hierarchical_product(W, seq) -> StochasticMatrix:
    """Product of the single-agent update matrices along an activation order
    (first activation applied first): agent a's update matrix is the
    identity with its row a replaced by W's.  For a hierarchical order on a
    rooted network the result has a strictly positive column.  Raises
    ``DimensionMismatch`` when an agent is not a vertex of W's graph."""
    w = matrices.entries_of(W)
    n = w.shape[0]
    updates = []
    for a in seq:
        a = _vertex(a, n, "agent")
        update = np.eye(n)
        update[a] = w[a]
        updates.append(StochasticMatrix(update))
    return matrices.backward_product(updates)


def hierarchical_word_count(partition: HierarchicalPartition) -> int:
    """Number of hierarchical activation words for this partition: the
    levels must appear in order, each in any internal order."""
    count = 1
    for level in partition.levels:
        count *= math.factorial(len(level))
    return count


def _firing_sets(rng, probs, count) -> np.ndarray:
    """``count`` i.i.d. firing sets, a ``(count, n)`` boolean array, from the
    law of the agents that fire in one tick given that at least one does:
    the first is i with probability p_i prod_{j<i} (1 - p_j) / p_any, and
    every agent after it fires independently with its own probability.  The
    cumulative sum is divided by its last entry, p_any, so it ends at exactly
    1, above every uniform draw even for subnormal probabilities, and an
    agent of probability 0 is never picked."""
    n = probs.shape[0]
    survive = np.concatenate(([1.0], np.cumprod(1.0 - probs)[:-1]))
    cum = np.cumsum(probs * survive)
    first = np.searchsorted(cum / cum[-1], rng.random(count), side="right")
    fired = rng.random((count, n)) < probs
    fired &= np.arange(n) > first[:, None]
    fired[np.arange(count), first] = True
    return fired


def simulate_async(W, clocks: BernoulliClocks | PoissonClocks, x0, steps: int,
                   trial: int = 0) -> AgreementTrace:
    """Run ``steps`` asynchronous update events.

    The system is event-indexed: each step is one update event, its firing
    set drawn from the clocks' law given that some agent fires, so empty
    ticks never enter.  Events are drawn ``EVENT_BLOCK`` at a time, always
    the same shape, so a run of k steps is a prefix of a longer one; each
    block's spreads are reduced at once after its events.  All agents
    firing at once apply their rows simultaneously, in one ``np.dot`` of
    their slice of the rows one ``take`` gathers for the next
    ``EVENT_BLOCK`` firing agents by x: the BLAS call of ``w[fired] @ x``
    without the matmul ufunc's dispatch, so the bits are the same (one call
    for several events would not be).  Raises ``InvalidDistribution`` when
    no agent can fire, when ``steps`` is not an integer, is below 0 or over
    ``EVENT_LIMIT``, or when ``trial`` is not an integer of at least 0;
    ``DimensionMismatch`` unless ``x0`` holds one number (not a string, a
    boolean or a list) per agent, and ``NonFiniteEntry`` when one is NaN or
    infinite.
    """
    w = matrices.entries_of(W)
    n = w.shape[0]
    probs = clocks.activation_probabilities()
    if probs.shape != (n,):
        raise InvalidDistribution("one activation probability per agent")
    if not np.any(probs > 0):
        raise InvalidDistribution(
            "no agent can fire: every activation probability is 0")
    steps = _checks.count(steps, "steps", 0)
    seed = _trial_seed(clocks.seed, trial)
    if steps > EVENT_LIMIT:
        raise InvalidDistribution(f"steps must be at most {EVENT_LIMIT}")
    x = np.array(_checks.reals(x0, 1, "a vector x0"))
    if x.size != n:
        raise DimensionMismatch("x0 needs one entry per agent")
    rng = np.random.default_rng(seed)
    spreads = np.empty(steps + 1)
    spreads[0] = matrices._column_spreads(x[None, :, None])[0]
    states = np.empty((EVENT_BLOCK, n))
    for start in range(1, steps + 1, EVENT_BLOCK):
        block = _firing_sets(rng, probs, EVENT_BLOCK)[:steps + 1 - start]
        # event j's agents are agents[ends[j - 1]:ends[j]]
        agents = np.nonzero(block)[1]
        ends = np.count_nonzero(block, 1).cumsum().tolist()
        top = 0
        for j, (lo, hi) in enumerate(zip([0] + ends, ends)):
            if hi > top:  # the rows of the next EVENT_BLOCK agents at once
                base, top = lo, max(hi, lo + EVENT_BLOCK)
                rows = w.take(agents[base:top], 0)
            x[agents[lo:hi]] = np.dot(rows[lo - base:hi - base], x)
            states[j] = x
        s = states[:len(block), :, None]  # each state one (n, 1) column
        spreads[start:start + len(block)] = matrices._column_spreads(s)
    spreads.flags.writeable = False
    return AgreementTrace(
        spreads=spreads,
        final_x=x,
        seed=seed,
    )
