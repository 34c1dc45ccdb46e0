"""Directed graphs on vertices 0..n-1 and their neighbor-averaging weights.

The edge convention throughout the package: ``(i, j)`` is an edge when agent j
draws weight from agent i, i.e. for a weight matrix W the graph has edge
``(i, j)`` exactly when ``W[j, i] > 0``.  Information therefore flows along
edges, and a *root* is a vertex whose value can influence every other vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _checks
from .errors import DimensionMismatch, InvalidDistribution, NoInNeighbor

__all__ = [
    "DirectedGraph",
    "averaging_weights",
    "is_rooted",
    "roots",
    "strongly_connected_components",
    "closed_components",
    "component_period",
    "bfs_levels",
]

# patterns one stacked test converts to float32 at once, so its temporaries
# stay near _STACK_SLICE * n^2 * 8 bytes however many patterns a layer holds
_STACK_SLICE = 2**10


def _vertex(v, n: int, what: str) -> int:
    """``int(v)`` of an integer in 0..n-1, else ``DimensionMismatch``."""
    try:
        if _checks.count(v, what, 0) < n:
            return int(v)
    except InvalidDistribution:
        pass
    raise DimensionMismatch(f"{what} {v!r} is not a vertex of a {n}-vertex graph")


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph with vertex set {0, ..., n-1} and an edge set of
    ordered pairs; ``adj`` is its read-only boolean adjacency matrix."""

    n: int
    edges: frozenset = field(default_factory=frozenset)
    adj: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges",
                           frozenset(_checks.items(self.edges, "edges (i, j)", 2)))
        if _checks.count(self.n, "vertex count") < 0:
            raise DimensionMismatch("vertex count must be nonnegative")
        adj = np.zeros((self.n, self.n), dtype=bool)
        for (i, j) in self.edges:
            adj[_vertex(i, self.n, "edge endpoint"),
                _vertex(j, self.n, "edge endpoint")] = True
        adj.flags.writeable = False
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_adjacency(cls, adj) -> "DirectedGraph":
        adj = np.asarray(adj, dtype=bool)
        ii, jj = np.nonzero(adj)
        return cls(adj.shape[0], frozenset(zip(ii.tolist(), jj.tolist())))

    def in_neighbors(self, j: int) -> list:
        return np.nonzero(self.adj[:, j])[0].tolist()


def _in_weights(graph: DirectedGraph):
    """The float in-adjacency (row i marks i's in-neighbors) and the (n, 1)
    in-degree column.  Raises ``NoInNeighbor`` when some vertex has none."""
    incoming = graph.adj.T.astype(float)  # incoming[i, j]: j feeds i
    degrees = incoming.sum(axis=1)[:, None]
    if not degrees.all():  # argmin is then the first vertex without one
        raise NoInNeighbor(f"vertex {degrees.argmin()} has no in-neighbor")
    return incoming, degrees


def averaging_weights(graph: DirectedGraph) -> np.ndarray:
    """Row-stochastic neighbor-averaging matrix: row i spreads weight 1/d_i
    over i's d_i in-neighbors.  Raises ``NoInNeighbor`` when some vertex has
    none."""
    incoming, degrees = _in_weights(graph)
    return incoming / degrees


def strongly_connected_components(adj: np.ndarray):
    """Component labels for a boolean adjacency matrix.

    Returns ``(count, labels)`` where labels[v] identifies v's strongly
    connected component.  Tarjan's algorithm (1972) with an explicit work
    stack in place of recursion; components are labelled in the order they
    complete, which is a reverse topological order of the condensation.
    """
    adj = _checks.square(adj)
    n = adj.shape[0]
    succ = [row.nonzero()[0].tolist() for row in adj]
    index = [-1] * n      # discovery order
    low = [0] * n         # smallest index reachable through the DFS subtree
    labels = [-1] * n     # -1 while the vertex is on Tarjan's stack or unseen
    stack, count, seen = [], 0, 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = seen
        seen += 1
        stack.append(root)
        work = [(root, 0)]  # (vertex, position in its successor list)
        while work:
            v, i = work[-1]
            succs = succ[v]
            while i < len(succs):
                w = succs[i]
                i += 1
                if index[w] < 0:
                    work[-1] = (v, i)
                    index[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    work.append((w, 0))
                    break
                if labels[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        labels[w] = count
                        if w == v:
                            break
                    count += 1
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
    return count, np.array(labels, dtype=int)


def _per_slice(test, stack) -> np.ndarray:
    """``test`` of a (k, n, n) boolean stack, run on consecutive slices of
    at most ``_STACK_SLICE`` patterns; one boolean per pattern."""
    stack = np.asarray(stack, dtype=bool)
    out = np.empty(len(stack), dtype=bool)
    for lo in range(0, len(stack), _STACK_SLICE):
        out[lo:lo + _STACK_SLICE] = test(stack[lo:lo + _STACK_SLICE])
    return out


def _closure_is_full(adjs: np.ndarray) -> np.ndarray:
    # I | A closed under ceil(log2 n) squarings reaches along every path of
    # length < n; float32 path counts are exact (at most n < 2**24) and go
    # through BLAS
    n = adjs.shape[-1]
    reach = (adjs | np.eye(n, dtype=bool)).astype(np.float32)
    for _ in range((n - 1).bit_length()):
        reach = (reach @ reach > 0).astype(np.float32)
    return (reach > 0).all(axis=(1, 2)) & (n > 0)


def _stack_is_strongly_connected(adjs) -> np.ndarray:
    """Per adjacency of a (k, n, n) boolean stack: every vertex reaches
    every other, read from the boolean closure of I | A."""
    return _per_slice(_closure_is_full, adjs)


def closed_components(adj: np.ndarray):
    """Indices of components with no edge leaving them.

    Returns ``(closed, labels)``: the list of closed component labels and the
    per-vertex labeling.  A component is closed when every edge from one of
    its vertices stays inside it.
    """
    adj = _checks.square(adj)
    count, labels = strongly_connected_components(adj)
    leaves = np.zeros(count, dtype=bool)
    ii, jj = np.nonzero(adj)
    escaping = labels[ii] != labels[jj]
    np.logical_or.at(leaves, labels[ii[escaping]], True)
    return [c for c in range(count) if not leaves[c]], labels


def bfs_levels(adj: np.ndarray, root: int) -> np.ndarray:
    """BFS distance from ``root`` along edges; unreachable vertices get -1.

    Each level is one boolean frontier: the unlevelled vertices that some
    frontier vertex has an edge to."""
    adj = _checks.square(adj)
    level = np.full(adj.shape[0], -1, dtype=int)
    frontier = np.zeros(adj.shape[0], dtype=bool)
    frontier[root] = True
    d = 0
    while frontier.any():
        level[frontier] = d
        d += 1
        frontier = adj[frontier].any(axis=0) & (level < 0)
    return level


def component_period(adj: np.ndarray, vertices) -> int:
    """Period of a strongly connected vertex set: the gcd of its cycle lengths.

    Computed by BFS level arithmetic inside the component: the gcd of
    ``level[u] + 1 - level[v]`` over all internal edges (u, v).  A single
    vertex without a self-loop has no cycles; its period is defined as 1.
    """
    vertices = sorted(vertices)
    sub = _checks.square(adj)[np.ix_(vertices, vertices)]
    level = bfs_levels(sub, 0)
    ii, jj = np.nonzero(sub)
    return int(np.gcd.reduce(level[ii] + 1 - level[jj])) or 1


def roots(graph: DirectedGraph) -> list:
    """Vertices from which every other vertex can be reached.

    Nonempty exactly when the condensation of the graph has a single source
    component, i.e. a single closed component of the reversed graph; the
    roots are that component's vertices.
    """
    sources, labels = closed_components(graph.adj.T)
    if len(sources) != 1:
        return []
    return [v for v in range(graph.n) if labels[v] == sources[0]]


def is_rooted(graph: DirectedGraph) -> bool:
    """True when some vertex reaches all others."""
    return bool(roots(graph))
