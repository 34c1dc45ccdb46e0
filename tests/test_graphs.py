import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochprod as sp
from stochprod.errors import DimensionMismatch, MissingSelfArc, NoInNeighbor
from stochprod.graphs import (
    averaging_weights,
    bfs_levels,
    closed_components,
    component_period,
    strongly_connected_components,
)

from helpers import (
    bfs_levels_loop,
    canonical_partition,
    component_period_loop,
    figure_network,
    planted_pattern,
    random_rooted_graph,
    scipy_components,
    uniform_weights,
)


RECT = np.ones((2, 3), dtype=bool)

# id -> (call, its arguments around an adjacency that is not square 2-D)
BAD_SHAPES = {
    "strongly_connected_components-rect": (strongly_connected_components,
                                           (RECT,)),
    "strongly_connected_components-vector": (strongly_connected_components,
                                             ([True, False],)),
    "closed_components-rect": (closed_components, (RECT,)),
    "closed_components-vector": (closed_components, ([True, False],)),
    "bfs_levels-vector": (bfs_levels, ([True, False], 0)),
    "bfs_levels-rect": (bfs_levels, (RECT, 0)),
    "component_period-rect": (component_period, (RECT, [0, 1])),
    "component_period-vector": (component_period, ([True, False], [0])),
}


@pytest.mark.parametrize("fn,args", list(BAD_SHAPES.values()),
                         ids=list(BAD_SHAPES))
def test_adjacency_not_square_rejected(fn, args):
    # once: bfs_levels([True, False], 0) gave [0, 1] and a (2, 3)
    # component_period gave 1; the others escaped as IndexError, ValueError
    with pytest.raises(DimensionMismatch, match="expected a square array"):
        fn(*args)


def complete_graph(n):
    return sp.DirectedGraph(n, frozenset((i, j) for i in range(n) for j in range(n)))


def cycle_graph(n):
    return sp.DirectedGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


class TestConstruction:
    def test_edge_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            sp.DirectedGraph(2, frozenset({(0, 2)}))

    @pytest.mark.parametrize("edge", [(0.5, 1), (True, 1), (1, np.True_),
                                      (1.0, 2)])
    def test_vertex_must_be_an_integer(self, edge):
        # a float is no index, and True would index every row of the
        # adjacency, setting a whole column for one edge; the check is the
        # one agreement's roots and agents pass
        with pytest.raises(DimensionMismatch, match="is not a vertex"):
            sp.DirectedGraph(3, {edge})

    def test_numpy_integer_vertices(self):
        g = sp.DirectedGraph(3, {(np.int64(0), np.int32(2))})
        assert g.adj.sum() == 1 and g.adj[0, 2]

    def test_negative_vertex_count(self):
        with pytest.raises(DimensionMismatch):
            sp.DirectedGraph(-1)

    def test_adjacency_built_once_read_only(self):
        g = sp.DirectedGraph(3, frozenset({(0, 1), (2, 1), (1, 1)}))
        adj = g.adj
        assert adj is g.adj and not adj.flags.writeable
        assert adj.tolist() == [[False, True, False], [False, True, False],
                                [False, True, False]]
        assert g.in_neighbors(1) == [0, 1, 2] and g.in_neighbors(0) == []
        with pytest.raises(NoInNeighbor, match="vertex 0"):
            averaging_weights(g)
        assert averaging_weights(complete_graph(3)).shape == (3, 3)

    def test_adjacency_outside_eq_hash_repr(self):
        g = sp.DirectedGraph(2, frozenset({(0, 1)}))
        same = sp.DirectedGraph(2, [(0, 1)])
        assert g == same and hash(g) == hash(same)
        assert repr(g) == "DirectedGraph(n=2, edges=frozenset({(0, 1)}))"

    def test_graph_of_uses_column_convention(self):
        # edge (i, j) present when W[j, i] > 0: j listens to i
        w = sp.StochasticMatrix([[0, 1], [1, 0]])
        g = sp.graph_of(w)
        assert g.edges == frozenset({(0, 1), (1, 0)})
        w2 = sp.StochasticMatrix([[1, 0], [1, 0]])
        assert sp.graph_of(w2).edges == frozenset({(0, 0), (0, 1)})


class TestAveragingWeights:
    def test_matches_edge_loop_on_rooted_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            g = random_rooted_graph(rng, int(rng.integers(2, 9)))
            assert sp.StochasticMatrix(averaging_weights(g)) == uniform_weights(g)

    def test_zero_diagonal_allowed(self):
        w = averaging_weights(cycle_graph(4))
        assert np.all(np.diag(w) == 0)
        assert sp.pattern_period(w) == 4

    def test_solver_matrix_adds_only_the_self_arc_check(self):
        # with one unknown per agent and no equations every projection is
        # the identity, so the error transition of one graph is its W
        identity = sp.ProjectionSet(tuple(np.eye(1) for _ in range(3)))
        g = complete_graph(3)
        phi, _ = sp.error_transition([g], identity)
        np.testing.assert_array_equal(phi, averaging_weights(g))
        with pytest.raises(MissingSelfArc):
            sp.error_transition([cycle_graph(3)], identity)

    def test_vertex_without_in_neighbor_rejected(self):
        g = sp.DirectedGraph(3, frozenset({(0, 1), (1, 0), (2, 0)}))
        with pytest.raises(NoInNeighbor, match="vertex 2"):
            averaging_weights(g)


class TestRootedness:
    def test_complete_graph(self):
        g = complete_graph(4)
        assert sp.is_rooted(g)
        assert strongly_connected_components(g.adj)[0] == 1
        assert sp.roots(g) == [0, 1, 2, 3]

    def test_figure_network_rooted(self):
        g = figure_network()
        assert sp.is_rooted(g)
        # the source class {1, 2} (the mutually-listening pair) roots it
        assert 2 in sp.roots(g)
        assert strongly_connected_components(g.adj)[0] > 1

    def test_two_isolated_blocks_not_rooted(self):
        g = sp.DirectedGraph(4, frozenset({(0, 1), (1, 0), (2, 3), (3, 2)}))
        assert not sp.is_rooted(g)
        assert sp.roots(g) == []

    def test_roots_reach_every_vertex(self):
        # oracle: v is a root exactly when BFS from v reaches every vertex
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(0, 8))
            g = sp.DirectedGraph.from_adjacency(rng.random((n, n)) < rng.random())
            expected = [v for v in range(n)
                        if (bfs_levels(g.adj, v) >= 0).all()]
            assert sp.roots(g) == expected

    def test_random_rooted_generator(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = random_rooted_graph(rng, int(rng.integers(2, 9)))
            assert sp.is_rooted(g)
            assert all(g.in_neighbors(v) for v in range(g.n))


class TestInternals:
    def test_bfs_levels(self):
        g = figure_network()
        dist = bfs_levels(g.adj, 2)
        assert dist.tolist() == [2, 1, 0, 2, 3, 1]

    def test_closed_components(self):
        mask = np.array([[1, 0, 0, 0],
                         [1, 1, 0, 0],
                         [0, 0, 0, 1],
                         [0, 0, 1, 0]], dtype=bool)
        closed, labels = closed_components(mask)
        assert len(closed) == 2  # {0} and the 2-cycle {2, 3}

    def test_component_period(self):
        assert component_period(cycle_graph(4).adj, range(4)) == 4
        # 6-cycle plus a shortcut 0 -> 3 adds a 4-cycle: gcd(6, 4) = 2
        with_chord = cycle_graph(6).adj.copy()
        with_chord[0, 3] = True
        assert component_period(with_chord, range(6)) == 2
        # and a shortcut 0 -> 2 adds a 5-cycle: gcd(6, 5) = 1
        aperiodic = cycle_graph(6).adj.copy()
        aperiodic[0, 2] = True
        assert component_period(aperiodic, range(6)) == 1
        self_loop = np.array([[1]], dtype=bool)
        assert component_period(self_loop, [0]) == 1


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 12),
       st.sampled_from(["random", "cycles", "reducible", "sparse"]),
       st.booleans(), st.integers(0, 10**6))
@example(0, "random", False, 0)
def test_tarjan_matches_scipy_components(n, kind, zero_diag, seed):
    # same partition as scipy's csgraph up to relabelling, labels 0..count-1
    # in reverse topological order of the condensation
    rng = np.random.default_rng(seed)
    if kind == "sparse" or n == 0:  # empty rows and isolated vertices too
        adj = rng.random((n, n)) < rng.uniform(0.0, 0.3)
    else:
        adj = planted_pattern(rng, n, kind, zero_diagonal=zero_diag)
    count, labels = strongly_connected_components(adj)
    ref_count, ref_labels = scipy_components(adj)
    assert count == ref_count
    assert canonical_partition(labels) == canonical_partition(ref_labels)
    assert sorted(set(labels.tolist())) == list(range(count))
    ii, jj = np.nonzero(adj)
    assert np.all(labels[ii] >= labels[jj])


def test_tarjan_needs_no_recursion_depth():
    # a 3000-vertex path and cycle: far deeper than Python's recursion limit
    path = np.eye(3000, k=1, dtype=bool)
    count, labels = strongly_connected_components(path)
    assert count == 3000 and labels.tolist() == list(range(2999, -1, -1))
    cycle = path.copy()
    cycle[-1, 0] = True
    assert strongly_connected_components(cycle)[0] == 1


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 12),
       st.sampled_from(["random", "cycles", "reducible", "sparse"]),
       st.sampled_from(["kept", "none", "all"]), st.integers(0, 10**6))
@example(1, "sparse", "none", 0)
@example(1, "sparse", "all", 0)
def test_array_traversals_match_the_loops(n, kind, self_loops, seed):
    # the frontier-mask BFS and the one-gcd period against the former
    # per-vertex and per-edge loops: from every root, on every component and
    # on the whole vertex set, with empty rows and unreachable vertices
    # (sparse), planted cycles (cycles, reducible) and self-loops
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        adj = rng.random((n, n)) < rng.uniform(0.0, 0.3)
    else:
        adj = planted_pattern(rng, n, kind)
    if self_loops != "kept":
        np.fill_diagonal(adj, self_loops == "all")
    for root in range(n):
        assert bfs_levels(adj, root).tolist() == bfs_levels_loop(adj, root).tolist()
    count, labels = strongly_connected_components(adj)
    vertex_sets = [np.nonzero(labels == c)[0] for c in range(count)] + [range(n)]
    for vertices in vertex_sets:
        period = component_period(adj, vertices)
        assert type(period) is int and period >= 1
        assert period == component_period_loop(adj, vertices)


@pytest.mark.parametrize("block", [1, 3, 1024])
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 50), st.integers(0, 7),
       st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), st.integers(0, 10**6))
@example(1, 0, 0.5, 0)
def test_stacked_connectivity_matches_tarjan(block, k, n, density, seed):
    # the closure of I | A against Tarjan's component count, on random
    # stacks, the all-false and all-true ones (density 0 and 1) and the
    # empty graph; blocks of 1 and 3 cut the stack at every boundary
    adjs = np.random.default_rng(seed).random((k, n, n)) < density
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp.graphs, "_STACK_SLICE", block)
        got = sp.graphs._stack_is_strongly_connected(adjs)
    assert got.dtype == bool and got.shape == (k,)
    assert got.tolist() == [strongly_connected_components(a)[0] == 1
                            for a in adjs]
