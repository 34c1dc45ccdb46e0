import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import stochprod as sp
from stochprod import equations
from stochprod.errors import (
    DimensionMismatch,
    InconsistentBlock,
    InconsistentSystem,
    InvalidDistribution,
    MissingSelfArc,
    NoConnectedWindow,
    NonFiniteEntry,
)
from stochprod.graphs import _in_weights, averaging_weights

from helpers import block_diagonal


def complete_graph(n):
    return sp.DirectedGraph(n, frozenset((i, j) for i in range(n) for j in range(n)))


def self_loops_only(n):
    return sp.DirectedGraph(n, frozenset((i, i) for i in range(n)))


def random_partitioned_system(rng, n_agents, unknowns, rows_per_agent):
    x_star = rng.normal(size=unknowns)
    blocks = []
    for _ in range(n_agents):
        a = rng.normal(size=(rows_per_agent, unknowns))
        blocks.append((a, a @ x_star))
    return sp.PartitionedLinearSystem(blocks=tuple(blocks)), x_star


def random_connected_gmodel(rng, n, seed=0, extra_graphs=2):
    graphs = [complete_graph(n)]
    for _ in range(extra_graphs):
        edges = {(i, i) for i in range(n)}
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.4:
                    edges.add((i, j))
        graphs.append(sp.DirectedGraph(n, frozenset(edges)))
    weights = np.full(len(graphs), 1.0 / len(graphs))
    model = sp.IIDModel(weights=weights, seed=seed)
    return sp.GraphSequenceModel(graph_set=tuple(graphs), model=model, window=1)


HAND_SYSTEM = sp.PartitionedLinearSystem(blocks=(
    (np.array([[1.0, 0.0]]), np.array([1.0])),
    (np.array([[0.0, 1.0]]), np.array([1.0])),
))


def one_block(a, b=None):
    """A one-agent system whose only block is ``a`` (right side ``b``, by
    default zero)."""
    a = np.asarray(a, dtype=float)
    return sp.PartitionedLinearSystem(
        blocks=((a, np.zeros(a.shape[0]) if b is None else b),))


class TestProjections:
    def test_full_rank_block(self):
        p = sp.kernel_projections(one_block(np.eye(3))).projections[0]
        np.testing.assert_allclose(p, np.zeros((3, 3)), atol=1e-14)

    def test_zero_block(self):
        p = sp.kernel_projections(one_block(np.zeros((2, 4)))).projections[0]
        np.testing.assert_allclose(p, np.eye(4))

    def test_row_of_ones(self):
        p = sp.kernel_projections(one_block([[1.0, 1.0]])).projections[0]
        np.testing.assert_allclose(p, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_projection_set_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            a = rng.normal(size=(int(rng.integers(1, 4)), 5))
            p = sp.kernel_projections(one_block(a)).projections[0]
            assert np.abs(p - p.T).max() < 1e-10
            assert np.abs(p @ p - p).max() < 1e-10
            assert np.abs(a @ p).max() < 1e-10

    def test_kernel_projections_of_system(self):
        projs = sp.kernel_projections(HAND_SYSTEM)
        np.testing.assert_allclose(projs.projections[0], np.diag([0.0, 1.0]))
        np.testing.assert_allclose(projs.projections[1], np.diag([1.0, 0.0]))
        assert projs.projections.shape == (2, 2, 2)
        assert not projs.projections.flags.writeable

    @pytest.mark.parametrize("projections", [
        (), (np.eye(2), np.eye(3)), (np.ones((2, 3)),), (np.ones(2),)])
    def test_projection_shapes_must_match(self, projections):
        with pytest.raises(DimensionMismatch):
            sp.ProjectionSet(projections)

    @pytest.mark.parametrize("p", [
        [[0.0, 1.0], [0.0, 0.0]], 2 * np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]])
    def test_not_a_projection_rejected(self, p):
        with pytest.raises(InvalidDistribution):
            sp.ProjectionSet((np.eye(2), p))


class TestInitialEstimates:
    def test_identity_block(self):
        x = sp.initial_state(one_block(np.eye(3), [1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, [[1, 2, 3]])

    def test_zero_block_zero_rhs(self):
        x = sp.initial_state(one_block(np.zeros((1, 3)), [0.0]))
        np.testing.assert_allclose(x, np.zeros((1, 3)))

    def test_min_norm(self):
        x = sp.initial_state(one_block([[1.0, 1.0]], [2.0]))
        np.testing.assert_allclose(x, [[1.0, 1.0]])

    def test_inconsistent_block(self):
        # the stacked system passes its 1e-8 consistency check, but the
        # block's own residual, 5e-10, is over the 1e-10 an estimate allows
        system = one_block([[1.0, 0.0], [1.0, 0.0]], [0.0, 1e-9])
        with pytest.raises(InconsistentBlock):
            sp.initial_state(system)

    def test_inconsistent_system_rejected(self):
        with pytest.raises(InconsistentSystem):
            sp.PartitionedLinearSystem(blocks=(
                (np.array([[1.0, 0.0]]), np.array([0.0])),
                (np.array([[1.0, 0.0]]), np.array([1.0])),
            ))

    @pytest.mark.parametrize("a,b,where", [
        ([[1.0, np.nan]], [1.0], (0, 1)),
        ([[1.0, 0.0], [0.0, np.inf]], [1.0, 1.0], (1, 1)),
        ([[1.0, 0.0]], [np.nan], (0, 0)),
    ])
    def test_non_finite_block_rejected(self, a, b, where):
        with pytest.raises(NonFiniteEntry) as exc:
            sp.PartitionedLinearSystem(blocks=((np.array(a), np.array(b)),))
        assert (exc.value.row, exc.value.col) == where


def kron_factor(graph, projs):
    """Dense reference factor P (W kron I) P of the error system."""
    p = block_diagonal(projs)
    m = projs.projections[0].shape[0]
    return p @ np.kron(averaging_weights(graph), np.eye(m)) @ p


class TestStep:
    def test_consensus_on_solution_is_fixed(self):
        projs = sp.kernel_projections(HAND_SYSTEM)
        x_star = np.array([1.0, 1.0])
        x = np.stack([x_star, x_star])
        nxt = sp.step(x, complete_graph(2), projs)
        np.testing.assert_allclose(nxt, x, atol=1e-14)

    def test_single_agent_self_loop_unchanged(self):
        system = sp.PartitionedLinearSystem(blocks=(
            (np.array([[1.0, 0.0]]), np.array([2.0])),))
        projs = sp.kernel_projections(system)
        x = sp.initial_state(system)
        nxt = sp.step(x, self_loops_only(1), projs)
        np.testing.assert_allclose(nxt, x)

    def test_hand_update(self):
        projs = sp.kernel_projections(HAND_SYSTEM)
        x = sp.initial_state(HAND_SYSTEM)
        np.testing.assert_allclose(x, [[1, 0], [0, 1]])
        nxt = sp.step(x, complete_graph(2), projs)
        np.testing.assert_allclose(nxt, [[1.0, 0.5], [0.5, 1.0]])

    def test_missing_self_arc_rejected(self):
        projs = sp.kernel_projections(HAND_SYSTEM)
        x = sp.initial_state(HAND_SYSTEM)
        bare = sp.DirectedGraph(2, frozenset({(0, 1), (1, 0)}))
        with pytest.raises(MissingSelfArc):
            sp.step(x, bare, projs)

    def test_feasibility_preserved(self):
        rng = np.random.default_rng(42)
        system, _ = random_partitioned_system(rng, 4, 8, 2)
        projs = sp.kernel_projections(system)
        gmodel = random_connected_gmodel(rng, 4, seed=5)
        x = sp.initial_state(system)
        for g in gmodel.sample_graphs(100):
            x = sp.step(x, g, projs)
            for (a, b), xi in zip(system.blocks, x):
                assert np.abs(a @ xi - b).max() < 1e-8

    def test_buffered_step_matches_the_public_step(self):
        # 100 chained steps at a benchmark size: the fresh arrays of
        # ``step`` and the buffers ``run_solver`` hands ``_step``, ping-pong
        # and in place (out is x), give the same bytes at every step
        rng = np.random.default_rng(7)
        system, _ = random_partitioned_system(rng, 5, 20, 6)
        projs = sp.kernel_projections(system)
        gmodel = random_connected_gmodel(rng, 5, seed=3)
        fresh = sp.initial_state(system)
        buffers = np.empty((2,) + fresh.shape)
        scratch = np.empty_like(fresh)
        ping, inplace = fresh, fresh.copy()
        for k, g in enumerate(gmodel.sample_graphs(100)):
            weights = _in_weights(g)
            fresh = sp.step(fresh, g, projs)
            ping = equations._step(ping, *weights, projs.projections,
                                   buffers[k % 2], scratch)
            out = equations._step(inplace, *weights, projs.projections,
                                  inplace, scratch)
            assert out is inplace
            assert fresh.tobytes() == ping.tobytes() == inplace.tobytes()


def float_bits(values):
    return [int(b) for b in np.array(values, dtype=float).view(np.uint64)]


# float64 bit patterns: both zeros, a subnormal of each sign, the smallest
# normal, large values, and (as specials only) infinities and a quiet NaN
FINITE_BITS = float_bits([0.0, -0.0, 5e-324, -2.225073858507201e-308,
                          2.2250738585072014e-308, 1e300,
                          -1.7976931348623157e308, 1 / 3, -7.0])
SPECIAL_BITS = FINITE_BITS + float_bits([np.inf, -np.inf, np.nan])
BIT_POOLS = st.lists(st.one_of(st.integers(0, 2**64 - 1),
                               st.sampled_from(SPECIAL_BITS)),
                     min_size=1, max_size=12)


@given(n=st.integers(1, 6), m=st.integers(1, 6), pool=BIT_POOLS,
       fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=5, m=20, pool=SPECIAL_BITS, fortran=False, seed=0)
@example(n=5, m=20, pool=SPECIAL_BITS, fortran=True, seed=1)
@example(n=10, m=40, pool=FINITE_BITS, fortran=False, seed=2)
@example(n=10, m=40, pool=FINITE_BITS, fortran=True, seed=3)
def test_step_bits_do_not_depend_on_the_degree_shape(n, m, pool, fortran,
                                                     seed):
    # ``step`` hands ``_step`` the (n, 1) in-degree column and
    # ``run_solver`` the column repeated to (n, m): both give the same
    # bytes, with fresh arrays, with buffers laid out like x and in place,
    # for x of any bit patterns in C or F order; a C-ordered x gives the
    # bytes of the documented expression
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < 0.5
    np.fill_diagonal(adj, True)
    graph = sp.DirectedGraph(n, frozenset(zip(*np.nonzero(adj))))
    incoming, column = _in_weights(graph)
    ps = rng.normal(size=(n, m, m))
    x = rng.choice(np.array(pool, dtype=np.uint64), (n, m)).view(float)
    if fortran:
        x = np.asfortranarray(x)
    with np.errstate(all="ignore"):
        got = set()
        for degrees in (column, np.repeat(column, m, 1)):
            got.add(equations._step(x, incoming, degrees, ps).tobytes())
            got.add(equations._step(x, incoming, degrees, ps, np.empty_like(x),
                                    np.empty_like(x)).tobytes())
            inplace = x.copy(order="K")
            equations._step(inplace, incoming, degrees, ps, inplace,
                            np.empty_like(x))
            got.add(inplace.tobytes())
        assert len(got) == 1
        if not fortran:
            want = x - np.einsum("ijk,ik->ij", ps,
                                 column * x - incoming @ x) / column
            assert got == {want.tobytes()}


class TestMixedNorm:
    def test_identity(self):
        assert sp.mixed_matrix_norm(np.eye(6), 2) == pytest.approx(1.0)

    def test_zero(self):
        assert sp.mixed_matrix_norm(np.zeros((6, 6)), 3) == 0.0

    def test_single_diagonal_block(self):
        assert sp.mixed_matrix_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(4.0)

    def test_matches_per_block_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            q = rng.normal(size=(n * m, n * m))
            norms = [[np.linalg.norm(q[i * m:(i + 1) * m, j * m:(j + 1) * m], 2)
                      for j in range(n)] for i in range(n)]
            assert sp.mixed_matrix_norm(q, m) == np.sum(norms, axis=1).max()

    @pytest.mark.parametrize("q, error, match", [
        (np.full((2, 2), np.nan), NonFiniteEntry, "not finite"),
        (np.diag([1.0, np.inf]), NonFiniteEntry, "not finite"),
        ([[1.0, 2.0], [3.0]], DimensionMismatch, "do not form an array"),
        (np.zeros((0, 0)), DimensionMismatch, "empty"),
        (np.eye(2, dtype=bool), DimensionMismatch, "expected numbers"),
        ([["1", "0"], ["0", "1"]], DimensionMismatch, "expected numbers"),
        (np.zeros((2, 3)), DimensionMismatch, "square"),
        (np.zeros(4), DimensionMismatch, "square"),
    ], ids=["nan", "inf", "ragged", "empty", "bool", "text", "oblong", "flat"])
    def test_bad_matrix_rejected(self, q, error, match):
        # once a LinAlgError, raw ValueErrors, or 1.0 for the booleans
        with pytest.raises(error, match=match):
            sp.mixed_matrix_norm(q, 1)

    def test_checks_keep_the_bits(self):
        # integer entries read as floats; a list and an F-ordered array
        # give the bits of the C-ordered float array
        rng = np.random.default_rng(3)
        q = rng.normal(size=(12, 12))
        want = sp.mixed_matrix_norm(q, 4)
        for same in (q.tolist(), np.asfortranarray(q)):
            assert sp.mixed_matrix_norm(same, 4) == want
        ints = rng.integers(-5, 6, (6, 6))
        assert sp.mixed_matrix_norm(ints, 3) == sp.mixed_matrix_norm(
            ints.astype(float), 3)

    def test_norm_axioms_and_submultiplicativity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = rng.normal(size=(n * m, n * m))
            b = rng.normal(size=(n * m, n * m))
            na, nb = sp.mixed_matrix_norm(a, m), sp.mixed_matrix_norm(b, m)
            assert sp.mixed_matrix_norm(a + b, m) <= na + nb + 1e-10
            c = float(rng.normal())
            assert sp.mixed_matrix_norm(c * a, m) == pytest.approx(abs(c) * na)
            assert sp.mixed_matrix_norm(a @ b, m) <= na * nb + 1e-10
            if na == 0.0:
                assert np.all(a == 0)


class TestErrorTransition:
    def test_self_loops_only_gives_projections(self):
        projs = sp.kernel_projections(HAND_SYSTEM)
        phi, norm = sp.error_transition([self_loops_only(2)], projs)
        np.testing.assert_allclose(phi, block_diagonal(projs), atol=1e-14)
        assert norm <= 1.0 + 1e-10

    def test_windows_never_expand(self):
        rng = np.random.default_rng(11)
        system, _ = random_partitioned_system(rng, 3, 6, 2)
        projs = sp.kernel_projections(system)
        gmodel = random_connected_gmodel(rng, 3, seed=2)
        for trial in range(10):
            window = gmodel.sample_graphs(6, trial=trial)
            _, norm = sp.error_transition(window, projs)
            assert norm <= 1.0 + 1e-10

    def test_matches_kron_reference(self):
        rng = np.random.default_rng(17)
        for trial in range(6):
            system, _ = random_partitioned_system(rng, 4, 5, 2)
            projs = sp.kernel_projections(system)
            gmodel = random_connected_gmodel(rng, 4, seed=trial)
            window = gmodel.sample_graphs(int(rng.integers(1, 8)), trial=trial)
            ref = np.eye(system.n * system.m)
            for g in window:
                ref = kron_factor(g, projs) @ ref
            phi, norm = sp.error_transition(window, projs)
            np.testing.assert_allclose(phi, ref, rtol=0, atol=1e-12)
            assert norm == pytest.approx(sp.mixed_matrix_norm(ref, system.m),
                                         rel=0, abs=1e-12)

    def test_empty_window_rejected(self):
        with pytest.raises(DimensionMismatch):
            sp.error_transition([], sp.kernel_projections(HAND_SYSTEM))

    def test_full_route_contracts(self):
        # unique-solution system: repeated strongly connected graphs shrink
        # the error operator strictly once a route covers all agents
        rng = np.random.default_rng(13)
        system, _ = random_partitioned_system(rng, 3, 6, 3)
        projs = sp.kernel_projections(system)
        q = (system.n - 1) ** 2  # guaranteed window for window length 1
        _, norm = sp.error_transition([complete_graph(3)] * q, projs)
        assert norm < 1.0

    def test_error_system_matches_direct_simulation(self):
        rng = np.random.default_rng(101)
        for trial in range(5):
            system, x_star = random_partitioned_system(rng, 3, 5, 2)
            projs = sp.kernel_projections(system)
            gmodel = random_connected_gmodel(rng, 3, seed=60 + trial)
            graphs = gmodel.sample_graphs(100, trial=trial)
            x = sp.initial_state(system)
            m = system.m
            err = (x - x_star[None, :]).reshape(-1)
            p = block_diagonal(projs)
            for g in graphs:
                x = sp.step(x, g, projs)
                w = averaging_weights(g)
                err = p @ np.kron(w, np.eye(m)) @ p @ err
                direct = (x - x_star[None, :]).reshape(-1)
                assert np.abs(direct - err).max() < 1e-9


class TestConditionProbability:
    def test_single_connected_graph(self):
        gmodel = sp.GraphSequenceModel(
            graph_set=(complete_graph(3),),
            model=sp.IIDModel(weights=[1.0]), window=1)
        assert sp.window_connectivity_probability(gmodel) == 1.0

    def test_two_half_graphs_compose(self):
        # neither graph is strongly connected alone; their compositions in
        # either order are, so exactly the two mixed words of the four count
        g1 = sp.DirectedGraph(2, frozenset({(0, 0), (1, 1), (0, 1)}))
        g2 = sp.DirectedGraph(2, frozenset({(0, 0), (1, 1), (1, 0)}))
        gmodel = sp.GraphSequenceModel(
            graph_set=(g1, g2), model=sp.IIDModel(weights=[0.5, 0.5]), window=2)
        assert sp.window_connectivity_probability(gmodel) == pytest.approx(0.5)

    def test_zero_window_rejected(self):
        # window 0 is a length, not "use the model's window"
        g1 = sp.DirectedGraph(2, frozenset({(0, 0), (1, 1), (0, 1)}))
        g2 = sp.DirectedGraph(2, frozenset({(0, 0), (1, 1), (1, 0)}))
        gmodel = sp.GraphSequenceModel(
            graph_set=(g1, g2), model=sp.IIDModel(weights=[0.5, 0.5]), window=2)
        with pytest.raises(InvalidDistribution,
                           match="window length must be at least 1"):
            sp.window_connectivity_probability(gmodel, window=0)
        assert sp.window_connectivity_probability(gmodel, window=1) == 0.0
        assert sp.window_connectivity_probability(gmodel) == pytest.approx(0.5)

    def test_edgeless_plus_self_loops(self):
        gmodel = sp.GraphSequenceModel(
            graph_set=(self_loops_only(3),),
            model=sp.IIDModel(weights=[1.0]), window=4)
        assert sp.window_connectivity_probability(gmodel) == 0.0

    def test_self_arcs_required(self):
        with pytest.raises(MissingSelfArc):
            sp.GraphSequenceModel(
                graph_set=(sp.DirectedGraph(2, frozenset({(0, 1), (1, 0)})),),
                model=sp.IIDModel(weights=[1.0]), window=1)


class TestRunSolver:
    def test_single_invertible_agent(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        system = sp.PartitionedLinearSystem(blocks=((a, np.array([2.0, 8.0])),))
        gmodel = sp.GraphSequenceModel(
            graph_set=(self_loops_only(1),), model=sp.IIDModel(weights=[1.0]),
            window=1)
        report = sp.run_solver(system, gmodel, max_iters=10)
        assert report.converged
        assert report.iterations == 0  # the initial estimate already solves it
        np.testing.assert_allclose(report.solution, [1.0, 2.0], atol=1e-12)

    def test_two_agent_alternating_projections(self):
        gmodel = sp.GraphSequenceModel(
            graph_set=(complete_graph(2),), model=sp.IIDModel(weights=[1.0]),
            window=1)
        report = sp.run_solver(HAND_SYSTEM, gmodel, max_iters=200, tol=1e-10)
        assert report.converged
        np.testing.assert_allclose(report.solution, [1.0, 1.0], atol=1e-8)

    def test_no_connected_window_raises(self):
        gmodel = sp.GraphSequenceModel(
            graph_set=(self_loops_only(2),), model=sp.IIDModel(weights=[1.0]),
            window=2)
        with pytest.raises(NoConnectedWindow):
            sp.run_solver(HAND_SYSTEM, gmodel, max_iters=5)
        report = sp.run_solver(HAND_SYSTEM, gmodel, max_iters=5,
                               check_connectivity=False)
        assert not report.converged

    def test_random_system_end_to_end(self):
        rng = np.random.default_rng(2025)
        system, x_star = random_partitioned_system(rng, 5, 20, 5)
        gmodel = random_connected_gmodel(rng, 5, seed=77)
        assert sp.window_connectivity_probability(gmodel) > 0
        report = sp.run_solver(system, gmodel, max_iters=20000, tol=1e-8,
                               norm_windows=3)
        assert report.converged
        assert report.residual < 1e-8
        assert report.disagreement < 1e-8
        np.testing.assert_allclose(report.solution, x_star, atol=1e-6)
        assert all(n <= 1.0 + 1e-10 for n in report.window_norms)

    def test_smallest_contracting_window(self):
        rng = np.random.default_rng(6)
        system, _ = random_partitioned_system(rng, 3, 6, 3)
        projs = sp.kernel_projections(system)
        gmodel = random_connected_gmodel(rng, 3, seed=9)
        found = sp.smallest_contracting_window(gmodel, projs, max_len=30)
        assert found is not None
        length, norm = found
        assert norm < 1.0
        assert 1 <= length <= (system.n - 1) ** 2 * gmodel.window + 10

    def test_smallest_contracting_window_matches_kron_search(self):
        rng = np.random.default_rng(23)
        for trial in range(4):
            system, _ = random_partitioned_system(rng, 3, 6, 3)
            projs = sp.kernel_projections(system)
            gmodel = random_connected_gmodel(rng, 3, seed=40 + trial)
            phi, expected = np.eye(system.n * system.m), None
            for length, g in enumerate(gmodel.sample_graphs(30, trial=trial), 1):
                phi = kron_factor(g, projs) @ phi
                norm = sp.mixed_matrix_norm(phi, system.m)
                if norm < 1.0 - 1e-12:
                    expected = (length, norm)
                    break
            found = sp.smallest_contracting_window(gmodel, projs, 30, trial=trial)
            assert found[0] == expected[0]
            assert found[1] == pytest.approx(expected[1], rel=0, abs=1e-12)

    def test_sample_graphs_checks_length(self):
        gmodel = sp.GraphSequenceModel(
            graph_set=(complete_graph(2),), model=sp.IIDModel(weights=[1.0]),
            window=1)
        with pytest.raises(InvalidDistribution):
            gmodel.sample_graphs(0)

    def test_zero_iterations_report_the_initial_state(self):
        markov = sp.MarkovModulatedModel(initial=[1.0], transition=[[1.0]])
        gmodel = sp.GraphSequenceModel(
            graph_set=(complete_graph(2),), model=markov, window=1)
        report = sp.run_solver(HAND_SYSTEM, gmodel, max_iters=0, norm_windows=2)
        assert not report.converged and report.iterations == 0
        assert report.history == ((0, 1.0, 0.5),)
        assert (report.disagreement, report.residual) == (1.0, 0.5)
        assert report.window_norms == ()
        np.testing.assert_array_equal(report.solution, [0.5, 0.5])

    def test_max_iters_cap_raises_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew indices for a run over the cap")

        gmodel = sp.GraphSequenceModel(
            graph_set=(complete_graph(2),), model=sp.IIDModel(weights=[1.0]),
            window=1)
        monkeypatch.setattr(equations, "ITER_LIMIT", 5)
        monkeypatch.setattr(sp.IIDModel, "stream", no_draw)
        with pytest.raises(InvalidDistribution,
                           match="max_iters must be at most 5"):
            sp.run_solver(HAND_SYSTEM, gmodel, max_iters=6)
        with pytest.raises(AssertionError, match="drew indices"):
            sp.run_solver(HAND_SYSTEM, gmodel, max_iters=5)

    def test_fitted_decay_needs_three_points(self):
        gmodel = sp.GraphSequenceModel(
            graph_set=(complete_graph(2),), model=sp.IIDModel(weights=[1.0]),
            window=1)
        assert sp.run_solver(HAND_SYSTEM, gmodel, max_iters=1).fitted_decay is None
        report = sp.run_solver(HAND_SYSTEM, gmodel, max_iters=2)
        assert report.fitted_decay == pytest.approx(0.5)
