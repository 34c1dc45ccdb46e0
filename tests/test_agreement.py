import itertools

import numpy as np
import pytest

import stochprod as sp
from stochprod import agreement
from stochprod.errors import (
    DimensionMismatch,
    InvalidDistribution,
    NonFiniteEntry,
    NotReachable,
)

from helpers import (
    chi_square_p,
    figure_network,
    firing_set_counts,
    random_rooted_graph,
    uniform_weights,
    weights_for_graph,
)


def complete_graph(n):
    return sp.DirectedGraph(n, frozenset((i, j) for i in range(n) for j in range(n)))


class TestAsyncUpdateMatrix:
    """The single-agent update matrices that ``hierarchical_product``
    multiplies: the identity with the firing agent's row taken from W."""

    def test_all_agents_gives_w(self):
        # agent 0 then agent 1: U1 @ U0, each the identity but for one row
        w = sp.StochasticMatrix([[0.2, 0.8], [0.5, 0.5]])
        out = sp.hierarchical_product(w, [0, 1])
        u0 = np.array([[0.2, 0.8], [0.0, 1.0]])
        u1 = np.array([[1.0, 0.0], [0.5, 0.5]])
        np.testing.assert_array_equal(out.entries, u1 @ u0)

    def test_self_pointing_row_gives_identity(self):
        w = sp.StochasticMatrix([[1.0, 0.0], [0.5, 0.5]])
        out = sp.hierarchical_product(w, [0])
        np.testing.assert_array_equal(out.entries, np.eye(2))

    def test_single_row_substitution(self):
        w = sp.StochasticMatrix([[0, 1], [1, 0]])
        out = sp.hierarchical_product(w, [0])
        np.testing.assert_array_equal(out.entries, [[0, 1], [0, 1]])

    def test_structure_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            from helpers import random_stochastic
            w = random_stochastic(rng, n)
            agent = int(rng.integers(n))
            out = sp.hierarchical_product(w, [agent])
            for i in range(n):
                if i == agent:
                    np.testing.assert_array_equal(out.entries[i], w.entries[i])
                else:
                    expected = np.zeros(n)
                    expected[i] = 1.0
                    np.testing.assert_array_equal(out.entries[i], expected)

    @pytest.mark.parametrize("agent", [3, -1, 0.5, 1.0, True, "1", None])
    def test_agent_must_be_a_vertex(self, agent):
        # once numpy's IndexError for 3, and a silent update of agent 2, 0 or
        # 1 for -1, 0.5 or True
        w = sp.StochasticMatrix(np.full((3, 3), 1 / 3))
        with pytest.raises(DimensionMismatch, match="is not a vertex"):
            sp.hierarchical_product(w, [0, agent])

    def test_numpy_integer_agents(self):
        w = sp.StochasticMatrix([[0, 1], [1, 0]])
        out = sp.hierarchical_product(w, np.array([0]))
        np.testing.assert_array_equal(out.entries, [[0, 1], [0, 1]])


class TestHierarchicalPartition:
    def test_figure_network_levels(self):
        part = sp.hierarchical_partition(figure_network(), 2)
        assert part.levels == ((2,), (1, 5), (0, 3), (4,))
        assert sp.hierarchical_sequence(part) == (2, 1, 5, 0, 3, 4)

    def test_star_graph(self):
        star = sp.DirectedGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
        part = sp.hierarchical_partition(star, 0)
        assert part.levels == ((0,), (1, 2, 3))
        assert all(part.parent[v] == 0 for v in (1, 2, 3))

    def test_single_vertex(self):
        g = sp.DirectedGraph(1, frozenset({(0, 0)}))
        part = sp.hierarchical_partition(g, 0)
        assert part.levels == ((0,),)
        assert sp.hierarchical_sequence(part) == (0,)

    def test_unreachable_vertex(self):
        g = sp.DirectedGraph(3, frozenset({(0, 1)}))
        with pytest.raises(NotReachable) as exc:
            sp.hierarchical_partition(g, 0)
        assert exc.value.vertex == 2

    @pytest.mark.parametrize("root", [5, 3, -1, 1.5, 1.0, True, "1", None])
    def test_root_must_be_a_vertex(self, root):
        path = sp.DirectedGraph(3, frozenset({(0, 1), (1, 2)}))
        with pytest.raises(DimensionMismatch, match="is not a vertex"):
            sp.hierarchical_partition(path, root)

    def test_numpy_integer_root(self):
        path = sp.DirectedGraph(3, frozenset({(0, 1), (1, 2)}))
        part = sp.hierarchical_partition(path, np.int64(0))
        assert part.root == 0 and type(part.root) is int
        assert part.levels == ((0,), (1,), (2,))

    def test_lowest_index_parent(self):
        g = sp.DirectedGraph(3, frozenset({(0, 2), (1, 2), (0, 1)}))
        part = sp.hierarchical_partition(g, 0)
        assert part.parent[2] == 1 or part.levels == ((0,), (1, 2))
        # both 1 and 2 are one hop from 0; their parent is the root
        assert part.parent[1] == 0


class TestHierarchicalProduct:
    def test_figure_network_product_is_markov(self):
        w = uniform_weights(figure_network())
        part = sp.hierarchical_partition(figure_network(), 2)
        prod = sp.hierarchical_product(w, sp.hierarchical_sequence(part))
        assert sp.is_markov(prod)
        # the positive column set contains the root's own averaging sources
        root_sources = np.nonzero(w.entries[2] > 0)[0]
        full_columns = np.nonzero(prod.pattern().all(axis=0))[0]
        assert set(root_sources.tolist()) <= set(full_columns.tolist())

    def test_complete_graph_every_permutation(self):
        rng = np.random.default_rng(123)
        for n in (2, 3, 4, 5):
            w = weights_for_graph(rng, complete_graph(n))
            for seq in itertools.permutations(range(n)):
                assert sp.is_markov(sp.hierarchical_product(w, seq))

    def test_single_agent(self):
        w = sp.StochasticMatrix([[1.0]])
        prod = sp.hierarchical_product(w, (0,))
        assert sp.is_markov(prod)

    def test_random_rooted_corpus(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            g = random_rooted_graph(rng, n)
            w = weights_for_graph(rng, g)
            root = sp.roots(g)[0]
            part = sp.hierarchical_partition(g, root)
            # random within-level orders are hierarchical too
            seq = []
            for level in part.levels:
                level = list(level)
                rng.shuffle(level)
                seq.extend(level)
            assert sp.is_markov(sp.hierarchical_product(w, seq))

    def test_all_four_vertex_tournaments(self):
        rng = np.random.default_rng(31415)
        pairs = list(itertools.combinations(range(4), 2))
        for orientation in itertools.product([0, 1], repeat=len(pairs)):
            edges = {(i, j) if o else (j, i)
                     for (i, j), o in zip(pairs, orientation)}
            # a vertex nobody points at cannot average; give it its own value
            for v in range(4):
                if not any(e[1] == v for e in edges):
                    edges.add((v, v))
            g = sp.DirectedGraph(4, frozenset(edges))
            assert sp.is_rooted(g)  # tournaments always carry a spanning path
            w = weights_for_graph(rng, g)
            root = sp.roots(g)[0]
            seq = sp.hierarchical_sequence(sp.hierarchical_partition(g, root))
            assert sp.is_markov(sp.hierarchical_product(w, seq))


class TestHierarchicalWords:
    def test_count_is_product_of_level_factorials(self):
        part = sp.hierarchical_partition(figure_network(), 2)
        # level sizes 1, 2, 2, 1 allow 1! * 2! * 2! * 1! orders
        assert sp.hierarchical_word_count(part) == 4

    def test_positive_probability_for_rooted_corpus(self):
        rng = np.random.default_rng(555)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            g = random_rooted_graph(rng, n)
            root = sp.roots(g)[0]
            part = sp.hierarchical_partition(g, root)
            count = sp.hierarchical_word_count(part)
            assert count >= 1
            assert 0 < count / float(n) ** n <= 1


class TestClocks:
    def test_bernoulli_rate_range(self):
        with pytest.raises(InvalidDistribution):
            sp.BernoulliClocks(rates=np.array([0.0, 0.5]))
        with pytest.raises(InvalidDistribution):
            sp.BernoulliClocks(rates=np.array([1.2]))
        with pytest.raises(InvalidDistribution):
            sp.BernoulliClocks(rates=np.array([np.nan, 0.5]))

    def test_poisson_rejects_non_finite(self):
        for rates in ([np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(InvalidDistribution):
                sp.PoissonClocks(rates=np.array(rates))
        with pytest.raises(InvalidDistribution):
            sp.PoissonClocks(rates=np.array([1.0]), delta=np.nan)

    @pytest.mark.parametrize("kind", [sp.BernoulliClocks, sp.PoissonClocks])
    @pytest.mark.parametrize("rates", [["0.5", "0.5"], [True, 0.5],
                                       [0.5, np.True_], [None, 0.5],
                                       np.array([True, True]), "0.5"],
                             ids=["texts", "bool", "numpy-bool", "none",
                                  "bool-array", "text"])
    def test_rates_must_be_numbers(self, kind, rates):
        # once parsed as [0.5, 0.5] and [1.0, 0.5]
        with pytest.raises(DimensionMismatch, match="expected numbers"):
            kind(rates=rates)

    @pytest.mark.parametrize("kind", [sp.BernoulliClocks, sp.PoissonClocks])
    def test_rates_are_a_read_only_copy(self, kind):
        rates = np.array([1, 1])
        clocks = kind(rates=rates)
        assert clocks.rates.dtype == float and not clocks.rates.flags.writeable
        assert rates.flags.writeable
        assert kind(rates=[1.0, 0.5]).rates.tolist() == [1.0, 0.5]

    @pytest.mark.parametrize("delta", ["1", None, True, 10**400],
                             ids=["text", "none", "bool", "past-float"])
    def test_poisson_tick_width_must_be_a_number(self, delta):
        # once a raw TypeError from np.isfinite, or True read as 1.0
        with pytest.raises(InvalidDistribution,
                           match="tick width must be positive and finite"):
            sp.PoissonClocks(rates=np.array([1.0]), delta=delta)

    def test_poisson_thinning(self):
        clocks = sp.PoissonClocks(rates=np.array([1.0, 2.0]), delta=0.5)
        np.testing.assert_allclose(clocks.activation_probabilities(),
                                   1.0 - np.exp([-0.5, -1.0]))

    def test_poisson_thinning_keeps_tiny_rates(self):
        # 1 - exp(-1e-20) is 0 in floating point; -expm1(-1e-20) is not
        clocks = sp.PoissonClocks(rates=np.array([1e-20, 1.0]), delta=1.0)
        np.testing.assert_allclose(clocks.activation_probabilities()[0], 1e-20,
                                   rtol=1e-15, atol=0)


def exact_firing_set_law(probs):
    """Probability of each firing set, by bitmask, given that some agent
    fires: prod_S p_i prod_{not S} (1 - p_i) / p_any, and 0 for no agent."""
    n = probs.size
    sets = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    law = np.where(sets, probs, 1.0 - probs).prod(axis=1)
    law[0] = 0.0
    return law / law.sum()


class TestFiringSets:
    @pytest.mark.parametrize("clocks", [
        # one certain clock: every set holds agent 2
        sp.BernoulliClocks(rates=np.array([0.3, 0.1, 1.0, 0.6])),
        # one clock of rate 1e-9: the sets holding agent 1 all but never occur
        sp.PoissonClocks(rates=np.array([0.4, 1e-9, 0.9, 0.2]), delta=1.0),
    ], ids=["bernoulli-certain", "poisson-tiny"])
    def test_law_matches_exact_probabilities(self, clocks):
        probs = clocks.activation_probabilities()
        fired = agreement._firing_sets(np.random.default_rng(2024), probs,
                                       100000)
        assert fired.shape == (100000, 4) and fired.any(axis=1).all()
        assert chi_square_p(firing_set_counts(fired),
                            exact_firing_set_law(probs)) > 1e-3

    def test_agents_of_probability_zero_never_fire(self):
        probs = np.array([0.0, 0.5, 0.0, 1e-3, 0.0])
        fired = agreement._firing_sets(np.random.default_rng(7), probs, 50000)
        assert not fired[:, probs == 0].any()
        assert fired.any(axis=1).all() and fired[:, 3].any()


class TestSimulateAsync:
    def test_rooted_periodic_reaches_agreement(self):
        w = uniform_weights(figure_network())
        assert sp.is_rooted(sp.graph_of(w))
        assert sp.pattern_period(w) > 1  # simultaneous updates would cycle
        clocks = sp.BernoulliClocks(rates=np.full(6, 0.5), seed=7)
        trace = sp.simulate_async(w, clocks, np.arange(6.0), steps=4000)
        assert trace.spreads[-1] < 1e-8

    def test_decomposable_never_agrees(self):
        w = np.zeros((6, 6))
        w[:3, :3] = np.roll(np.eye(3), 1, axis=1)
        w[3:, 3:] = np.roll(np.eye(3), 1, axis=1)
        w = sp.StochasticMatrix(w)
        assert not sp.is_rooted(sp.graph_of(w))
        x0 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        clocks = sp.BernoulliClocks(rates=np.full(6, 0.5), seed=3)
        trace = sp.simulate_async(w, clocks, x0, steps=2000)
        assert min(trace.spreads) >= 1.0  # the inter-block gap is exact

    def test_synchronous_rotation_oscillates(self):
        n = 5
        w = sp.StochasticMatrix(np.roll(np.eye(n), 1, axis=1))
        x = np.arange(float(n))
        states = [x.copy()]
        for _ in range(2 * n):
            x = w.entries @ x
            states.append(x.copy())
        period = sp.pattern_period(w)
        assert period == n
        np.testing.assert_allclose(states[period], states[0], atol=1e-12)
        assert sp.spread(states[period]) == sp.spread(states[0])

    def test_event_counting_skips_empty_ticks(self):
        # nine ticks in ten are empty; every step is an event all the same,
        # and each event halves the spread (one agent fires) or ends it (both)
        w = sp.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        clocks = sp.BernoulliClocks(rates=np.full(2, 0.05), seed=1)
        trace = sp.simulate_async(w, clocks, np.array([0.0, 1.0]), steps=25)
        assert len(trace.spreads) == 26
        assert all(s <= 0.5 ** k for k, s in enumerate(trace.spreads))
        assert sp.spread(trace.final_x) == trace.spreads[-1]

    def test_clocks_that_never_fire_rejected(self):
        # rate * delta underflows to 0: no tick could ever hold an event
        w = sp.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        clocks = sp.PoissonClocks(rates=np.full(2, 1e-200), delta=1e-200)
        with pytest.raises(InvalidDistribution):
            sp.simulate_async(w, clocks, np.array([0.0, 1.0]), steps=3)

    def test_bad_start_vector_rejected(self):
        w = sp.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        clocks = sp.BernoulliClocks(rates=np.full(2, 0.5))
        for x0 in ([np.nan, 1.0], [0.0, np.inf]):
            with pytest.raises(NonFiniteEntry):
                sp.simulate_async(w, clocks, np.array(x0), steps=3)
        with pytest.raises(DimensionMismatch):
            sp.simulate_async(w, clocks, np.zeros(3), steps=3)

    def test_raw_weights_with_non_finite_entry_rejected(self):
        clocks = sp.BernoulliClocks(rates=np.full(2, 0.5))
        for w in ([[0.5, 0.5], [np.nan, 1.0]], [[0.5, 0.5], [np.inf, 0.0]]):
            with pytest.raises(NonFiniteEntry):
                sp.simulate_async(w, clocks, np.array([0.0, 1.0]), steps=3)
            # the row that would be read is finite; the matrix is still refused
            with pytest.raises(NonFiniteEntry):
                sp.hierarchical_product(w, [0])

    @pytest.mark.parametrize("steps", [0, 1, 1024, 1025])
    def test_spreads_are_a_read_only_float64_array(self, steps):
        w = sp.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        clocks = sp.BernoulliClocks(rates=np.full(2, 0.3), seed=5)
        trace = sp.simulate_async(w, clocks, np.array([0.0, 1.0]), steps=steps)
        assert isinstance(trace.spreads, np.ndarray)
        assert trace.spreads.dtype == np.float64
        assert trace.spreads.shape == (steps + 1,)
        assert not trace.spreads.flags.writeable
        with pytest.raises(ValueError):
            trace.spreads[0] = 0.0

    def test_reproducible(self):
        w = uniform_weights(figure_network())
        clocks = sp.BernoulliClocks(rates=np.full(6, 0.4), seed=99)
        a = sp.simulate_async(w, clocks, np.arange(6.0), steps=200)
        b = sp.simulate_async(w, clocks, np.arange(6.0), steps=200)
        assert np.array_equal(a.spreads, b.spreads)
        assert np.array_equal(a.final_x, b.final_x)
        c = sp.simulate_async(w, clocks, np.arange(6.0), steps=200, trial=1)
        assert not np.array_equal(a.spreads, c.spreads)
        assert not np.array_equal(a.final_x, c.final_x)
