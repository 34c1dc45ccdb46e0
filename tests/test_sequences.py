import numpy as np
import pytest

import stochprod as sp
from stochprod import sequences
from stochprod.graphs import strongly_connected_components
from stochprod.errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    InvalidDistribution,
    Reducible,
)

from helpers import (
    class_probability,
    figure_network,
    random_stochastic,
    uniform_weights,
)

SCRAM = [[0.2, 0.8], [0.5, 0.5]]
CHAIN3 = [[0.0, 0.4, 0.6], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


@pytest.fixture
def two_set():
    return sp.FiniteMatrixSet((sp.StochasticMatrix(SCRAM),
                               sp.StochasticMatrix(np.eye(2))))


class TestModels:
    def test_weights_must_be_distribution(self):
        with pytest.raises(InvalidDistribution):
            sp.IIDModel(weights=[0.5, 0.6])
        with pytest.raises(InvalidDistribution):
            sp.IIDModel(weights=[-0.5, 1.5])
        with pytest.raises(InvalidDistribution):
            sp.IIDModel(weights=[np.nan, 1.0])

    def test_callers_arrays_stay_writeable(self):
        # the models keep read-only copies; once np.asarray handed back the
        # caller's float64 array and the model froze it
        w, p, t = np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.full((2, 2), 0.5)
        iid = sp.IIDModel(weights=w)
        markov = sp.MarkovModulatedModel(initial=p, transition=t)
        assert w.flags.writeable and p.flags.writeable and t.flags.writeable
        for kept in (iid.weights, markov.initial, markov.transition):
            assert not kept.flags.writeable
        w[0] = 0.0
        assert iid.weights.tolist() == [0.5, 0.5]

    def test_transition_rows_checked(self):
        with pytest.raises(InvalidDistribution):
            sp.MarkovModulatedModel(initial=[1, 0], transition=[[0.5, 0.4], [0, 1]])

    def test_scripted_replays_verbatim(self, two_set):
        m = sp.ScriptedModel(indices=(1, 0, 1), matrix_set=two_set)
        assert sp.sample(m, 3).tolist() == [1, 0, 1]
        # longer samples repeat the script cyclically
        assert sp.sample(m, 7).tolist() == [1, 0, 1, 1, 0, 1, 1]

    def test_degenerate_iid(self, two_set):
        m = sp.IIDModel(weights=[1.0, 0.0], seed=5, matrix_set=two_set)
        assert sp.sample(m, 50).tolist() == [0] * 50

    def test_sampling_deterministic(self, two_set):
        m = sp.IIDModel(weights=[0.3, 0.7], seed=123, matrix_set=two_set)
        a = sp.sample(m, 1000)
        b = sp.sample(m, 1000)
        assert np.array_equal(a, b)
        c = sp.sample(m, 1000, trial=1)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("model", ["iid", "markov", "scripted"])
    def test_bad_length_refused(self, model):
        # a fraction is refused, not truncated to a shorter draw
        for length, message in ((0, "at least 1"), (-3, "at least 1"),
                                (2.5, "an integer"), ("5", "an integer")):
            with pytest.raises(InvalidDistribution,
                               match=f"length must be {message}"):
                sp.sample(INDEX_MODELS[model](), length)

    def test_markov_supports_only_transition_rows(self):
        m = sp.MarkovModulatedModel(initial=[1, 0, 0], transition=CHAIN3, seed=9)
        idx = sp.sample(m, 5000)
        # from state 0 only 1 or 2 can follow; from 1 and 2 only 0 follows
        after0 = idx[1:][idx[:-1] == 0]
        assert set(after0.tolist()) <= {1, 2}
        assert set(idx[1:][idx[:-1] == 1].tolist()) <= {0}

    def test_markov_sampling_matches_transitions(self):
        m = sp.MarkovModulatedModel(initial=[1, 0, 0], transition=CHAIN3, seed=2)
        idx = sp.sample(m, 200000)
        after0 = idx[1:][idx[:-1] == 0]
        freq1 = (after0 == 1).mean()
        se = np.sqrt(0.4 * 0.6 / after0.size)
        assert abs(freq1 - 0.4) < 3 * se

    @pytest.mark.parametrize("make", [
        lambda seed: sp.IIDModel(weights=[1.0], seed=seed),
        lambda seed: sp.MarkovModulatedModel(initial=[1.0], transition=[[1.0]],
                                             seed=seed),
        lambda seed: sp.ScriptedModel(indices=(0,), seed=seed),
        lambda seed: sp.BernoulliClocks(rates=[0.5], seed=seed),
        lambda seed: sp.PoissonClocks(rates=[0.5], seed=seed),
        lambda seed: sp.SphereGrid(seed=seed),
    ], ids=["iid", "markov", "scripted", "bernoulli", "poisson", "grid"])
    def test_negative_seed_rejected(self, make):
        # numpy's generators take only nonnegative seeds
        make(0)
        with pytest.raises(InvalidDistribution, match="got -1"):
            make(-1)


PAIR = np.ones((2, 2, 2), dtype=bool)  # one valid pattern per symbol

# id -> (model, patterns, h, starts, error); each bad input once gave an
# answer or escaped as a bare ValueError or IndexError
BAD_WINDOW_INPUTS = {
    "rect-masks-h1": ("iid", np.ones((2, 2, 3), dtype=bool), 1, None,
                      DimensionMismatch),
    "rect-masks-h2": ("iid", np.ones((2, 2, 3), dtype=bool), 2, None,
                      DimensionMismatch),
    "ragged": ("iid", [np.eye(2, dtype=bool), np.eye(3, dtype=bool)], 2,
               None, DimensionMismatch),
    "one-mask-h1": ("iid", np.eye(2, dtype=bool), 1, None, DimensionMismatch),
    "one-mask-h2": ("iid", np.eye(2, dtype=bool), 2, None, DimensionMismatch),
    "too-few-masks": ("iid", PAIR[:1], 1, None, DimensionMismatch),
    "negative-start-markov": ("markov", PAIR, 1, [-1], InvalidDistribution),
    "negative-start-scripted": ("scripted", PAIR, 1, [0, -1],
                                InvalidDistribution),
    "fractional-window": ("markov", PAIR, 2.5, None, InvalidDistribution),
}
INDEX_MODELS = {
    "iid": lambda: sp.IIDModel(weights=[0.5, 0.5]),
    "markov": lambda: sp.MarkovModulatedModel(
        initial=[1.0, 0.0], transition=[[0.5, 0.5], [0.5, 0.5]]),
    "scripted": lambda: sp.ScriptedModel(indices=(0, 1)),
}


class TestWindowProbability:
    @pytest.mark.parametrize("model,patterns,h,starts,error",
                             list(BAD_WINDOW_INPUTS.values()),
                             ids=list(BAD_WINDOW_INPUTS))
    def test_bad_input_refused(self, model, patterns, h, starts, error):
        with pytest.raises(error):
            sequences.window_probability(INDEX_MODELS[model](), patterns, h,
                                         sp.matrices._stack_is_scrambling,
                                         starts)

    def test_single_scrambling_matrix(self):
        fset = sp.FiniteMatrixSet((sp.StochasticMatrix(SCRAM),))
        m = sp.IIDModel(weights=[1.0], matrix_set=fset)
        assert class_probability(m, 0, 1, sp.is_scrambling) == 1.0

    def test_iid_half(self, two_set):
        m = sp.IIDModel(weights=[0.5, 0.5], matrix_set=two_set)
        assert class_probability(m, 0, 1, sp.is_scrambling) == 0.5

    def test_markov_two_step_paths(self, two_set):
        # modulating chain from state 0 visits (1,0) w.p. 0.4 and (2,0) w.p. 0.6
        mats = sp.FiniteMatrixSet(tuple(
            sp.StochasticMatrix(a) for a in (np.eye(3), np.eye(3), np.eye(3))))
        probs = {}
        model = sp.MarkovModulatedModel(initial=[1, 0, 0], transition=CHAIN3,
                                        matrix_set=mats)
        # hand enumeration oracle over the 2-step words from the start law
        first = model.start_distribution(0)
        t = np.asarray(CHAIN3)
        for w1 in range(3):
            for w2 in range(3):
                p = first[w1] * t[w1, w2]
                if p > 0:
                    probs[(w1, w2)] = p
        assert probs == {(0, 1): pytest.approx(0.4), (0, 2): pytest.approx(0.6)}

    def test_exact_value_against_brute_force(self):
        rng = np.random.default_rng(31)
        mats = tuple(random_stochastic(rng, 3, density=0.5) for _ in range(3))
        fset = sp.FiniteMatrixSet(mats)
        t = rng.dirichlet(np.ones(3), size=3)
        v = rng.dirichlet(np.ones(3))
        model = sp.MarkovModulatedModel(initial=v, transition=t, matrix_set=fset)
        h = 3
        for pred in (sp.is_scrambling, sp.is_markov, sp.is_sia):
            # brute-force oracle: enumerate all words with their numeric products
            total = 0.0
            marg = v.copy()
            import itertools
            for word in itertools.product(range(3), repeat=h):
                p = marg[word[0]]
                for a, b in zip(word, word[1:]):
                    p *= t[a, b]
                if p == 0:
                    continue
                prod = sp.backward_product([mats[i] for i in word])
                if pred(prod):
                    total += p
            assert class_probability(model, 0, h, pred) == pytest.approx(
                total, abs=1e-12)

    def test_monotone_under_class_inclusion(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            mats = tuple(random_stochastic(rng, 3, density=0.5) for _ in range(2))
            model = sp.IIDModel(weights=rng.dirichlet(np.ones(2)),
                                matrix_set=sp.FiniteMatrixSet(mats))
            h = int(rng.integers(1, 4))
            pm = class_probability(model, 0, h, sp.is_markov)
            ps = class_probability(model, 0, h, sp.is_scrambling)
            pi = class_probability(model, 0, h, sp.is_sia)
            assert pm <= ps + 1e-15
            assert ps <= pi + 1e-15

    def test_empirical_consistency(self, two_set):
        model = sp.IIDModel(weights=[0.6, 0.4], seed=10, matrix_set=two_set)
        h = 2
        exact = class_probability(model, 0, h, sp.is_scrambling)
        idx = sp.sample(model, 2 * 10**5)
        pats = [m.pattern().astype(np.int32) for m in two_set.matrices]
        wins = 0
        count = idx.size // h
        for b in range(count):
            word = idx[b * h:(b + 1) * h]
            mask = pats[word[0]]
            for i in word[1:]:
                mask = ((pats[i] @ mask) > 0).astype(np.int32)
            wins += sp.is_scrambling(mask > 0)
        freq = wins / count
        se = np.sqrt(exact * (1 - exact) / count)
        assert abs(freq - exact) < 3 * se

    def test_start_conditioning_uses_propagated_marginal(self, two_set):
        # start s conditions on the modulating law s steps after the initial
        scram = sp.StochasticMatrix(SCRAM)
        eye = sp.StochasticMatrix(np.eye(2))
        mats = sp.FiniteMatrixSet((eye, scram, eye))
        model = sp.MarkovModulatedModel(initial=[1, 0, 0], transition=CHAIN3,
                                        matrix_set=mats)
        # at start 0 the first window symbol is 0 (identity): never scrambles
        assert class_probability(model, 0, 1, sp.is_scrambling) == 0.0
        # one step later the marginal is (0, 0.4, 0.6): symbol 1 scrambles
        assert class_probability(model, 1, 1, sp.is_scrambling) == \
            pytest.approx(0.4, abs=1e-12)

    def test_enumeration_guard(self, monkeypatch):
        # a 5-cycle and a transposition generate all 120 permutations, so
        # the merged states keep multiplying with the window length
        cycle = np.roll(np.eye(5), 1, axis=1)
        swap = np.eye(5)[[1, 0, 2, 3, 4]]
        fset = sp.FiniteMatrixSet((sp.StochasticMatrix(cycle),
                                   sp.StochasticMatrix(swap)))
        model = sp.IIDModel(weights=[0.5, 0.5], matrix_set=fset)
        monkeypatch.setattr(sequences, "STATE_LIMIT", 50)
        with pytest.raises(EnumerationTooLarge):
            class_probability(model, 0, 40, sp.is_scrambling)

    @pytest.mark.parametrize("scripted", [False, True])
    def test_window_over_the_layer_budget(self, monkeypatch, two_set,
                                          scripted):
        # length 4 runs the 3 layers the budget allows; length 5 is refused
        # before its first, for the merged engine and the scripted walk
        model = (sp.ScriptedModel(indices=(0, 1), matrix_set=two_set)
                 if scripted else
                 sp.IIDModel(weights=[0.5, 0.5], matrix_set=two_set))
        monkeypatch.setattr(sequences, "WINDOW_LAYERS", 3)
        assert class_probability(model, 0, 4, sp.is_scrambling) > 0.0

        def no_layer(*args):
            raise AssertionError("ran a layer over the budget")

        monkeypatch.setattr(sequences, "advance", no_layer)
        monkeypatch.setattr(sequences, "_window_walk", no_layer)
        with pytest.raises(EnumerationTooLarge,
                           match="4 enumeration layers of window length 5 "
                                 "exceed 3"):
            class_probability(model, 0, 5, sp.is_scrambling)

    def test_merged_patterns_make_long_windows_exact(self, two_set):
        # 2^40 words, but only the patterns {I, positive} per last index:
        # the window scrambles unless every factor is the identity
        model = sp.IIDModel(weights=[0.5, 0.5], matrix_set=two_set)
        assert class_probability(model, 0, 40, sp.is_scrambling) == \
            1.0 - 0.5**40

    def test_unsettled_marginals_rejected(self):
        # this chain needs thousands of steps to settle; a truncated start
        # list would understate the minimum over starts
        model = sp.MarkovModulatedModel(initial=[1, 0],
                                        transition=[[0.999, 0.001], [0.001, 0.999]])
        with pytest.raises(EnumerationTooLarge):
            sequences.window_starts(model)


class TestStationary:
    def test_identity_reducible(self):
        with pytest.raises(Reducible):
            sp.stationary_distribution(np.eye(2))

    def test_two_cycle(self):
        v = sp.stationary_distribution([[0, 1], [1, 0]])
        np.testing.assert_allclose(v, [0.5, 0.5], atol=1e-12)

    def test_three_state_chain(self):
        v = sp.stationary_distribution(CHAIN3)
        np.testing.assert_allclose(v, [0.5, 0.2, 0.3], atol=1e-12)

    def test_residual_small(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = random_stochastic(rng, int(rng.integers(2, 7)), density=0.7)
            if strongly_connected_components(sp.graph_of(t).adj)[0] != 1:
                continue
            v = sp.stationary_distribution(t.entries)
            assert np.abs(v @ t.entries - v).max() < 1e-13

    def test_stationary_model_shift_invariance(self):
        pi = np.asarray(CHAIN3)
        v = sp.stationary_distribution(pi)
        mats = sp.FiniteMatrixSet(tuple(sp.StochasticMatrix(np.eye(2)) for _ in range(3)))
        model = sp.MarkovModulatedModel(initial=v, transition=pi, seed=6,
                                        matrix_set=mats)
        assert model.is_stationary()
        idx = sp.sample(model, 10**5)
        # the joint law of adjacent pairs, estimated on two shifted halves
        def pair_freq(series):
            joint = np.zeros((3, 3))
            for a, b in zip(series[:-1], series[1:]):
                joint[a, b] += 1
            return joint / (len(series) - 1)

        first, second = idx[: idx.size // 2], idx[idx.size // 2:]
        diff = np.abs(pair_freq(first) - pair_freq(second)).max()
        se = 3.0 / np.sqrt(idx.size // 2)
        assert diff < 3 * se


def entry_floor(*mats) -> float:
    """The ``min_entry`` of a window-1 rate report on a uniform i.i.d.
    choice among ``mats``, at least one of which is scrambling."""
    fset = sp.FiniteMatrixSet(mats)
    model = sp.IIDModel(weights=np.full(len(mats), 1 / len(mats)),
                        matrix_set=fset)
    return sp.window_rate_bound(model, 1).min_entry


class TestMinPositiveEntry:
    def test_single(self):
        assert entry_floor([[0.5, 0.5], [0.5, 0.5]]) == 0.5

    def test_identity(self):
        # every positive entry of the identity and of a rank-one 0/1 matrix
        # is 1
        assert entry_floor(np.eye(2), [[0, 1], [0, 1]]) == 1.0

    def test_figure_network_weights(self):
        w = uniform_weights(figure_network())
        # the largest in-neighborhood has two members, so the floor is 1/2;
        # the rank-one partner scrambles, which W never does
        assert entry_floor(w, np.eye(6)[[0] * 6]) == 0.5
