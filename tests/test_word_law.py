"""Differential tests of the merged-state word-law engine against the
brute-force word oracle in ``helpers``: exact window probabilities,
conditional expectations and window log rates must agree within 1e-12.
The one-walk window search must agree bit for bit with the restart search
of ``helpers``, which enumerates every length afresh."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import stochprod as sp
from stochprod import matrices, sequences
from stochprod.errors import EnumerationTooLarge, NoScramblingWindow
from stochprod.graphs import strongly_connected_components

from helpers import (
    boolean_product,
    class_probability,
    find_scrambling_window_restart,
    positive_words,
    random_stochastic,
    sparse_law,
    stacked,
    stationary_markov,
    window_probability_restart,
    window_words,
)

TOL = 1e-12
EPS = np.finfo(float).eps
PREDICATES = {"scrambling": sp.is_scrambling, "sia": sp.is_sia,
              "markov": sp.is_markov}

seeds = st.integers(0, 2**32 - 1)
symbols = st.integers(1, 3)
dims = st.integers(2, 4)
lengths = st.integers(1, 5)


def index_model(rng, variant, m, **kw):
    if variant == "iid":
        return sp.IIDModel(weights=sparse_law(rng, m), **kw)
    if variant == "markov":
        return sp.MarkovModulatedModel(
            initial=sparse_law(rng, m),
            transition=np.array([sparse_law(rng, m) for _ in range(m)]), **kw)
    if variant == "stationary":
        return stationary_markov(rng, m, **kw)
    script = rng.integers(m, size=int(rng.integers(1, 5)))
    return sp.ScriptedModel(indices=tuple(script.tolist()), **kw)


@given(seeds, symbols, dims, lengths, st.sampled_from(["iid", "markov", "scripted"]),
       st.integers(0, 3))
def test_window_class_probability_matches_word_oracle(seed, m, n, h, variant, start):
    rng = np.random.default_rng(seed)
    mats = tuple(random_stochastic(rng, n, density=0.4) for _ in range(m))
    model = index_model(rng, variant, m, matrix_set=sp.FiniteMatrixSet(mats))
    words = window_words(model, start, h)
    for klass, pred in PREDICATES.items():
        want = sum(p for w, p in words
                   if pred(sp.backward_product([mats[i] for i in w])))
        got = class_probability(model, start, h, pred)
        assert abs(got - want) <= TOL, (klass, got, want)


@given(seeds, symbols, dims, lengths, st.sampled_from(["iid", "markov", "scripted"]))
def test_window_connectivity_probability_matches_word_oracle(seed, m, n, h, variant):
    rng = np.random.default_rng(seed)
    graphs = tuple(
        sp.DirectedGraph(n, frozenset(
            [(i, i) for i in range(n)]
            + [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.3]))
        for _ in range(m))
    model = index_model(rng, variant, m)
    gmodel = sp.GraphSequenceModel(graph_set=graphs, model=model, window=h)

    def connected(word):
        comp = boolean_product([graphs[i].adj for i in word])
        return strongly_connected_components(comp)[0] == 1

    try:
        starts = sequences.window_starts(model)
    except EnumerationTooLarge:
        # a slowly mixing chain: no start list covers its marginal law
        with pytest.raises(EnumerationTooLarge):
            sp.window_connectivity_probability(gmodel)
        return
    want = min(sum(p for w, p in window_words(model, s, h) if connected(w))
               for s in starts)
    got = sp.window_connectivity_probability(gmodel)
    assert abs(got - want) <= TOL, (got, want)


@given(seeds, symbols, dims, lengths, st.sampled_from(["iid", "markov"]))
def test_expected_lyapunov_matches_word_oracle(seed, m, n, h, variant):
    rng = np.random.default_rng(seed)
    # modes drawn from a pool of two, so equal continuations occur and
    # merge; rows have absolute sums at most 1, keeping V below 1
    pool = [rng.uniform(-1.0, 1.0, (n, n)) / n for _ in range(2)]
    modes = tuple(pool[i] for i in rng.integers(2, size=m))
    signal = index_model(rng, variant, m)
    system = sp.SwitchedSystem(modes=modes, signal=signal)
    x = rng.uniform(-1.0, 1.0, n)
    mode = int(rng.integers(m))
    v = sp.inf_norm()
    want = sum(p * float(v(reduce(lambda acc, i: modes[i] @ acc, w, x)))
               for w, p in positive_words(signal.step_distribution(mode),
                                          signal.step_distribution, h))
    got = sp.expected_lyapunov(system, v, x, mode, h)
    assert abs(got - want) <= TOL, (got, want)


def log_rate_oracle(model, mats, h):
    """``window_log_rate`` by trying all m**h words at every window start,
    with the engine's rounding floor h * n * eps for tau = 0; also returns
    the smallest tau above the floor."""
    floor = h * mats[0].n * EPS
    best, tau_min = -np.inf, np.inf
    for start in sequences.window_starts(model):
        taus = [(p, sp.tau(sp.backward_product([mats[i] for i in w])))
                for w, p in window_words(model, start, h)]
        tau_min = min([tau_min] + [t for _, t in taus if t > floor])
        if all(t > floor for _, t in taus):
            best = max(best, sum(p * np.log(t) for p, t in taus))
    return float(np.exp(best / h)), tau_min


@given(seeds, symbols, dims, st.integers(1, 4),
       st.sampled_from(["iid", "stationary", "markov"]))
def test_window_log_rate_matches_word_oracle(seed, m, n, h, variant):
    rng = np.random.default_rng(seed)
    mats = tuple(random_stochastic(rng, n, density=0.4) for _ in range(m))
    model = index_model(rng, variant, m, matrix_set=sp.FiniteMatrixSet(mats))
    try:
        want, _ = log_rate_oracle(model, mats, h)
    except EnumerationTooLarge:
        with pytest.raises(EnumerationTooLarge):
            sp.window_log_rate(model, h)
        return
    got = sp.window_log_rate(model, h)
    assert abs(got - want) <= TOL, (got, want)


@given(seeds, symbols, dims, st.integers(1, 2),
       st.sampled_from(["iid", "stationary"]))
def test_window_log_rate_tightens_with_doubled_window(seed, m, n, h, variant):
    # log tau is subadditive, so on a stationary model E log tau(W(2h)) is at
    # most 2 E log tau(W(h)); each computed tau is within h * n * eps of the
    # exact one, which moves E log tau by at most that over the least tau
    rng = np.random.default_rng(seed)
    mats = tuple(random_stochastic(rng, n, density=0.4) for _ in range(m))
    model = index_model(rng, variant, m, matrix_set=sp.FiniteMatrixSet(mats))
    once, twice = sp.window_log_rate(model, h), sp.window_log_rate(model, 2 * h)
    if once == 0.0:
        assert twice == 0.0
        return
    _, tau_once = log_rate_oracle(model, mats, h)
    _, tau_twice = log_rate_oracle(model, mats, 2 * h)
    slack = (2 * h * n * EPS / tau_once + 2 * h * n * EPS / tau_twice
             + TOL)
    assert twice == 0.0 or 2 * h * np.log(twice) <= 2 * h * np.log(once) + slack


def search_outcome(search, model, h_max):
    try:
        return search(model, h_max)
    except (NoScramblingWindow, EnumerationTooLarge) as exc:
        return type(exc)


@given(seeds, symbols, dims, st.integers(1, 8), st.sampled_from([0.2, 0.4]),
       st.sampled_from(["iid", "stationary", "markov", "scripted"]))
def test_window_search_matches_restart_search(seed, m, n, h_max, density,
                                              variant):
    # sparse factors keep the first scrambling length past 1 most of the time
    rng = np.random.default_rng(seed)
    mats = tuple(random_stochastic(rng, n, density=density) for _ in range(m))
    model = index_model(rng, variant, m, matrix_set=sp.FiniteMatrixSet(mats))
    assert (search_outcome(sp.find_scrambling_window, model, h_max)
            == search_outcome(find_scrambling_window_restart, model, h_max))


@given(seeds, symbols, dims, lengths)
def test_scripted_window_probability_past_one_period(seed, m, n, h):
    rng = np.random.default_rng(seed)
    mats = tuple(random_stochastic(rng, n, density=0.3) for _ in range(m))
    model = index_model(rng, "scripted", m)
    starts = list(range(3 * model.period + 1))
    pats = [a.pattern() for a in mats]
    # the engine tests the stacked products at once, the oracle one by one
    for test, stack_test in ((sp.is_scrambling, matrices._stack_is_scrambling),
                             (sp.is_sia, stacked(sp.is_sia))):
        assert np.array_equal(
            sequences.window_probability(model, pats, h, stack_test, starts),
            window_probability_restart(model, pats, h, test, starts))


def cerny(n):
    """The Cerny automaton's cyclic shift and merge as 0/1 matrices: its
    shortest synchronizing word, and so its first scrambling window, has
    length (n - 1)^2."""
    shift, merge = np.zeros((n, n)), np.eye(n)
    shift[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    merge[0] = np.eye(n)[1]
    return sp.FiniteMatrixSet((shift, merge))


@pytest.mark.parametrize("h_max, found", [(16, 9), (8, None)])
def test_window_search_runs_one_layer_per_length(monkeypatch, h_max, found):
    # reaching length h runs h - 1 layers, found or not
    model = sp.IIDModel(weights=[0.5, 0.5], matrix_set=cerny(4))
    layers, real = [], sequences.advance

    def spy(*args):
        layers.append(args)
        return real(*args)

    monkeypatch.setattr(sequences, "advance", spy)
    if found is None:
        with pytest.raises(NoScramblingWindow):
            sp.find_scrambling_window(model, h_max)
    else:
        assert sp.find_scrambling_window(model, h_max).window_len == found
    assert len(layers) == (found or h_max) - 1


# the window-search model of the analysis benchmark: four functional 0/1
# maps on 5 states (a relabelled Cerny shift and merge plus two random
# maps), first scrambling at length 7 after 3,675 merged products
SEARCH_MAPS = ([4, 2, 3, 0, 1], [0, 2, 2, 3, 4], [1, 3, 0, 2, 3],
               [2, 0, 3, 1, 0])


def counting(test, calls):
    def spy(stack):
        calls.append(len(stack))
        return test(stack)
    return spy


def test_window_tests_run_once_per_length(monkeypatch):
    fset = sp.FiniteMatrixSet(tuple(np.eye(5)[f] for f in SEARCH_MAPS))
    model = sp.IIDModel(weights=[0.25] * 4, matrix_set=fset)
    calls = []
    monkeypatch.setattr(matrices, "_stack_is_scrambling",
                        counting(matrices._stack_is_scrambling, calls))
    assert sp.find_scrambling_window(model, 9).window_len == 7
    assert calls == [4, 16, 56, 179, 487, 1062, 1871]
    assert sum(calls) == 3675
    calls.clear()
    assert sp.window_rate_bound(model, 7).window_len == 7
    assert calls == [1871]
    calls.clear()
    sequences.window_probability(
        model, fset.patterns(), 6,
        counting(matrices._stack_is_markov, calls))
    assert calls == [1062]


def test_connectivity_window_tests_once(monkeypatch):
    # one stacked closure per window, and no Tarjan labelling at all
    graphs = [sp.DirectedGraph(3, {(0, 0), (1, 1), (2, 2), (i, (i + 1) % 3)})
              for i in range(3)]
    gmodel = sp.GraphSequenceModel(graphs, sp.IIDModel(weights=[1 / 3] * 3),
                                   window=3)
    calls = []
    monkeypatch.setattr(sp.graphs, "_stack_is_strongly_connected",
                        counting(sp.graphs._stack_is_strongly_connected, calls))
    monkeypatch.setattr(sp.graphs, "strongly_connected_components", None)
    p = sp.window_connectivity_probability(gmodel)
    assert len(calls) == 1 and 0.0 < p < 1.0
