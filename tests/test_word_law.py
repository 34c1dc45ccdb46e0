"""Differential tests of the merged-state word-law engine against the
brute-force word oracle in ``helpers``: exact window probabilities,
conditional expectations and window log rates must agree within 1e-12."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import stochprod as sp
from stochprod import sequences
from stochprod.errors import EnumerationTooLarge

from helpers import (
    positive_words,
    random_stochastic,
    stationary_markov,
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


def sparse_law(rng, size):
    """A probability vector with some entries zeroed, so words get pruned."""
    w = rng.dirichlet(np.ones(size)) * (rng.random(size) < 0.7)
    if not w.any():
        w[rng.integers(size)] = 1.0
    return w / w.sum()


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
        got = sp.window_class_probability(model, start, h, klass)
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
        comp = reduce(lambda acc, i: sp.compose(graphs[i], acc), word[1:],
                      graphs[word[0]])
        return sp.is_strongly_connected(comp)

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
