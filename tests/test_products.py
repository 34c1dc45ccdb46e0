import json
import os

import numpy as np
import pytest

import stochprod as sp
from stochprod import jsonio, products, sequences
from stochprod.errors import (
    EnumerationTooLarge,
    InsufficientData,
    InvalidDistribution,
    NoScramblingWindow,
)

from helpers import random_stochastic

SCRAM = sp.StochasticMatrix([[0.2, 0.8], [0.5, 0.5]])   # tau = 0.3
EYE2 = sp.StochasticMatrix(np.eye(2))
ROT3 = sp.StochasticMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
MIX3 = sp.StochasticMatrix([[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]])
DATA = os.path.join(os.path.dirname(__file__), "data")


def constant_model(matrix, seed=0):
    return sp.IIDModel(weights=[1.0], seed=seed,
                       matrix_set=sp.FiniteMatrixSet((matrix,)))


def product_of_run(model, steps, trial=0):
    """Test-side reconstruction of the running product from the same seed."""
    arrays = model.matrix_set.entry_arrays()
    idx = sp.sample(model, steps, trial=trial)
    prod = np.eye(arrays[0].shape[0])
    for i in idx:
        prod = arrays[i] @ prod
    return prod


class TestSimulateProduct:
    def test_constant_scrambling_decays_submultiplicatively(self):
        model = constant_model(SCRAM)
        trace = sp.simulate_product(model, steps=64)
        for k, t in zip(trace.checkpoints, trace.taus):
            assert t <= sp.tau(SCRAM) ** k + 1e-12

    def test_constant_identity_stays_at_one(self):
        model = constant_model(EYE2)
        trace = sp.simulate_product(model, steps=100)
        assert all(t == 1.0 for t in trace.taus)

    def test_trace_monotone(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            mats = tuple(random_stochastic(rng, 4, density=0.5) for _ in range(3))
            model = sp.IIDModel(weights=[1 / 3] * 3, seed=100 + trial,
                                matrix_set=sp.FiniteMatrixSet(mats))
            trace = sp.simulate_product(model, steps=256)
            taus = np.asarray(trace.taus)
            spreads = np.asarray(trace.spreads)
            assert np.all(np.diff(taus) <= 1e-12)
            assert np.all(np.diff(spreads) <= 1e-12)

    def test_mixed_rotation_model_converges(self):
        # the rotation alone never converges; mixing in one averaging matrix
        # creates scrambling windows and drives tau to zero
        fset = sp.FiniteMatrixSet((ROT3, MIX3))
        model = sp.IIDModel(weights=[0.5, 0.5], seed=21, matrix_set=fset)
        assert sp.window_class_probability(model, 0, 2, "scrambling") > 0
        trace = sp.simulate_product(model, steps=512)
        assert trace.taus[-1] < 1e-6

    def test_rank_one_limit_shape(self):
        fset = sp.FiniteMatrixSet((ROT3, MIX3))
        model = sp.IIDModel(weights=[0.5, 0.5], seed=33, matrix_set=fset)
        trace = sp.simulate_product(model, steps=2048)
        if trace.taus[-1] < 1e-10:
            prod = product_of_run(model, trace.checkpoints[-1])
            xi = prod.mean(axis=0)
            assert np.abs(prod - xi).max() < 1e-8
            assert abs(xi.sum() - 1.0) < 1e-10

    def test_custom_checkpoints(self):
        model = constant_model(SCRAM)
        trace = sp.simulate_product(model, steps=10, checkpoints=[1, 5, 10])
        assert trace.checkpoints == (1, 5, 10)

    def test_steps_capped_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(products, "STEP_LIMIT", 5)
        model = constant_model(SCRAM)
        assert sp.simulate_product(model, steps=5).steps == 5

        def no_draw(*args, **kwargs):
            raise AssertionError("drew indices for a run outside the cap")

        monkeypatch.setattr(sequences, "sample", no_draw)
        for steps, message in ((0, "at least 1"), (-2, "at least 1"),
                               (6, "at most 5")):
            with pytest.raises(InvalidDistribution,
                               match=f"steps must be {message}"):
                sp.simulate_product(model, steps=steps)


class TestWindowRateBound:
    def test_constant_scrambling(self):
        model = constant_model(SCRAM)
        report = sp.window_rate_bound(model, 1)
        assert report.scrambling_prob == 1.0
        assert report.min_entry == pytest.approx(0.2)
        assert report.bound == pytest.approx(1 - 0.2)

    def test_constant_identity_has_no_window(self):
        with pytest.raises(NoScramblingWindow):
            sp.window_rate_bound(constant_model(EYE2), 3)

    def test_two_matrix_iid_counts_exactly(self):
        fset = sp.FiniteMatrixSet((SCRAM, EYE2))
        model = sp.IIDModel(weights=[0.5, 0.5], matrix_set=fset)
        report = sp.window_rate_bound(model, 1)
        assert report.scrambling_prob == 0.5

    def test_scripted_minimum_over_starts(self):
        # script (rot, mix): the window starting at 0 is mix@rot, at 1 rot@mix
        fset = sp.FiniteMatrixSet((ROT3, MIX3))
        model = sp.ScriptedModel(indices=(0, 1), matrix_set=fset)
        probs = [sp.window_class_probability(model, s, 2, "scrambling")
                 for s in (0, 1)]
        if min(probs) > 0:
            report = sp.window_rate_bound(model, 2)
            assert report.scrambling_prob == min(probs)

    def test_find_scrambling_window_searches_lengths(self):
        fset = sp.FiniteMatrixSet((ROT3, MIX3))
        model = sp.ScriptedModel(indices=(0, 1), matrix_set=fset)
        report = sp.find_scrambling_window(model, h_max=8)
        assert report.window_len == 2  # single factors never scramble here
        with pytest.raises(NoScramblingWindow):
            sp.find_scrambling_window(constant_model(EYE2), h_max=4)

    def test_bound_validity_ensemble(self):
        fset = sp.FiniteMatrixSet((SCRAM, EYE2))
        model = sp.IIDModel(weights=[0.5, 0.5], seed=40, matrix_set=fset)
        report = sp.window_rate_bound(model, 1)
        rates = []
        for trial in range(100):
            trace = sp.simulate_product(model, steps=2000, trial=trial)
            rates.append(sp.fit_empirical_rate(trace))
        rates = np.asarray(rates)
        sigma = rates.std(ddof=1)
        assert np.all(rates <= report.bound + 3 * sigma)


class TestWindowLogRate:
    def test_constant_model_exact(self):
        expected = sp.tau(sp.backward_product([SCRAM] * 3)) ** (1 / 3)
        assert sp.window_log_rate(constant_model(SCRAM), 3) == pytest.approx(
            expected, rel=1e-12)

    def test_two_outcome_closed_form(self):
        # E log tau over the two outcomes: 0.5 log tau(S) + 0.5 log 1
        fset = sp.FiniteMatrixSet((SCRAM, EYE2))
        model = sp.IIDModel(weights=[0.5, 0.5], matrix_set=fset)
        assert sp.window_log_rate(model, 1) == pytest.approx(
            np.sqrt(sp.tau(SCRAM)), rel=1e-12)

    def test_readme_product_model(self):
        # 2x2 tau is multiplicative, so every window gives the true rate
        with open(os.path.join(DATA, "readme_product", "config.json")) as fh:
            model = jsonio.model_from_json(json.load(fh)["model"])
        for h in range(1, 9):
            assert sp.window_log_rate(model, h) == pytest.approx(
                np.sqrt(0.3), rel=1e-12)

    def test_zero_tau_window_gives_zero(self):
        identical = sp.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])  # tau = 0
        assert sp.window_log_rate(constant_model(identical), 1) == 0.0
        fset = sp.FiniteMatrixSet((identical, EYE2))
        model = sp.IIDModel(weights=[0.01, 0.99], matrix_set=fset)
        for h in (1, 2, 5):
            assert sp.window_log_rate(model, h) == 0.0

    def test_window_below_one_rejected(self):
        for h in (0, -1):
            with pytest.raises(InvalidDistribution,
                               match="window length must be at least 1"):
                sp.window_log_rate(constant_model(SCRAM), h)

    def test_non_stationary_takes_worst_start(self):
        # the alternating chain puts SCRAM at even starts and EYE2 at odd
        # ones: a single factor decays only from the even starts, while
        # every window of two holds one SCRAM
        fset = sp.FiniteMatrixSet((SCRAM, EYE2))
        model = sp.MarkovModulatedModel(
            initial=[1, 0], transition=[[0, 1], [1, 0]], matrix_set=fset)
        assert sp.window_log_rate(model, 1) == 1.0
        assert sp.window_log_rate(model, 2) == pytest.approx(
            np.sqrt(sp.tau(SCRAM)), rel=1e-12)

    def test_scripted_model_rejected(self):
        model = sp.ScriptedModel(indices=(0, 1),
                                 matrix_set=sp.FiniteMatrixSet((SCRAM, EYE2)))
        with pytest.raises(InvalidDistribution, match="scripted"):
            sp.window_log_rate(model, 2)

    def test_enumeration_budget(self, monkeypatch):
        monkeypatch.setattr(sequences, "STATE_LIMIT", 3)
        fset = sp.FiniteMatrixSet((SCRAM, EYE2))
        model = sp.IIDModel(weights=[0.5, 0.5], matrix_set=fset)
        with pytest.raises(EnumerationTooLarge):
            sp.window_log_rate(model, 2)


class TestFitEmpiricalRate:
    def test_geometric_sequence(self):
        trace = sp.ProductTrace(checkpoints=(0, 1, 2, 3),
                                taus=(1.0, 0.5, 0.25, 0.125),
                                spreads=(1.0, 0.5, 0.25, 0.125), seed=0, steps=3)
        assert sp.fit_empirical_rate(trace) == pytest.approx(0.5, abs=1e-12)

    def test_constant_tau(self):
        trace = sp.ProductTrace(checkpoints=(1, 2, 4), taus=(1.0, 1.0, 1.0),
                                spreads=(1.0, 1.0, 1.0), seed=0, steps=4)
        assert sp.fit_empirical_rate(trace) == pytest.approx(1.0)

    def test_constant_scrambling_recovers_tau(self):
        trace = sp.simulate_product(constant_model(SCRAM), steps=64)
        assert sp.fit_empirical_rate(trace) == pytest.approx(sp.tau(SCRAM), abs=1e-6)

    def test_insufficient_data(self):
        trace = sp.ProductTrace(checkpoints=(1, 2), taus=(0.5, 0.25),
                                spreads=(1, 1), seed=0, steps=2)
        with pytest.raises(InsufficientData):
            sp.fit_empirical_rate(trace)


class TestScriptedWindows:
    def test_deterministic_scrambling_windows_bound(self):
        # a deterministic alternation whose every length-2 window scrambles
        fset = sp.FiniteMatrixSet((ROT3, MIX3))
        model = sp.ScriptedModel(indices=(0, 1), seed=3, matrix_set=fset)
        h = 2
        for s in range(model.period):
            assert sp.window_class_probability(model, s, h, "scrambling") == 1.0
        report = sp.window_rate_bound(model, h)
        assert report.scrambling_prob == 1.0
        trace = sp.simulate_product(model, steps=4096)
        fitted = sp.fit_empirical_rate(trace)
        assert fitted <= report.bound + 1e-9
