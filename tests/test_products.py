import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stochprod as sp
from stochprod import cli, jsonio, matrices, products, sequences
from stochprod.errors import (
    EnumerationTooLarge,
    InsufficientData,
    InvalidDistribution,
    NoScramblingWindow,
)

from helpers import (
    class_probability,
    random_stochastic,
    simulate_product_per_step,
    spy_streams,
)

SCRAM = sp.StochasticMatrix([[0.2, 0.8], [0.5, 0.5]])   # tau = 0.3
EYE2 = sp.StochasticMatrix(np.eye(2))
ROT3 = sp.StochasticMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
MIX3 = sp.StochasticMatrix([[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]])
DATA = os.path.join(os.path.dirname(__file__), "data")


def constant_model(matrix, seed=0):
    return sp.IIDModel(weights=[1.0], seed=seed,
                       matrix_set=sp.FiniteMatrixSet((matrix,)))


def golden_model(name):
    with open(os.path.join(DATA, name, "config.json")) as fh:
        return jsonio.model_from_json(json.load(fh)["model"])


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
        assert class_probability(model, 0, 2, sp.is_scrambling) > 0
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

    def test_tau_passes_the_rounding_floor_of_the_full_product(self):
        # the rows of the explicit product agree to rounding by step 2048,
        # so its tau stalls near 1e-14; the row differences keep contracting
        model = golden_model("product_markov")
        assert 1e-16 < sp.tau(product_of_run(model, 3000)) < 1e-12
        trace = sp.simulate_product(model, steps=3000)
        assert trace.checkpoints[-1] == 3000
        assert trace.taus[-1] < 1e-30 and trace.spreads[-1] < 1e-30

    @pytest.mark.parametrize("case", ["product_markov", "readme_product",
                                      "rotation", "positive"])
    def test_reduced_tau_and_spread_match_the_explicit_product(self, case):
        rng = np.random.default_rng(7)
        if case == "rotation":
            model = sp.IIDModel(weights=[0.5, 0.5], seed=33,
                                matrix_set=sp.FiniteMatrixSet((ROT3, MIX3)))
        elif case == "positive":
            fset = sp.FiniteMatrixSet(tuple(
                random_stochastic(rng, 6, density=1.0) for _ in range(3)))
            model = sp.IIDModel(weights=[0.2, 0.3, 0.5], seed=7,
                                matrix_set=fset)
        else:
            model = golden_model(case)
        # a checkpoint at every step, so the explicit product advances one
        # factor per checkpoint
        trace = sp.simulate_product(model, 3000, checkpoints=range(1, 3001))
        arrays = model.matrix_set.entry_arrays()
        prod = np.eye(arrays[0].shape[0])
        idx = sp.sample(model, 3000).tolist()
        compared = 0
        for k, t, s in zip(trace.checkpoints, trace.taus, trace.spreads):
            if t <= 1e-10:
                break
            prod = arrays[idx[k - 1]] @ prod
            assert abs(t - sp.tau(prod)) <= 1e-12
            assert abs(s - matrices._column_spreads(prod[None])[0]) <= 1e-12
            compared += 1
        assert compared >= 10

    @pytest.mark.parametrize("case", ["constant", "readme_product",
                                      "product_markov"])
    def test_floor_crossing_stops_with_the_per_step_recurrence(self, case):
        # tau falls past TAU_FLOOR between two checkpoints ten steps apart;
        # the run stops there, as the per-step recurrence does
        steps = 40000 if case == "product_markov" else 2000
        model = (constant_model(SCRAM) if case == "constant"
                 else golden_model(case))
        cps = range(10, steps + 1, 10)
        got = sp.simulate_product(model, steps, checkpoints=cps)
        want = simulate_product_per_step(model, steps, checkpoints=cps)
        assert got.checkpoints == want.checkpoints
        assert got.checkpoints[-1] < steps
        assert got.taus[-1] < 1e-290
        np.testing.assert_allclose(got.taus, want.taus, rtol=1e-9, atol=0)

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

        monkeypatch.setattr(sp.IIDModel, "stream", no_draw)
        for steps, message in ((0, "at least 1"), (-2, "at least 1"),
                               (6, "at most 5"), (10.7, "an integer"),
                               ("5", "an integer"), (True, "an integer")):
            with pytest.raises(InvalidDistribution,
                               match=f"steps must be {message}"):
                sp.simulate_product(model, steps=steps)
        # a fraction or a NaN is not a checkpoint: never truncated or dropped
        for checkpoints in ([1.5, 3], [float("nan")], ["2"]):
            with pytest.raises(InvalidDistribution,
                               match="checkpoint must be an integer"):
                sp.simulate_product(model, steps=3, checkpoints=checkpoints)
        for steps, message in ((0, "at least 1"), (2.5, "an integer")):
            with pytest.raises(InvalidDistribution,
                               match=f"steps must be {message}"):
                products.default_checkpoints(steps)
        with pytest.raises(AssertionError, match="drew indices"):
            sp.simulate_product(model, steps=5)

    def test_run_draws_no_index_past_its_stop(self, monkeypatch, tmp_path):
        # a 10^6-step run stops at the first checkpoint whose tau is below
        # TAU_FLOOR: its one stream draws the segments up to that checkpoint
        # and no index after it
        opened = spy_streams(monkeypatch, sp.MarkovModulatedModel)
        config = os.path.join(DATA, "product_markov", "config.json")
        assert cli.main(["run", "product", "--config", config, "--steps",
                         "1000000", "--out", str(tmp_path)]) == 0
        last = int((tmp_path / "trace.csv").read_text().split()[-1]
                   .split(",")[0])
        checkpoints = products.default_checkpoints(10**6)
        stop = checkpoints.index(last) + 1
        [(trial, counts)] = opened
        assert trial == 0 and checkpoints[stop] < 10**5
        assert counts == np.diff((0,) + checkpoints[:stop + 1]).tolist()


class TestBlockTable:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5),
           st.integers(1, 4000), st.integers(1, 20000))
    @settings(max_examples=60)
    def test_deepest_table_within_chunk_and_blocks(self, seed, k, n, chunk,
                                                   steps):
        rng = np.random.default_rng(seed)
        # rows of absolute sum below 1: deep products shrink, never overflow
        hats = rng.uniform(-1, 1, (k, n - 1, n - 1)) / max(n - 1, 1)
        table, depth = products._block_table(hats, chunk, steps)
        width = 1 << depth
        assert table.shape == (k**width,) + hats.shape[1:]
        if depth:
            assert len(table) <= min(chunk, steps >> depth)
        assert len(table) ** 2 > min(chunk, steps >> (depth + 1))
        # a block's entry reads its indices as base-k digits, the earliest
        # the lowest, and holds the block's tree product bit for bit
        for block in rng.integers(k, size=(3, width)):
            code = int(block @ k ** np.arange(width))
            assert np.array_equal(table[code],
                                  products._tree_product(hats[block]))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6),
           st.integers(1, 300), st.integers(1, 4), st.integers(0, 6),
           st.integers(0, 15))
    @settings(max_examples=80)
    def test_chunk_batch_matches_its_rows(self, seed, k, n, chunk, rows,
                                          blocks, tail):
        # each row of a (B, length) batch, with or without a tail past its
        # last full block, is the product of its own call and of the plain
        # tree, bit for bit; one matrix deepens the table to L = 10
        rng = np.random.default_rng(seed)
        hats = rng.uniform(-1, 1, (k, n - 1, n - 1)) / max(n - 1, 1)
        table, depth = products._block_table(hats, chunk, 2**10)
        length = (blocks << depth) + tail % (1 << depth)
        assume(length > 0)
        idx = rng.integers(k, size=(rows, length))
        got = products._chunk_product(hats, table, depth, idx)
        assert got.shape == (rows, n - 1, n - 1)
        alone = [products._chunk_product(hats, table, depth, row[None])[0]
                 for row in idx]
        assert np.array_equal(got, np.stack(alone))
        tree = [products._tree_product(hats[row]) for row in idx]
        assert np.array_equal(got, np.stack(tree))

    @pytest.mark.parametrize("k,n,factors,steps", [
        (1, 3, 1, 1000), (1, 3, 3, 1000), (3, 16, None, 2000)],
        ids=["one-matrix-chunk-1", "one-matrix-chunk-3", "3-symbols-n16"])
    def test_batches_stack_at_most_one_chunk(self, monkeypatch, k, n,
                                             factors, steps):
        # one matrix deepens its table with the run (L = 9 here), not with
        # the chunk, so a batch of 2^L chunks would stack 2^L tails; at 16
        # states, 3 chunks of 36 blocks and a tail stack 111 of 145 entries
        if factors is not None:
            monkeypatch.setattr(products, "CHUNK_BYTES",
                                factors * (n - 1) ** 2 * 8)
        tree, table = products._tree_product, products._block_table
        stacked, built = [], []
        monkeypatch.setattr(products, "_tree_product", lambda stack: (
            stacked.append(int(np.prod(stack.shape[:-2]))) or tree(stack)))
        monkeypatch.setattr(products, "_block_table", lambda *args: (
            built.append(table(*args)) or built[-1]))
        rng = np.random.default_rng(n)
        fset = sp.FiniteMatrixSet(tuple(
            sp.StochasticMatrix(0.9 * np.eye(n) + 0.1 * random_stochastic(
                rng, n).entries) for _ in range(k)))
        model = sp.IIDModel(weights=np.full(k, 1 / k), matrix_set=fset)
        trace = sp.simulate_product(model, steps)
        assert trace.checkpoints[-1] == steps
        [(_, depth)] = built
        assert depth >= (2 if k > 1 else 4)
        chunk = products.CHUNK_BYTES // ((n - 1) ** 2 * 8)
        assert stacked and max(stacked) <= chunk

    @pytest.mark.parametrize("k,n,steps", [(40, 32, 500), (3, 4, 1)],
                             ids=["40-symbols-n32", "one-step"])
    def test_no_table(self, monkeypatch, k, n, steps):
        # 40^2 products of 31 x 31 factors pass a chunk of 34 such factors;
        # a 1-step run has no block of two
        built, real = [], products._block_table
        monkeypatch.setattr(products, "_block_table",
                            lambda *args: built.append(real(*args)) or built[-1])
        rng = np.random.default_rng(k)
        fset = sp.FiniteMatrixSet(tuple(random_stochastic(rng, n)
                                        for _ in range(k)))
        model = sp.IIDModel(weights=np.full(k, 1 / k), matrix_set=fset)
        assert sp.simulate_product(model, steps).steps == steps
        [(table, depth)] = built
        assert depth == 0 and len(table) == k


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
        probs = [class_probability(model, s, 2, sp.is_scrambling)
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

    @pytest.mark.parametrize("h_max", [0, -3])
    def test_window_search_bound_below_one_refused(self, h_max):
        # the length-1 window scrambles with probability 1/2; a bound below
        # 1 is bad input, not a search that found nothing
        fset = sp.FiniteMatrixSet((SCRAM, EYE2))
        model = sp.IIDModel(weights=[0.5, 0.5], matrix_set=fset)
        with pytest.raises(InvalidDistribution, match="at least 1"):
            sp.find_scrambling_window(model, h_max=h_max)

    def test_window_search_bound_must_be_an_integer(self):
        # a bound of 2.5 is refused, not truncated to a search up to 2
        fset = sp.FiniteMatrixSet((SCRAM, EYE2))
        model = sp.IIDModel(weights=[0.5, 0.5], matrix_set=fset)
        with pytest.raises(InvalidDistribution,
                           match="window length bound must be an integer"):
            sp.find_scrambling_window(model, h_max=2.5)

    def test_window_search_budget(self, monkeypatch):
        # one walk reaches lengths 1-4 in 3 layers; length 5 needs a fourth
        fset = sp.FiniteMatrixSet((ROT3, MIX3))
        model = sp.IIDModel(weights=[0.5, 0.5], matrix_set=fset)
        monkeypatch.setattr(sequences, "WINDOW_LAYERS", 3)
        assert sp.find_scrambling_window(model, h_max=3).window_len == 1
        with pytest.raises(EnumerationTooLarge,
                           match="4 enumeration layers up to window length 5 "
                                 "exceed 3"):
            sp.find_scrambling_window(constant_model(EYE2), h_max=10)
        with pytest.raises(NoScramblingWindow):
            sp.find_scrambling_window(constant_model(EYE2), h_max=3)

    def test_unbounded_window_search_ends(self):
        # a one-matrix identity set never scrambles: every window length up
        # to the budget is tried, each one more one-state layer of the walk
        with pytest.raises(EnumerationTooLarge, match="window length 20002 "):
            sp.find_scrambling_window(constant_model(EYE2), h_max=10**9)

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


@st.composite
def rank_one_sets(draw):
    """1-3 rank-one 0/1 matrices (every row the same unit vector: alpha is
    1 and every window scrambles) with normalised i.i.d. weights, and a
    window length."""
    n = draw(st.integers(2, 4))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(cols),
                                 max_size=len(cols))))
    fset = sp.FiniteMatrixSet(tuple(np.eye(n)[[c] * n] for c in cols))
    return sp.IIDModel(weights=raw / raw.sum(), matrix_set=fset), \
        draw(st.integers(1, 5))


@given(rank_one_sets())
def test_rank_one_probabilities_and_bounds_stay_in_unit_interval(case):
    # summed window probabilities can round past 1 (1.0000000000000004 for
    # two copies of [[0, 1], [0, 1]] at weights 0.813/0.187 and h = 3); a
    # bound read from such a p came out complex
    model, h = case
    probs = sequences.window_probability(model, model.matrix_set.patterns(),
                                         h, matrices._stack_is_scrambling)
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    for report in (sp.window_rate_bound(model, h),
                   sp.find_scrambling_window(model, h)):
        assert 0.0 <= report.scrambling_prob <= 1.0
        assert isinstance(report.bound, float) and 0.0 <= report.bound <= 1.0


def test_summed_probability_past_one_is_clipped():
    fset = sp.FiniteMatrixSet(([[0, 1], [0, 1]], [[0, 1], [0, 1]]))
    model = sp.IIDModel(weights=[0.81304242, 0.18695758], matrix_set=fset)
    report = sp.window_rate_bound(model, 3)
    assert report.scrambling_prob == 1.0 and report.bound == 0.0


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
        for h, message in ((0, "at least 1"), (-1, "at least 1"),
                           (2.5, "an integer")):
            for query in (sp.window_log_rate, sp.window_rate_bound):
                with pytest.raises(InvalidDistribution,
                                   match=f"window length must be {message}"):
                    query(constant_model(SCRAM), h)

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
            assert class_probability(model, s, h, sp.is_scrambling) == 1.0
        report = sp.window_rate_bound(model, h)
        assert report.scrambling_prob == 1.0
        trace = sp.simulate_product(model, steps=4096)
        fitted = sp.fit_empirical_rate(trace)
        assert fitted <= report.bound + 1e-9
