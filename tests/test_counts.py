"""Every count a public function or constructor takes is an integer of at
least its least value, or ``InvalidDistribution`` is raised before any work:
no float is truncated, no string parsed, no boolean read as 0 or 1.  Every
start vector holds numbers, or ``DimensionMismatch`` is raised as early, and
so does every real array, or ``NonFiniteEntry`` for a NaN in it."""

import numpy as np
import pytest

import stochprod as sp
from stochprod import agreement, equations, sequences
from stochprod.errors import (DimensionMismatch, InvalidDistribution,
                              NonFiniteEntry)

FSET = sp.FiniteMatrixSet(([[0.2, 0.8], [0.5, 0.5]], np.eye(2)))
IID = sp.IIDModel(weights=[0.5, 0.5], matrix_set=FSET)
MARKOV = sp.MarkovModulatedModel(initial=[1.0, 0.0],
                                 transition=[[0.5, 0.5], [0.5, 0.5]],
                                 matrix_set=FSET)
SYSTEM = sp.SwitchedSystem(modes=(np.diag([0.5, 1.0]), np.diag([1.0, 0.5])),
                           signal=IID)
COMPLETE = sp.DirectedGraph(2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
GMODEL = sp.GraphSequenceModel(graph_set=(COMPLETE, COMPLETE), model=IID)
LINEAR = sp.PartitionedLinearSystem(blocks=(([[1.0, 0.0]], [1.0]),
                                            ([[0.0, 1.0]], [1.0])))
W = sp.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
CLOCKS = sp.BernoulliClocks(rates=[0.5, 0.5])

# name -> (least value, call with the count set to v)
COUNTS = {
    "sample-length": (1, lambda v: sp.sample(IID, v)),
    "sample-trial": (0, lambda v: sp.sample(IID, 5, trial=v)),
    "iid-seed": (0, lambda v: sp.IIDModel(weights=[1.0], seed=v)),
    "scripted-index": (0, lambda v: sp.ScriptedModel((0, v))),
    "marginal-position": (0, lambda v: MARKOV.marginal(v)),
    "window_probability-h": (1, lambda v: sequences.window_probability(
        IID, FSET.patterns(), v, sp.matrices._stack_is_scrambling)),
    "window_probability-start": (0, lambda v: sequences.window_probability(
        IID, FSET.patterns(), 2, sp.matrices._stack_is_scrambling, [0, v])),
    "default_checkpoints-steps": (1, lambda v: sp.default_checkpoints(v)),
    "simulate_product-steps": (1, lambda v: sp.simulate_product(IID, v)),
    "simulate_product-trial": (0, lambda v: sp.simulate_product(IID, 8,
                                                                trial=v)),
    "window_rate_bound-h": (1, lambda v: sp.window_rate_bound(IID, v)),
    "find_scrambling_window-h_max": (1, lambda v: sp.find_scrambling_window(
        IID, v)),
    "window_log_rate-h": (1, lambda v: sp.window_log_rate(IID, v)),
    "expected_lyapunov-mode": (0, lambda v: sp.expected_lyapunov(
        SYSTEM, sp.inf_norm(), [1.0, 1.0], v, 2)),
    "expected_lyapunov-horizon": (1, lambda v: sp.expected_lyapunov(
        SYSTEM, sp.inf_norm(), [1.0, 1.0], 0, v)),
    "certify_contraction-horizon_max": (1, lambda v: sp.certify_contraction(
        SYSTEM, sp.inf_norm(), v)),
    "monte_carlo_decay-steps": (1, lambda v: sp.monte_carlo_decay(
        SYSTEM, sp.inf_norm(), [1.0, 1.0], v, 2)),
    "monte_carlo_decay-trials": (1, lambda v: sp.monte_carlo_decay(
        SYSTEM, sp.inf_norm(), [1.0, 1.0], 10, v)),
    "sphere_grid-resolution": (1, lambda v: sp.SphereGrid(resolution=v)),
    "sphere_grid-points_per_face": (1, lambda v: sp.SphereGrid(
        points_per_face=v)),
    "simulate_async-steps": (0, lambda v: sp.simulate_async(
        W, CLOCKS, [0.0, 1.0], v)),
    "simulate_async-trial": (0, lambda v: sp.simulate_async(
        W, CLOCKS, [0.0, 1.0], 10, trial=v)),
    "graph_model-window": (1, lambda v: sp.GraphSequenceModel(
        graph_set=(COMPLETE,), model=sp.IIDModel(weights=[1.0]), window=v)),
    "sample_graphs-length": (1, lambda v: GMODEL.sample_graphs(v)),
    "sample_graphs-trial": (0, lambda v: GMODEL.sample_graphs(5, trial=v)),
    "window_connectivity-window": (1, lambda v:
                                   sp.window_connectivity_probability(
                                       GMODEL, v)),
    "run_solver-max_iters": (0, lambda v: sp.run_solver(LINEAR, GMODEL, v)),
    "run_solver-record_every": (1, lambda v: sp.run_solver(
        LINEAR, GMODEL, 10, record_every=v)),
    "run_solver-norm_windows": (0, lambda v: sp.run_solver(
        LINEAR, GMODEL, 10, norm_windows=v)),
    "run_solver-trial": (0, lambda v: sp.run_solver(LINEAR, GMODEL, 10,
                                                    trial=v)),
    "smallest_contracting_window-max_len": (1, lambda v:
                                            sp.smallest_contracting_window(
                                                GMODEL, sp.kernel_projections(
                                                    LINEAR), v)),
    "mixed_matrix_norm-block_size": (1, lambda v: sp.mixed_matrix_norm(
        np.eye(4), v)),
    "directed_graph-n": (0, lambda v: sp.DirectedGraph(v)),
}
# counts whose too-small value raises another error than InvalidDistribution
BELOW_ERRORS = {"directed_graph-n": DimensionMismatch}


@pytest.fixture
def no_work(monkeypatch):
    """Make every draw, enumeration layer and firing set fail loudly."""
    def boom(*args, **kwargs):
        raise AssertionError("work started before the count was checked")

    for model_type in (sequences.IIDModel, sequences.MarkovModulatedModel,
                       sequences.ScriptedModel):
        monkeypatch.setattr(model_type, "stream", boom)
    monkeypatch.setattr(sequences, "advance", boom)
    monkeypatch.setattr(sequences, "_window_walk", boom)
    monkeypatch.setattr(agreement, "_firing_sets", boom)
    monkeypatch.setattr(equations, "_step", boom)


@pytest.mark.parametrize("name", list(COUNTS))
@pytest.mark.parametrize("value", ["float", "text", "bool", "below"])
def test_count_refused_before_any_work(no_work, name, value):
    least, call = COUNTS[name]
    v = {"float": 2.5, "text": "5", "bool": True, "below": least - 1}[value]
    error = InvalidDistribution
    if value == "below":
        error = BELOW_ERRORS.get(name, InvalidDistribution)
    with pytest.raises(error):
        call(v)


@pytest.mark.parametrize("least,call", list(COUNTS.values()), ids=list(COUNTS))
def test_numpy_integer_count_accepted(least, call):
    call(np.int64(least + 1))


# name -> call with the start vector set to v
STARTS = {
    "simulate_async": lambda v: sp.simulate_async(W, CLOCKS, v, 10),
    "monte_carlo_decay": lambda v: sp.monte_carlo_decay(
        SYSTEM, sp.inf_norm(), v, 10, 2),
}


@pytest.mark.parametrize("name", list(STARTS))
@pytest.mark.parametrize("x0", [[0.0, "a"], ["0", "1"], [True, False],
                                [1.0, True], [1, np.False_], [None, 1.0]],
                         ids=["text", "texts", "bools", "float-bool",
                              "int-bool", "none"])
def test_start_vector_of_non_numbers_refused_before_any_work(no_work, name,
                                                             x0):
    with pytest.raises(DimensionMismatch, match="expected numbers"):
        STARTS[name](x0)


# name -> call with a vector argument set to v
VECTORS = {
    **STARTS,
    "bernoulli-rates": lambda v: sp.BernoulliClocks(rates=v),
    "poisson-rates": lambda v: sp.PoissonClocks(rates=v),
}


@pytest.mark.parametrize("name", list(VECTORS))
@pytest.mark.parametrize("v", [[[0.5], 0.5], [[0.5, 0.5], [0.5]]],
                         ids=["list-and-number", "ragged-rows"])
def test_ragged_vector_refused_before_any_work(no_work, name, v):
    # once numpy's bare ValueError, "setting an array element with a sequence"
    with pytest.raises(DimensionMismatch, match="do not form an array"):
        VECTORS[name](v)


IID_SIGNAL = sp.IIDModel(weights=[1.0])
TEXT_ROWS = [["0.5", "0.5"], ["0.5", "0.5"]]
BOOL_ROWS = [[True, False], [False, True]]
RAGGED_ROWS = [[0.5], [0.5, 0.5]]


def _modes(mode):
    return sp.SwitchedSystem(modes=(mode,), signal=IID_SIGNAL)


def _block(a, b=(1.0, 1.0)):
    return sp.PartitionedLinearSystem(blocks=((a, list(b)),))


def _x(x):
    return sp.expected_lyapunov(SYSTEM, sp.inf_norm(), x, 0, 1)


# name -> (call, error): every real array the library takes holds numbers
# in a full array of its shape, finite; each row was accepted, answered
# with nan, or escaped as a raw numpy ValueError
REFUSED = {
    "iid-weights-text": (lambda: sp.IIDModel(weights=["0.5", "0.5"]),
                         DimensionMismatch),
    "iid-weights-bools": (lambda: sp.IIDModel(weights=[True, False]),
                          DimensionMismatch),
    "iid-weights-ragged": (lambda: sp.IIDModel(weights=[[0.5], [0.5, 0]]),
                           DimensionMismatch),
    "markov-transition-text": (lambda: sp.MarkovModulatedModel(
        initial=[1.0, 0.0], transition=TEXT_ROWS), DimensionMismatch),
    "markov-transition-bools": (lambda: sp.MarkovModulatedModel(
        initial=[1.0, 0.0], transition=BOOL_ROWS), DimensionMismatch),
    "markov-transition-ragged": (lambda: sp.MarkovModulatedModel(
        initial=[1.0, 0.0], transition=RAGGED_ROWS), DimensionMismatch),
    "switched-mode-text": (lambda: _modes(TEXT_ROWS), DimensionMismatch),
    "switched-mode-bools": (lambda: _modes(BOOL_ROWS), DimensionMismatch),
    "switched-mode-ragged": (lambda: _modes(RAGGED_ROWS), DimensionMismatch),
    "system-block-text": (lambda: _block(TEXT_ROWS), DimensionMismatch),
    "system-block-bools": (lambda: _block(BOOL_ROWS), DimensionMismatch),
    "system-block-ragged": (lambda: _block(RAGGED_ROWS), DimensionMismatch),
    "system-rhs-text": (lambda: _block(np.eye(2), ["1", "1"]),
                        DimensionMismatch),
    "tau-text": (lambda: sp.tau(TEXT_ROWS), DimensionMismatch),
    "tau-bool-eye": (lambda: sp.tau(np.eye(2, dtype=bool)), DimensionMismatch),
    "expected_lyapunov-x-text": (lambda: _x(["1", "1"]), DimensionMismatch),
    "expected_lyapunov-x-length": (lambda: _x([1.0, 1.0, 1.0]),
                                   DimensionMismatch),
    "expected_lyapunov-x-nan": (lambda: _x([np.nan, 1.0]), NonFiniteEntry),
    "spread-text": (lambda: sp.spread(["1", "2"]), DimensionMismatch),
    "spread-nan": (lambda: sp.spread([np.nan, 1.0]), NonFiniteEntry),
}


@pytest.mark.parametrize("call,error", list(REFUSED.values()),
                         ids=list(REFUSED))
def test_real_array_refused_with_a_typed_error(call, error):
    with pytest.raises(error):
        call()
