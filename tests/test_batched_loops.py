"""Differential tests of the batched sampling and simulation loops against
the step-at-a-time reference loops in ``helpers``: every output must agree
bit for bit (``np.array_equal`` and exact equality, no tolerance).  The
asynchronous runs draw their events from a law, not a tick stream, so they
agree with the tick loop in law (a two-sample chi-square test) and with a
replay of their own event stream bit for bit."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochprod as sp
from stochprod import agreement, equations
from stochprod.errors import InvalidDistribution

from helpers import (
    apply_firing_sets,
    firing_set_counts,
    markov_indices_stepwise,
    monte_carlo_decay_per_trial,
    random_stochastic,
    run_solver_stepwise,
    simulate_async_per_tick,
    simulate_product_per_step,
    two_sample_chi_square_p,
)

seeds = st.integers(0, 2**32 - 1)
symbols = st.integers(1, 4)
dims = st.integers(1, 6)
lengths = st.one_of(st.just(1), st.integers(1, 40), st.integers(200, 2000))
trials = st.integers(0, 5)

# the largest double below 1: only the ``m - 1`` clamp keeps it in range
# once a cumulative row sums to less than 1
ALMOST_ONE = 1.0 - 2.0**-53


def chain_row(rng, m):
    """A transition row: sparse (zero-probability moves), absorbing, or
    nudged so that its cumulative sum ends a few ulps below 1."""
    kind = rng.integers(3)
    if kind == 1:
        return np.eye(m)[rng.integers(m)]
    row = rng.dirichlet(np.ones(m)) * (rng.random(m) < 0.7)
    if not row.any():
        row[rng.integers(m)] = 1.0
    row /= row.sum()
    if kind == 2:
        j = int(np.flatnonzero(row)[-1])
        while np.cumsum(row)[-1] >= 1.0:
            row[j] = np.nextafter(row[j], 0.0)
    return row


def markov_model(rng, m, **kw):
    return sp.MarkovModulatedModel(initial=chain_row(rng, m),
                                   transition=np.array([chain_row(rng, m)
                                                        for _ in range(m)]),
                                   seed=int(rng.integers(2**31)), **kw)


def signal(rng, variant, m, **kw):
    if variant == "markov":
        return markov_model(rng, m, **kw)
    if variant == "iid":
        return sp.IIDModel(weights=chain_row(rng, m),
                           seed=int(rng.integers(2**31)), **kw)
    script = rng.integers(m, size=int(rng.integers(1, 6)))
    return sp.ScriptedModel(indices=tuple(script.tolist()), **kw)


@given(seeds, symbols, lengths, trials)
def test_markov_sampler_matches_stepwise(seed, m, length, trial):
    model = markov_model(np.random.default_rng(seed), m)
    got = model.sample_indices(length, trial=trial)
    want = markov_indices_stepwise(model, length, trial=trial)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@given(seeds, symbols, st.sampled_from(["iid", "markov", "scripted"]),
       st.integers(1, 3000), trials, st.data())
def test_longer_sample_extends_shorter(seed, m, variant, length, trial, data):
    model = signal(np.random.default_rng(seed), variant, m)
    k = data.draw(st.integers(1, length))
    got = sp.sample(model, length, trial=trial)[:k]
    assert np.array_equal(got, sp.sample(model, k, trial=trial))


def solver_case(rng, n, m, graphs):
    """A consistent random system of n agents, each with fewer than m rows
    over m unknowns (so no agent starts at the solution), and a set of
    random graphs with every self-arc."""
    x_star = rng.normal(size=m)
    blocks = []
    for _ in range(n):
        a = rng.normal(size=(int(rng.integers(1, m)), m))
        blocks.append((a, a @ x_star))
    graph_set = []
    for _ in range(graphs):
        mask = rng.random((n, n)) < 0.4
        np.fill_diagonal(mask, True)
        graph_set.append(sp.DirectedGraph(n, frozenset(
            zip(*(v.tolist() for v in np.nonzero(mask))))))
    return sp.PartitionedLinearSystem(blocks=tuple(blocks)), tuple(graph_set)


@settings(max_examples=60)
@given(seeds, symbols, st.sampled_from(["iid", "markov", "scripted"]),
       st.integers(2, 4), st.integers(2, 4), st.integers(1, 3),
       st.integers(1, 7), st.integers(0, 3),
       st.one_of(st.integers(0, 40), st.integers(1000, 3000),
                 st.sampled_from([1024, 1025, 2048, 2049])),
       st.sampled_from([0.0, 1e-10, 1e-4]), trials)
@example(5, 3, "iid", 3, 3, 1, 1, 2, 3000, 0.0, 0)
@example(6, 3, "markov", 4, 3, 2, 7, 3, 2049, 0.0, 1)
@example(7, 2, "scripted", 3, 4, 3, 3, 0, 2500, 0.0, 2)
def test_run_solver_matches_stepwise_loop(seed, m, variant, n, unknowns,
                                          window, record_every, norm_windows,
                                          max_iters, tol, trial):
    # tol 0 never converges, so those runs stop at max_iters, and the
    # longer ones cross the 1024- and 2048-index re-draws
    rng = np.random.default_rng(seed)
    system, graph_set = solver_case(rng, n, unknowns, m)
    gmodel = sp.GraphSequenceModel(graph_set=graph_set,
                                   model=signal(rng, variant, m), window=window)
    kw = dict(max_iters=max_iters, tol=tol, trial=trial,
              check_connectivity=False, record_every=record_every,
              norm_windows=norm_windows)
    assert_same_run(system, gmodel, **kw)


def assert_same_run(system, gmodel, **kw):
    got = sp.run_solver(system, gmodel, **kw)
    want = run_solver_stepwise(system, gmodel, **kw)
    assert got.converged == want.converged
    assert got.iterations == want.iterations
    assert got.disagreement == want.disagreement
    assert got.residual == want.residual
    assert np.array_equal(got.solution, want.solution)
    assert got.history == want.history
    assert got.fitted_decay == want.fitted_decay
    assert got.window_norms == want.window_norms
    assert got.exponential_consistent == want.exponential_consistent
    return want


def block_case(window=1):
    """Three agents, four unknowns and two graphs, drawn so that a run whose
    tol is just above step k's gap and residual stops at k, for k in 32,
    33, 64 and 65."""
    rng = np.random.default_rng(4)
    system, graph_set = solver_case(rng, 3, 4, 2)
    return system, sp.GraphSequenceModel(
        graph_set=graph_set, model=signal(rng, "iid", 2), window=window)


@pytest.mark.parametrize("max_iters, record_every, norm_windows, window, cap", [
    (0, 1, 0, 1, None), (1, 1, 0, 1, None), (31, 1, 0, 1, None),
    (32, 1, 0, 1, None), (33, 1, 0, 1, None),
    # rows recorded less often than once a block
    (33, 50, 0, 1, None), (200, 70, 0, 1, None),
    # the first draw, 75 windows of 7 * 2 indices, ends inside the block of
    # steps 1025-1056, so the re-draw happens mid-block
    (1100, 1, 75, 7, None), (1100, 10, 75, 7, None),
    # a byte cap that leaves blocks of 3 and of 1 state
    (10, 1, 0, 1, 3), (5, 2, 0, 1, 1),
])
def test_run_solver_block_boundaries(monkeypatch, max_iters, record_every,
                                     norm_windows, window, cap):
    system, gmodel = block_case(window=window)
    if cap is not None:
        monkeypatch.setattr(equations, "STATE_BYTES",
                            cap * system.n * system.m * 8)
    assert_same_run(system, gmodel, max_iters=max_iters, tol=0.0,
                    check_connectivity=False, record_every=record_every,
                    norm_windows=norm_windows)


@pytest.mark.parametrize("stop", [32, 33, 64, 65])
@pytest.mark.parametrize("record_every", [1, 10])
def test_run_solver_stops_on_a_block_edge(stop, record_every):
    # the last step of a block (32, 64) and the first of the next (33, 65):
    # the steps computed past the stop leave no trace in the report
    system, gmodel = block_case()
    kw = dict(check_connectivity=False, record_every=record_every)
    trail = run_solver_stepwise(system, gmodel, max_iters=stop, tol=0.0, **kw)
    tol = float(np.nextafter(max(trail.disagreement, trail.residual), np.inf))
    want = assert_same_run(system, gmodel, max_iters=1000, tol=tol, **kw)
    assert want.converged and want.iterations == stop


class _ScriptedUniforms:
    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


@given(seeds, symbols, st.integers(1, 60))
def test_markov_sampler_on_boundary_draws(seed, m, length):
    # uniforms that sit exactly on cumulative-row boundaries (side="right"
    # moves past them), at 0, and just below 1 (past a short row's end)
    rng = np.random.default_rng(seed)
    model = markov_model(rng, m)
    edges = np.concatenate([np.cumsum(model.transition, axis=1).ravel(),
                            np.cumsum(model.initial), [0.0, ALMOST_ONE]])
    edges = edges[edges < 1.0]
    u = np.where(rng.random(length) < 0.5, rng.choice(edges, length),
                 rng.random(length))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda s: _ScriptedUniforms(u))
        got = model.sample_indices(length)
        want = markov_indices_stepwise(model, length)
    assert np.array_equal(got, want)


def test_short_row_clamps_to_last_symbol():
    row = np.array([0.25, 0.75])
    row[1] = np.nextafter(row[1], 0.0)
    assert np.cumsum(row)[-1] < 1.0
    model = sp.MarkovModulatedModel(initial=row, transition=np.array([row, row]))
    u = np.array([ALMOST_ONE, ALMOST_ONE, 0.1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda s: _ScriptedUniforms(u))
        got = model.sample_indices(3)
    assert got.tolist() == [1, 1, 0]


# V on a (trials, n) array must give each row the bits V gives the row alone
FUNCTIONS = {
    "sup": sp.inf_norm(),
    "sup2": sp.LyapunovFunction(fn=lambda x: np.abs(x).max(axis=-1) ** 2,
                                degree=2.0),
    "squares": sp.LyapunovFunction(fn=lambda x: (x * x).sum(axis=-1),
                                   degree=2.0),
}


@given(seeds, symbols, dims, st.integers(1, 40), st.integers(1, 6),
       st.sampled_from(["iid", "markov", "scripted"]),
       st.sampled_from(sorted(FUNCTIONS)))
def test_monte_carlo_decay_matches_per_trial_loop(seed, m, n, steps, count,
                                                  variant, vname):
    rng = np.random.default_rng(seed)
    modes = tuple(rng.uniform(-1.0, 1.0, (n, n)) / rng.uniform(1.0, n + 1.0)
                  for _ in range(m))
    system = sp.SwitchedSystem(modes=modes, signal=signal(rng, variant, m))
    V = FUNCTIONS[vname]
    x0 = rng.normal(size=n)
    report = sp.monte_carlo_decay(system, V, x0, steps, count, tol=1e-3)
    want = monte_carlo_decay_per_trial(system, V, x0, steps, count, tol=1e-3)
    assert report == want
    assert np.array_equal(report.history, want.history)
    assert not report.history.flags.writeable


def async_run(seed, n, clock):
    """A random averaging matrix, clocks and start vector of ``n`` agents."""
    rng = np.random.default_rng(seed)
    w = random_stochastic(rng, n, density=0.5)
    if clock == "bernoulli":
        clocks = sp.BernoulliClocks(rates=rng.uniform(0.02, 1.0, n),
                                    seed=int(rng.integers(2**31)))
    else:
        clocks = sp.PoissonClocks(rates=rng.uniform(0.05, 0.5, n),
                                  seed=int(rng.integers(2**31)),
                                  delta=float(rng.uniform(0.5, 2.0)))
    return w, clocks, rng.normal(size=n)


def drawn_firing_sets(clocks, steps, trial=0):
    """The first ``steps`` firing sets of the stream ``simulate_async``
    draws, ``EVENT_BLOCK`` events at a time."""
    probs = clocks.activation_probabilities()
    rng = np.random.default_rng(sp.trial_seed(clocks.seed, trial))
    blocks = [agreement._firing_sets(rng, probs, agreement.EVENT_BLOCK)
              for _ in range(-(-steps // agreement.EVENT_BLOCK))]
    return np.concatenate(blocks or [np.zeros((0, probs.size), bool)])[:steps]


def test_simulate_async_matches_per_tick_loop():
    # in law: the event stream against the tick loop's nonempty ticks, on
    # sparse, dense and one-certain clocks
    cases = [sp.BernoulliClocks(rates=np.array([0.05, 0.1, 0.02, 0.08]), seed=4),
             sp.BernoulliClocks(rates=np.array([0.6, 0.3, 1.0, 0.5]), seed=5),
             sp.PoissonClocks(rates=np.array([0.3, 0.9, 0.1, 0.5]), seed=6,
                              delta=0.7)]
    for clocks in cases:
        ticks = simulate_async_per_tick(clocks, 20000)
        events = drawn_firing_sets(clocks, 20000, trial=1)
        p = two_sample_chi_square_p(firing_set_counts(ticks),
                                    firing_set_counts(events))
        assert p > 1e-3, (clocks, p)


@given(seeds, dims, st.integers(0, 2500), st.integers(0, 2500), trials,
       st.sampled_from(["bernoulli", "poisson"]))
@example(0, 3, 1024, 1025, 0, "bernoulli")
@example(1, 2, 0, 2049, 2, "poisson")
@example(2, 4, 1023, 1, 1, "bernoulli")
@example(3, 4, 0, 1024, 1, "poisson")
@example(4, 3, 1025, 1023, 0, "poisson")
@settings(max_examples=40)
def test_shorter_async_run_is_a_prefix(seed, n, k, length, trial, clock):
    k, length = sorted((k, length))
    w, clocks, x0 = async_run(seed, n, clock)
    short = sp.simulate_async(w, clocks, x0, k, trial=trial)
    long = sp.simulate_async(w, clocks, x0, length, trial=trial)
    fired = drawn_firing_sets(clocks, length, trial=trial)
    spreads, x = apply_firing_sets(w, x0, fired)
    assert np.array_equal(long.spreads, spreads)
    assert np.array_equal(long.final_x, x)
    assert np.array_equal(short.spreads, long.spreads[:k + 1])
    assert np.array_equal(short.final_x, apply_firing_sets(w, x0, fired[:k])[1])
    assert short.seed == long.seed == sp.trial_seed(clocks.seed, trial)


@given(seeds, symbols, dims, st.integers(1, 300), trials,
       st.sampled_from(["iid", "markov", "scripted"]), st.booleans())
def test_simulate_product_matches_per_step_loop(seed, m, n, steps, trial,
                                                variant, custom):
    rng = np.random.default_rng(seed)
    fset = sp.FiniteMatrixSet(tuple(random_stochastic(rng, n, density=0.4)
                                    for _ in range(m)))
    model = signal(rng, variant, m, matrix_set=fset)
    # custom checkpoints may repeat, fall outside 1..steps, or stop early
    cps = (rng.integers(-2, steps + 3, size=int(rng.integers(0, 8))).tolist()
           if custom else None)
    got = sp.simulate_product(model, steps, checkpoints=cps, trial=trial)
    want = simulate_product_per_step(model, steps, checkpoints=cps, trial=trial)
    assert got == want


def in_layout(matrix, order):
    """The matrix again, its entries stored C- or F-ordered; a
    StochasticMatrix keeps an F-ordered input F-ordered."""
    out = sp.StochasticMatrix(np.array(matrix.entries, order=order))
    assert out.entries.flags[f"{order}_CONTIGUOUS"]
    return out


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 8, 16, 32, 64])
def test_simulate_product_matches_per_step_loop_at_bench_sizes(n, order):
    # near-identity factors, as in the benchmark, keep tau above the floor
    # for all 300 steps
    rng = np.random.default_rng(n)
    fset = sp.FiniteMatrixSet(tuple(
        in_layout(sp.StochasticMatrix(
            0.9 * np.eye(n) + 0.1 * random_stochastic(rng, n).entries), order)
        for _ in range(3)))
    model = sp.IIDModel(weights=[0.5, 0.3, 0.2], seed=n, matrix_set=fset)
    cps = list(range(25, 301, 25))
    got = sp.simulate_product(model, 300, checkpoints=cps)
    assert got == simulate_product_per_step(model, 300, checkpoints=cps)
    # tau of a 1-by-1 product is 0: the run stops at its first checkpoint
    assert len(got.checkpoints) == (0 if n == 1 else len(cps))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("clock", ["bernoulli", "poisson"])
def test_simulate_async_matches_replay_at_bench_size(clock, order):
    # the benchmark's clocks over 50 agents: Bernoulli rates near 0.3 fire
    # about 15 agents per event, sparse Poisson ones mostly one (a row of W
    # times x, BLAS's ddot path)
    n, steps = 50, 2500
    rng = np.random.default_rng(7)
    w = in_layout(random_stochastic(rng, n, density=0.1), order)
    if clock == "bernoulli":
        clocks = sp.BernoulliClocks(rates=rng.uniform(0.2, 0.4, n), seed=3)
    else:
        clocks = sp.PoissonClocks(rates=rng.uniform(0.004, 0.012, n), seed=4)
    x0 = rng.normal(size=n)
    fired = drawn_firing_sets(clocks, steps)
    sizes = fired.sum(1)
    if clock == "bernoulli":
        assert np.median(sizes) >= 10
    else:
        assert (sizes == 1).mean() > 0.7
    trace = sp.simulate_async(w, clocks, x0, steps)
    spreads, x = apply_firing_sets(w, x0, fired)
    assert np.array_equal(trace.spreads, spreads)
    assert np.array_equal(trace.final_x, x)


def test_async_negative_steps_rejected():
    w = sp.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
    clocks = sp.BernoulliClocks(rates=np.full(2, 0.5))
    with pytest.raises(InvalidDistribution, match="steps must be at least 0"):
        sp.simulate_async(w, clocks, np.array([0.0, 1.0]), steps=-3)
    trace = sp.simulate_async(w, clocks, np.array([0.0, 1.0]), steps=0)
    assert np.array_equal(trace.spreads, [1.0])
    assert np.array_equal(trace.final_x, [0.0, 1.0])


@pytest.mark.parametrize("clocks", [sp.PoissonClocks(rates=np.full(2, 1e-12)),
                                    sp.BernoulliClocks(rates=np.full(2, 1e-320))],
                         ids=["poisson-1e-12", "bernoulli-subnormal"])
def test_sparse_clocks_run_in_time_proportional_to_steps(clocks):
    # each tick fires with probability about 2e-12 (or a subnormal one), but
    # a run draws events, not ticks: 10**4 events cost what dense clocks do
    w = sp.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
    start = time.perf_counter()
    trace = sp.simulate_async(w, clocks, np.array([0.0, 1.0]), steps=10**4)
    assert time.perf_counter() - start < 1.0
    assert len(trace.spreads) == 10**4 + 1 and trace.spreads[-1] == 0.0


def test_event_cap_raises_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew events for a run over the cap")

    monkeypatch.setattr(agreement, "_firing_sets", no_draw)
    w = sp.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
    clocks = sp.BernoulliClocks(rates=np.array([1.0, 0.5]))
    with pytest.raises(InvalidDistribution,
                       match="steps must be at most 10000000"):
        sp.simulate_async(w, clocks, np.array([0.0, 1.0]), steps=10**7 + 1)
