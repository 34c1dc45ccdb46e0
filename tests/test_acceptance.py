"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is written into the assertions below.
"""

import time

import numpy as np
import pytest

import stochprod as sp

from helpers import (
    block_diagonal,
    class_probability,
    figure_network,
    random_rooted_graph,
    random_stochastic,
    uniform_weights,
    weights_for_graph,
)


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1

DAMP_MODES = (np.array([[0.2, 0.0], [0.0, 1.0]]),
              np.array([[1.0, 0.0], [0.0, 0.8]]),
              np.array([[1.0, 0.0], [0.0, 0.6]]))
DAMP_PI = np.array([[0.0, 0.4, 0.6], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def two_step_worst_expectation(weights):
    """Independent oracle: worst 2-step conditional expectation of the sup
    norm over the sphere breakpoints, for continuation weights on the two
    damping modes.

    From every current mode the two-step operators are diag(0.2, 0.8) and
    diag(0.2, 0.6); the expectation is piecewise linear on each sphere face,
    so its maximum sits at a vertex or a face corner.
    """
    ops = (np.diag([0.2, 0.8]), np.diag([0.2, 0.6]))
    breakpoints = [(1, 0), (0, 1), (1, 1), (-1, 1), (1, -1), (-1, -1),
                   (-1, 0), (0, -1)]
    worst = 0.0
    for x in map(np.asarray, breakpoints):
        value = sum(w * np.abs(op @ x).max() for w, op in zip(weights, ops))
        worst = max(worst, float(value))
    return worst


def test_criterion_1_contraction_certificate():
    signal = sp.MarkovModulatedModel(initial=[1, 0, 0], transition=DAMP_PI, seed=1)
    system = sp.SwitchedSystem(modes=DAMP_MODES, signal=signal)
    start = time.perf_counter()
    cert = sp.certify_contraction(system, sp.inf_norm(), horizon_max=4)
    elapsed = time.perf_counter() - start

    chain_weighted = two_step_worst_expectation((0.4, 0.6))      # = 0.68
    equal_weighted = two_step_worst_expectation((0.5, 0.5))      # = 0.70
    ok = (cert.horizon == 2
          and cert.alpha >= 0.3 - 1e-9
          and cert.supermartingale_ok
          and abs((1.0 - cert.alpha) - chain_weighted) <= 1e-9
          and abs(equal_weighted - 0.7) <= 1e-9
          and (1.0 - cert.alpha) <= equal_weighted + 1e-9
          and elapsed < 1.0)
    report(1, ok, (f"T={cert.horizon} alpha={cert.alpha:.6f} "
                   f"grid max {1 - cert.alpha:.6f} (chain-weighted oracle "
                   f"{chain_weighted:.2f}, equal-weighted oracle "
                   f"{equal_weighted:.2f}) in {elapsed * 1e3:.0f} ms"))


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_tau_calculus():
    rng = np.random.default_rng(20240202)
    start = time.perf_counter()
    count = 0
    failures = 0
    for _ in range(10000):
        n = int(rng.integers(2, 13))
        density = float(rng.uniform(0.2, 1.0))
        a = random_stochastic(rng, n, density=density)
        b = random_stochastic(rng, n, density=density)
        count += 2
        ta, tb = sp.tau(a), sp.tau(b)
        if not (0.0 <= ta <= 1.0):
            failures += 1
        if sp.is_scrambling(a) != (ta < 1.0):
            failures += 1
        if sp.is_scrambling(a):
            gamma = a.entries[a.entries > 0].min()
            if ta > 1.0 - gamma + 1e-12:
                failures += 1
        if sp.tau(a.entries @ b.entries) > ta * tb + 1e-12:
            failures += 1
        x = rng.normal(size=n)
        if sp.spread(a.entries @ x) > ta * sp.spread(x) + 1e-12:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and count >= 10000 and elapsed < 30.0
    report(2, ok, (f"{count} matrices, {failures} failures at 1e-12, "
                   f"{elapsed:.1f} s"))


# ---------------------------------------------------------------- criterion 3

SCRAM2 = sp.StochasticMatrix([[0.2, 0.8], [0.5, 0.5]])
EYE2 = sp.StochasticMatrix(np.eye(2))
SWAP2 = sp.StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
ROT3 = sp.StochasticMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
MIX3 = sp.StochasticMatrix([[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]])
ZD_SCRAM = sp.StochasticMatrix([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])


def _zero_diag_markov_model(seed=0):
    pi = np.array([[0.3, 0.7], [0.6, 0.4]])
    v = sp.stationary_distribution(pi)
    fset = sp.FiniteMatrixSet((ZD_SCRAM, ROT3))
    return sp.MarkovModulatedModel(initial=v, transition=pi, seed=seed,
                                   matrix_set=fset)


def test_criterion_3_window_rate_bound():
    models = [
        (sp.IIDModel(weights=[1.0], seed=31,
                     matrix_set=sp.FiniteMatrixSet((SCRAM2,))), 1),
        (sp.IIDModel(weights=[0.5, 0.5], seed=32,
                     matrix_set=sp.FiniteMatrixSet((SCRAM2, EYE2))), 1),
        (sp.IIDModel(weights=[0.5, 0.5], seed=33,
                     matrix_set=sp.FiniteMatrixSet((SCRAM2, SWAP2))), 1),
        (_zero_diag_markov_model(seed=34), 1),
        (sp.ScriptedModel(indices=(0, 1), seed=35,
                          matrix_set=sp.FiniteMatrixSet((ROT3, MIX3))), 2),
    ]
    all_ok = True
    lines = []
    for model, h in models:
        bound_report = sp.window_rate_bound(model, h)
        rates = []
        for trial in range(20):
            trace = sp.simulate_product(model, steps=10000, trial=trial)
            rates.append(sp.fit_empirical_rate(trace))
        rates = np.asarray(rates)
        sigma = rates.std(ddof=1)
        worst = rates.max()
        model_ok = bool(np.all(rates <= bound_report.bound + 3 * sigma + 1e-9))
        all_ok &= model_ok
        lines.append(f"{type(model).__name__}(h={h}): p={bound_report.scrambling_prob:.3f} "
                     f"bound={bound_report.bound:.4f} worst fit={worst:.4f}")
    report(3, all_ok, "; ".join(lines))


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_stationary_sia_convergence():
    model = _zero_diag_markov_model(seed=41)
    assert all(np.all(np.diag(m.entries) == 0) for m in model.matrix_set.matrices)
    p_sia = class_probability(model, 0, 1, sp.is_sia)
    converged = 0
    rates = []
    for trial in range(100):
        trace = sp.simulate_product(model, steps=10000, trial=trial)
        hit = (not trace.taus or trace.taus[-1] < 1e-8
               or trace.checkpoints[-1] < trace.steps)
        converged += hit
        rates.append(sp.fit_empirical_rate(trace))
    fitted = float(np.exp(np.mean(np.log(rates))))
    exact = sp.window_log_rate(model, 16)
    rel = abs(exact - fitted) / fitted
    ok = (p_sia > 0 and converged >= 99 and exact < 1.0 and rel < 0.10)
    report(4, ok, (f"P(sia window)={p_sia:.4f} exactly; {converged}/100 seeds "
                   f"below 1e-8; exact rate {exact:.4f} vs fitted "
                   f"{fitted:.4f} ({100 * rel:.1f}% apart)"))


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_hierarchical_products_markov():
    rng = np.random.default_rng(55)
    start = time.perf_counter()
    counterexamples = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        g = random_rooted_graph(rng, n)
        w = weights_for_graph(rng, g)
        root = int(rng.choice(sp.roots(g)))
        part = sp.hierarchical_partition(g, root)
        seq = []
        for level in part.levels:
            level = list(level)
            rng.shuffle(level)
            seq.extend(level)
        if not sp.is_markov(sp.hierarchical_product(w, seq)):
            counterexamples += 1
    elapsed = time.perf_counter() - start
    ok = counterexamples == 0 and elapsed < 60.0
    report(5, ok, (f"500 rooted digraphs (n<=8), {counterexamples} "
                   f"counterexamples, {elapsed:.1f} s"))


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_agreement_iff_rooted():
    # sufficiency: rooted periodic network under independent clocks
    w = uniform_weights(figure_network())
    assert sp.is_rooted(sp.graph_of(w)) and sp.pattern_period(w) > 1
    reached = 0
    for trial in range(100):
        clocks = sp.BernoulliClocks(rates=np.full(6, 0.5), seed=600 + trial)
        trace = sp.simulate_async(w, clocks, np.arange(6.0), steps=2000)
        reached += min(trace.spreads) < 1e-8
    # necessity: two isolated rotating groups with distinct values
    wd = np.zeros((6, 6))
    wd[:3, :3] = np.roll(np.eye(3), 1, axis=1)
    wd[3:, 3:] = np.roll(np.eye(3), 1, axis=1)
    wd = sp.StochasticMatrix(wd)
    assert not sp.is_rooted(sp.graph_of(wd))
    x0 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    clocks = sp.BernoulliClocks(rates=np.full(6, 0.5), seed=61)
    trace_d = sp.simulate_async(wd, clocks, x0, steps=10000)
    gap_held = min(trace_d.spreads) >= 1.0
    # baseline: synchronous updates under a periodic matrix recur exactly
    n = 5
    rot = sp.StochasticMatrix(np.roll(np.eye(n), 1, axis=1))
    d = sp.pattern_period(rot)
    x = np.arange(float(n))
    states = [x.copy()]
    for _ in range(3 * d):
        x = rot.entries @ x
        states.append(x.copy())
    recurs = all(np.abs(states[k + d] - states[k]).max() <= 1e-12
                 for k in range(2 * d))
    spreads_sync = [sp.spread(s) for s in states]
    non_decreasing = all(s >= spreads_sync[0] - 1e-12 for s in spreads_sync)
    ok = reached >= 99 and gap_held and recurs and non_decreasing and d == n
    report(6, ok, (f"sufficiency {reached}/100 seeds below 1e-8; necessity gap "
                   f"held over 10000 events: {gap_held}; synchronous period-{d} "
                   f"recurrence: {recurs}"))


# ---------------------------------------------------------------- criterion 7

def _solver_instance(seed):
    rng = np.random.default_rng(seed)
    m, n_agents, rows = 20, 5, 6
    x_star = rng.normal(size=m)
    blocks = []
    for _ in range(n_agents):
        a = rng.normal(size=(rows, m))
        blocks.append((a, a @ x_star))
    system = sp.PartitionedLinearSystem(blocks=tuple(blocks))
    graphs = [sp.DirectedGraph(n_agents, frozenset(
        (i, j) for i in range(n_agents) for j in range(n_agents)))]
    for _ in range(2):
        edges = {(i, i) for i in range(n_agents)}
        for i in range(n_agents):
            for j in range(n_agents):
                if i != j and rng.random() < 0.35:
                    edges.add((i, j))
        graphs.append(sp.DirectedGraph(n_agents, frozenset(edges)))
    gmodel = sp.GraphSequenceModel(graph_set=tuple(graphs),
                                   model=sp.IIDModel(weights=[1 / 3] * 3,
                                                     seed=seed),
                                   window=1)
    return system, gmodel


def test_criterion_7_distributed_solver():
    converged_count = 0
    feasibility_ok = True
    norms_ok = True
    max_iters, tol = 100000, 1e-8
    for trial in range(100):
        system, gmodel = _solver_instance(7000 + trial)
        assert sp.window_connectivity_probability(gmodel) > 0
        projections = sp.kernel_projections(system)
        a_full, b_full = system.stacked()
        est = sp.initial_state(system)
        graphs = gmodel.sample_graphs(max_iters)
        converged = False
        for k in range(max_iters):
            est = sp.step(est, graphs[k], projections)
            for (a, b), x in zip(system.blocks, est):
                if np.abs(a @ x - b).max() >= 1e-8:
                    feasibility_ok = False
            disagreement = (est.max(axis=0) - est.min(axis=0)).max()
            if disagreement < tol:
                residual = np.abs(a_full @ est.mean(axis=0) - b_full).max()
                if residual < tol:
                    converged = True
                    break
        converged_count += converged
        # mixed-norm non-expansiveness of sampled windows
        for w in range(3):
            _, norm = sp.error_transition(graphs[8 * w:8 * (w + 1)], projections)
            if norm > 1.0 + 1e-10:
                norms_ok = False
    ok = converged_count >= 99 and feasibility_ok and norms_ok
    report(7, ok, (f"{converged_count}/100 seeds converged below 1e-8 within "
                   f"1e5 iterations; feasibility always < 1e-8: {feasibility_ok}; "
                   f"all sampled window norms <= 1: {norms_ok}"))


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_error_system_equivalence():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(8000 + trial)
        m, n_agents = 6, 3
        x_star = rng.normal(size=m)
        blocks = tuple((a := rng.normal(size=(2, m)), a @ x_star)
                       for _ in range(n_agents))
        system = sp.PartitionedLinearSystem(blocks=blocks)
        projections = sp.kernel_projections(system)
        graphs = [sp.DirectedGraph(3, frozenset(
            (i, j) for i in range(3) for j in range(3)))]
        edges = {(i, i) for i in range(3)} | {(0, 1), (1, 2)}
        graphs.append(sp.DirectedGraph(3, frozenset(edges)))
        gmodel = sp.GraphSequenceModel(
            graph_set=tuple(graphs),
            model=sp.IIDModel(weights=[0.5, 0.5], seed=8000 + trial), window=2)
        word = gmodel.sample_graphs(100, trial=trial)
        est = sp.initial_state(system)
        err = (est - x_star[None, :]).reshape(-1)
        p = block_diagonal(projections)
        for g in word:
            est = sp.step(est, g, projections)
            w = sp.graphs.averaging_weights(g)
            err = p @ np.kron(w, np.eye(m)) @ p @ err
            direct = (est - x_star[None, :]).reshape(-1)
            worst = max(worst, float(np.abs(direct - err).max()))
    ok = worst < 1e-9
    report(8, ok, f"20 instances, 100 steps: max discrepancy {worst:.2e}")
