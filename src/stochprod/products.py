"""Simulation and rate analysis of backward products of random stochastic
matrices.

The running product ``W(k, 0) = W(k) ... W(2) W(1)`` contracts toward a
rank-one matrix whenever scrambling window products keep appearing; the
module records the ergodicity coefficient along sampled runs, computes the
guaranteed geometric rate ``(1 - p * alpha^h)^(1/h)`` from the exact window
scrambling probability p and the entry floor alpha, and computes the exact
window rate ``exp(E[log tau(W(h))] / h)``, which by Kingman's subadditive
ergodic theorem bounds the almost-sure per-step decay of tau from above.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import matrices, sequences
from .errors import InsufficientData, InvalidDistribution, NoScramblingWindow
from .sequences import SequenceModel

__all__ = [
    "TAU_FLOOR",
    "ProductTrace",
    "RateReport",
    "default_checkpoints",
    "simulate_product",
    "window_rate_bound",
    "find_scrambling_window",
    "window_log_rate",
    "fit_empirical_rate",
]

TAU_FLOOR = 1e-300
STEP_LIMIT = 10**7  # steps one ``simulate_product`` run may take


@dataclass(frozen=True)
class ProductTrace:
    """Checkpointed history of one product run.

    ``taus[t]`` is tau of the running product at step ``checkpoints[t]`` and
    ``spreads[t]`` the worst column spread (the largest disagreement any
    probe vector can still produce).  Recording stops once tau falls below
    ``TAU_FLOOR``; both series are non-increasing.
    """

    checkpoints: tuple
    taus: tuple
    spreads: tuple
    seed: int
    steps: int


@dataclass(frozen=True)
class RateReport:
    """Guaranteed and fitted geometric decay of tau per step.

    ``bound = (1 - scrambling_prob * min_entry**window_len)**(1/window_len)``
    is an upper bound on the asymptotic per-step decay factor; any fitted
    empirical rate at or below it is consistent with the guarantee.
    """

    window_len: int
    scrambling_prob: float
    min_entry: float
    bound: float
    empirical_rate: float | None = None

    def with_empirical(self, rate: float) -> "RateReport":
        return replace(self, empirical_rate=rate)


def default_checkpoints(steps: int) -> tuple:
    """Powers of two up to ``steps``, plus the final step."""
    ks = []
    k = 1
    while k < steps:
        ks.append(k)
        k *= 2
    ks.append(int(steps))
    return tuple(ks)


def simulate_product(model: SequenceModel, steps: int, checkpoints=None,
                     trial: int = 0) -> ProductTrace:
    """Accumulate the backward product of a sampled run, recording tau and
    the worst column spread at each checkpoint.

    Only the running n-by-n product is kept, never the factor history, and
    no factor past the last checkpoint is multiplied.  Each step is one
    ``np.dot``, which makes the same BLAS call as ``@`` without the matmul
    ufunc's dispatch, so the bits are those of ``arrays[i] @ prod``.
    Raises ``InvalidDistribution`` when ``steps`` is below 1 or over
    ``STEP_LIMIT``, before any index is drawn.
    """
    fset = model._require_set()
    arrays = fset.entry_arrays()
    steps = int(steps)
    if steps < 1:
        raise InvalidDistribution("steps must be at least 1")
    if steps > STEP_LIMIT:
        raise InvalidDistribution(f"steps must be at most {STEP_LIMIT}")
    if checkpoints is None:
        checkpoints = default_checkpoints(steps)
    checkpoints = sorted(set(int(c) for c in checkpoints if 1 <= c <= steps))
    idx = sequences.sample(model, steps, trial=trial)
    prod = np.eye(fset.dimension)
    recorded_k, taus, spreads = [], [], []
    done = 0
    for k in checkpoints:
        for i in idx[done:k].tolist():
            prod = np.dot(arrays[i], prod)
        done = k
        t = matrices.tau(prod)
        if t < TAU_FLOOR:
            break
        recorded_k.append(k)
        taus.append(t)
        spreads.append(matrices._max_column_spread(prod))
    return ProductTrace(
        checkpoints=tuple(recorded_k),
        taus=tuple(taus),
        spreads=tuple(spreads),
        seed=sequences.trial_seed(model.seed, trial),
        steps=steps,
    )


def window_rate_bound(model: SequenceModel, h: int) -> RateReport:
    """Guaranteed decay from the exact window scrambling probability.

    ``p`` is the minimum over one period of window starts of the exact
    probability that the length-h window product is scrambling; ``alpha`` is
    the entry floor of the matrix set.  Raises ``NoScramblingWindow`` when
    p = 0, i.e. no length-h window ever scrambles.
    """
    fset = model._require_set()
    p = float(sequences.window_probability(
        model, fset.patterns(), h, matrices.pattern_is_scrambling).min())
    if p <= 0.0:
        raise NoScramblingWindow(f"no scrambling window of length {h}")
    alpha = sequences.min_positive_entry(fset)
    bound = (1.0 - p * alpha**h) ** (1.0 / h)
    return RateReport(window_len=int(h), scrambling_prob=float(p),
                      min_entry=float(alpha), bound=float(bound))


def find_scrambling_window(model: SequenceModel, h_max: int = 8) -> RateReport:
    """Search window lengths 1..h_max for the first with a scrambling window
    of positive probability and return its rate report.

    The guarantee only asks that *some* window length works; time-homogeneous
    models that pass here satisfy the recurring-window premise at every start.
    """
    for h in range(1, int(h_max) + 1):
        try:
            return window_rate_bound(model, h)
        except NoScramblingWindow:
            continue
    raise NoScramblingWindow(f"no scrambling window up to length {h_max}")


def window_log_rate(model: SequenceModel, h: int) -> float:
    """Exact per-step rate ``exp(E[log tau(W(h))] / h)`` of the length-h
    window product, worst over ``sequences.window_starts(model)``.

    log tau is subadditive, so by Kingman's subadditive ergodic theorem
    every h bounds the almost-sure per-step decay of tau from above, and the
    bounds tighten toward it as h grows.  A start whose window has tau = 0
    with positive probability has E log tau = -inf: the rate is 0.0 when
    every start has one.  Raises ``InvalidDistribution`` when h is below 1
    or the model is scripted, ``EnumerationTooLarge`` past ``STATE_LIMIT``.
    """
    fset = model._require_set()
    prods, weights = sequences._window_words(model, fset.entry_arrays(), h)
    taus = np.array([matrices.tau(p) for p in prods])
    # rows of an h-factor product carry about h * n ulps of rounding, so a
    # tau within that of 0 is a rank-one product whose log would be noise
    pos = taus > h * fset.dimension * np.finfo(float).eps
    zero_mass = weights[~pos].sum(axis=0)
    q = (weights[pos] * np.log(taus[pos])[:, None]).sum(axis=0)
    laws = [model.start_distribution(s) for s in sequences.window_starts(model)]
    best = max((law @ q for law in laws if law @ zero_mass <= 0.0),
               default=-np.inf)
    return float(np.exp(best / h))


def _log_linear_rate(steps, values, min_points: int) -> float | None:
    """exp of the least-squares slope of log value against step, over the
    values above ``TAU_FLOOR``; None when fewer than ``min_points`` remain."""
    ks = np.asarray(steps, dtype=float)
    vs = np.asarray(values, dtype=float)
    keep = vs > TAU_FLOOR
    if keep.sum() < min_points:
        return None
    slope = np.polyfit(ks[keep], np.log(vs[keep]), 1)[0]
    return float(np.exp(slope))


def fit_empirical_rate(trace: ProductTrace) -> float:
    """Per-step geometric decay of tau from a least-squares fit of log tau
    against the step index, over checkpoints with tau above ``TAU_FLOOR``."""
    rate = _log_linear_rate(trace.checkpoints, trace.taus, min_points=3)
    if rate is None:
        raise InsufficientData("need at least 3 checkpoints with positive tau")
    return rate
