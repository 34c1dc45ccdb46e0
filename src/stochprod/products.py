"""Simulation and rate analysis of backward products of random stochastic
matrices.

The running product ``W(k, 0) = W(k) ... W(2) W(1)`` contracts toward a
rank-one matrix whenever scrambling window products keep appearing; the
module records the ergodicity coefficient along sampled runs, computes the
guaranteed geometric rate ``(1 - p * alpha^h)^(1/h)`` from the exact window
scrambling probability p and the entry floor alpha, and estimates the
realized rate from block averages of ``log tau`` over non-overlapping
windows (valid for stationary models by the ergodic theorem).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import matrices, sequences
from .errors import (
    AllBlocksDegenerate,
    InsufficientData,
    InvalidDistribution,
    NoScramblingWindow,
    NotStationary,
)
from .sequences import SequenceModel

__all__ = [
    "TAU_FLOOR",
    "ProductTrace",
    "RateReport",
    "BlockEstimate",
    "default_checkpoints",
    "simulate_product",
    "window_rate_bound",
    "find_scrambling_window",
    "block_decay_estimate",
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


@dataclass(frozen=True)
class BlockEstimate:
    """Block average of log tau over non-overlapping windows.

    ``per_window`` estimates E[tau-decay over one window] geometrically;
    ``per_step`` is its window-length root.  Blocks with tau exactly 0 are
    excluded from the average and reported as ``zero_fraction``: any such
    block certifies finite-time rank-one convergence.
    """

    window_len: int
    blocks: int
    per_window: float
    per_step: float
    zero_fraction: float


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


def block_decay_estimate(model: SequenceModel, window_len: int, blocks: int,
                         trial: int = 0) -> BlockEstimate:
    """Ergodic-average estimate of the per-window tau decay.

    Samples ``blocks`` non-overlapping windows of ``window_len`` steps from
    one run of a stationary model and averages log tau of the window
    products.  Requires stationarity so that block averages converge to the
    expectation over a single window.  Window products are ``np.dot``
    steps, bit for bit those of ``@``, as in ``simulate_product``.  Raises
    ``InvalidDistribution`` when ``window_len`` or ``blocks`` is below 1.
    """
    if not model.is_stationary(tol=1e-9):
        raise NotStationary(
            "block averages need an i.i.d. or stationary Markov-modulated model")
    fset = model._require_set()
    arrays = fset.entry_arrays()
    window_len, blocks = int(window_len), int(blocks)
    if window_len < 1 or blocks < 1:
        raise InvalidDistribution("window_len and blocks must be at least 1")
    idx = sequences.sample(model, window_len * blocks, trial=trial).tolist()
    logs = []
    zeros = 0
    for b in range(blocks):
        start = b * window_len
        prod = arrays[idx[start]]
        for i in idx[start + 1:start + window_len]:
            prod = np.dot(arrays[i], prod)
        t_val = matrices.tau(prod)
        if t_val <= 0.0:
            zeros += 1
        else:
            logs.append(np.log(t_val))
    if not logs:
        raise AllBlocksDegenerate(
            "every block product was already rank-one; the decay rate is 0")
    per_window = float(np.exp(np.mean(logs)))
    return BlockEstimate(
        window_len=window_len,
        blocks=blocks,
        per_window=per_window,
        per_step=per_window ** (1.0 / window_len),
        zero_fraction=zeros / blocks,
    )


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
