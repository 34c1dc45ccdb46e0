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

from . import _checks, matrices, sequences
from .errors import (
    InsufficientData,
    InvalidDistribution,
    NoScramblingWindow,
)
from .sequences import ScriptedModel, SequenceModel

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
# bytes of reduced factors one ``simulate_product`` chunk stacks: a larger
# chunk makes fewer Python-level calls but holds larger temporary stacks.
# A batch of chunks is reduced together, as many as keep its block-table
# entries and its tail factors each within one chunk's length, so within
# these bytes too (3 chunks of 145 factors at 16 states, 2 of 34 at 32)
CHUNK_BYTES = 2**18


@dataclass(frozen=True)
class ProductTrace:
    """Checkpointed history of one product run.

    ``taus[t]`` is tau of the running product at step ``checkpoints[t]`` and
    ``spreads[t]`` the worst column spread (the largest disagreement any
    probe vector can still produce), both read from the product's row
    differences, so they keep relative precision as the product nears rank
    one.  Recording stops at the first checkpoint whose tau is below
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
    """Powers of two below ``steps``, plus ``steps``; raises
    ``InvalidDistribution`` unless ``steps`` is an integer of at least 1."""
    steps = _checks.count(steps, "steps", 1)
    ks = []
    k = 1
    while k < steps:
        ks.append(k)
        k *= 2
    ks.append(steps)
    return tuple(ks)


def _tree_product(stack: np.ndarray) -> np.ndarray:
    """Backward products ``stack[..., -1, :, :] ... stack[..., 0, :, :]``
    of a ``(..., E, r, r)`` stack, one per leading index, as pairwise trees
    along axis -3: each level multiplies neighbours with one stacked
    ``np.matmul``, the later factor on the left, and carries an odd
    leftover up.  Every leading index gets the same pairs, and so the same
    ``dgemm`` calls, as its own stack would."""
    while stack.shape[-3] > 1:
        even = stack.shape[-3] & ~1
        pairs = np.matmul(stack[..., 1:even:2, :, :],
                          stack[..., 0:even:2, :, :])
        stack = (pairs if even == stack.shape[-3] else
                 np.concatenate([pairs, stack[..., even:, :, :]], axis=-3))
    return stack[..., 0, :, :]


def _block_table(hats: np.ndarray, chunk: int, steps: int):
    """``(table, depth)``: the backward product of every block of
    ``2**depth`` factors, as the lower ``depth`` levels of ``_tree_product``
    form it.  Level l + 1 holds ``T[a] @ T[b]`` at ``a * K + b`` for the K
    entries of level l, so a block's entry reads its indices as base-k
    digits, the earliest the lowest.  The table deepens while its entries,
    k^(2^depth), fit in one chunk and in the run's ``steps >> depth``
    blocks; depth 0 is ``hats`` itself, no table."""
    table, depth = hats, 0
    while len(table) ** 2 <= min(chunk, steps >> (depth + 1)):
        table = np.matmul(table[:, None], table[None, :]).reshape(
            (len(table) ** 2,) + hats.shape[1:])
        depth += 1
    return table, depth


def _chunk_product(hats, table, depth, idx) -> np.ndarray:
    """The ``B`` chunk products ``_tree_product(hats[idx[b]])`` of a
    ``(B, length)`` index array, with their lower ``depth`` levels read from
    ``_block_table``: below that level every element but the last is an
    aligned block, whose code is its indices as base-k digits, and the last
    is the tree of the tail past the last full block.  The B trees are
    reduced together, one stacked ``np.matmul`` per level."""
    rows, length = idx.shape
    full = (length >> depth) << depth
    # rows shorter than a block hold none: their empty codes need no
    # 2**depth digits, which a one-matrix set's deep table would make huge
    width = min(1 << depth, length)
    stack = table[idx[:, :full].reshape(rows, full >> depth, width)
                  @ len(hats) ** np.arange(width)]
    if full < length:
        stack = np.concatenate(
            [stack, _tree_product(hats[idx[:, full:]])[:, None]], axis=1)
    return _tree_product(stack)


def simulate_product(model: SequenceModel, steps: int, checkpoints=None,
                     trial: int = 0) -> ProductTrace:
    """Accumulate the backward product of a sampled run, recording tau and
    the worst column spread at each checkpoint.

    The run carries the row differences ``D(k) = E W(k)`` (rows ``w_i -
    w_n``) instead of ``W(k)``: for stochastic A, ``E A = A_hat E`` with
    ``A_hat = (A[:-1] - A[-1])[:, :-1]``, so ``D(k) = A_hat(k) D(k-1)`` from
    ``D(0) = [I | -1]``.  D keeps relative precision as the product nears
    rank one, where the rows of W agree to rounding and tau(W) would stall
    near 1e-14.  Tau and the spread are read from the rows of ``[D; 0]``.
    Each checkpoint segment is multiplied in chunks of at most
    ``CHUNK_BYTES`` of reduced factors, each reduced by ``_tree_product``
    and then applied to D with one ``np.dot``, in order; no chunk crosses a
    checkpoint, and each segment is one draw of ``model.stream(trial)``, so
    no index past the stopping checkpoint is drawn.  A chunk's aligned
    blocks of ``2**L`` factors are read from a table of every block's
    product, built once per run (``_block_table``): for k matrices, L is
    the deepest level with k^(2^L) at most the chunk length and at most
    ``steps >> L``, so the table holds no more than ``CHUNK_BYTES`` and no
    more products than the run has blocks.  A segment's whole chunks are
    reduced in batches of ``B = max(1, chunk // max(entries, tail))`` by
    ``_chunk_product``, where ``entries`` is one chunk's stack of table
    entries (and its tail's product) and ``tail`` its factors past the last
    block, so no batch stacks more than one chunk's length; its last
    partial chunk is a batch of one.  The benchmark's 3-matrix runs batch 3
    chunks at 16 states and 2 at 32.  The products, and so the bits, are
    those of each chunk's tree.  Raises ``InvalidDistribution`` when
    ``steps`` is not an integer, is below 1 or over ``STEP_LIMIT``, a
    checkpoint is not an integer, or ``trial`` is not an integer of at
    least 0, before any index is drawn; checkpoints outside 1..steps are
    dropped.
    """
    fset = model._require_set()
    steps = _checks.count(steps, "steps", 1)
    seed = sequences._trial_seed(model.seed, trial)
    if steps > STEP_LIMIT:
        raise InvalidDistribution(f"steps must be at most {STEP_LIMIT}")
    if checkpoints is None:
        checkpoints = default_checkpoints(steps)
    checkpoints = [_checks.count(c, "checkpoint") for c in checkpoints]
    checkpoints = sorted({c for c in checkpoints if 1 <= c <= steps})
    draw = model.stream(trial)
    a = np.asarray(fset.entry_arrays())
    hats = a[:, :-1, :-1] - a[:, -1:, :-1]
    n = fset.dimension
    chunk = max(1, CHUNK_BYTES // max(hats[0].nbytes, 1))
    table, depth = _block_table(hats, chunk, steps)
    # a batch of chunks stacks no more table entries, nor tail factors,
    # than one chunk has factors
    full = (chunk >> depth) << depth
    batch = max(1, chunk // max((full >> depth) + (full < chunk),
                                chunk - full))
    d = np.hstack([np.eye(n - 1), -np.ones((n - 1, 1))])
    recorded_k, taus, spreads = [], [], []
    done = 0
    for k in checkpoints:
        idx = draw(k - done)
        whole = len(idx) - len(idx) % chunk
        batches = [idx[lo:min(lo + batch * chunk, whole)].reshape(-1, chunk)
                   for lo in range(0, whole, batch * chunk)]
        if whole < len(idx):
            batches.append(idx[None, whole:])
        for chunks in batches:
            for product in _chunk_product(hats, table, depth, chunks):
                d = np.dot(product, d)
        done = k
        rows = np.vstack([d, np.zeros((1, n))])
        t = matrices.row_diameter(rows)
        if t < TAU_FLOOR:
            break
        recorded_k.append(k)
        taus.append(t)
        spreads.append(float(matrices._column_spreads(rows[None])[0]))
    return ProductTrace(
        checkpoints=tuple(recorded_k),
        taus=tuple(taus),
        spreads=tuple(spreads),
        seed=seed,
        steps=steps,
    )


def _rate_report(fset, h: int, probs) -> RateReport:
    """Report of length h from its per-start scrambling probabilities, with
    alpha the least positive entry of the set (every stochastic row has
    one).  The bound's base is clamped at 0: an entry floor that rounds past
    1 would make it negative."""
    p = float(probs.min())
    if p <= 0.0:
        raise NoScramblingWindow(f"no scrambling window of length {h}")
    a = np.asarray(fset.entry_arrays())
    alpha = float(a[a > 0].min())
    return RateReport(window_len=h, scrambling_prob=p, min_entry=alpha,
                      bound=max(0.0, 1.0 - p * alpha**h) ** (1.0 / h))


def window_rate_bound(model: SequenceModel, h: int) -> RateReport:
    """Guaranteed decay from the exact window scrambling probability.

    ``p`` is the minimum over one period of window starts of the exact
    probability that the length-h window product is scrambling; ``alpha`` is
    the entry floor of the matrix set.  Raises ``InvalidDistribution``
    unless h is an integer of at least 1, ``NoScramblingWindow`` when p = 0,
    i.e. no length-h window ever scrambles, and ``EnumerationTooLarge`` when
    h - 1 passes the window layer budget.
    """
    h = sequences._check_window(h)
    fset = model._require_set()
    return _rate_report(fset, h, sequences.window_probability(
        model, fset.patterns(), h, matrices._stack_is_scrambling))


def find_scrambling_window(model: SequenceModel, h_max: int = 8) -> RateReport:
    """Search window lengths 1..h_max for the first with a scrambling window
    of positive probability and return its rate report.

    The guarantee only asks that *some* window length works; time-homogeneous
    models that pass here satisfy the recurring-window premise at every start.
    One walk reaches length h in h - 1 layers; raises ``EnumerationTooLarge``
    when its next layer would pass the window layer budget (window_max up to
    20,001 fits), ``NoScramblingWindow`` when no length up to h_max does,
    and ``InvalidDistribution`` when h_max is not an integer or is below 1.
    """
    h_max = _checks.count(h_max, "window length bound", 1)
    fset = model._require_set()
    starts = sequences.window_starts(model)
    walk = sequences._window_walk(model, fset.patterns())
    for h, (prods, weights) in zip(range(1, h_max + 1), walk):
        probs = sequences._passing(model, starts, weights,
                                   matrices._stack_is_scrambling(prods))
        if probs.min() > 0.0:
            return _rate_report(fset, h, probs)
    raise NoScramblingWindow(f"no scrambling window up to length {h_max}")


def window_log_rate(model: SequenceModel, h: int) -> float:
    """Exact per-step rate ``exp(E[log tau(W(h))] / h)`` of the length-h
    window product, worst over ``sequences.window_starts(model)``.

    log tau is subadditive, so by Kingman's subadditive ergodic theorem
    every h bounds the almost-sure per-step decay of tau from above, and the
    bounds tighten toward it as h grows.  A start whose window has tau = 0
    with positive probability has E log tau = -inf: the rate is 0.0 when
    every start has one.  Raises ``InvalidDistribution`` unless h is an
    integer of at least 1, or when the model is scripted, ``EnumerationTooLarge`` past ``STATE_LIMIT``
    or the window layer budget.
    """
    fset = model._require_set()
    if isinstance(model, ScriptedModel):
        raise InvalidDistribution(
            "a scripted model has position-dependent steps; query whole windows")
    prods, weights = sequences._window_words(model, fset.entry_arrays(), h)
    taus = np.array([matrices.tau(p) for p in prods])
    # rows of an h-factor product carry about h * n ulps of rounding, so a
    # tau within that of 0 is a rank-one product whose log would be noise
    pos = taus > h * fset.dimension * np.finfo(float).eps
    starts = sequences.window_starts(model)
    zero_mass = sequences._passing(model, starts, weights, ~pos)
    logs = sequences._passing(model, starts, weights, pos, np.log(taus[pos]))
    best = max((q for q, z in zip(logs, zero_mass) if z <= 0.0),
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
