"""Row-stochastic matrices, their zero patterns, and classification.

The central quantity is the coefficient of ergodicity

    tau(A) = 1 - min_{i,j} sum_s min(a_is, a_js),

which is 0 exactly when all rows of A agree and is < 1 exactly when A is
scrambling (no two rows have disjoint supports).  Classification is done on
the strict zero pattern of the stored entries: the matrix classes

    markov  (some column strictly positive)
  > scrambling  (every pair of rows shares a positive column)
  > sia  (powers converge to a matrix with identical rows)

are nested, and membership depends only on the pattern, so each class test
takes a matrix or its boolean mask alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import _checks, graphs
from .errors import (
    DimensionMismatch,
    EmptySequence,
    NegativeEntry,
    RowSumViolation,
)

__all__ = [
    "ROW_SUM_TOL",
    "StochasticMatrix",
    "MatrixClass",
    "entries_of",
    "graph_of",
    "pattern_of",
    "tau",
    "row_diameter",
    "spread",
    "is_scrambling",
    "is_markov",
    "is_sia",
    "pattern_period",
    "scrambling_index",
    "classify",
    "backward_product",
]

ROW_SUM_TOL = 1e-12


class StochasticMatrix:
    """A validated row-stochastic matrix.

    Entries are integer or float numbers, finite and nonnegative, and every
    row sums to 1 within ``ROW_SUM_TOL``.  Instances are immutable; the
    entry array is stored read-only.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = _checks.square(entries, float)
        neg = np.argwhere(a < 0)
        if len(neg):
            i, j = map(int, neg[0])
            raise NegativeEntry(i, j, float(a[i, j]))
        sums = a.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if len(bad):
            raise RowSumViolation(int(bad[0]), float(sums[bad[0]]))
        object.__setattr__(self, "entries", a)

    def __setattr__(self, name, value):
        raise AttributeError("StochasticMatrix is immutable")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def pattern(self) -> np.ndarray:
        """Boolean mask of strictly positive entries."""
        return self.entries > 0

    def __repr__(self):
        return f"StochasticMatrix({self.entries.tolist()!r})"

    def __eq__(self, other):
        if not isinstance(other, StochasticMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            np.all(self.entries == other.entries))

    def __hash__(self):
        return hash(self.entries.tobytes())


def entries_of(matrix) -> np.ndarray:
    """Entry array of a StochasticMatrix, checked when it was made, or of an
    array-like: ``DimensionMismatch`` unless it is a square 2-D array of
    numbers, then ``NonFiniteEntry`` on a NaN or infinite entry."""
    if isinstance(matrix, StochasticMatrix):
        return matrix.entries
    return _checks.square(matrix, float)


def graph_of(matrix) -> graphs.DirectedGraph:
    """Graph of a weight matrix: edge (i, j) present when W[j, i] > 0."""
    return graphs.DirectedGraph.from_adjacency(pattern_of(matrix).T)


def pattern_of(matrix) -> np.ndarray:
    """Strict positivity mask of a matrix or array-like; a square boolean
    mask is its own."""
    if isinstance(matrix, StochasticMatrix):
        return matrix.pattern()
    mask = _checks.square(matrix, None)
    return mask if mask.dtype == bool else entries_of(matrix) > 0


@dataclass(frozen=True)
class MatrixClass:
    """Classification result of a single stochastic matrix.

    For irreducible matrices the usual inclusions hold: markov implies
    scrambling implies sia, and a pattern period above 1 excludes sia.  A
    reducible matrix whose transient part is periodic can be sia and still
    have ``period > 1``; the closed part alone decides sia membership.
    """

    is_scrambling: bool
    is_sia: bool
    is_markov: bool
    period: int


def tau(matrix) -> float:
    """Coefficient of ergodicity: 1 minus the worst row-pair overlap, and
    1.0 as soon as one row pair has no common positive column."""
    a = entries_of(matrix)
    n = a.shape[0]
    if n == 1:
        return 0.0
    # min over unordered row pairs of sum_s min(a_is, a_js); one row at a
    # time keeps memory at O(n^2) for the few-hundred sizes used here.  Once
    # the worst overlap is <= 0 the clipped result is 1.0 whatever the later
    # rows hold, so the scan stops there.
    worst = np.inf
    for i in range(n - 1):
        overlaps = np.minimum(a[i], a[i + 1:]).sum(axis=1)
        worst = min(worst, float(overlaps.min()))
        if worst <= 0.0:
            break
    return min(max(1.0 - worst, 0.0), 1.0)


def row_diameter(rows: np.ndarray) -> float:
    """Half the largest l1 distance between two rows, at most 1.

    On a stochastic matrix this is ``tau``.  On its row differences against
    the last row with a zero row appended, ``[E W; 0]``, it is ``tau(W)``
    too, with relative precision however small tau gets (Seneta,
    *Non-negative Matrices and Markov Chains*, section 3.1).
    """
    worst = 0.0
    for i in range(rows.shape[0] - 1):
        dist = np.abs(rows[i] - rows[i + 1:]).sum(axis=1)
        worst = max(worst, float(dist.max()))
    return min(worst / 2.0, 1.0)


def _column_spreads(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a (k, rows, cols) stack, the largest spread (max minus
    min over the rows) of a column: the worst disagreement among its rows."""
    return np.maximum.reduce(np.maximum.reduce(stack, 1)
                             - np.minimum.reduce(stack, 1), 1)


def spread(x) -> float:
    """Max component minus min component of a nonempty vector."""
    x = _checks.reals(x)
    if x.size == 0:
        raise EmptySequence("spread of an empty vector")
    return float(_column_spreads(x.reshape(1, -1, 1))[0])


def _scrambling_slice(masks: np.ndarray) -> np.ndarray:
    # float32 counts of shared columns are exact (at most n < 2**24), and
    # unlike integer products they go through BLAS
    m = masks.astype(np.float32)
    return (m @ m.swapaxes(1, 2) > 0).all(axis=(1, 2))


def _stack_is_scrambling(masks) -> np.ndarray:
    """Per pattern of a (k, n, n) boolean stack: every pair of rows shares
    a column where both are positive."""
    return graphs._per_slice(_scrambling_slice, masks)


def _stack_is_markov(masks) -> np.ndarray:
    """Per pattern of a (k, n, n) boolean stack: some column is positive in
    every row."""
    return np.asarray(masks, dtype=bool).all(axis=1).any(axis=1)


def _sia_and_cycle_length(mask: np.ndarray):
    """One component labelling of the walk digraph (edge i -> j when mask
    entry (i, j) is True) for both ``is_sia`` and ``pattern_period``.

    Returns ``(sia, length)``: ``sia`` says there is exactly one closed
    strongly connected class and it is aperiodic; ``length`` is the lcm of
    every component's period.
    """
    closed, labels = graphs.closed_components(mask)
    periods = [graphs.component_period(mask, np.nonzero(labels == c)[0])
               for c in range(labels.max() + 1 if labels.size else 0)]
    sia = len(closed) == 1 and periods[closed[0]] == 1
    return sia, math.lcm(1, *periods)


def is_scrambling(matrix) -> bool:
    """Every pair of rows shares a column where both are positive."""
    return bool(_stack_is_scrambling(pattern_of(matrix)[None])[0])


def is_markov(matrix) -> bool:
    """Some column is positive in every row."""
    return bool(_stack_is_markov(pattern_of(matrix)[None])[0])


def is_sia(matrix) -> bool:
    """Powers converge to identical rows: one closed class, aperiodic."""
    return _sia_and_cycle_length(pattern_of(matrix))[0]


def pattern_period(matrix) -> int:
    """Cycle length of the sequence of boolean pattern powers.

    The pattern of A^k is the k-th boolean power of A's pattern; the sequence
    lives in a finite set so it is eventually periodic, with cycle length the
    lcm of the periods of the strongly connected components (Brualdi & Ryser,
    Combinatorial Matrix Theory, 3.4).  1 means the powers' pattern
    eventually stops changing.
    """
    return _sia_and_cycle_length(pattern_of(matrix))[1]


def scrambling_index(matrix):
    """Smallest m with the m-th pattern power scrambling, or None.

    Any product of m stochastic matrices of this matrix's type is scrambling
    exactly when the m-th boolean pattern power is.  Some power scrambles
    exactly when the pattern is sia (Wolfowitz 1963), so the walk over
    powers of an sia pattern always ends.
    """
    mask = pattern_of(matrix)
    if not _sia_and_cycle_length(mask)[0]:
        return None
    base = mask.astype(np.float32)  # exact path counts, BLAS product
    power, k = mask, 1
    while not _stack_is_scrambling(power[None])[0]:
        power, k = (power.astype(np.float32) @ base) > 0, k + 1
    return k


def classify(matrix) -> MatrixClass:
    mask = pattern_of(matrix)
    sia, period = _sia_and_cycle_length(mask)
    return MatrixClass(
        is_scrambling=bool(_stack_is_scrambling(mask[None])[0]),
        is_sia=sia,
        is_markov=bool(_stack_is_markov(mask[None])[0]),
        period=period,
    )


def backward_product(matrices) -> StochasticMatrix:
    """Product of a chronological list with later factors on the left.

    ``backward_product([W1, W2, ..., Wk])`` returns ``Wk @ ... @ W2 @ W1``.
    """
    arrays = [entries_of(m) for m in matrices]
    if not arrays:
        raise EmptySequence("backward product of an empty sequence")
    n = arrays[0].shape[0]
    for a in arrays:
        if a.shape != (n, n):
            raise DimensionMismatch("matrices in a product must share dimensions")
    prod = reduce(lambda acc, nxt: nxt @ acc, arrays[1:], arrays[0])
    return StochasticMatrix(prod)
