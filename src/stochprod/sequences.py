"""Generative models for random index sequences over a finite matrix set.

A model produces the index process behind a random matrix sequence
``W(k) = F[y_k]``.  Three variants cover the experiments here:

* ``IIDModel`` draws indices independently with fixed weights;
* ``MarkovModulatedModel`` runs a finite Markov chain over indices;
* ``ScriptedModel`` replays an explicit index list, repeated cyclically.

Sampling is deterministic given ``(model, seed)``; independent Monte Carlo
trials perturb the stream with ``seed ^ trial``.  Besides sampling, the
models answer *exact* probability queries for classification events of
length-h window products; ``advance`` merges words that end in the same
index with the same pattern, which form a finite semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs, matrices
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    InvalidDistribution,
    Reducible,
)
from .matrices import StochasticMatrix

__all__ = [
    "FiniteMatrixSet",
    "SequenceModel",
    "IIDModel",
    "MarkovModulatedModel",
    "ScriptedModel",
    "sample",
    "advance",
    "window_probability",
    "window_class_probability",
    "window_starts",
    "stationary_distribution",
    "min_positive_entry",
    "trial_seed",
]

STATE_LIMIT = 10**6  # states one layer of ``advance`` may expand
START_HORIZON = 128  # marginal steps ``window_starts`` tracks before giving up
DIST_TOL = 1e-12

_PATTERN_TESTS = {
    "scrambling": matrices.pattern_is_scrambling,
    "sia": matrices.pattern_is_sia,
    "markov": matrices.pattern_is_markov,
}


def _check_seed(seed: int):
    """Seeds are nonnegative: numpy's generators refuse negative ones."""
    if seed < 0:
        raise InvalidDistribution(f"seed must be nonnegative, got {seed}")


def trial_seed(seed: int, trial: int) -> int:
    """Stream-split rule: Monte Carlo trial t runs on ``seed ^ t``."""
    return int(seed) ^ int(trial)


@dataclass(frozen=True)
class FiniteMatrixSet:
    """The finite set of stochastic matrices a sequence draws from."""

    matrices: tuple
    labels: tuple = ()

    def __post_init__(self):
        mats = tuple(
            m if isinstance(m, StochasticMatrix) else StochasticMatrix(m)
            for m in self.matrices)
        if not mats:
            raise DimensionMismatch("a matrix set needs at least one matrix")
        n = mats[0].n
        if any(m.n != n for m in mats):
            raise DimensionMismatch("all matrices in a set must share dimensions")
        labels = tuple(self.labels) or tuple(f"M{i}" for i in range(len(mats)))
        if len(labels) != len(mats):
            raise DimensionMismatch("one label per matrix")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.matrices)

    @property
    def dimension(self) -> int:
        return self.matrices[0].n

    def entry_arrays(self) -> list:
        return [m.entries for m in self.matrices]

    def patterns(self) -> list:
        return [m.pattern() for m in self.matrices]


def _check_distribution(vec, what: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidDistribution(f"{what} must be a nonempty vector")
    if not np.isfinite(v).all():
        raise InvalidDistribution(f"{what} has a non-finite entry")
    if np.any(v < 0):
        raise InvalidDistribution(f"{what} has a negative entry")
    if abs(v.sum() - 1.0) > DIST_TOL:
        raise InvalidDistribution(f"{what} sums to {v.sum()}, expected 1")
    v.flags.writeable = False
    return v


class SequenceModel:
    """Common interface of the index-process models.

    Subclasses implement ``num_symbols``, ``sample_indices`` and the two
    distribution hooks used for exact enumeration: ``start_distribution(k)``
    (law of the index at position k+1) and ``step_distribution(prev)`` (law
    of the next index given the previous one).
    """

    seed: int
    matrix_set: FiniteMatrixSet | None

    @property
    def num_symbols(self) -> int:
        raise NotImplementedError

    def sample_indices(self, length: int, trial: int = 0) -> np.ndarray:
        raise NotImplementedError

    def start_distribution(self, start: int) -> np.ndarray:
        raise NotImplementedError

    def step_distribution(self, prev: int) -> np.ndarray:
        raise NotImplementedError

    def _require_set(self) -> FiniteMatrixSet:
        if self.matrix_set is None:
            raise InvalidDistribution("this model carries no matrix set")
        if len(self.matrix_set) < self.num_symbols:
            raise DimensionMismatch(
                f"model uses {self.num_symbols} symbols but the set has "
                f"{len(self.matrix_set)} matrices")
        return self.matrix_set


@dataclass(frozen=True)
class IIDModel(SequenceModel):
    """Indices drawn independently with fixed weights."""

    weights: np.ndarray
    seed: int = 0
    matrix_set: FiniteMatrixSet | None = None

    def __post_init__(self):
        _check_seed(self.seed)
        object.__setattr__(self, "weights", _check_distribution(self.weights, "weights"))

    @property
    def num_symbols(self) -> int:
        return self.weights.size

    def sample_indices(self, length, trial=0):
        rng = np.random.default_rng(trial_seed(self.seed, trial))
        return rng.choice(self.num_symbols, size=int(length), p=self.weights)

    def start_distribution(self, start):
        return self.weights

    def step_distribution(self, prev):
        return self.weights


@dataclass(frozen=True)
class MarkovModulatedModel(SequenceModel):
    """Indices follow a finite Markov chain: y_1 ~ initial, then each step
    moves by the transition matrix."""

    initial: np.ndarray
    transition: np.ndarray
    seed: int = 0
    matrix_set: FiniteMatrixSet | None = None

    def __post_init__(self):
        _check_seed(self.seed)
        v = _check_distribution(self.initial, "initial distribution")
        t = np.asarray(self.transition, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] != v.size:
            raise InvalidDistribution("transition matrix shape mismatch")
        for i in range(t.shape[0]):
            _check_distribution(t[i], f"transition row {i}")
        t.flags.writeable = False
        object.__setattr__(self, "initial", v)
        object.__setattr__(self, "transition", t)

    @property
    def num_symbols(self) -> int:
        return self.initial.size

    def sample_indices(self, length, trial=0):
        rng = np.random.default_rng(trial_seed(self.seed, trial))
        length, last = int(length), self.num_symbols - 1
        u = rng.random(length)
        # step k moves from state s to nxt[s * length + k]: every row's
        # inverse-CDF lookup of every draw at once, then a plain-int walk
        nxt = np.minimum([np.searchsorted(row, u, side="right")
                          for row in np.cumsum(self.transition, axis=1)],
                         last).ravel().tolist()
        state = min(int(np.searchsorted(np.cumsum(self.initial), u[0],
                                        side="right")), last)
        out = [state]
        for k in range(1, length):
            state = nxt[state * length + k]
            out.append(state)
        return np.array(out, dtype=np.int64)

    def marginal(self, k: int) -> np.ndarray:
        """Law of the index at position k+1 (k steps after the initial)."""
        v = self.initial.copy()
        for _ in range(int(k)):
            v = v @ self.transition
        return v

    def start_distribution(self, start):
        return self.marginal(start)

    def step_distribution(self, prev):
        return self.transition[int(prev)]

    def is_stationary(self, tol: float = 1e-9) -> bool:
        return bool(np.abs(self.initial @ self.transition - self.initial).max() <= tol)


@dataclass(frozen=True)
class ScriptedModel(SequenceModel):
    """A fixed index list, replayed cyclically for longer samples."""

    indices: tuple
    seed: int = 0
    matrix_set: FiniteMatrixSet | None = None

    def __post_init__(self):
        _check_seed(self.seed)
        idx = tuple(int(i) for i in self.indices)
        if not idx:
            raise InvalidDistribution("a script needs at least one index")
        if any(i < 0 for i in idx):
            raise InvalidDistribution("script indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @property
    def num_symbols(self) -> int:
        return max(self.indices) + 1

    @property
    def period(self) -> int:
        return len(self.indices)

    def sample_indices(self, length, trial=0):
        length = int(length)
        reps = -(-length // len(self.indices))
        return np.tile(np.asarray(self.indices, dtype=np.int64), reps)[:length]

    def scripted_word(self, start: int, h: int) -> tuple:
        return tuple(self.indices[(start + t) % len(self.indices)] for t in range(h))

    def start_distribution(self, start):
        d = np.zeros(self.num_symbols)
        d[self.indices[int(start) % len(self.indices)]] = 1.0
        return d

    def step_distribution(self, prev):
        raise InvalidDistribution(
            "a scripted model has position-dependent steps; query whole windows")


def sample(model: SequenceModel, length: int, trial: int = 0) -> np.ndarray:
    """Draw a length-``length`` index sequence as a read-only array; the same
    (model, trial) gives the same draw, on seed ``trial_seed(model.seed,
    trial)``, and a longer draw extends a shorter one: ``sample(model,
    L)[:k]`` equals ``sample(model, k)`` for every k <= L."""
    if length < 1:
        raise InvalidDistribution("length must be at least 1")
    idx = np.asarray(model.sample_indices(length, trial=trial), dtype=np.int64)
    idx.flags.writeable = False
    return idx


def advance(model: SequenceModel, factors, last, prods, weights, steps: int):
    """Extend states (last index, backward product, weight row) by ``steps``
    indices: each layer follows every positive step probability, multiplies
    the new index's factor on the left and scales the weight row, then
    merges states with equal last index and bit-identical product by adding
    their weight rows.  Returns ``(last, prods, weights)``; raises
    ``EnumerationTooLarge`` when a layer expands over ``STATE_LIMIT`` states.
    """
    factors = np.asarray(factors)
    steps_law = np.array([model.step_distribution(s)
                          for s in range(model.num_symbols)])
    for _ in range(int(steps)):
        src, nxt = np.nonzero(steps_law[last] > 0)
        if src.size > STATE_LIMIT:
            raise EnumerationTooLarge(
                f"{src.size} states in one layer exceed {STATE_LIMIT}")
        prods = factors[nxt] @ prods[src]
        weights = weights[src] * steps_law[last[src], nxt][:, None]
        keys = np.concatenate([nxt[:, None].view(np.uint8),
                               prods.reshape(src.size, -1).view(np.uint8)], axis=1)
        # one opaque key per row: np.unique(axis=0) is an order slower
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        merged = np.zeros((first.size, weights.shape[1]))
        np.add.at(merged, inverse.ravel(), weights)
        last, prods, weights = nxt[first], prods[first], merged
    return last, prods, weights


def _window_words(model: SequenceModel, factors, h: int):
    """``(prods, weights)``: every length-h window's backward product of
    ``factors``, merged by ``advance``, and ``weights[w, s]``, the
    probability of product w given first index s."""
    if h < 1:
        raise InvalidDistribution("window length must be at least 1")
    m = model.num_symbols
    factors = np.asarray(factors)[:m]
    _, prods, weights = advance(model, factors, np.arange(m), factors,
                                np.eye(m), h - 1)
    return prods, weights


def window_probability(model: SequenceModel, patterns, h: int, test,
                       starts=None) -> np.ndarray:
    """Exact probability, at each window start, that the boolean backward
    product of the patterns along the h window positions passes ``test``.

    ``_window_words`` gives q[s], the probability of passing given first
    index s; start k then costs one dot product with the law of its first
    index.  Starts default to ``window_starts(model)``.
    """
    if h < 1:
        raise InvalidDistribution("window length must be at least 1")
    starts = window_starts(model) if starts is None else starts
    pats = np.asarray(patterns, dtype=bool)[:model.num_symbols]
    if isinstance(model, ScriptedModel):
        hits = []
        for start in starts:
            word = model.scripted_word(start, h)
            prod = pats[word[0]]
            for idx in word[1:]:
                prod = pats[idx] @ prod
            hits.append(1.0 if test(prod) else 0.0)
        return np.array(hits)
    prods, weights = _window_words(model, pats, h)
    q = weights[np.array([bool(test(p)) for p in prods])].sum(axis=0)
    return np.array([model.start_distribution(start) @ q for start in starts])


def window_class_probability(model: SequenceModel, start: int, h: int,
                             klass: str) -> float:
    """Exact probability that the window product is in a matrix class.

    The event is about the backward product of the h matrices at positions
    start+1 .. start+h; membership in {scrambling, sia, markov} depends only
    on the boolean pattern, so ``window_probability`` decides it.
    """
    if klass not in _PATTERN_TESTS:
        raise InvalidDistribution(f"unknown class {klass!r}")
    fset = model._require_set()
    return float(window_probability(model, fset.patterns(), h,
                                    _PATTERN_TESTS[klass], [start])[0])


def window_starts(model: SequenceModel) -> list:
    """Window starts covering one period of the model's marginal law.

    Scripted models cycle with their script length; i.i.d. and stationary
    Markov-modulated models are homogeneous, so one start suffices.  A
    non-stationary Markov-modulated model gets its marginals tracked until
    they repeat or settle within 1e-13, which covers periodic and converging
    modulating chains alike; raises ``EnumerationTooLarge`` when neither
    happens within ``START_HORIZON`` steps.
    """
    if isinstance(model, ScriptedModel):
        return list(range(model.period))
    if isinstance(model, MarkovModulatedModel) and not model.is_stationary(1e-12):
        seen = [model.initial]
        starts = [0]
        v = model.initial
        for k in range(1, START_HORIZON + 1):
            v = v @ model.transition
            if any(np.abs(v - u).max() < 1e-13 for u in seen):
                return starts
            seen.append(v)
            starts.append(k)
        raise EnumerationTooLarge(
            f"the marginals neither repeat nor settle within {START_HORIZON} steps")
    return [0]


def stationary_distribution(transition) -> np.ndarray:
    """Unique stationary row vector of an irreducible transition matrix.

    Uses damped power iteration (on (P + I)/2, which shares the stationary
    vector and converges even for periodic chains) until the residual on the
    original matrix drops below 1e-13.
    """
    p = StochasticMatrix(transition).entries
    n = p.shape[0]
    count, _ = graphs.strongly_connected_components(p > 0)
    if count != 1:
        raise Reducible("transition matrix is reducible")
    v = np.full(n, 1.0 / n)
    for _ in range(200000):
        v = 0.5 * (v + v @ p)
        v /= v.sum()
        if np.abs(v @ p - v).max() < 1e-13:
            return v
    raise Reducible("power iteration failed to reach the 1e-13 residual")


def min_positive_entry(fset: FiniteMatrixSet) -> float:
    """Uniform lower bound over all positive entries of all set members."""
    best = np.inf
    for a in fset.entry_arrays():
        pos = a[a > 0]
        if pos.size:
            best = min(best, float(pos.min()))
    return best if np.isfinite(best) else 1.0
