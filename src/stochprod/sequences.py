"""Generative models for random index sequences over a finite matrix set.

A model produces the index process behind a random matrix sequence
``W(k) = F[y_k]``.  Three variants cover the experiments here:

* ``IIDModel`` draws indices independently with fixed weights;
* ``MarkovModulatedModel`` runs a finite Markov chain over indices;
* ``ScriptedModel`` replays an explicit index list, repeated cyclically.

Sampling is deterministic given ``(model, seed)``: Monte Carlo trial t reads
its own index stream, on seed ``seed ^ t``, in draws of any size.  Besides
sampling, the models answer *exact* probability queries for classification
events of length-h window products; ``advance`` merges words that end in the
same index with the same pattern, which form a finite semigroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _checks, graphs
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
    "window_starts",
    "stationary_distribution",
]

STATE_LIMIT = 10**6  # states one layer of ``advance`` may expand
SAMPLE_BLOCK = 2**14  # draws the Markov sampler looks up and walks at once
START_HORIZON = 128  # marginal steps ``window_starts`` tracks before giving up
# enumeration layers one window walk may run: length h, alone or at the end
# of a search, takes h - 1; about 1.5 s when every layer holds one state
WINDOW_LAYERS = 2 * 10**4


def _trial_seed(seed: int, trial: int) -> int:
    """Stream-split rule: Monte Carlo trial t runs on ``seed ^ t``; raises
    ``InvalidDistribution`` unless the trial is an integer of at least 0."""
    return _checks.count(seed, "seed") ^ _checks.count(trial, "trial", 0)


@dataclass(frozen=True)
class FiniteMatrixSet:
    """The finite set of stochastic matrices a sequence draws from."""

    matrices: tuple
    labels: tuple = ()

    def __post_init__(self):
        mats = tuple(
            m if isinstance(m, StochasticMatrix) else StochasticMatrix(m)
            for m in _checks.items(self.matrices, "matrices"))
        if not mats:
            raise DimensionMismatch("a matrix set needs at least one matrix")
        n = mats[0].n
        if any(m.n != n for m in mats):
            raise DimensionMismatch("all matrices in a set must share dimensions")
        labels = (_checks.items(self.labels, "labels")
                  or tuple(f"M{i}" for i in range(len(mats))))
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


class SequenceModel:
    """Common interface of the index-process models.

    Subclasses implement ``num_symbols``, ``stream`` and the two
    distribution hooks used for exact enumeration: ``start_distribution(k)``
    (law of the index at position k+1) and ``step_distribution(prev)`` (law
    of the next index given the previous one).  A scripted model's windows
    are walked start by start instead, and its step hook refuses.
    """

    seed: int
    matrix_set: FiniteMatrixSet | None

    @property
    def num_symbols(self) -> int:
        raise NotImplementedError

    def stream(self, trial: int = 0):
        """``draw(count)``: the next ``count`` indices (int64) of this (model,
        trial) sequence; split draws join into ``sample(self, total, trial)``."""
        raise NotImplementedError

    def start_distribution(self, start: int) -> np.ndarray:
        raise NotImplementedError

    def step_distribution(self, prev: int) -> np.ndarray:
        raise NotImplementedError

    def _check_fields(self):
        """The seed and the optional matrix set of every model variant."""
        _checks.seed(self.seed)
        _checks.instance(self.matrix_set, (FiniteMatrixSet, type(None)),
                         "a FiniteMatrixSet or None as matrix_set")

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
        self._check_fields()
        weights = _checks.distribution(self.weights, "weights")
        object.__setattr__(self, "weights", weights)

    @property
    def num_symbols(self) -> int:
        return self.weights.size

    def stream(self, trial=0):
        # ``Generator.choice(p=weights)``'s inverse-CDF lookup, built once
        rng = np.random.default_rng(_trial_seed(self.seed, trial))
        cdf = self.weights.cumsum()
        cdf /= cdf[-1]
        return lambda count: cdf.searchsorted(rng.random(count), side="right")

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
        self._check_fields()
        v = _checks.distribution(self.initial, "initial distribution")
        t = _checks.square(self.transition, float, finite=False)
        if len(t) != v.size:
            raise DimensionMismatch("transition matrix shape mismatch")
        for i, row in enumerate(t):
            _checks.distribution(row, f"transition row {i}")
        object.__setattr__(self, "initial", v)
        object.__setattr__(self, "transition", t)

    @property
    def num_symbols(self) -> int:
        return self.initial.size

    def stream(self, trial=0):
        rng = np.random.default_rng(_trial_seed(self.seed, trial))
        # every walk starts in row m = num_symbols, the initial law; an
        # infinite last entry sends a uniform past a row's rounded sum to m - 1
        cum_rows = np.cumsum(np.vstack([self.transition, self.initial]), axis=1)
        cum_rows[:, -1] = np.inf
        state = self.num_symbols

        def draw(count):
            # blocks of draws equal one draw of them all; per block, step k
            # moves from state s to nxt[s][k]: every row's inverse-CDF
            # lookup of every draw at once, then a plain-int walk
            nonlocal state
            out = np.empty(count, dtype=np.int64)
            for lo in range(0, count, SAMPLE_BLOCK):
                size = min(SAMPLE_BLOCK, count - lo)
                u = rng.random(size)
                nxt = [row.searchsorted(u, side="right").tolist()
                       for row in cum_rows]
                walk = []
                for k in range(size):
                    state = nxt[state][k]
                    walk.append(state)
                out[lo:lo + size] = walk
            return out
        return draw

    def marginal(self, k: int) -> np.ndarray:
        """Law of the index at position k+1 (k steps after the initial)."""
        v = self.initial.copy()
        for _ in range(_checks.count(k, "position", 0)):
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
        self._check_fields()
        idx = tuple(_checks.count(i, "script index", 0)
                    for i in _checks.items(self.indices, "script indices"))
        if not idx:
            raise InvalidDistribution("a script needs at least one index")
        object.__setattr__(self, "indices", idx)

    @property
    def num_symbols(self) -> int:
        return max(self.indices) + 1

    @property
    def period(self) -> int:
        return len(self.indices)

    def stream(self, trial=0):
        cycle = itertools.cycle(self.indices)
        return lambda n: np.fromiter(itertools.islice(cycle, n), np.int64, n)

    def step_distribution(self, prev):
        raise InvalidDistribution(
            "a scripted model has position-dependent steps; query whole windows")


def sample(model: SequenceModel, length: int, trial: int = 0) -> np.ndarray:
    """One draw of a fresh ``model.stream(trial)`` as a read-only array, on
    seed ``model.seed ^ trial``; a longer draw extends a shorter one:
    ``sample(model, L)[:k]`` equals ``sample(model, k)`` for k <= L.
    Raises ``InvalidDistribution`` unless ``length`` is an integer of at
    least 1 and ``trial`` one of at least 0."""
    length = _checks.count(length, "length", 1)
    _trial_seed(model.seed, trial)
    idx = np.asarray(model.stream(trial)(length), dtype=np.int64)
    idx.flags.writeable = False
    return idx


def _step_law(model: SequenceModel) -> np.ndarray:
    """The (symbols, symbols) table whose row s is the law of the next
    index given s, built once per enumeration; a scripted model refuses."""
    return np.array([model.step_distribution(s)
                     for s in range(model.num_symbols)])


def advance(law, factors, last, prods, weights):
    """Extend states (last index, backward product, weight row) by one
    index: follow every positive ``law`` (``_step_law``) probability,
    multiply the new index's factor on the left and scale the weight row,
    then merge states with equal last index and bit-identical product by
    adding their weight rows.  Returns ``(last, prods, weights)``; raises
    ``EnumerationTooLarge`` when the layer expands over ``STATE_LIMIT``
    states.
    """
    src, nxt = np.nonzero(law[last] > 0)
    if src.size > STATE_LIMIT:
        raise EnumerationTooLarge(
            f"{src.size} states in one layer exceed {STATE_LIMIT}")
    prods = np.asarray(factors)[nxt] @ prods[src]
    weights = weights[src] * law[last[src], nxt][:, None]
    keys = np.concatenate([nxt[:, None].view(np.uint8),
                           prods.reshape(src.size, -1).view(np.uint8)], axis=1)
    # one opaque key per row: np.unique(axis=0) is an order slower
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    merged = np.zeros((first.size, weights.shape[1]))
    np.add.at(merged, inverse.ravel(), weights)
    return nxt[first], prods[first], merged


def _check_window(h: int, layers: str = "of"):
    """``h`` as an int; refuses a window length that is not an integer, is
    below 1 or passes ``WINDOW_LAYERS``."""
    h = _checks.count(h, "window length", 1)
    if h - 1 > WINDOW_LAYERS:
        raise EnumerationTooLarge(
            f"{h - 1} enumeration layers {layers} window length {h} "
            f"exceed {WINDOW_LAYERS}")
    return h


def _window_walk(model: SequenceModel, factors):
    """Yield ``(prods, weights)`` for window lengths h = 1, 2, ...: the
    length-h backward products of ``factors`` merged by ``advance``, with
    ``weights[w, s]`` the probability of product w given first index s (for
    a scripted model, one product per start s of the period).  Each length
    takes one more layer, charged to ``WINDOW_LAYERS`` as it runs."""
    factors = np.asarray(factors)[:model.num_symbols]
    scripted = isinstance(model, ScriptedModel)
    if scripted:
        factors = factors[list(model.indices)]
    else:
        law = _step_law(model)
    last = np.arange(len(factors))
    prods, weights = factors, np.eye(len(factors))
    for h in itertools.count(2):
        yield prods, weights
        _check_window(h, "up to")
        if scripted:
            prods = np.roll(factors, 1 - h, axis=0) @ prods
        else:
            last, prods, weights = advance(law, factors, last, prods, weights)


def _window_words(model: SequenceModel, factors, h: int):
    """The length-h step of ``_window_walk``, checked before its first."""
    h = _check_window(h)
    return next(itertools.islice(_window_walk(model, factors), h - 1, None))


def _passing(model: SequenceModel, starts, weights, mask, values=None):
    """Per start, the sum over the window products in ``mask`` of their
    weights q[s], or of weights times ``values`` (one per masked product),
    taken under the law of the start's column s.  Without ``values`` the
    sums are probabilities, clipped to [0, 1]: weights that sum to 1 can
    round past it."""
    if values is None:
        q = weights[mask].sum(axis=0)
    else:
        q = (weights[mask] * values[:, None]).sum(axis=0)
    if isinstance(model, ScriptedModel):
        per_start = q[np.asarray(starts, dtype=int) % model.period]
    else:
        per_start = np.array([model.start_distribution(start) @ q
                              for start in starts])
    return per_start if values is not None else np.clip(per_start, 0.0, 1.0)


def window_probability(model: SequenceModel, patterns, h: int, test,
                       starts=None) -> np.ndarray:
    """Exact probability, at each window start (by default
    ``window_starts(model)``), that the boolean backward product of the
    patterns along the h window positions passes ``test``, which maps a
    (k, n, n) stack of window products to one boolean per product, as
    ``matrices._stack_is_scrambling`` does.  Raises ``DimensionMismatch``
    unless there is a pattern per symbol and they stack to (k, n, n),
    ``InvalidDistribution`` on a window length below 1 or a start below 0
    (either not an integer), ``EnumerationTooLarge`` before the first layer
    past ``WINDOW_LAYERS``."""
    h = _check_window(h)
    patterns = _checks.square(patterns, bool, 3)
    if len(patterns) < model.num_symbols:
        raise DimensionMismatch(f"{len(patterns)} patterns for "
                                f"{model.num_symbols} symbols")
    starts = window_starts(model) if starts is None else starts
    starts = [_checks.count(s, "window start", 0) for s in starts]
    prods, weights = _window_words(model, patterns, h)
    return _passing(model, starts, weights, test(prods))


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
        v = model.initial
        for k in range(1, START_HORIZON + 1):
            v = v @ model.transition
            if any(np.abs(v - u).max() < 1e-13 for u in seen):
                return list(range(k))
            seen.append(v)
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
