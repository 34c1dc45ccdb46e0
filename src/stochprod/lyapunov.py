"""Finite-horizon contraction certificates for randomly switched linear
systems.

For ``x_{k+1} = A[y_{k+1}] x_k`` with a random mode signal, a nonnegative
function V certifies exponential decay when its conditional expectation T
steps ahead contracts: ``E[V(x_{k+T}) | x_k, y_k] <= (1 - alpha) V(x_k)``
for every state and every current mode.  The conditional expectation is
computed exactly by enumerating mode continuations; for positively
homogeneous V and linear modes the worst case over all states reduces to a
grid on the unit sup-norm sphere.  One enumeration serves every current
mode at once: its weight columns hold each mode's continuation law, so each
continuation operator meets the grid once per horizon, and the images it
makes are bounded by ``IMAGE_LIMIT``.  Each horizon's images are one stacked
matmul, exact on monomial modes (one nonzero per row) and otherwise good to
the last ulps of its short sums.  A certificate (T, alpha) guarantees decay
of V at per-step rate ``(1 - alpha)**(1/T)``, which Monte Carlo runs can
then be checked against.
"""

from __future__ import annotations

import functools
import importlib.util
import os
from dataclasses import dataclass, field

import numpy as np

from . import _checks, sequences
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    InvalidDistribution,
    NoCertificate,
)
from .products import _log_linear_rate
from .sequences import SequenceModel

__all__ = [
    "SwitchedSystem",
    "LyapunovFunction",
    "inf_norm",
    "SphereGrid",
    "FiniteStepCertificate",
    "DecayReport",
    "expected_lyapunov",
    "certify_contraction",
    "monte_carlo_decay",
]

HISTORY_LIMIT = 10**7  # V history cells, trials * (steps + 1), of one run
# image cells, states * grid points * n summed over the horizons of one
# certificate search (at most 400 MB of float64 images in all, one horizon's
# held at a time); each horizon is charged at least HORIZON_CELLS, so a
# search whose layers never grow still ends.  That floor is a horizon's fixed
# cost, 37-42 us in a one-state search of 1 or 2 dimensions, in cells at the
# 300-335 cells/us of the benchmark's 3-mode 5x5 search (2 vCPU Xeon, one
# BLAS thread): a search that never grows stops after 4,167 horizons
IMAGE_LIMIT = 5 * 10**7
HORIZON_CELLS = 12000


@dataclass(frozen=True)
class SwitchedSystem:
    """Linear modes (arbitrary square matrices) plus a mode-index signal."""

    modes: tuple
    signal: SequenceModel

    def __post_init__(self):
        mats = tuple(map(_checks.reals, _checks.items(self.modes, "modes")))
        if not mats:
            raise DimensionMismatch("a switched system needs at least one mode")
        n = mats[0].shape[0] if mats[0].ndim == 2 else None
        if any(a.shape != (n, n) for a in mats):
            raise DimensionMismatch("modes must be square and share dimensions")
        _checks.instance(self.signal, SequenceModel, "a SequenceModel as signal")
        if self.signal.num_symbols > len(mats):
            raise DimensionMismatch(
                f"signal uses {self.signal.num_symbols} symbols but there are "
                f"{len(mats)} modes")
        object.__setattr__(self, "modes", mats)

    @property
    def dimension(self) -> int:
        return self.modes[0].shape[0]

    @property
    def num_modes(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class LyapunovFunction:
    """A candidate certificate function.

    ``fn`` must accept arrays of shape (..., n) and evaluate along the last
    axis.  ``degree`` is the positive-homogeneity degree when there is one
    (``fn(c x) = c**degree fn(x)`` for c > 0); grid certification requires it.
    """

    fn: object
    name: str = "V"
    degree: float | None = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _sup_norm(x: np.ndarray):
    """``np.abs(x).max(axis=-1)``, bit for bit (max is exact in any order),
    by one ``np.maximum`` per coordinate: numpy's reduce over a short last
    axis is slow, and this makes no ``abs`` copy of x."""
    out, scratch = np.empty(x.shape[:-1]), np.empty(x.shape[:-1])
    np.abs(x[..., 0], out=out)
    for i in range(1, x.shape[-1]):
        np.maximum(out, np.abs(x[..., i], out=scratch), out=out)
    return out[()]


def inf_norm() -> LyapunovFunction:
    """The sup norm, the workhorse certificate for averaging dynamics."""
    return LyapunovFunction(fn=_sup_norm, name="sup-norm", degree=1.0)


def _check_function(V: LyapunovFunction, n: int, probes: np.ndarray):
    if abs(float(V(np.zeros(n)))) > 1e-14:
        raise InvalidDistribution(f"{V.name}(0) must be 0")
    vals = np.asarray(V(probes), dtype=float)
    if np.any(vals < 0):
        raise InvalidDistribution(f"{V.name} is negative on a probe point")


_SOBOL_BITS = 30  # bits of each Sobol coordinate, so at most 2**30 points


@functools.lru_cache(maxsize=8)  # a few dimensions, at most 2.5 MB each
def _sobol_directions(d: int) -> np.ndarray:
    """The (d, _SOBOL_BITS) uint32 direction numbers of scipy's Sobol engine
    before scrambling: rows 0..d-1 of its Joe-Kuo table (primitive
    polynomials ``poly``, initial numbers ``vinit``), extended by the
    Bratley-Fox recurrence and left-aligned to _SOBOL_BITS bits.  The table
    file is read from scipy's package directory without importing scipy;
    ``DimensionMismatch`` when d passes its rows."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("the Sobol grid reads scipy's direction numbers")
    path = os.path.join(spec.submodule_search_locations[0], "stats",
                        "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        poly = table["poly"]
        if d > poly.size:
            raise DimensionMismatch(
                f"Sobol points have at most {poly.size} coordinates, not {d}")
        poly, init = poly[:d], table["vinit"][:d]
    deg = np.frexp(poly)[1] - 1  # polynomial degrees, 0 for the first row
    width = init.shape[1]
    v = np.ones((d, _SOBOL_BITS), np.int64)
    v[:, :width] = np.where(np.arange(width) < deg[:, None], init, 1)
    for j in range(1, _SOBOL_BITS):
        # v_j = v_{j-m} ^ sum over k < m of a_k 2^(k+1) v_{j-k-1}, a_k bit
        # m-1-k of poly; rows with j < m keep their initial number
        new = v[np.arange(d), np.maximum(j - deg, 0)]
        for k in range(min(j, width)):
            a = (poly >> np.maximum(deg - 1 - k, 0)) & (k < deg) & 1
            new ^= a * (v[:, j - k - 1] << (k + 1))
        v[:, j] = np.where(j < deg, v[:, j], new)
    v = (v << (_SOBOL_BITS - 1 - np.arange(_SOBOL_BITS))).astype(np.uint32)
    v.flags.writeable = False
    return v


def _sobol(d: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of scipy's ``qmc.Sobol(d, scramble=True,
    seed=seed)``, bit for bit, as one (count, d) float64 array, on numpy
    alone: the same direction numbers under the same Matousek LMS and
    digital-shift scramble, drawn from ``default_rng(seed)``.  Raises
    ``InvalidDistribution`` past 2**_SOBOL_BITS points and
    ``DimensionMismatch`` past the table's rows, before any point."""
    if count > 1 << _SOBOL_BITS:
        raise InvalidDistribution(
            f"a Sobol sequence holds at most 2**{_SOBOL_BITS} points, not {count}")
    v = _sobol_directions(d)
    rng = np.random.default_rng(seed)
    bits = _SOBOL_BITS
    shift = rng.integers(2, size=(d, bits), dtype=np.uint32)
    lms = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32))
    lms[:, range(bits), range(bits)] = 1
    # each direction number as an MSB-first bit vector times its
    # dimension's lower-triangular matrix over GF(2)
    msb = bits - 1 - np.arange(bits)
    scrambled = ((v[:, :, None] >> msb) & 1) @ lms.swapaxes(1, 2)
    directions = ((scrambled & 1) << msb).sum(axis=2).T.astype(np.uint32)
    pts = np.empty((count, d), np.uint32)
    pts[0] = (shift << np.arange(bits, dtype=np.uint32)).sum(axis=1)  # LSB first
    # Gray-code order: point 2^b + i is point 2^b - 1 - i xor direction b
    size = 1
    for direction in directions[:(count - 1).bit_length()]:
        tail = min(size, count - size)
        np.bitwise_xor(pts[size - 1::-1][:tail], direction,
                       out=pts[size:size + tail])
        size *= 2
    return pts * 2.0 ** -_SOBOL_BITS


@dataclass(frozen=True)
class SphereGrid:
    """Sampling of the unit sup-norm sphere used for the worst-case search.

    In dimension 2 each face carries an even grid with the endpoints (the
    breakpoints of piecewise-linear data live there); in higher dimensions
    the 2n faces, in the order (axis, sign +1 then -1), take consecutive
    runs of ``points_per_face`` points of one seeded scrambled Sobol
    sequence in n - 1 dimensions (scipy's ``qmc.Sobol``, drawn by
    ``_sobol``).  The signed unit vectors are always included.
    """

    resolution: int = 101
    points_per_face: int = 256
    seed: int = 0

    def __post_init__(self):
        sizes = (_checks.count(self.resolution, "grid resolution"),
                 _checks.count(self.points_per_face, "points per face"))
        if min(sizes) < 1:
            raise InvalidDistribution("grid sizes must be at least 1")
        _checks.seed(self.seed)

    def points(self, n: int) -> np.ndarray:
        if n < 1:
            raise DimensionMismatch("dimension must be positive")
        if n == 1:
            return np.array([[1.0], [-1.0]])
        if n == 2:
            free = np.tile(np.linspace(-1.0, 1.0, self.resolution), 4)[:, None]
        else:  # _sobol refuses before any array of n columns exists
            free = _sobol(n - 1, 2 * n * self.points_per_face, self.seed)
            free = 2.0 * free - 1.0
        pts = np.empty((2 * n + len(free), n))
        pts[:2 * n] = np.concatenate([np.eye(n), -np.eye(n)])
        faces = pts[2 * n:].reshape(n, 2, -1, n)
        free = free.reshape(n, 2, -1, n - 1)
        for axis in range(n):
            faces[axis, :, :, axis] = [[1.0], [-1.0]]
            faces[axis, :, :, :axis] = free[axis, :, :, :axis]
            faces[axis, :, :, axis + 1:] = free[axis, :, :, axis:]
        return pts


@dataclass(frozen=True)
class FiniteStepCertificate:
    """Witness that V contracts in conditional expectation after ``horizon``
    steps by the factor ``1 - alpha``, worst case over grid states and
    current modes; alpha = 1 means V is 0 after ``horizon`` steps."""

    horizon: int
    alpha: float
    supermartingale_ok: bool
    grid_resolution: int

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidDistribution("alpha must lie in (0, 1]")

    @property
    def rate(self) -> float:
        """Certified per-step decay factor of V."""
        return (1.0 - self.alpha) ** (1.0 / self.horizon)


def expected_lyapunov(system: SwitchedSystem, V: LyapunovFunction, x,
                      mode: int, horizon: int) -> float:
    """Exact ``E[V(x_{k+horizon}) | x_k = x, y_k = mode]`` over the
    positive-probability mode continuations, read from the certificate's
    enumeration (``_continuation_layers``) started at ``mode`` alone.
    Raises ``InvalidDistribution`` for a mode that is not one of the
    signal's symbols or a horizon that is not an integer of at least 1,
    ``DimensionMismatch`` unless x holds one number per state coordinate,
    and ``NonFiniteEntry`` for a NaN or infinite one."""
    if not 0 <= _checks.count(mode, "mode") < system.signal.num_symbols:
        raise InvalidDistribution(f"mode {mode!r} is outside the signal's symbols")
    horizon = _checks.count(horizon, "horizon", 1)
    x = _checks.reals(x, 1, "a vector x")
    if x.size != system.dimension:
        raise DimensionMismatch("x needs one entry per state coordinate")
    for ops, weights, _ in _continuation_layers(system, horizon, [mode]):
        pass
    values = np.asarray(V(ops @ x), dtype=float)
    # a strided weight column can round the dot differently
    return float(np.ascontiguousarray(weights[:, 0]) @ values)


def _continuation_layers(system: SwitchedSystem, horizon_max: int, starts):
    """Yield ``(ops, weights, reached)`` for horizons 1 .. horizon_max from
    one ``sequences.advance`` enumeration over the current modes ``starts``:
    ``ops`` are the continuation operators, ``weights[:, s]`` their
    probabilities given ``starts[s]``, and ``reached[:, s]`` marks the
    states ``starts[s]`` reaches, the same ones (same order, same weights) a
    separate enumeration from it holds.  Column m + s of the enumeration,
    reset to 1 after each horizon, keeps that mark where a weight underflows
    to 0."""
    m, n = len(starts), system.dimension
    law = sequences._step_law(system.signal)
    state = (np.asarray(starts), np.tile(np.eye(n), (m, 1, 1)),
             np.eye(m, 2 * m) + np.eye(m, 2 * m, m))
    for _ in range(horizon_max):
        state = sequences.advance(law, system.modes, *state)
        _, ops, weights = state
        reached = weights[:, m:] > 0
        weights[:, m:] = reached
        yield ops, weights[:, :m], reached


def certify_contraction(system: SwitchedSystem, V: LyapunovFunction,
                        horizon_max: int, grid: SphereGrid | None = None
                        ) -> FiniteStepCertificate:
    """Search the smallest horizon at which V contracts in expectation.

    A horizon contracts when the worst ratio is below 1 - 1e-12: a ratio
    that is exactly 1 can come out an ulp short of it, because continuation
    probabilities that sum to 1 need not do so in floating point.

    One enumeration (``_continuation_layers``) serves every current mode:
    each horizon's operators meet the grid and V once, and each mode then
    takes its expectation over the states it reaches, even where a weight
    underflows to 0.  A state shared by several modes counts once against
    ``sequences.STATE_LIMIT``.

    Requires a positively homogeneous V (so the worst case over all states
    equals the worst case over the unit sphere) and an i.i.d. or
    Markov-modulated signal.  Raises ``InvalidDistribution`` unless
    ``horizon_max`` is an integer of at least 1, ``NoCertificate`` when no horizon up to it
    contracts on the grid, and ``EnumerationTooLarge`` before the images of
    states x grid points x n cells, summed over the horizons searched with
    each horizon charged at least ``HORIZON_CELLS``, would pass
    ``IMAGE_LIMIT``.
    """
    horizon_max = _checks.count(horizon_max, "horizon_max", 1)
    if V.degree is None:
        raise InvalidDistribution(
            "grid certification needs a positively homogeneous function")
    if isinstance(system.signal, sequences.ScriptedModel):
        raise InvalidDistribution(
            "certificates condition on the current mode; use an i.i.d. or "
            "Markov-modulated signal")
    grid = grid or SphereGrid()
    n = system.dimension
    pts = grid.points(n)
    _check_function(V, n, pts)
    vx = np.asarray(V(pts), dtype=float)
    keep = vx > 0
    pts, vx = pts[keep], vx[keep]
    cells = 0
    supermartingale_ok = None
    layers = _continuation_layers(system, horizon_max,
                                  range(system.signal.num_symbols))
    for horizon, (ops, weights, reached) in enumerate(layers, start=1):
        cells += max(ops.shape[0] * pts.shape[0] * n, HORIZON_CELLS)
        if cells > IMAGE_LIMIT:
            raise EnumerationTooLarge(
                f"{cells} image cells up to horizon {horizon} exceed {IMAGE_LIMIT}")
        # one dgemm per operator; in the (states, points, n) view V reads,
        # each coordinate is a contiguous plane
        values = np.asarray(V(np.matmul(ops, pts.T).swapaxes(1, 2)), dtype=float)
        # worst ratio E[V after horizon] / V(x) over current modes and grid;
        # each mode's dot takes contiguous row copies, as a strided weight
        # column can round differently
        beta = -np.inf
        for mode in range(reached.shape[1]):
            rows = reached[:, mode]
            exp_v = weights[rows, mode] @ values[rows]
            beta = max(beta, float((exp_v / vx).max()))
        if horizon == 1:
            supermartingale_ok = beta <= 1.0 + 1e-12
        if beta < 1.0 - 1e-12:
            return FiniteStepCertificate(
                horizon=horizon,
                alpha=1.0 - beta,
                supermartingale_ok=bool(supermartingale_ok),
                grid_resolution=grid.resolution,
            )
    raise NoCertificate(horizon_max)


@dataclass(frozen=True)
class DecayReport:
    """Monte Carlo summary of V along simulated trajectories.

    ``fitted_rate`` is the geometric mean over trials of the per-trial
    least-squares decay of log V; trials whose V hits exact 0 immediately
    contribute rate 0 (they have already converged).  ``history`` is the
    read-only (trials, steps + 1) array of V values.
    """

    fitted_rate: float
    per_trial_rate: tuple
    per_trial_tail: tuple
    tail_fraction: float
    tolerance: float
    steps: int
    trials: int
    history: np.ndarray = field(compare=False, repr=False)


def monte_carlo_decay(system: SwitchedSystem, V: LyapunovFunction, x0,
                      steps: int, trials: int, tol: float = 1e-8) -> DecayReport:
    """Simulate trajectories and fit the realized decay of V.

    Trial t draws its switching sequence with the stream-split seed
    ``signal.seed ^ t``, so reports are reproducible and trials independent;
    the trials then advance in lockstep, one batched matmul per step.
    Raises ``InvalidDistribution`` unless ``steps`` and ``trials`` are
    integers of at least 1, or when the history, ``trials * (steps + 1)``
    cells, is over ``HISTORY_LIMIT``.
    """
    steps = _checks.count(steps, "steps", 1)
    trials = _checks.count(trials, "trials", 1)
    if trials * (steps + 1) > HISTORY_LIMIT:
        raise InvalidDistribution(
            f"trials * (steps + 1) must be at most {HISTORY_LIMIT} history cells")
    x0 = _checks.reals(x0, 1, "a vector x0")
    if x0.size != system.dimension:
        raise DimensionMismatch("x0 needs one entry per state coordinate")
    idx = np.stack([sequences.sample(system.signal, steps, trial=t)
                    for t in range(trials)])
    modes = np.stack(system.modes)
    # all trials advance together; a batched matmul of (n, n) by (n, 1)
    # stacks rounds exactly as one ``modes[i] @ x`` (einsum need not)
    xs = np.tile(x0, (trials, 1))
    history = np.empty((trials, steps + 1))
    history[:, 0] = V(xs)
    for k in range(steps):
        xs = (modes[idx[:, k]] @ xs[:, :, None])[:, :, 0]
        history[:, k + 1] = V(xs)
    rates = np.array([_log_linear_rate(np.arange(steps + 1), vs, min_points=2)
                      or 0.0 for vs in history])
    fitted = 0.0 if np.any(rates == 0.0) else float(np.exp(np.mean(np.log(rates))))
    tails = history[:, -1]
    history.flags.writeable = False
    return DecayReport(
        fitted_rate=fitted,
        per_trial_rate=tuple(rates.tolist()),
        per_trial_tail=tuple(tails.tolist()),
        tail_fraction=float((tails < tol).mean()),
        tolerance=float(tol),
        steps=steps,
        trials=trials,
        history=history,
    )
