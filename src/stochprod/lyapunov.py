"""Finite-horizon contraction certificates for randomly switched linear
systems.

For ``x_{k+1} = A[y_{k+1}] x_k`` with a random mode signal, a nonnegative
function V certifies exponential decay when its conditional expectation T
steps ahead contracts: ``E[V(x_{k+T}) | x_k, y_k] <= (1 - alpha) V(x_k)``
for every state and every current mode.  The conditional expectation is
computed exactly by enumerating mode continuations; for positively
homogeneous V and linear modes the worst case over all states reduces to a
grid on the unit sup-norm sphere.  A certificate (T, alpha) guarantees decay
of V at per-step rate ``(1 - alpha)**(1/T)``, which Monte Carlo runs can
then be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrices, sequences
from .errors import DimensionMismatch, InvalidDistribution, NoCertificate
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


@dataclass(frozen=True)
class SwitchedSystem:
    """Linear modes (arbitrary square matrices) plus a mode-index signal."""

    modes: tuple
    signal: SequenceModel

    def __post_init__(self):
        mats = tuple(np.array(a, dtype=float) for a in self.modes)
        if not mats:
            raise DimensionMismatch("a switched system needs at least one mode")
        n = mats[0].shape[0] if mats[0].ndim == 2 else None
        for a in mats:
            if a.ndim != 2 or a.shape != (n, n):
                raise DimensionMismatch("modes must be square and share dimensions")
            matrices._check_finite(a)
            a.flags.writeable = False
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


def inf_norm() -> LyapunovFunction:
    """The sup norm, the workhorse certificate for averaging dynamics."""
    return LyapunovFunction(
        fn=lambda x: np.abs(x).max(axis=-1), name="sup-norm", degree=1.0)


def _check_function(V: LyapunovFunction, n: int, probes: np.ndarray):
    if abs(float(V(np.zeros(n)))) > 1e-14:
        raise InvalidDistribution(f"{V.name}(0) must be 0")
    vals = np.asarray(V(probes), dtype=float)
    if np.any(vals < 0):
        raise InvalidDistribution(f"{V.name} is negative on a probe point")


@dataclass(frozen=True)
class SphereGrid:
    """Sampling of the unit sup-norm sphere used for the worst-case search.

    In dimension 2 each face carries an even grid with the endpoints (the
    breakpoints of piecewise-linear data live there); in higher dimensions
    faces are filled with a seeded Sobol set.  The signed unit vectors are
    always included.
    """

    resolution: int = 101
    points_per_face: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.resolution < 1 or self.points_per_face < 1:
            raise InvalidDistribution("grid sizes must be at least 1")
        sequences._check_seed(self.seed)

    def points(self, n: int) -> np.ndarray:
        if n < 1:
            raise DimensionMismatch("dimension must be positive")
        vertices = np.concatenate([np.eye(n), -np.eye(n)], axis=0)
        if n == 1:
            return vertices
        faces = []
        if n == 2:
            t = np.linspace(-1.0, 1.0, self.resolution)
            for axis in range(2):
                for sign in (1.0, -1.0):
                    pts = np.empty((t.size, 2))
                    pts[:, axis] = sign
                    pts[:, 1 - axis] = t
                    faces.append(pts)
        else:
            # the package's only scipy use; the cube-vertex grid (ROADMAP 1) drops it
            from scipy.stats import qmc
            sob = qmc.Sobol(d=n - 1, scramble=True, seed=self.seed)
            for axis in range(n):
                for sign in (1.0, -1.0):
                    free = 2.0 * sob.random(self.points_per_face) - 1.0
                    pts = np.empty((self.points_per_face, n))
                    pts[:, axis] = sign
                    other = [c for c in range(n) if c != axis]
                    pts[:, other] = free
                    faces.append(pts)
        return np.concatenate([vertices] + faces, axis=0)


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


def _start_state(system: SwitchedSystem, mode: int):
    """``sequences.advance`` state of the empty continuation from the current
    mode; advancing it h steps gives every length-h continuation's operator
    (later modes on the left) and its probability given the mode.  Raises
    ``InvalidDistribution`` for a mode the signal never takes."""
    if not 0 <= int(mode) < system.signal.num_symbols:
        raise InvalidDistribution(f"mode {mode} is outside the signal's symbols")
    return np.array([int(mode)]), np.eye(system.dimension)[None], np.ones((1, 1))


def expected_lyapunov(system: SwitchedSystem, V: LyapunovFunction, x,
                      mode: int, horizon: int) -> float:
    """Exact ``E[V(x_{k+horizon}) | x_k = x, y_k = mode]`` by enumerating
    positive-probability mode continuations."""
    x = np.asarray(x, dtype=float)
    _, ops, probs = sequences.advance(system.signal, system.modes,
                                      *_start_state(system, mode), horizon)
    values = np.asarray(V(ops @ x), dtype=float)
    return float(probs[:, 0] @ values)


def certify_contraction(system: SwitchedSystem, V: LyapunovFunction,
                        horizon_max: int, grid: SphereGrid | None = None
                        ) -> FiniteStepCertificate:
    """Search the smallest horizon at which V contracts in expectation.

    A horizon contracts when the worst ratio is below 1 - 1e-12: a ratio
    that is exactly 1 can come out an ulp short of it, because continuation
    probabilities that sum to 1 need not do so in floating point.

    Requires a positively homogeneous V (so the worst case over all states
    equals the worst case over the unit sphere) and an i.i.d. or
    Markov-modulated signal.  Raises ``NoCertificate`` when no horizon up to
    ``horizon_max`` contracts on the grid.
    """
    if V.degree is None:
        raise InvalidDistribution(
            "grid certification needs a positively homogeneous function")
    if isinstance(system.signal, sequences.ScriptedModel):
        raise InvalidDistribution(
            "certificates condition on the current mode; use an i.i.d. or "
            "Markov-modulated signal")
    grid = grid or SphereGrid()
    pts = grid.points(system.dimension)
    _check_function(V, system.dimension, pts)
    vx = np.asarray(V(pts), dtype=float)
    keep = vx > 0
    pts, vx = pts[keep], vx[keep]
    # per current mode, the continuations of the horizon reached so far
    modes = range(system.signal.num_symbols)
    states = [_start_state(system, mode) for mode in modes]
    supermartingale_ok = None
    for horizon in range(1, int(horizon_max) + 1):
        # worst ratio E[V after horizon] / V(x) over current modes and grid
        beta = -np.inf
        for mode in modes:
            states[mode] = sequences.advance(system.signal, system.modes,
                                             *states[mode], 1)
            _, ops, probs = states[mode]
            images = np.einsum("wij,gj->wgi", ops, pts)
            exp_v = probs[:, 0] @ np.asarray(V(images), dtype=float)
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
    raise NoCertificate(int(horizon_max))


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
    Raises ``InvalidDistribution`` when ``steps`` or ``trials`` is below 1
    or the history, ``trials * (steps + 1)`` cells, is over ``HISTORY_LIMIT``.
    """
    steps, trials = int(steps), int(trials)
    if steps < 1 or trials < 1:
        raise InvalidDistribution("steps and trials must be at least 1")
    if trials * (steps + 1) > HISTORY_LIMIT:
        raise InvalidDistribution(
            f"trials * (steps + 1) must be at most {HISTORY_LIMIT} history cells")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dimension,):
        raise DimensionMismatch("x0 needs one entry per state coordinate")
    matrices._check_finite(x0[:, None])
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
