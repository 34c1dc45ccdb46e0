"""Distributed solving of consistent linear systems over random graph
sequences.

Each of n agents holds one block (A_i, b_i) of a consistent stacked system
``A x = b`` and an estimate satisfying its own block exactly.  At every step
agents average their in-neighbors' estimates (self-arcs included) and
project the correction onto the kernel of their own block:

    x_i <- x_i - (1/d_i) P_i (d_i x_i - sum_{j in N_i} x_j).

Feasibility ``A_i x_i = b_i`` is preserved, the error system contracts in a
mixed block norm (spectral norms of blocks collapsed by the max row sum),
and the estimates agree on a common solution almost surely as long as the
window composition of the random neighbor graphs is strongly connected with
positive probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks, matrices, sequences
from . import graphs as graphlib
from .errors import (
    DimensionMismatch,
    InconsistentBlock,
    InconsistentSystem,
    InvalidDistribution,
    MissingSelfArc,
    NoConnectedWindow,
)
from .graphs import DirectedGraph
from .products import _log_linear_rate
from .sequences import SequenceModel

__all__ = [
    "PartitionedLinearSystem",
    "ProjectionSet",
    "GraphSequenceModel",
    "SolverReport",
    "kernel_projections",
    "initial_state",
    "step",
    "mixed_matrix_norm",
    "error_transition",
    "window_connectivity_probability",
    "run_solver",
    "smallest_contracting_window",
]

RANK_CUTOFF = 1e-12
CONSISTENCY_TOL = 1e-8
SOLVER_BLOCK = 32  # solver steps whose spreads ``run_solver`` reduces at once
STATE_BYTES = 2**20  # cap on the bytes of those steps' states
ITER_LIMIT = 10**7  # iterations one ``run_solver`` run may take


@dataclass(frozen=True)
class PartitionedLinearSystem:
    """Per-agent blocks (A_i, b_i) of a consistent stacked linear system."""

    blocks: tuple

    def __post_init__(self):
        cleaned = []
        m = None
        for a, b in self.blocks:
            a, b = _checks.reals(a), _checks.reals(b).reshape(-1)
            if a.ndim != 2 or a.shape[0] != b.size:
                raise DimensionMismatch("block shapes must match their right sides")
            if m is None:
                m = a.shape[1]
            elif a.shape[1] != m:
                raise DimensionMismatch("all blocks must share the unknown count")
            cleaned.append((a, b))
        if not cleaned:
            raise DimensionMismatch("a partitioned system needs at least one block")
        object.__setattr__(self, "blocks", tuple(cleaned))
        a_full, b_full = self.stacked()
        x, *_ = np.linalg.lstsq(a_full, b_full, rcond=None)
        if np.abs(a_full @ x - b_full).max() > CONSISTENCY_TOL:
            raise InconsistentSystem("the stacked system has no solution")

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def m(self) -> int:
        return self.blocks[0][0].shape[1]

    def stacked(self):
        a = np.concatenate([a for a, _ in self.blocks], axis=0)
        b = np.concatenate([b for _, b in self.blocks], axis=0)
        return a, b


@dataclass(frozen=True)
class ProjectionSet:
    """Validated kernel projections, one per agent, kept as one read-only
    (n, m, m) stack."""

    projections: np.ndarray

    def __post_init__(self):
        ps = _checks.square(self.projections, float, 3, finite=False)
        if not np.abs(ps - ps.swapaxes(1, 2)).max() <= 1e-10:
            raise InvalidDistribution("projection is not symmetric")
        if not np.abs(ps @ ps - ps).max() <= 1e-10:
            raise InvalidDistribution("projection is not idempotent")
        object.__setattr__(self, "projections", ps)


def kernel_projections(system: PartitionedLinearSystem) -> ProjectionSet:
    """The orthogonal projection onto the kernel of each agent's block.

    Each is built as ``I - V^T V`` from an orthonormal row-space basis V,
    with singular values below ``RANK_CUTOFF`` times the largest treated as
    zero; an all-zero block projects onto everything (identity).
    """
    ps = []
    for a, _ in system.blocks:
        p = np.eye(system.m)
        if np.any(a):
            _, s, vt = np.linalg.svd(a, full_matrices=False)
            v = vt[:np.count_nonzero(s > RANK_CUTOFF * s[0])]
            p -= v.T @ v
        ps.append(p)
    ps = ProjectionSet(np.stack(ps))
    for (a, _), p in zip(system.blocks, ps.projections):
        if a.size and np.abs(a @ p).max() > 1e-10:
            raise InvalidDistribution("projection does not annihilate its block")
    return ps


def initial_state(system: PartitionedLinearSystem) -> np.ndarray:
    """The (n, m) starting estimates, row i the minimum-norm solution of
    agent i's own block; raises ``InconsistentBlock`` when a block's
    equations admit no solution."""
    xs = []
    for a, b in system.blocks:
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        if a.size and np.abs(a @ x - b).max() > 1e-10:
            raise InconsistentBlock("block equations admit no solution")
        xs.append(x)
    return np.stack(xs)


def _check_self_arcs(graph: DirectedGraph):
    if not graph.adj.diagonal().all():
        raise MissingSelfArc("solver graphs must contain every self-arc")


def _step(x, incoming, degrees, ps, out=None, scratch=None):
    """``step`` on a graph's float in-adjacency ``incoming``, its in-degrees
    and the projection stack ``ps``: the one arithmetic path of ``step`` and
    ``run_solver``.

    ``degrees`` is the (n, 1) column of ``graphs._in_weights`` or that
    column repeated to x's (n, m) shape, as ``run_solver`` builds it once
    per run: a multiply or divide of two (n, m) operands skips the cost of
    broadcasting a column at every step, and elementwise arithmetic rounds
    each entry alike either way, so both give the same bits.  Writes the new
    state into ``out`` and the corrections into ``scratch``, (n, m) arrays
    allocated like x when not given; ``out`` may be ``x`` itself.  Each
    operation is that of ``x - einsum(ps, degrees * x - incoming @ x) /
    degrees``, so the bits do not depend on buffers laid out like x (the
    einsum sums in an order that follows the layout of the corrections).
    """
    buf = np.empty_like(x) if out is None or out is x else out
    np.matmul(incoming, x, out=buf)
    corrections = np.multiply(degrees, x, out=np.empty_like(x)
                              if scratch is None else scratch)
    np.subtract(corrections, buf, out=corrections)
    np.einsum("ijk,ik->ij", ps, corrections, out=buf)
    np.divide(buf, degrees, out=buf)
    return np.subtract(x, buf, out=buf if out is None else out)


def step(x: np.ndarray, graph: DirectedGraph,
         projections: ProjectionSet) -> np.ndarray:
    """One synchronous round of the projected-averaging update: maps the
    (n, m) estimates ``x`` (row i is agent i's x_i) to the next ones."""
    _check_self_arcs(graph)
    return _step(x, *graphlib._in_weights(graph), projections.projections)


def mixed_matrix_norm(q: np.ndarray, block_size: int) -> float:
    """Mixed block norm: spectral norm of each block, collapsed by the
    induced sup norm (max row sum of the block-norm matrix).  Raises
    ``InvalidDistribution`` unless ``block_size`` is an integer of at least
    1; ``DimensionMismatch`` unless q is a nonempty square array of numbers
    (not strings or booleans) whose side ``block_size`` divides, and
    ``NonFiniteEntry`` when an entry of q is NaN or infinite."""
    block_size = _checks.count(block_size, "block size", 1)
    q = _checks.square(q, float)
    if not q.size:
        raise DimensionMismatch("mixed norm of an empty block matrix")
    if q.shape[0] % block_size:
        raise DimensionMismatch("block matrix shape incompatible with block size")
    n = q.shape[0] // block_size
    blocks = q.reshape(n, block_size, n, block_size).swapaxes(1, 2)
    return float(np.linalg.norm(blocks, 2, axis=(-2, -1)).sum(axis=1).max())


def _error_products(graph_seq, projections: ProjectionSet):
    """Yield the running error-transition product after each graph.

    The product is kept as its n block rows of shape (m, n*m), so that the
    block-diagonal projection acts on each block row, and ``W kron I``
    mixes the block rows.
    """
    ps = projections.projections
    n, m = ps.shape[:2]
    phi = np.eye(n * m).reshape(n, m, n * m)
    for g in graph_seq:
        _check_self_arcs(g)
        phi = ps @ phi
        w = graphlib.averaging_weights(g)
        phi = (w @ phi.reshape(n, -1)).reshape(n, m, -1)
        phi = ps @ phi
        yield phi.reshape(n * m, n * m)


def error_transition(graph_list, projections: ProjectionSet):
    """Transition operator of the error system over a graph window.

    For each graph the factor is ``P (W kron I) P`` with P the
    block-diagonal of the kernel projections and W the graph's averaging
    matrix; factors multiply chronologically with later graphs on the left.
    Returns (operator, its mixed norm); the norm never exceeds 1.
    """
    phi = None
    for phi in _error_products(graph_list, projections):
        pass
    if phi is None:
        raise DimensionMismatch("error transition over an empty window")
    return phi, mixed_matrix_norm(phi, projections.projections.shape[1])


@dataclass(frozen=True)
class GraphSequenceModel:
    """A finite family of neighbor graphs (all with self-arcs) plus an index
    process selecting the graph used at each step, and the window length at
    which joint connectivity is probed; raises ``InvalidDistribution``
    unless the window is an integer of at least 1."""

    graph_set: tuple
    model: SequenceModel
    window: int = 1

    def __post_init__(self):
        gs = tuple(self.graph_set)
        if not gs:
            raise DimensionMismatch("need at least one candidate graph")
        n = gs[0].n
        for g in gs:
            if g.n != n:
                raise DimensionMismatch("candidate graphs must share vertex count")
            _check_self_arcs(g)
        if self.model.num_symbols > len(gs):
            raise DimensionMismatch("model indexes more graphs than provided")
        _checks.count(self.window, "window length", 1)
        object.__setattr__(self, "graph_set", gs)

    @property
    def n(self) -> int:
        return self.graph_set[0].n

    def sample_graphs(self, length: int, trial: int = 0):
        return [self.graph_set[i]
                for i in sequences.sample(self.model, length, trial=trial)]


def window_connectivity_probability(gmodel: GraphSequenceModel,
                                    window: int | None = None) -> float:
    """Exact minimum over window starts of the probability that the window's
    graph composition is strongly connected, for ``window`` (by default the
    model's own); raises ``InvalidDistribution`` unless it is an integer of
    at least 1."""
    adjs = [g.adj.T for g in gmodel.graph_set]
    # the engine multiplies later factors on the left, so it builds the
    # transpose of the composition; strong connectivity ignores transposes
    probs = sequences.window_probability(
        gmodel.model, adjs, gmodel.window if window is None else window,
        graphlib._stack_is_strongly_connected)
    return float(probs.min())


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solver run; non-convergence is reported, not raised."""

    converged: bool
    iterations: int
    disagreement: float
    residual: float
    solution: np.ndarray
    history: tuple
    fitted_decay: float | None
    window_norms: tuple
    exponential_consistent: bool | None


def run_solver(system: PartitionedLinearSystem, gmodel: GraphSequenceModel,
               max_iters: int, tol: float = 1e-8, trial: int = 0,
               check_connectivity: bool = True, record_every: int = 1,
               norm_windows: int = 0) -> SolverReport:
    """Iterate the projected-averaging update along a sampled graph sequence.

    Stops once both the largest pairwise estimate gap and the stacked
    residual at the averaged estimate fall below ``tol``; the residual is
    computed only for recorded rows (every ``record_every``-th iteration,
    and every one whose gap is below ``tol``) and for the report.  The steps
    run in blocks of up to ``SOLVER_BLOCK`` (fewer past ``STATE_BYTES`` of
    states): each step writes its state straight into the block's buffer,
    then the block's gaps are reduced at once and the residuals of all its
    recorded rows are taken at once.  Each candidate graph's in-degrees are
    repeated to the (n, m) state shape once per run, so a step's multiply
    and divide take two operands of one shape instead of broadcasting the
    (n, 1) column every step, with the same bits.  Steps past the stop are
    computed and discarded, so the report is bit for bit that of a
    per-step loop.  Each
    block draws its indices from ``gmodel.model.stream(trial)``.  With
    ``norm_windows`` > 0 the first windows that fit in ``max_iters`` steps,
    read from a second stream on the same trial, get their error-transition
    mixed norms computed, giving a contraction estimate the fitted decay can
    be compared against.  Raises ``InvalidDistribution`` before any index
    is drawn unless ``max_iters`` (at most ``ITER_LIMIT``), ``trial`` and
    ``norm_windows`` are integers of at least 0 and ``record_every`` one of
    at least 1.
    """
    if gmodel.n != system.n:
        raise DimensionMismatch("one graph vertex per agent")
    max_iters = _checks.count(max_iters, "max_iters", 0)
    record_every = _checks.count(record_every, "record_every", 1)
    norm_windows = _checks.count(norm_windows, "norm_windows", 0)
    sequences._trial_seed(gmodel.model.seed, trial)
    if max_iters > ITER_LIMIT:
        raise InvalidDistribution(f"max_iters must be at most {ITER_LIMIT}")
    if check_connectivity and window_connectivity_probability(gmodel) <= 0.0:
        raise NoConnectedWindow(
            f"no strongly connected window of length {gmodel.window}")
    projections = kernel_projections(system)
    ps = projections.projections
    a_full, b_full = system.stacked()
    x = initial_state(system)
    weights = [(incoming, np.repeat(degrees, system.m, 1))
               for incoming, degrees in map(graphlib._in_weights,
                                            gmodel.graph_set)]
    draw = gmodel.model.stream(trial)

    def residuals(s):
        # one gemv per state of the (count, n, m) stack s, as ``a_full @
        # mean`` makes for one state
        means = np.add.reduce(s, 1) / system.n
        fits = np.matmul(a_full, means[:, :, None])[:, :, 0]
        return np.maximum.reduce(np.abs(fits - b_full), 1).tolist()

    dis = matrices._column_spreads(x[None]).tolist()[0]
    res = residuals(x[None])[0]
    history = [(0, dis, res)]
    converged = dis < tol and res < tol
    states = np.empty((max(1, min(SOLVER_BLOCK, STATE_BYTES // x.nbytes)),)
                      + x.shape)
    slots, scratch = list(states), np.empty_like(x)
    k = 0
    while not converged and k < max_iters:
        count = min(len(states), max_iters - k)
        for out, g in zip(slots, draw(count).tolist()):
            x = _step(x, *weights[g], ps, out, scratch)
        s = states[:count]
        spreads = matrices._column_spreads(s).tolist()
        first = k + 1
        k += count
        dis = spreads[-1]
        rows = [j for j, d in enumerate(spreads)
                if (first + j) % record_every == 0 or d < tol]
        for j, res in zip(rows, residuals(s[rows])):
            d = spreads[j]
            history.append((first + j, d, res))
            converged = d < tol and res < tol
            if converged:
                # the block's steps past the stop are dropped
                k, dis, x = first + j, d, slots[j]
                break
    if history[-1][0] != k:
        res = residuals(x[None])[0]

    width = gmodel.window * max(1, min(gmodel.n - 1, 8))
    filled = min(norm_windows, max_iters // width)
    chain = [gmodel.graph_set[i]
             for i in gmodel.model.stream(trial)(filled * width).tolist()]
    window_norms = [error_transition(chain[w * width:(w + 1) * width],
                                     projections)[1] for w in range(filled)]

    fitted = _log_linear_rate([h[0] for h in history], [h[1] for h in history],
                              min_points=3)

    exponential_consistent = None
    if window_norms and fitted is not None:
        per_step = float(np.mean(window_norms)) ** (1.0 / width)
        exponential_consistent = fitted <= per_step + 1e-9

    return SolverReport(
        converged=bool(converged),
        iterations=k,
        disagreement=dis,
        residual=res,
        solution=x.mean(axis=0),
        history=tuple(history),
        fitted_decay=fitted,
        window_norms=tuple(window_norms),
        exponential_consistent=exponential_consistent,
    )


def smallest_contracting_window(gmodel: GraphSequenceModel,
                                projections: ProjectionSet, max_len: int,
                                trial: int = 0):
    """Empirically smallest window length whose sampled error transition has
    mixed norm strictly below 1; returns (length, norm) or None.

    The guaranteed window from the connectivity argument scales like
    ``(n-1)^2 * window``, but realized sequences usually contract much
    sooner.
    """
    graph_seq = gmodel.sample_graphs(max_len, trial=trial)
    for length, phi in enumerate(_error_products(graph_seq, projections), start=1):
        norm = mixed_matrix_norm(phi, projections.projections.shape[1])
        if norm < 1.0 - 1e-12:
            return length, norm
    return None
