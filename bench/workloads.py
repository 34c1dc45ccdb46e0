"""Seeded operation lists for the benchmark workloads.

An operation is one ``stochprod run <kind> --config <file>`` call.  Every
config is generated here from the workload seed, and every size (steps,
trials, windows, matrix and system dimensions) is a config field, never a
command-line flag.  A seed changes the numbers inside a config but not its
sizes, so the work per operation stays comparable across seeds.

Three workloads stress different layers:

* ``analysis``: exact, sampling-free questions whose time sits in word
  enumeration (``product`` and ``lineq`` enumerate boolean patterns, which a
  pattern-merging engine could merge; ``certify`` enumerates real-valued
  operators, which it cannot) and in large-n ``tau``/classification.
* ``montecarlo``: sampled runs with trivial exact parts, so enumeration is
  bypassed.  Window-1 products, asynchronous agreement and two-step
  certificates spend their time in per-step Python loops and in sampling.
* ``solver``: many distributed-solver instances (window 1, timed to a 1e-8
  solution), whose time goes to ``equations.step`` and the dense
  ``error_transition``.

Each workload also carries a few small operations of the other kinds, so
that every traced layer does some work on every workload.

``tiny=True`` shrinks every size for the benchmark's self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("analysis", "montecarlo", "solver")


@dataclass(frozen=True)
class Op:
    """One CLI call: its kind, its config, and what its check needs.  Every
    operation is expected to exit with code 0."""

    name: str
    kind: str
    config: dict
    expect: dict = field(default_factory=dict)


def _rng(seed: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(slot)])


def _sub_seed(rng) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _matrix_json(a) -> dict:
    a = np.asarray(a, dtype=float)
    return {"n": int(a.shape[0]), "rows": a.tolist()}


def _normalize(w) -> np.ndarray:
    return w / w.sum(axis=1, keepdims=True)


def _pattern_weights(rng, mask, low=0.1, high=1.0) -> np.ndarray:
    """Row-stochastic matrix with exactly the given positivity pattern."""
    return _normalize(np.where(mask, rng.uniform(low, high, mask.shape), 0.0))


def _bool_power(mask, k) -> np.ndarray:
    m = mask.astype(np.int64)
    out = m
    for _ in range(k - 1):
        out = ((out @ m) > 0).astype(np.int64)
    return out > 0


def _bool_scrambling(mask) -> bool:
    m = mask.astype(np.int64)
    return bool(np.all(m @ m.T > 0))


# ------------------------------------------------------------------ analysis

def _classify_op(seed, slot, name, sizes, small):
    """Sparse matrices of the given sizes plus ``small`` random
    zero-diagonal ones with n from 3 to 8."""
    rng = _rng(seed, slot)
    mats = []
    for n in sizes:
        # successor ring plus a few random chords per row: sparse, and
        # primitive after a handful of boolean powers
        mask = np.zeros((n, n), dtype=bool)
        mask[np.arange(n), (np.arange(n) + 1) % n] = True
        for i in range(n):
            mask[i, rng.choice(n, size=3, replace=False)] = True
        mats.append(_pattern_weights(rng, mask))
    for _ in range(small):
        n = int(rng.integers(3, 9))
        mask = rng.random((n, n)) < rng.uniform(0.25, 0.7)
        np.fill_diagonal(mask, False)
        for i in range(n):
            if not mask[i].any():
                choices = [j for j in range(n) if j != i]
                mask[i, rng.choice(choices)] = True
        mats.append(_pattern_weights(rng, mask))
    config = {"matrices": [_matrix_json(a) for a in mats],
              "labels": [f"M{i}" for i in range(len(mats))]}
    return Op(name, "classify", config)


def _zero_diag_sparse(rng, n, per_row=2):
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        mask[i, rng.choice(others, size=per_row, replace=False)] = True
    return mask


def _product_window_op(seed, tiny):
    """Non-stationary Markov-modulated model over sparse zero-diagonal 6x6
    matrices with a fixed window: every window start up to the settling of
    the marginals is enumerated, 2**window words each."""
    rng = _rng(seed, 102)
    n, h = 6, (4 if tiny else 10)
    while True:
        m0 = _zero_diag_sparse(rng, n)
        if _bool_scrambling(_bool_power(m0, h)):
            break
    m1 = _zero_diag_sparse(rng, n)
    # second eigenvalue 0.3 => the marginals settle within 1e-13 after
    # about 25 steps, giving about 26 window starts
    a = float(rng.uniform(0.30, 0.35))
    transition = [[1.0 - a, a], [0.7 - a, 0.3 + a]]
    model = {"variant": "markov", "initial": [1.0, 0.0],
             "transition": transition, "seed": _sub_seed(rng),
             "set": [_matrix_json(_pattern_weights(rng, m0)),
                     _matrix_json(_pattern_weights(rng, m1))]}
    config = {"model": model, "window": h, "steps": 2000, "tol": 1e-8}
    return Op("product.window", "product", config)


def _reset_threshold(maps, n) -> int | None:
    """Length of the shortest word whose composed map is constant."""
    start = frozenset(range(n))
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for s in frontier:
            for f in maps:
                image = frozenset(f[i] for i in s)
                if len(image) == 1:
                    return depth
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return None


def _product_search_op(seed, tiny):
    """Functional 0/1 matrices (each row a single 1) whose first scrambling
    window is exactly ``target``: a Cerny-style cyclic shift and merge plus
    random maps, relabeled at random."""
    rng = _rng(seed, 103)
    n, target, m = (4, 3, 3) if tiny else (5, 7, 4)
    while True:
        perm = rng.permutation(n)
        shift = [(i + 1) % n for i in range(n)]
        merge = [1 if i == 0 else i for i in range(n)]
        extra = [list(rng.integers(0, n, size=n)) for _ in range(m - 2)]
        maps = [shift, merge] + extra
        # relabel state i as perm[i]
        inv = np.argsort(perm)
        maps = [[int(perm[f[int(inv[i])]]) for i in range(n)] for f in maps]
        if _reset_threshold(maps, n) == target:
            break
    mats = []
    for f in maps:
        a = np.zeros((n, n))
        a[np.arange(n), f] = 1.0
        mats.append(_matrix_json(a))
    weights = rng.uniform(0.5, 1.0, size=m)
    model = {"variant": "iid", "weights": (weights / weights.sum()).tolist(),
             "seed": _sub_seed(rng), "set": mats}
    config = {"model": model, "window_max": target + 2, "steps": 2000,
              "tol": 1e-8}
    return Op("product.search", "product", config, {"h": target})


def _shift_damp_modes(n, c):
    """Cyclic shift S, shift after damping coordinate 0, and identity."""
    shift = np.roll(np.eye(n), 1, axis=0)
    damp = shift @ np.diag([c] + [1.0] * (n - 1))
    return [damp, shift, np.eye(n)]


def _dyadic_rows(rng, rows, cols, denominator=16, least=3):
    """Row-stochastic matrix whose entries are multiples of 1/denominator,
    each at least least/denominator: products and sums of its entries are
    exact in floating point."""
    free = denominator - least * cols
    out = np.empty((rows, cols))
    for r in range(rows):
        # stars and bars: a uniform composition of ``free`` into cols parts
        bars = np.sort(rng.choice(free + cols - 1, size=cols - 1, replace=False))
        parts = np.diff(np.concatenate([[-1], bars, [free + cols - 1]])) - 1
        out[r] = (parts + least) / denominator
    return out


def _certify_exact_op(seed, tiny):
    """A state needs its largest coordinate rotated onto the damped one, so
    the sup norm first contracts in expectation at horizon T = n.  Below T
    the worst ratio is exactly 1 (a unit vector whose coordinate is never
    damped in time); the chain's probabilities are dyadic, so the
    continuation probabilities sum to exactly 1 and the question has an
    exact answer in floating point (see README, Known defect)."""
    rng = _rng(seed, 104)
    n = 3 if tiny else 5
    c = float(rng.uniform(0.3, 0.7))
    transition = _dyadic_rows(rng, 3, 3)
    signal = {"variant": "markov", "initial": [1.0, 0.0, 0.0],
              "transition": transition.tolist(), "seed": _sub_seed(rng)}
    config = {"modes": [m.tolist() for m in _shift_damp_modes(n, c)],
              "signal": signal, "horizon_max": n + 1, "grid_resolution": 101,
              "x0": [1.0] * n, "steps": 10, "trials": 2, "tol": 1e-8,
              "seed": _sub_seed(rng)}
    return Op("certify.exact", "certify", config, {"T": n})


def _ring_split_graphs(rng, n, count):
    """``count`` graphs on n agents with all self-arcs; the ring edges are
    dealt out among them, so no single graph is strongly connected but
    every window long enough to carry the ring in order is."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    owner = rng.integers(0, count, size=n)
    owner[:count] = np.arange(count)
    graphs = []
    for g in range(count):
        edges = [[v, v] for v in range(n)]
        edges += [list(e) for e, o in zip(ring, owner) if o == g]
        graphs.append({"n": n, "edges": edges})
    return graphs


def _planted_system(base, rng, agents, unknowns, rows):
    """Blocks A_i drawn from ``base`` and a planted solution x* from ``rng``,
    with b_i = A_i x*."""
    blocks = [base.normal(size=(rows, unknowns)) for _ in range(agents)]
    x_star = rng.normal(size=unknowns)
    return {"blocks": [{"A": a.tolist(), "b": (a @ x_star).tolist()}
                       for a in blocks]}, x_star


def _lineq_window_op(seed, tiny):
    """Exact window-connectivity probability over 3 graphs (3**window
    words), then a small solver run with one error-transition window."""
    rng, base = _rng(seed, 105), _rng(0, 105)
    agents = 4
    system, x_star = _planted_system(base, rng, agents, unknowns=6, rows=3)
    weights = rng.uniform(0.5, 1.0, size=3)
    config = {"system": system,
              "graphs": _ring_split_graphs(base, agents, 3),
              "graph_model": {"variant": "iid",
                              "weights": (weights / weights.sum()).tolist(),
                              "seed": _sub_seed(rng)},
              "window": 3 if tiny else 7, "max_iters": 100000, "tol": 1e-8,
              "record_every": 10, "norm_windows": 1}
    return Op("lineq.window", "lineq", config, {"x_star": x_star.tolist()})


def _analysis_ops(seed, tiny):
    # the small async run keeps every traced layer busy in both workloads
    return [_classify_op(seed, 101, "classify",
                         (12, 16) if tiny else (150, 220, 300), 4 if tiny else 20),
            _product_window_op(seed, tiny), _product_search_op(seed, tiny),
            _certify_exact_op(seed, tiny), _lineq_window_op(seed, tiny),
            _async_op(seed, 106, "async.small", 10, 2000, "bernoulli")]


# ---------------------------------------------------------------- montecarlo

def _near_identity_op(seed, slot, n, steps, variant, search):
    """Window-1 product over near-identity matrices (1-eps) I + eps R with R
    strictly positive: every factor scrambles, and tau decays by roughly
    exp(-eps) per step, so the run uses all its steps without reaching the
    floor and ends far below tol.  With ``search`` the window comes from a
    window_max search, which stops at 1."""
    rng = _rng(seed, slot)
    eps = 25.0 / steps
    mats = []
    for _ in range(3):
        r = _normalize(rng.uniform(0.5, 1.0, size=(n, n)))
        mats.append(_matrix_json((1.0 - eps) * np.eye(n) + eps * r))
    if variant == "iid":
        w = rng.uniform(0.5, 1.0, size=3)
        model = {"variant": "iid", "weights": (w / w.sum()).tolist()}
    else:
        t = _normalize(rng.uniform(0.2, 1.0, size=(3, 3)))
        model = {"variant": "markov", "initial": [1.0, 0.0, 0.0],
                 "transition": t.tolist()}
    model.update(seed=_sub_seed(rng), set=mats)
    config = {"model": model, "steps": steps, "tol": 1e-4}
    config.update({"window_max": 2} if search else {"window": 1})
    return Op(f"product.mc.n{n}", "product", config, {"full_run": True, "h": 1})


def _ring_chords_mask(rng, n, chords):
    """Positivity pattern of W: each agent averages its ring predecessor
    and ``chords`` random others (strongly connected, zero diagonal)."""
    mask = np.zeros((n, n), dtype=bool)
    mask[np.arange(n), (np.arange(n) - 1) % n] = True
    for i in range(n):
        others = [j for j in range(n) if j != i]
        mask[i, rng.choice(others, size=chords, replace=False)] = True
    return mask


def _async_op(seed, slot, name, n, steps, clock):
    rng = _rng(seed, slot)
    mask = _ring_chords_mask(rng, n, chords=3)
    x0 = rng.normal(size=n)
    config = {"x0": x0.tolist(), "steps": steps, "tol": 1e-8, "clock": clock}
    if clock == "bernoulli":
        # graph edge (i, j) means j averages i
        jj, ii = np.nonzero(mask)
        config["graph"] = {"n": n, "edges": [[int(i), int(j)]
                                             for i, j in zip(ii, jj)]}
        config["rates"] = rng.uniform(0.2, 0.4, size=n).tolist()
    else:
        config["matrix"] = _matrix_json(_pattern_weights(rng, mask))
        # sparse clocks: about a third of the ticks carry an event
        config["rates"] = rng.uniform(0.004, 0.012, size=n).tolist()
        config["delta"] = 1.0
    config["seed"] = _sub_seed(rng)     # the clocks' stream
    return Op(name, "async", config)


def _certify_mc_op(seed, slot, name, steps, trials):
    """The two-dimensional damping system of the contraction-certificate
    acceptance criterion (T = 2), with seeded damping factors and chain
    weights, and a long Monte Carlo run."""
    rng = _rng(seed, slot)
    d = rng.uniform(0.2, 0.9, size=3)
    w = float(rng.uniform(0.2, 0.8))
    modes = [np.diag([d[0], 1.0]), np.diag([1.0, d[1]]), np.diag([1.0, d[2]])]
    signal = {"variant": "markov", "initial": [1.0, 0.0, 0.0],
              "transition": [[0.0, w, 1.0 - w], [1.0, 0.0, 0.0],
                             [1.0, 0.0, 0.0]],
              "seed": _sub_seed(rng)}
    config = {"modes": [m.tolist() for m in modes], "signal": signal,
              "horizon_max": 4, "grid_resolution": 101, "x0": [1.0, 1.0],
              "steps": steps, "trials": trials, "tol": 1e-8,
              "seed": _sub_seed(rng)}
    return Op(name, "certify", config,
              {"T": 2, "damping": d.tolist(), "chain_weight": w})


def _montecarlo_ops(seed, tiny):
    # steps per (n, model) are set so that the four runs take about the same
    # time: larger n costs more per matmul, and the Markov-modulated model
    # samples with a per-step Python loop
    sizes = [(4, "iid", 200000, False), (8, "markov", 60000, False),
             (16, "iid", 140000, True), (32, "iid", 100000, False)]
    ops = [_near_identity_op(seed, 200 + i, n, 2000 if tiny else steps,
                             variant, search)
           for i, (n, variant, steps, search) in enumerate(sizes)]
    agents, events = (8, 1000) if tiny else (50, 20000)
    ops.append(_async_op(seed, 210, "async.bernoulli", agents, events,
                         "bernoulli"))
    ops.append(_async_op(seed, 211, "async.poisson", agents, events, "poisson"))
    ops += [_certify_mc_op(seed, 220 + i, f"certify.mc{i}",
                           30 if tiny else 300, 5 if tiny else 200)
            for i in range(2)]
    # small runs keep the classification and solver layers busy here too
    ops.append(_classify_op(seed, 230, "classify.small", (), 6))
    ops.append(_solver_op(seed, 390, 3, 4, 2, 10, 1))
    return ops


# -------------------------------------------------------------------- solver

def _random_graphs(rng, n, count, density):
    """Candidate graphs with all self-arcs: one complete graph (so every
    window-1 word has a strongly connected graph with positive
    probability) and ``count - 1`` random ones."""
    graphs = [{"n": n, "edges": [[i, j] for i in range(n) for j in range(n)]}]
    for _ in range(count - 1):
        edges = [[i, i] for i in range(n)]
        edges += [[i, j] for i in range(n) for j in range(n)
                  if i != j and rng.random() < density]
        graphs.append({"n": n, "edges": edges})
    return graphs


def _solver_op(seed, slot, agents, unknowns, rows, record_every, norm_windows):
    """A criterion-7-style instance: planted x*, overdetermined stacked
    system (agents * rows > unknowns), three candidate graphs, window 1."""
    rng, base = _rng(seed, slot), _rng(0, slot)
    system, x_star = _planted_system(base, rng, agents, unknowns, rows)
    config = {"system": system,
              "graphs": _random_graphs(base, agents, 3, 0.35),
              "graph_model": {"variant": "iid", "weights": [1 / 3] * 3,
                              "seed": _sub_seed(rng)},
              "window": 1, "max_iters": 100000, "tol": 1e-8,
              "record_every": record_every, "norm_windows": norm_windows}
    return Op(f"lineq.solve{slot - 300:02d}.{agents}x{unknowns}", "lineq",
              config, {"x_star": x_star.tolist()})


def _solver_ops(seed, tiny):
    """Instances with a fixed set of coefficient blocks and candidate graphs
    per slot; the seed plants x* and draws the graph sequence.  Iteration
    counts depend mostly on the blocks' geometry (drawn from the seed they
    vary several-fold), so fixing the blocks keeps a pass's work comparable
    across seeds."""
    if tiny:
        ops = [_solver_op(seed, 300, 3, 4, 2, 1, 1)]
    else:
        ops = [_solver_op(seed, 300 + i, 5, 20, 6, 1 if i % 3 == 0 else 10, 2)
               for i in range(24)]
        ops += [_solver_op(seed, 340 + i, agents, unknowns, 6, 10, 1)
                for i, (agents, unknowns) in enumerate(
                    [(8, 24), (9, 32), (10, 40), (8, 24), (9, 32), (10, 40)])]
    # small runs of the other kinds keep every traced layer busy here too
    ops += [_classify_op(seed, 330, "classify.small", (), 6),
            _near_identity_op(seed, 331, 4, 2000, "iid", True),
            _async_op(seed, 332, "async.small", 10, 2000, "bernoulli"),
            _certify_mc_op(seed, 333, "certify.small", 30, 5)]
    return ops


def make_ops(workload: str, seed: int, tiny: bool = False) -> list:
    if workload == "analysis":
        return _analysis_ops(seed, tiny)
    if workload == "montecarlo":
        return _montecarlo_ops(seed, tiny)
    return _solver_ops(seed, tiny)
