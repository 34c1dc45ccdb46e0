"""Shared generators and independent oracles for the test suite."""

import itertools
import math

import numpy as np
from scipy.linalg import block_diag
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from stochprod.matrices import StochasticMatrix, entries_of, tau


def random_stochastic(rng, n, density=0.6, low=0.05, high=1.0):
    """Random stochastic matrix with a random pattern and weights bounded
    away from zero (entries in [low, high] before row normalization)."""
    mask = rng.random((n, n)) < density
    for i in range(n):
        if not mask[i].any():
            mask[i, rng.integers(n)] = True
    w = np.where(mask, rng.uniform(low, high, (n, n)), 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return StochasticMatrix(w)


def random_pattern_stochastic(rng, mask, low=0.05, high=1.0):
    """Stochastic matrix with exactly the given positivity pattern."""
    mask = np.asarray(mask, dtype=bool)
    assert mask.any(axis=1).all(), "every row needs a positive entry"
    w = np.where(mask, rng.uniform(low, high, mask.shape), 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return StochasticMatrix(w)


def tau_full_scan(matrix):
    """The former ``tau``: the worst overlap over all n(n-1)/2 row pairs,
    with no early stop."""
    a = entries_of(matrix)
    n = a.shape[0]
    if n == 1:
        return 0.0
    worst = np.inf
    for i in range(n - 1):
        overlaps = np.minimum(a[i], a[i + 1:]).sum(axis=1)
        worst = min(worst, float(overlaps.min()))
    return min(max(1.0 - worst, 0.0), 1.0)


def scrambling_loop(mask):
    """Every row pair of a boolean pattern shares a positive column, pair
    by pair."""
    n = len(mask)
    return all((mask[i] & mask[j]).any() for i in range(n) for j in range(n))


def markov_loop(mask):
    """Some column of a boolean pattern is positive in every row, column by
    column."""
    return any(mask[:, j].all() for j in range(mask.shape[1]))


def tau_of_high_power(matrix, squarings=40):
    """tau of a huge power of A by repeated squaring, stopping early once the
    value is decisively small (further squarings only amplify roundoff once
    the rows already agree to machine precision)."""
    a = entries_of(matrix)
    for _ in range(squarings):
        t = tau(a)
        if t < 1e-9:
            return t
        a = a @ a
    return tau(a)


def powers_converge_to_rank_one(matrix, squarings=40, tol=1e-6):
    """Independent membership oracle for the sia class: the powers of a
    stochastic matrix approach identical rows iff tau of a huge power is
    tiny (for non-members a row pair with disjoint support persists at every
    power, pinning tau at exactly 1)."""
    return tau_of_high_power(matrix, squarings) < tol


def random_rooted_graph(rng, n, extra_edge_prob=0.25):
    """Random rooted digraph in which every vertex has an in-neighbor.

    Build a random spanning arborescence out of a random root, then sprinkle
    extra edges; finally give in-degree-0 vertices (at most the root) an
    incoming edge, which never breaks rootedness.
    """
    from stochprod.graphs import DirectedGraph

    order = rng.permutation(n)
    edges = set()
    for k in range(1, n):
        parent = order[rng.integers(k)]
        edges.add((int(parent), int(order[k])))
    extra = rng.random((n, n)) < extra_edge_prob
    for i in range(n):
        for j in range(n):
            if i != j and extra[i, j]:
                edges.add((i, j))
    for v in range(n):
        if not any(e[1] == v for e in edges):
            u = int(rng.integers(n - 1))
            u = u if u < v else u + 1
            edges.add((u, v))
    return DirectedGraph(n, frozenset(edges))


def weights_for_graph(rng, graph, low=0.1, high=1.0):
    """Random stochastic matrix whose graph (edge (i, j) iff W[j, i] > 0)
    is exactly the given one; requires every vertex to have an in-neighbor."""
    n = graph.n
    w = np.zeros((n, n))
    for (i, j) in graph.edges:
        w[j, i] = rng.uniform(low, high)
    assert (w.sum(axis=1) > 0).all()
    w /= w.sum(axis=1, keepdims=True)
    return StochasticMatrix(w)


def figure_network():
    """The 6-agent rooted periodic benchmark network (0-based edges)."""
    from stochprod.graphs import DirectedGraph

    edges = {(2, 1), (1, 2), (2, 5), (5, 3), (3, 4), (4, 5), (4, 0), (1, 0)}
    return DirectedGraph(6, frozenset(edges))


def uniform_weights(graph):
    """Equal in-neighbor weights for a graph where every vertex has one."""
    n = graph.n
    w = np.zeros((n, n))
    for (i, j) in graph.edges:
        w[j, i] = 1.0
    w /= w.sum(axis=1, keepdims=True)
    return StochasticMatrix(w)


def sparse_law(rng, size):
    """A probability vector with some entries zeroed, so words get pruned."""
    w = rng.dirichlet(np.ones(size)) * (rng.random(size) < 0.7)
    if not w.any():
        w[rng.integers(size)] = 1.0
    return w / w.sum()


def positive_words(first, step, h):
    """Brute-force word law: every length-h index word of positive
    probability, with that probability, found by trying all m**h words.
    ``first`` is the law of the first index and ``step(a)`` the law of the
    index that follows a."""
    first = np.asarray(first, dtype=float)
    for word in itertools.product(range(first.size), repeat=h):
        p = first[word[0]]
        for a, b in zip(word, word[1:]):
            p *= step(a)[b]
        if p > 0:
            yield word, p


def scripted_word(model, start, h):
    """The h script indices at positions start+1 .. start+h."""
    return tuple(model.indices[(start + t) % model.period] for t in range(h))


def window_words(model, start, h):
    """Brute-force law of the h indices at positions start+1 .. start+h."""
    from stochprod.sequences import ScriptedModel

    if isinstance(model, ScriptedModel):
        return [(scripted_word(model, start, h), 1.0)]
    return list(positive_words(model.start_distribution(start),
                               model.step_distribution, h))


def stacked(pred):
    """A one-matrix class test run on each pattern of a (k, n, n) stack."""
    return lambda masks: np.array([pred(m) for m in masks], dtype=bool)


def class_probability(model, start, h, pred):
    """Exact probability that the length-h window product from ``start``
    passes the class test ``pred``, from ``window_probability``."""
    from stochprod import sequences

    return float(sequences.window_probability(
        model, model._require_set().patterns(), h, stacked(pred), [start])[0])


# The library's former window search, kept as the oracle of its one-walk
# search: every length enumerated afresh, one ``advance`` layer at a time,
# and a scripted window multiplied out word by word at each start.

def window_probability_restart(model, patterns, h, test, starts=None):
    """``window_probability`` of length h, enumerated from scratch."""
    from stochprod import sequences

    starts = sequences.window_starts(model) if starts is None else starts
    pats = np.asarray(patterns, dtype=bool)[:model.num_symbols]
    if isinstance(model, sequences.ScriptedModel):
        hits = []
        for start in starts:
            word = scripted_word(model, start, h)
            prod = pats[word[0]]
            for idx in word[1:]:
                prod = pats[idx] @ prod
            hits.append(1.0 if test(prod) else 0.0)
        return np.array(hits)
    m = model.num_symbols
    law = sequences._step_law(model)
    last, prods, weights = np.arange(m), pats, np.eye(m)
    for _ in range(h - 1):
        last, prods, weights = sequences.advance(law, pats, last, prods,
                                                 weights)
    q = weights[np.array([bool(test(p)) for p in prods])].sum(axis=0)
    return np.array([model.start_distribution(start) @ q for start in starts])


def find_scrambling_window_restart(model, h_max):
    """``find_scrambling_window`` trying each length h = 1..h_max afresh."""
    from stochprod import sequences
    from stochprod.errors import NoScramblingWindow
    from stochprod.matrices import is_scrambling
    from stochprod.products import RateReport

    fset = model._require_set()
    for h in range(1, h_max + 1):
        p = float(window_probability_restart(
            model, fset.patterns(), h, is_scrambling).min())
        if p > 0.0:
            a = np.asarray(fset.entry_arrays())
            alpha = float(a[a > 0].min())
            return RateReport(window_len=h, scrambling_prob=p,
                              min_entry=alpha,
                              bound=float((1.0 - p * alpha**h) ** (1.0 / h)))
    raise NoScramblingWindow(f"no scrambling window up to length {h_max}")


def stationary_markov(rng, m, **kw):
    """A Markov-modulated model started in its stationary law: a doubly
    stochastic transition (a mix of permutations) from the uniform start."""
    from stochprod.sequences import MarkovModulatedModel

    mix = rng.dirichlet(np.ones(3))
    transition = sum(c * np.eye(m)[rng.permutation(m)] for c in mix)
    return MarkovModulatedModel(initial=np.full(m, 1.0 / m),
                                transition=transition, **kw)


# Step-at-a-time reference loops.  Each is the library's former per-step
# implementation, kept as an oracle for the batched one: the outputs must
# agree bit for bit.

def iid_indices_choice(model, length, trial=0):
    """The library's former i.i.d. sampler, one ``Generator.choice`` call
    with the model's weights: the oracle of the i.i.d. stream."""
    from stochprod.sequences import _trial_seed

    rng = np.random.default_rng(_trial_seed(model.seed, trial))
    return rng.choice(model.num_symbols, size=length, p=model.weights)


def spy_streams(monkeypatch, model_type):
    """Record, per stream that ``model_type`` opens, its trial and the
    counts of its draws, in the order the streams are opened."""
    opened, real = [], model_type.stream

    def stream(model, trial=0):
        draw, counts = real(model, trial), []
        opened.append((trial, counts))

        def counted(count):
            counts.append(count)
            return draw(count)
        return counted

    monkeypatch.setattr(model_type, "stream", stream)
    return opened


def markov_indices_stepwise(model, length, trial=0):
    """Markov-modulated sample with one ``searchsorted`` per step."""
    from stochprod.sequences import _trial_seed

    rng = np.random.default_rng(_trial_seed(model.seed, trial))
    cum_rows = np.cumsum(model.transition, axis=1)
    u = rng.random(length)
    out = np.empty(length, dtype=np.int64)
    state = int(np.searchsorted(np.cumsum(model.initial), u[0], side="right"))
    state = min(state, model.num_symbols - 1)
    out[0] = state
    for k in range(1, length):
        state = int(np.searchsorted(cum_rows[state], u[k], side="right"))
        state = min(state, model.num_symbols - 1)
        out[k] = state
    return out


def monte_carlo_decay_per_trial(system, V, x0, steps, trials, tol=1e-8):
    """``monte_carlo_decay`` one trial and one step at a time."""
    from stochprod import sequences
    from stochprod.lyapunov import DecayReport
    from stochprod.products import _log_linear_rate

    x0 = np.asarray(x0, dtype=float)
    rates, tails = [], []
    history = np.empty((trials, steps + 1))
    for t in range(trials):
        idx = sequences.sample(system.signal, steps, trial=t)
        x = x0.copy()
        vs = np.empty(steps + 1)
        vs[0] = float(V(x))
        for k in range(steps):
            x = system.modes[idx[k]] @ x
            vs[k + 1] = float(V(x))
        rates.append(_log_linear_rate(np.arange(vs.size), vs, min_points=2) or 0.0)
        tails.append(float(vs[-1]))
        history[t] = vs
    rates = np.asarray(rates)
    fitted = 0.0 if np.any(rates == 0.0) else float(np.exp(np.mean(np.log(rates))))
    tails_arr = np.asarray(tails)
    return DecayReport(
        fitted_rate=fitted,
        per_trial_rate=tuple(rates.tolist()),
        per_trial_tail=tuple(tails_arr.tolist()),
        tail_fraction=float((tails_arr < tol).mean()),
        tolerance=float(tol),
        steps=steps,
        trials=trials,
        history=history,
    )


# The library's former per-mode continuation enumeration, kept as the oracle
# of the one enumeration ``lyapunov._continuation_layers`` runs for all
# current modes at once.

def mode_start(system, mode):
    """``sequences.advance`` state of the empty continuation from one current
    mode: its index, the identity operator and probability 1."""
    return (np.array([int(mode)]), np.eye(system.dimension)[None],
            np.ones((1, 1)))


def expected_lyapunov_per_mode(system, V, x, mode, horizon):
    """``expected_lyapunov`` from the one mode's own enumeration, one
    ``advance`` layer per step, and one dot with its weight column."""
    from stochprod import sequences

    law = sequences._step_law(system.signal)
    state = mode_start(system, mode)
    for _ in range(horizon):
        state = sequences.advance(law, system.modes, *state)
    _, ops, probs = state
    values = np.asarray(V(ops @ np.asarray(x, dtype=float)), dtype=float)
    return float(probs[:, 0] @ values)


def certify_contraction_per_mode(system, V, horizon_max, grid=None):
    """``certify_contraction`` one current mode at a time: each mode
    advances its own continuations and pushes its own operators through the
    grid, and its expectation is one dot with its weight column."""
    from stochprod import lyapunov, sequences
    from stochprod.errors import NoCertificate

    grid = grid or lyapunov.SphereGrid()
    pts = grid.points(system.dimension)
    vx = np.asarray(V(pts), dtype=float)
    keep = vx > 0
    pts, vx = pts[keep], vx[keep]
    modes = range(system.signal.num_symbols)
    law = sequences._step_law(system.signal)
    states = [mode_start(system, mode) for mode in modes]
    supermartingale_ok = None
    for horizon in range(1, int(horizon_max) + 1):
        beta = -np.inf
        for mode in modes:
            states[mode] = sequences.advance(law, system.modes, *states[mode])
            _, ops, probs = states[mode]
            images = np.einsum("wij,gj->wgi", ops, pts)
            exp_v = probs[:, 0] @ np.asarray(V(images), dtype=float)
            beta = max(beta, float((exp_v / vx).max()))
        if horizon == 1:
            supermartingale_ok = beta <= 1.0 + 1e-12
        if beta < 1.0 - 1e-12:
            return lyapunov.FiniteStepCertificate(
                horizon=horizon, alpha=1.0 - beta,
                supermartingale_ok=bool(supermartingale_ok),
                grid_resolution=grid.resolution)
    raise NoCertificate(int(horizon_max))


def apply_firing_sets(W, x0, fired):
    """Spreads and final state of the events ``fired`` (one boolean row per
    event) applied in order to ``x0``, one row at a time."""
    from stochprod.matrices import spread

    w = entries_of(W)
    x = np.array(x0, dtype=float)
    spreads = [spread(x)]
    for row in fired:
        agents = np.nonzero(row)[0]
        x[agents] = w[agents] @ x
        spreads.append(spread(x))
    return tuple(spreads), x


def simulate_async_per_tick(clocks, steps, trial=0):
    """Reference law of ``simulate_async``'s events: the ``(steps, n)``
    boolean firing sets of a tick loop, one ``rng.random(n)`` draw per clock
    tick, the ticks where nobody fires skipped."""
    from stochprod.sequences import _trial_seed

    probs = clocks.activation_probabilities()
    rng = np.random.default_rng(_trial_seed(clocks.seed, trial))
    fired = []
    while len(fired) < steps:
        row = rng.random(probs.size) < probs
        if row.any():
            fired.append(row)
    return np.array(fired, dtype=bool).reshape(steps, probs.size)


def firing_set_counts(fired):
    """How often each firing set occurs among the boolean rows ``fired``,
    indexed by the set's bitmask (agent i is bit i)."""
    fired = np.asarray(fired, dtype=bool)
    codes = fired @ (1 << np.arange(fired.shape[1]))
    return np.bincount(codes, minlength=2 ** fired.shape[1])


def _pool_small(observed, expected):
    """Cells expecting fewer than five counts pooled into one."""
    small = expected < 5
    if not small.any():
        return observed, expected
    return (np.append(observed[~small], observed[small].sum()),
            np.append(expected[~small], expected[small].sum()))


def chi_square_p(observed, probs):
    """Chi-square goodness-of-fit p-value of counts against cell
    probabilities; cells of probability 0 must be empty."""
    from scipy import stats

    observed = np.asarray(observed)
    expected = np.asarray(probs, dtype=float) * observed.sum()
    assert observed[expected == 0].sum() == 0
    keep = expected > 0
    return stats.chisquare(*_pool_small(observed[keep], expected[keep])).pvalue


def two_sample_chi_square_p(a, b):
    """Chi-square p-value that two count vectors share one law; the cells
    both samples together hit fewer than ten times are pooled into one."""
    from scipy import stats

    a, b = np.asarray(a), np.asarray(b)
    rare = a + b < 10
    table = np.array([a[~rare], b[~rare]])
    if (a + b)[rare].any():
        table = np.column_stack([table, [a[rare].sum(), b[rare].sum()]])
    return stats.chi2_contingency(table, correction=False).pvalue


def _reduced_product_run(model, steps, checkpoints, trial, carry, measure):
    """The checkpoint walk the product oracles share.  ``carry(d, hats,
    segment)`` takes the row differences D = E W across one checkpoint
    segment of indices, and ``measure(rows)`` reads (tau, spread) from
    ``rows = [D; 0]``; the walk stops at the first tau below ``TAU_FLOOR``."""
    from stochprod import sequences
    from stochprod.products import TAU_FLOOR, ProductTrace, default_checkpoints

    hats = [a[:-1, :-1] - a[-1, :-1]
            for a in model._require_set().entry_arrays()]
    n = model.matrix_set.dimension
    if checkpoints is None:
        checkpoints = default_checkpoints(steps)
    checkpoints = sorted(set(int(c) for c in checkpoints if 1 <= c <= steps))
    idx = sequences.sample(model, steps, trial=trial).tolist()
    d = np.hstack([np.eye(n - 1), -np.ones((n - 1, 1))])
    recorded_k, taus, spreads = [], [], []
    done = 0
    for k in checkpoints:
        d = carry(d, hats, idx[done:k])
        done = k
        t, s = measure(np.vstack([d, np.zeros((1, n))]))
        if t < TAU_FLOOR:
            break
        recorded_k.append(k)
        taus.append(t)
        spreads.append(s)
    return ProductTrace(checkpoints=tuple(recorded_k), taus=tuple(taus),
                        spreads=tuple(spreads),
                        seed=sequences._trial_seed(model.seed, trial),
                        steps=int(steps))


def simulate_product_pairwise(model, steps, checkpoints=None, trial=0):
    """``simulate_product`` with each product of its pairwise trees made by
    its own ``np.dot``: every checkpoint segment is cut into chunks of
    ``products.CHUNK_BYTES`` of reduced factors, each chunk's level multiplies
    neighbours (later on the left) and carries an odd leftover up, and the
    chunk's product is applied to D."""
    from stochprod import products
    from stochprod.matrices import _column_spreads, row_diameter

    def carry(d, hats, segment):
        chunk = max(1, products.CHUNK_BYTES // max(hats[0].nbytes, 1))
        for lo in range(0, len(segment), chunk):
            level = [hats[i] for i in segment[lo:lo + chunk]]
            while len(level) > 1:
                level = ([np.dot(level[j + 1], level[j])
                          for j in range(0, len(level) - 1, 2)]
                         + level[len(level) & ~1:])
            d = np.dot(level[0], d)
        return d

    return _reduced_product_run(
        model, steps, checkpoints, trial, carry,
        lambda rows: (row_diameter(rows),
                      float(_column_spreads(rows[None])[0])))


def simulate_product_per_step(model, steps, checkpoints=None, trial=0):
    """``simulate_product`` by the reduced recurrence one step at a time,
    ``D <- A_hat D``, with tau as half the largest l1 distance over every
    row pair of [D; 0] and the spread as the largest column range."""

    def carry(d, hats, segment):
        for i in segment:
            d = hats[i] @ d
        return d

    def measure(rows):
        dists = [np.abs(u - v).sum()
                 for u, v in itertools.combinations(rows, 2)]
        spread = (rows.max(axis=0) - rows.min(axis=0)).max()
        return min(float(max(dists, default=0.0)) / 2, 1.0), float(spread)

    return _reduced_product_run(model, steps, checkpoints, trial, carry,
                                measure)


def pattern_power_walk(mask):
    """The library's former pattern-power walk: the boolean powers A, A^2,
    ... walked until one repeats, which must happen because they live in a
    finite set.  Returns (cycle length of the powers, least k with A^k
    scrambling or None when no power before the repeat scrambles)."""
    base = np.asarray(mask, dtype=bool).astype(np.int32)
    seen, first_scrambling = {}, None
    power, k = base > 0, 1
    while power.tobytes() not in seen:
        seen[power.tobytes()] = k
        p = power.astype(np.int32)
        if first_scrambling is None and np.all(p @ p.T > 0):
            first_scrambling = k
        power = (p @ base) > 0
        k += 1
    return k - seen[power.tobytes()], first_scrambling


def planted_pattern(rng, n, kind, zero_diagonal=False):
    """Pattern of a stochastic matrix (no empty row) of one of three kinds:
    ``random`` entries; ``cycles``, a permutation-like union of directed
    cycles on consecutive blocks with a few chords inside blocks; or
    ``reducible``, the same blocks with extra edges from each block to later
    ones only, so earlier blocks are transient and can be periodic."""
    if kind == "random":
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.7)
    else:
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)),
                                  replace=False)) if n > 1 else []
        bounds = [0, *map(int, cuts), n]
        mask = np.zeros((n, n), dtype=bool)
        for a, b in zip(bounds, bounds[1:]):
            size = b - a
            for i in range(size):
                mask[a + i, a + (i + 1) % size] = True
            if size > 2 and rng.random() < 0.5:
                i, j = rng.integers(size, size=2)
                mask[a + i, a + j] = True
            if kind == "reducible" and b < n:
                mask[rng.integers(a, b), rng.integers(b, n)] = True
    if zero_diagonal:
        np.fill_diagonal(mask, False)
    for i in np.nonzero(~mask.any(axis=1))[0]:
        others = [j for j in range(n) if j != i] or [i]
        mask[i, rng.choice(others)] = True
    return mask


def block_diagonal(projs):
    """Dense block-diagonal matrix of a ProjectionSet's projections, for the
    kron reference of the error system."""
    return block_diag(*projs.projections)


def boolean_product(adjs):
    """Boolean pattern of the chronological product ``adjs[0] @ adjs[1] @
    ...``: edge (i, j) when some walk from i to j takes one edge of each
    adjacency in turn."""
    out = np.asarray(adjs[0], dtype=bool)
    for adj in adjs[1:]:
        out = (out.astype(int) @ np.asarray(adj, dtype=int)) > 0
    return out


def scipy_components(adj):
    """scipy's strongly connected components of a boolean adjacency matrix:
    the library's former implementation, now the oracle of its Tarjan
    search.  Returns (count, labels)."""
    adj = np.asarray(adj, dtype=bool)
    if adj.shape[0] == 0:
        return 0, np.zeros(0, dtype=int)
    return connected_components(csr_matrix(adj), directed=True,
                                connection="strong")


def canonical_partition(labels):
    """A labelling up to relabelling: each label replaced by the first
    vertex that carries it."""
    first = {}
    return [first.setdefault(int(c), v) for v, c in enumerate(labels)]


def bfs_levels_loop(adj, root):
    """The library's former BFS, one Python step per vertex and edge: the
    oracle of the frontier-mask ``graphs.bfs_levels``."""
    adj = np.asarray(adj, dtype=bool)
    level = np.full(adj.shape[0], -1, dtype=int)
    level[root] = 0
    frontier, d = [root], 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in np.nonzero(adj[u])[0]:
                if level[v] < 0:
                    level[v] = d
                    nxt.append(int(v))
        frontier = nxt
    return level


def component_period_loop(adj, vertices):
    """The library's former period: ``math.gcd`` folded over the internal
    edges one at a time, the oracle of ``graphs.component_period``."""
    vertices = sorted(vertices)
    sub = np.asarray(adj, dtype=bool)[np.ix_(vertices, vertices)]
    if len(vertices) == 1:
        return 1
    level = bfs_levels_loop(sub, 0)
    g = 0
    for u in range(len(vertices)):
        for v in np.nonzero(sub[u])[0]:
            g = math.gcd(g, level[u] + 1 - level[int(v)])
    return abs(g) if g != 0 else 1


def run_solver_stepwise(system, gmodel, max_iters, tol=1e-8, trial=0,
                        check_connectivity=True, record_every=1,
                        norm_windows=0):
    """The library's former ``run_solver`` loop, the oracle of the per-graph
    array loop: the whole ``max_iters`` draw up front, the public ``step``
    at every iteration, and ``mean``/``.max()`` reductions."""
    from stochprod import equations, sequences
    from stochprod.errors import (DimensionMismatch, InvalidDistribution,
                                  NoConnectedWindow)
    from stochprod.products import _log_linear_rate

    if gmodel.n != system.n:
        raise DimensionMismatch("one graph vertex per agent")
    if record_every < 1 or max_iters < 0:
        raise InvalidDistribution("need record_every >= 1 and max_iters >= 0")
    if (check_connectivity
            and equations.window_connectivity_probability(gmodel) <= 0.0):
        raise NoConnectedWindow(
            f"no strongly connected window of length {gmodel.window}")
    projections = equations.kernel_projections(system)
    a_full, b_full = system.stacked()
    x = equations.initial_state(system)
    indices = (sequences.sample(gmodel.model, max_iters, trial=trial)
               if max_iters else np.zeros(0, dtype=np.int64))

    def spread(x):
        return float((x.max(axis=0) - x.min(axis=0)).max())

    def residual(x):
        return float(np.abs(a_full @ x.mean(axis=0) - b_full).max())

    dis, res = spread(x), residual(x)
    history = [(0, dis, res)]
    converged = dis < tol and res < tol
    k = 0
    while not converged and k < max_iters:
        x = equations.step(x, gmodel.graph_set[indices[k]], projections)
        k += 1
        dis = spread(x)
        if k % record_every == 0 or dis < tol:
            res = residual(x)
            history.append((k, dis, res))
            converged = dis < tol and res < tol
    if history[-1][0] != k:
        res = residual(x)

    window_norms = []
    width = gmodel.window * max(1, min(gmodel.n - 1, 8))
    for w in range(norm_windows):
        chunk = indices[w * width:(w + 1) * width]
        if len(chunk) < width:
            break
        _, norm = equations.error_transition(
            [gmodel.graph_set[i] for i in chunk], projections)
        window_norms.append(norm)

    fitted = _log_linear_rate([h[0] for h in history], [h[1] for h in history],
                              min_points=3)
    exponential_consistent = None
    if window_norms and fitted is not None:
        per_step = float(np.mean(window_norms)) ** (1.0 / width)
        exponential_consistent = fitted <= per_step + 1e-9
    return equations.SolverReport(
        converged=bool(converged), iterations=k, disagreement=dis,
        residual=res, solution=x.mean(axis=0), history=tuple(history),
        fitted_decay=fitted, window_norms=tuple(window_norms),
        exponential_consistent=exponential_consistent)
