"""Output checks for benchmark operations.

Every operation's ``summary.json`` and ``trace.csv`` are checked after the
pass that produced them.  Exact quantities are compared with the
benchmark's own oracles (brute-force row-pair overlaps, boolean pattern
powers, closed-form two-step expectations, planted solutions) and, for the
seeds listed in ``reference.json``, with values recorded at the seed
commit, within ``EXACT_TOL``.  Sampled outputs may change with the random
streams, so they are checked by predicates (monotone spreads, a full-length
run, a final value below tol), never by their bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

EXACT_TOL = 1e-12
SOLUTION_TOL = 1e-6
EXACT_KINDS = ("classify", "product", "certify")
TRACE_COLUMNS = {
    "classify": ["label", "tau", "scrambling", "sia", "markov", "period"],
    "certify": ["k", "mean_V", "q10", "q50", "q90"],
    "product": ["k", "tau", "spread"],
    "async": ["k", "spread"],
    "lineq": ["k", "disagreement", "residual"],
}


def read_outputs(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        envelope = json.load(fh)
    with open(os.path.join(out_dir, "trace.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    return envelope, rows[0], rows[1:]


def exact_fields(kind, results):
    """The fields of an EXACT_KINDS summary that must agree with the
    reference within EXACT_TOL."""
    if kind == "classify":
        return {"matrices": [[m["tau"], m["scrambling"], m["sia"],
                              m["markov"], m["period"]]
                             for m in results["matrices"]]}
    if kind == "product":
        return {k: results[k] for k in ("p", "alpha", "h", "bound")}
    if kind == "certify":
        return {"T": results["certificate"]["T"],
                "alpha": results["certificate"]["alpha"]}
    raise ValueError(f"{kind} outputs have no exact fields")


def _differences(got, want, path=""):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: fields {sorted(got) if isinstance(got, dict) else got} "
                    f"!= reference {sorted(want)}"]
        return [d for k in want for d in _differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from reference"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{path}[{i}]")]
    if isinstance(want, bool) or isinstance(want, int) and isinstance(got, int):
        return [] if got == want else [f"{path}: {got!r} != reference {want!r}"]
    if not (isinstance(got, (int, float)) and abs(got - want) <= EXACT_TOL):
        return [f"{path}: {got!r} != reference {want!r} within {EXACT_TOL}"]
    return []


# ------------------------------------------------------------------ oracles

def brute_force_tau(a) -> float:
    """1 minus the smallest overlap sum_s min(a_is, a_js) over row pairs."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return 0.0
    worst = math.inf
    for i in range(n):
        overlaps = np.minimum(a[i], a).sum(axis=1)
        overlaps[i] = math.inf
        worst = min(worst, float(overlaps.min()))
    return min(max(1.0 - worst, 0.0), 1.0)


def _scrambling(mask) -> bool:
    return all((mask[i] & mask).any(axis=1).all() for i in range(mask.shape[0]))


def pattern_verdicts(a):
    """(scrambling, sia, markov, period) of a matrix from its boolean
    pattern powers: sia holds iff some power scrambles, and the period is
    the cycle length of the sequence of pattern powers."""
    mask = np.asarray(a) > 0
    n = mask.shape[0]
    step = mask.astype(np.float32)
    seen = {}
    power, k, sia = mask, 1, False
    while power.tobytes() not in seen:
        if k > 4 * n * n + 8:
            raise RuntimeError("pattern powers did not cycle")
        seen[power.tobytes()] = k
        sia = sia or _scrambling(power)
        power = (power.astype(np.float32) @ step) > 0
        k += 1
    return (_scrambling(mask), sia, bool(mask.all(axis=0).any()),
            k - seen[power.tobytes()])


def worst_two_step(damping, w) -> float:
    """Worst two-step expected sup norm of the damping system over the
    breakpoints of the unit sphere (the expectation is piecewise linear on
    each face, so its maximum over the grid sits at a breakpoint)."""
    ops = (np.diag([damping[0], damping[1]]), np.diag([damping[0], damping[2]]))
    points = [(1, 0), (0, 1), (1, 1), (-1, 1), (1, -1), (-1, -1), (-1, 0), (0, -1)]
    return max(sum(p * float(np.abs(op @ np.asarray(x, float)).max())
                   for p, op in zip((w, 1.0 - w), ops)) for x in points)


def _set_min_entry(model) -> float:
    entries = np.concatenate([np.asarray(m["rows"], float).ravel()
                              for m in model["set"]])
    return float(entries[entries > 0].min())


def _column(rows, index):
    return np.asarray([float(r[index]) for r in rows])


def _non_increasing(values, tol=1e-12) -> bool:
    return bool(np.all(np.diff(values) <= tol))


# ------------------------------------------------------------------- checks

class Checker:
    """Checks operations' outputs; oracle values are computed once per
    operation and reused for every pass."""

    def __init__(self, reference=None):
        self.reference = reference or {}
        self._oracles = {}

    def _classify_oracle(self, op):
        if op.name not in self._oracles:
            mats = [np.asarray(m["rows"], float) for m in op.config["matrices"]]
            self._oracles[op.name] = [(brute_force_tau(a),) + pattern_verdicts(a)
                                      for a in mats]
        return self._oracles[op.name]

    def check(self, op, out_dir, code):
        """List of problems with one operation's outputs (empty when ok)."""
        if code != 0:
            return [f"exit code {code}, expected 0"]
        try:
            envelope, header, rows = read_outputs(out_dir)
        except (OSError, ValueError, IndexError) as exc:
            return [f"unreadable outputs: {exc}"]
        if envelope.get("kind") != op.kind or header != TRACE_COLUMNS[op.kind]:
            return [f"summary kind {envelope.get('kind')!r} or trace columns "
                    f"{header} do not belong to {op.kind!r}"]
        res = envelope["results"]
        try:
            problems = getattr(self, "_check_" + op.kind)(op, res, rows)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed outputs: {exc!r}"]
        if op.kind in EXACT_KINDS and op.name in self.reference:
            problems += _differences(exact_fields(op.kind, res),
                                     self.reference[op.name], op.name)
        return problems

    def _check_classify(self, op, res, rows):
        problems = []
        mats = res["matrices"]
        oracle = self._classify_oracle(op)
        if len(mats) != len(oracle) or len(rows) != len(oracle):
            return ["one summary entry and one trace row per matrix expected"]
        for m, (tau, scr, sia, markov, period) in zip(mats, oracle):
            if abs(m["tau"] - tau) > EXACT_TOL:
                problems.append(f"{m['label']}: tau {m['tau']!r} != brute force {tau!r}")
            got = (m["scrambling"], m["sia"], m["markov"], m["period"])
            if got != (scr, sia, markov, period):
                problems.append(f"{m['label']}: verdicts {got} != oracle "
                                f"{(scr, sia, markov, period)}")
        return problems

    def _check_product(self, op, res, rows):
        cfg = op.config
        problems = []
        p, alpha, h, bound = res["p"], res["alpha"], res["h"], res["bound"]
        want_h = cfg.get("window", op.expect.get("h"))
        if h != want_h:
            problems.append(f"window h={h}, expected {want_h}")
        if not 0.0 < p <= 1.0 + EXACT_TOL:
            problems.append(f"p={p} outside (0, 1]")
        if abs(alpha - _set_min_entry(cfg["model"])) > EXACT_TOL:
            problems.append(f"alpha={alpha!r} is not the set's smallest entry")
        if abs(bound - (1.0 - p * alpha**h) ** (1.0 / h)) > EXACT_TOL:
            problems.append(f"bound={bound!r} disagrees with p, alpha, h")
        if res["steps"] != cfg["steps"] or not res["converged"]:
            problems.append("run did not converge over the configured steps")
        ks = _column(rows, 0)
        taus = _column(rows, 1)
        if ks.size and (np.any(np.diff(ks) <= 0) or not _non_increasing(taus)
                        or taus.min() < 0 or taus.max() > 1):
            problems.append("tau trace is not a non-increasing series in [0, 1]")
        if op.expect.get("full_run"):
            if not ks.size or ks[-1] != cfg["steps"]:
                problems.append("run stopped before its last step")
            if not 0.0 < res["final_tau"] < cfg["tol"]:
                problems.append(f"final tau {res['final_tau']!r} not in (0, tol)")
            rate = res["empirical_rate"]
            if rate is None or rate > bound + 1e-9:
                problems.append(f"fitted rate {rate!r} exceeds the bound {bound!r}")
        return problems

    def _check_certify(self, op, res, rows):
        cfg = op.config
        cert, decay = res["certificate"], res["decay"]
        problems = []
        if cert["T"] != op.expect["T"]:
            problems.append(f"certificate T={cert['T']}, expected {op.expect['T']}")
        if not 0.0 < cert["alpha"] < 1.0 or not cert["supermartingale_ok"]:
            problems.append(f"certificate alpha={cert['alpha']!r} invalid")
        if abs(cert["rate"] - (1.0 - cert["alpha"]) ** (1.0 / cert["T"])) > EXACT_TOL:
            problems.append("certificate rate disagrees with T and alpha")
        if "damping" in op.expect:
            worst = worst_two_step(op.expect["damping"], op.expect["chain_weight"])
            if abs((1.0 - cert["alpha"]) - worst) > EXACT_TOL:
                problems.append(f"1 - alpha = {1.0 - cert['alpha']!r} != "
                                f"two-step oracle {worst!r}")
        if (decay["steps"], decay["trials"]) != (cfg["steps"], cfg["trials"]):
            problems.append("decay run size differs from the config")
        if len(rows) != cfg["steps"] + 1:
            problems.append(f"{len(rows)} trace rows, expected {cfg['steps'] + 1}")
        elif not _non_increasing(_column(rows, 1)):
            problems.append("mean V increases along the trace")
        return problems

    def _check_async(self, op, res, rows):
        cfg = op.config
        problems = []
        spreads = _column(rows, 1)
        x0 = np.asarray(cfg["x0"], float)
        if len(rows) != cfg["steps"] + 1:
            problems.append(f"{len(rows)} trace rows, expected {cfg['steps'] + 1}")
        elif spreads[0] != x0.max() - x0.min() or not _non_increasing(spreads):
            problems.append("spread trace does not start at x0's spread and shrink")
        if not res["final_spread"] < cfg["tol"]:
            problems.append(f"final spread {res['final_spread']!r} >= tol")
        return problems

    def _check_lineq(self, op, res, rows):
        cfg = op.config
        problems = []
        x = np.asarray(res["solution"], float)
        x_star = np.asarray(op.expect["x_star"], float)
        if not res["converged"] or res["iterations"] > cfg["max_iters"]:
            problems.append("solver did not converge")
        elif x.shape != x_star.shape or np.abs(x - x_star).max() > SOLUTION_TOL:
            problems.append(f"solution off the planted x* by more than {SOLUTION_TOL}")
        if not (res["disagreement"] < cfg["tol"] and res["residual"] < cfg["tol"]):
            problems.append("final disagreement or residual above tol")
        norms = res["window_norms"]
        if len(norms) != cfg["norm_windows"] or any(v > 1.0 + 1e-10 for v in norms):
            problems.append(f"window norms {norms} not {cfg['norm_windows']} values <= 1")
        if not rows or int(rows[0][0]) != 0 or int(rows[-1][0]) != res["iterations"]:
            problems.append("history does not run from iteration 0 to the last")
        return problems
