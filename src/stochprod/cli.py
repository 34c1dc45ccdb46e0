"""Reproducible experiment runner.

``stochprod run <kind> --config cfg.json [--seed N] [--out DIR] [--trials N]
[--steps N] [--tol X]`` loads a JSON experiment description, applies the flag
overrides, reads the fields its kind declares in ``FIELDS`` (a config key or
flag that no field names is refused), dispatches to the library, and writes
``summary.json`` plus ``trace.csv`` into the output directory.  Outputs embed
the seed, a hash of the effective configuration, and the package version;
identical (config, seed) pairs produce byte-identical files.

Exit codes: 0 success, 2 validation/config error or an output that cannot
be written, 3 budget exhausted without convergence (product and lineq kinds).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import itertools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, jsonio
from . import agreement, equations, graphs, lyapunov, matrices, products
from ._checks import reals
from .errors import ConfigParse, InsufficientData, StochprodError
from .jsonio import _boolean, _field, _integer, _late, _list, _number, _string

__all__ = ["ExperimentConfig", "run", "main"]

FIELDS, _RUNNERS = {}, {}


def _kind(name: str, **fields):
    """Register the decorated runner of kind ``name``, which reads the config
    ``fields`` besides seed and out and fills in a default of None itself."""
    def register(runner):
        FIELDS[name], _RUNNERS[name] = fields, runner
        return runner
    return register


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3

TRACE_CHUNK = 4096  # trace cells made into texts at once, not the whole trace


@dataclass(frozen=True)
class ExperimentConfig:
    """Effective experiment description after flag overrides."""

    kind: str
    params: dict
    seed: int
    out_dir: str

    def hash(self) -> str:
        canon = json.dumps({"kind": self.kind, "seed": self.seed,
                            "params": self.params},
                           sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _refuse_constant(name: str):
    """``NaN``, ``Infinity`` and ``-Infinity`` are not JSON."""
    raise ConfigParse(f"config holds {name}, which is not a JSON number")


def load_config(kind: str, path: str, overrides: dict) -> ExperimentConfig:
    if kind not in FIELDS:
        raise ConfigParse(f"unknown experiment kind {kind!r}; "
                          f"choose from {tuple(FIELDS)}")
    overrides = {key: value for key, value in overrides.items() if value is not None}
    for key in overrides:
        if key not in ("seed", "out", *FIELDS[kind]):
            raise ConfigParse(f"{kind} does not read --{key}")
    try:
        with open(path) as fh:
            params = json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(params, dict):
        raise ConfigParse(f"{path}: top-level config must be an object")
    params.update(overrides)
    params["seed"] = seed = _field(params, "seed", _integer, 0)
    out_dir = _field(params, "out", _string, "out")
    params.pop("out", None)
    return ExperimentConfig(kind=kind, params=params, seed=seed, out_dir=out_dir)


def _float_texts(values):
    """The text ``csv`` writes for each entry of a float array, ``repr`` of
    its Python float, made once per run of equal bits (0.0 and -0.0 differ)
    within each ``TRACE_CHUNK`` cells: spread traces are piecewise constant."""
    for start in range(0, len(values), TRACE_CHUNK):
        chunk = values[start:start + TRACE_CHUNK]
        bits = chunk.view(np.uint64)
        heads = np.flatnonzero(np.append(True, bits[1:] != bits[:-1]))
        counts = np.diff(heads, append=chunk.size).tolist()
        yield from itertools.chain.from_iterable(map(
            itertools.repeat, map(repr, chunk[heads].tolist()), counts))


def _write_outputs(config: ExperimentConfig, summary: dict, header, rows):
    """Stream both outputs into temp files, then rename ``trace.csv`` and,
    last, ``summary.json`` into place, so a failed run leaves the previous
    pair.  An ``OSError`` on the way is a ``ConfigParse``; no temp file
    outlives the call."""
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigParse(f"cannot create output directory: {exc}") from exc
    envelope = {
        "kind": config.kind,
        "seed": config.seed,
        "config_hash": config.hash(),
        "version": __version__,
        "results": summary,
    }
    outputs = {  # renamed in this order: summary.json last
        os.path.join(config.out_dir, "trace.csv"): lambda fh: csv.writer(
            fh, lineterminator="\n").writerows(itertools.chain([header], rows)),
        os.path.join(config.out_dir, "summary.json"): lambda fh: fh.write(
            json.dumps(envelope, sort_keys=True, indent=2) + "\n"),
    }
    try:
        for path, write in outputs.items():
            with open(path + ".tmp", "w") as fh:
                write(fh)
        for path in outputs:
            os.replace(path + ".tmp", path)
    except OSError as exc:
        raise ConfigParse(f"cannot write {path}: {exc}") from exc
    finally:
        for path in outputs:
            if os.path.isfile(path + ".tmp"):
                os.remove(path + ".tmp")


@_kind("classify", matrices=(_list(_late("matrix_from_json")),),
       labels=(_list(lambda label: label), None))  # any JSON values, echoed
def _run_classify(config: ExperimentConfig, f: dict):
    mats = f["matrices"]
    if not mats:
        raise ConfigParse("classify needs a nonempty 'matrices' list")
    labels = f["labels"]
    if labels is None:
        labels = [f"M{i}" for i in range(len(mats))]
    if len(labels) != len(mats):
        raise ConfigParse("'labels' must be a list with one label per matrix")
    per_matrix = []
    for label, m in zip(labels, mats):
        cls = matrices.classify(m)
        per_matrix.append({"label": label, "tau": matrices.tau(m),
                           "scrambling": cls.is_scrambling, "sia": cls.is_sia,
                           "markov": cls.is_markov, "period": cls.period})
    rows = [list(row.values()) for row in per_matrix]  # columns in key order
    return {"matrices": per_matrix}, list(per_matrix[0]), rows, EXIT_OK


@_kind("certify", modes=(_list(reals),), signal=(_late("model_from_json"),),
       grid_resolution=(_integer, 101), horizon_max=(_integer, 8),
       x0=(reals, None), steps=(_integer, 50), trials=(_integer, 100),
       tol=(_number, 1e-8))
def _run_certify(config: ExperimentConfig, f: dict):
    system = lyapunov.SwitchedSystem(modes=f["modes"], signal=f["signal"])
    v = lyapunov.inf_norm()
    grid = lyapunov.SphereGrid(resolution=f["grid_resolution"], seed=config.seed)
    cert = lyapunov.certify_contraction(system, v, horizon_max=f["horizon_max"],
                                        grid=grid)
    x0 = np.ones(system.dimension) if f["x0"] is None else f["x0"]
    report = lyapunov.monte_carlo_decay(system, v, x0, steps=f["steps"],
                                        trials=f["trials"], tol=f["tol"])
    qs = np.quantile(report.history, [0.1, 0.5, 0.9], axis=0)
    means = report.history.mean(axis=0)
    rows = zip(range(means.size), *map(_float_texts, (means, *qs)))
    summary = {
        "certificate": {"T": cert.horizon, "alpha": cert.alpha,
                        "rate": cert.rate,
                        "grid_resolution": cert.grid_resolution,
                        "supermartingale_ok": cert.supermartingale_ok},
        "decay": {"fitted_rate": report.fitted_rate,
                  "tail_fraction": report.tail_fraction,
                  "steps": report.steps, "trials": report.trials},
    }
    return summary, ["k", "mean_V", "q10", "q50", "q90"], rows, EXIT_OK


@_kind("product", model=(_late("model_from_json"),), steps=(_integer, 10000),
       tol=(_number, 1e-8), window=(_integer, None), window_max=(_integer, 8))
def _run_product(config: ExperimentConfig, f: dict):
    if f["window"] is None:
        report = products.find_scrambling_window(f["model"], f["window_max"])
    elif "window_max" in config.params:
        raise ConfigParse("config holds both 'window' and 'window_max'; give one")
    else:
        report = products.window_rate_bound(f["model"], f["window"])
    trace = products.simulate_product(f["model"], steps=f["steps"])
    with contextlib.suppress(InsufficientData):
        report = report.with_empirical(products.fit_empirical_rate(trace))
    final_tau = trace.taus[-1] if trace.taus else 0.0
    stopped_early = not trace.checkpoints or trace.checkpoints[-1] < trace.steps
    converged = stopped_early or final_tau < f["tol"]
    rows = zip(trace.checkpoints, trace.taus, trace.spreads)
    summary = {
        "p": report.scrambling_prob, "alpha": report.min_entry,
        "h": report.window_len, "bound": report.bound,
        "empirical_rate": report.empirical_rate,
        "final_tau": final_tau, "converged": converged, "steps": f["steps"],
    }
    return (summary, ["k", "tau", "spread"], rows,
            EXIT_OK if converged else EXIT_NO_CONVERGENCE)


@_kind("async", matrix=(_late("matrix_from_json"), None),
       graph=(_late("graph_from_json"), None),
       rates=(lambda r: _number(r) if np.isscalar(r) else reals(r), 0.5),
       clock=(_string, "bernoulli"), delta=(_number, 1.0), x0=(reals, None),
       steps=(_integer, 5000), tol=(_number, 1e-8))
def _run_async(config: ExperimentConfig, f: dict):
    if (f["matrix"] is None) == (f["graph"] is None):
        raise ConfigParse("async config needs one of 'matrix' and 'graph'")
    w = (f["matrix"] if f["graph"] is None
         else matrices.StochasticMatrix(graphs.averaging_weights(f["graph"])))
    rates = np.full(w.n, f["rates"]) if np.isscalar(f["rates"]) else f["rates"]
    if f["clock"] == "poisson":
        clocks = agreement.PoissonClocks(rates=rates, seed=config.seed,
                                         delta=f["delta"])
    elif f["clock"] != "bernoulli":
        raise ConfigParse(f"unknown clock kind {f['clock']!r}")
    elif "delta" in config.params:
        raise ConfigParse("'delta' is read only with 'clock': 'poisson'")
    else:
        clocks = agreement.BernoulliClocks(rates=rates, seed=config.seed)
    x0 = np.arange(w.n) / max(w.n - 1, 1) if f["x0"] is None else f["x0"]
    trace = agreement.simulate_async(w, clocks, x0, steps=f["steps"])
    summary = {
        "final_spread": float(trace.spreads[-1]),
        "converged": bool(trace.spreads[-1] < f["tol"]),
        "steps": f["steps"], "tol": f["tol"],
    }
    rows = enumerate(_float_texts(trace.spreads))
    return summary, ["k", "spread"], rows, EXIT_OK


@_kind("lineq", system=(_late("system_blocks_from_json"),),
       graphs=(_list(_late("graph_from_json")),),
       graph_model=(_late("model_from_json"),), window=(_integer, 1),
       max_iters=(_integer, 100000), tol=(_number, 1e-8),
       check_connectivity=(_boolean, True), record_every=(_integer, 1),
       norm_windows=(_integer, 0))
def _run_lineq(config: ExperimentConfig, f: dict):
    system = equations.PartitionedLinearSystem(blocks=f["system"])
    gmodel = equations.GraphSequenceModel(
        graph_set=f["graphs"], model=f["graph_model"], window=f["window"])
    report = equations.run_solver(
        system, gmodel, max_iters=f["max_iters"], tol=f["tol"],
        check_connectivity=f["check_connectivity"],
        record_every=f["record_every"], norm_windows=f["norm_windows"])
    summary = {
        "converged": report.converged, "iterations": report.iterations,
        "disagreement": report.disagreement, "residual": report.residual,
        "solution": report.solution.tolist(),
        "fitted_decay": report.fitted_decay,
        "window_norms": list(report.window_norms),
        "exponential_consistent": report.exponential_consistent,
    }
    return (summary, ["k", "disagreement", "residual"], report.history,
            EXIT_OK if report.converged else EXIT_NO_CONVERGENCE)


def run(config: ExperimentConfig) -> int:
    """Execute one experiment and write its artifacts; returns the exit code."""
    params = {key: value for key, value in config.params.items() if key != "seed"}
    fields = jsonio._fields(params, FIELDS[config.kind], config.kind)
    summary, header, rows, code = _RUNNERS[config.kind](config, fields)
    _write_outputs(config, summary, header, rows)
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: building costs 6x a parse."""
    parser = argparse.ArgumentParser(
        prog="stochprod",
        description="Experiments on random products of stochastic matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a JSON config")
    runp.add_argument("kind", choices=tuple(FIELDS))
    runp.add_argument("--config", required=True)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None)
    runp.add_argument("--trials", type=int, default=None)
    runp.add_argument("--steps", type=int, default=None)
    runp.add_argument("--tol", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = vars(_parser().parse_args(argv))
    del args["command"]  # the flags left are the overrides
    try:
        config = load_config(args.pop("kind"), args.pop("config"), args)
        return run(config)
    except StochprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
