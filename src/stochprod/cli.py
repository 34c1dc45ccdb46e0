"""Reproducible experiment runner.

``stochprod run <kind> --config cfg.json [--seed N] [--out DIR] [--trials N]
[--steps N] [--tol X]`` loads a JSON experiment description, applies the flag
overrides (a flag the kind does not read is a config error, see
``KIND_FLAGS``), dispatches to the library, and writes ``summary.json`` plus
``trace.csv`` into the output directory.  Outputs embed the seed, a hash of
the effective configuration, and the package version; identical (config,
seed) pairs produce byte-identical files.

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
from .errors import ConfigParse, InsufficientData, StochprodError
from .jsonio import _array, _boolean, _field, _integer, _list, _number, _string

__all__ = ["ExperimentConfig", "run", "main"]

# the override flags each kind reads besides --seed and --out (lineq reads
# ``max_iters``, not ``steps``)
KIND_FLAGS = {"certify": ("trials", "steps", "tol"), "product": ("steps", "tol"),
              "async": ("steps", "tol"), "lineq": ("tol",), "classify": ()}
KINDS = tuple(KIND_FLAGS)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3

TRACE_CHUNK = 4096  # trace cells converted to Python floats at once


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
    if kind not in KINDS:
        raise ConfigParse(f"unknown experiment kind {kind!r}; choose from {KINDS}")
    for key, value in overrides.items():
        if value is not None and key not in ("seed", "out") + KIND_FLAGS[kind]:
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
    for key, value in overrides.items():
        if value is not None:
            params[key] = value
    params["seed"] = seed = _field(params, "seed", _integer, 0)
    out_dir = _field(params, "out", _string, "out")
    params.pop("out", None)
    return ExperimentConfig(kind=kind, params=params, seed=seed, out_dir=out_dir)


def _python_floats(values):
    """The entries of a float array as Python floats, converted
    ``TRACE_CHUNK`` at a time: ``csv`` formats a Python float faster than a
    numpy scalar, and one ``tolist()`` of a long trace would hold every cell
    as an object at once."""
    return itertools.chain.from_iterable(
        values[start:start + TRACE_CHUNK].tolist()
        for start in range(0, len(values), TRACE_CHUNK))


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


def _run_classify(config: ExperimentConfig):
    p = config.params
    mats = _field(p, "matrices", _list(jsonio.matrix_from_json))
    if not mats:
        raise ConfigParse("classify needs a nonempty 'matrices' list")
    # labels are echoed to the outputs as they are, so any JSON values do
    labels = _field(p, "labels", _list(lambda label: label),
                    [f"M{i}" for i in range(len(mats))])
    if len(labels) != len(mats):
        raise ConfigParse("'labels' must be a list with one label per matrix")
    per_matrix = []
    rows = []
    for label, m in zip(labels, mats):
        cls = matrices.classify(m)
        t = matrices.tau(m)
        per_matrix.append({
            "label": label, "tau": t, "scrambling": cls.is_scrambling,
            "sia": cls.is_sia, "markov": cls.is_markov, "period": cls.period,
        })
        rows.append([label, t, cls.is_scrambling, cls.is_sia,
                     cls.is_markov, cls.period])
    header = ["label", "tau", "scrambling", "sia", "markov", "period"]
    return {"matrices": per_matrix}, header, rows, EXIT_OK


def _run_certify(config: ExperimentConfig):
    p = config.params
    system = lyapunov.SwitchedSystem(
        modes=tuple(_field(p, "modes", _list(_array))),
        signal=_field(p, "signal", jsonio.model_from_json))
    v = lyapunov.inf_norm()
    grid = lyapunov.SphereGrid(
        resolution=_field(p, "grid_resolution", _integer, 101), seed=config.seed)
    cert = lyapunov.certify_contraction(
        system, v, horizon_max=_field(p, "horizon_max", _integer, 8), grid=grid)
    x0 = _field(p, "x0", _array, np.ones(system.dimension))
    report = lyapunov.monte_carlo_decay(
        system, v, x0, steps=_field(p, "steps", _integer, 50),
        trials=_field(p, "trials", _integer, 100),
        tol=_field(p, "tol", _number, 1e-8))
    qs = np.quantile(report.history, [0.1, 0.5, 0.9], axis=0)
    means = report.history.mean(axis=0)
    rows = zip(range(means.size), *map(_python_floats, (means, *qs)))
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


def _run_product(config: ExperimentConfig):
    p = config.params
    model = _field(p, "model", jsonio.model_from_json)
    steps = _field(p, "steps", _integer, 10000)
    tol = _field(p, "tol", _number, 1e-8)
    if "window" in p:
        report = products.window_rate_bound(model, _field(p, "window", _integer))
    else:
        report = products.find_scrambling_window(
            model, _field(p, "window_max", _integer, 8))
    trace = products.simulate_product(model, steps=steps)
    with contextlib.suppress(InsufficientData):
        report = report.with_empirical(products.fit_empirical_rate(trace))
    final_tau = trace.taus[-1] if trace.taus else 0.0
    stopped_early = not trace.checkpoints or trace.checkpoints[-1] < trace.steps
    converged = stopped_early or final_tau < tol
    rows = zip(trace.checkpoints, trace.taus, trace.spreads)
    summary = {
        "p": report.scrambling_prob, "alpha": report.min_entry,
        "h": report.window_len, "bound": report.bound,
        "empirical_rate": report.empirical_rate,
        "final_tau": final_tau, "converged": converged, "steps": steps,
    }
    return (summary, ["k", "tau", "spread"], rows,
            EXIT_OK if converged else EXIT_NO_CONVERGENCE)


def _run_async(config: ExperimentConfig):
    p = config.params
    if "matrix" in p:
        w = _field(p, "matrix", jsonio.matrix_from_json)
    elif "graph" in p:
        g = _field(p, "graph", jsonio.graph_from_json)
        w = matrices.StochasticMatrix(graphs.averaging_weights(g))
    else:
        raise ConfigParse("async config needs a 'matrix' or a 'graph'")
    n = w.n
    rates = _field(p, "rates", lambda r: np.full(n, _number(r)) if np.isscalar(r)
                   else _array(r), np.full(n, 0.5))
    clock_kind = _field(p, "clock", _string, "bernoulli")
    if clock_kind == "bernoulli":
        clocks = agreement.BernoulliClocks(rates=rates, seed=config.seed)
    elif clock_kind == "poisson":
        clocks = agreement.PoissonClocks(rates=rates, seed=config.seed,
                                         delta=_field(p, "delta", _number, 1.0))
    else:
        raise ConfigParse(f"unknown clock kind {clock_kind!r}")
    x0 = _field(p, "x0", _array, np.arange(n) / max(n - 1, 1))
    steps = _field(p, "steps", _integer, 5000)
    tol = _field(p, "tol", _number, 1e-8)
    trace = agreement.simulate_async(w, clocks, x0, steps=steps)
    summary = {
        "final_spread": float(trace.spreads[-1]),
        "converged": bool(trace.spreads[-1] < tol),
        "steps": steps, "tol": tol,
    }
    rows = enumerate(_python_floats(trace.spreads))
    return summary, ["k", "spread"], rows, EXIT_OK


def _run_lineq(config: ExperimentConfig):
    p = config.params
    system = equations.PartitionedLinearSystem(
        blocks=tuple(_field(p, "system", jsonio.system_blocks_from_json)))
    gmodel = equations.GraphSequenceModel(
        graph_set=tuple(_field(p, "graphs", _list(jsonio.graph_from_json))),
        model=_field(p, "graph_model", jsonio.model_from_json),
        window=_field(p, "window", _integer, 1))
    report = equations.run_solver(
        system, gmodel,
        max_iters=_field(p, "max_iters", _integer, 100000),
        tol=_field(p, "tol", _number, 1e-8),
        check_connectivity=_field(p, "check_connectivity", _boolean, True),
        record_every=_field(p, "record_every", _integer, 1),
        norm_windows=_field(p, "norm_windows", _integer, 0))
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


_RUNNERS = {
    "classify": _run_classify,
    "certify": _run_certify,
    "product": _run_product,
    "async": _run_async,
    "lineq": _run_lineq,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment and write its artifacts; returns the exit code."""
    summary, header, rows, code = _RUNNERS[config.kind](config)
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
    runp.add_argument("kind", choices=KINDS)
    runp.add_argument("--config", required=True)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None)
    runp.add_argument("--trials", type=int, default=None)
    runp.add_argument("--steps", type=int, default=None)
    runp.add_argument("--tol", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    overrides = {"seed": args.seed, "out": args.out, "trials": args.trials,
                 "steps": args.steps, "tol": args.tol}
    try:
        config = load_config(args.kind, args.config, overrides)
        return run(config)
    except StochprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
