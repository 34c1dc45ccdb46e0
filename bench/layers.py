"""Per-layer tracing of ``stochprod`` from outside the package.

``Tracer.install`` replaces every public function of every ``stochprod``
module (each module-level function without a leading underscore that the
module defines) with
a wrapper that counts calls and measures self time: the span's duration
minus the time of the wrapped calls made inside it.  The wrapper is put in
every namespace of the package that holds the function, so calls through
re-exports and ``from .x import y`` bindings are traced too.
``Tracer.uninstall`` puts the originals back.

Counts the functions cannot report themselves (words enumerated, steps
simulated, events) are computed after each pass from the recorded
arguments and results of a few functions, so the spans stay cheap.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from functools import wraps

import numpy as np

# layer name -> function names grouped under it; other functions are
# their own layer, named module.function
GROUPS = {"jsonio.parse": ("matrix_from_json", "graph_from_json",
                           "model_from_json", "system_blocks_from_json")}

# the operation boundary itself, timed by the benchmark as op_s
UNTRACED = ("cli.main",)

RECORDED = ("sequences.window_starts", "sequences.window_class_probability",
            "products.simulate_product", "agreement.simulate_async",
            "lyapunov.certify_contraction", "lyapunov.monte_carlo_decay")

# (metric, unit) reported by a traced run, in BENCHMARK.json order
LAYER_METRICS = (
    ("sequences.window_class_probability.calls", "count"),
    ("sequences.window_class_probability.self_s", "s"),
    ("sequences.window_starts.count", "count"),
    ("sequences.words", "count"),
    ("products.window_rate_bound.calls", "count"),
    ("products.window_rate_bound.self_s", "s"),
    ("products.find_scrambling_window.self_s", "s"),
    ("equations.window_connectivity_probability.self_s", "s"),
    ("graphs.strongly_connected_components.calls", "count"),
    ("graphs.strongly_connected_components.self_s", "s"),
    ("lyapunov.certify_contraction.self_s", "s"),
    ("lyapunov.continuations", "count"),
    ("matrices.tau.calls", "count"),
    ("matrices.tau.self_s", "s"),
    ("matrices.classify.self_s", "s"),
    ("products.simulate_product.self_s", "s"),
    ("products.steps", "count"),
    ("sequences.sample.calls", "count"),
    ("sequences.sample.self_s", "s"),
    ("products.fit_empirical_rate.self_s", "s"),
    ("agreement.simulate_async.self_s", "s"),
    ("agreement.events", "count"),
    ("matrices.spread.calls", "count"),
    ("agreement.events_per_tick", "ratio"),
    ("lyapunov.monte_carlo_decay.self_s", "s"),
    ("lyapunov.mc_steps", "count"),
    ("equations.step.calls", "count"),
    ("equations.step.self_s", "s"),
    ("graphs.adjacency.calls", "count"),
    ("graphs.adjacency.self_s", "s"),
    ("equations.run_solver.self_s", "s"),
    ("equations.error_transition.calls", "count"),
    ("equations.error_transition.self_s", "s"),
    ("equations.kernel_projections.self_s", "s"),
    ("cli.load_config.self_s", "s"),
    ("jsonio.parse.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
)


def _layer_of(module_short, func_name):
    for layer, names in GROUPS.items():
        if layer.split(".")[0] == module_short and func_name in names:
            return layer
    return f"{module_short}.{func_name}"


class Tracer:
    """Wraps the package's public functions; collects per-layer calls and
    self time until ``take`` hands them over and starts afresh."""

    def __init__(self, package):
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        self._patches = []
        self.calls = {}
        self.self_s = {}
        self.records = {name: [] for name in RECORDED}
        self._child = []

    def _wrap(self, layer, fn):
        calls, self_s, child = self.calls, self.self_s, self._child
        record = self.records.get(layer)
        calls.setdefault(layer, 0)
        self_s.setdefault(layer, 0.0)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                inner = child.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - inner
                if child:
                    child[-1] += elapsed
                if record is not None:
                    record.append((args, kwargs, result, error))
        return traced

    def install(self):
        wrappers = {}
        for mod in self.modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(mod).items()):
                layer = _layer_of(short, name)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and layer not in UNTRACED):
                    wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrappers[id(value)][1])

    def uninstall(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches = []

    def take(self):
        """Per-layer calls, self times and derived counts since the last
        take; resets the collectors."""
        calls, self_s = dict(self.calls), dict(self.self_s)
        counts = derived_counts(self.records)
        # the wrappers hold these containers, so clear them in place
        for layer in self.calls:
            self.calls[layer] = 0
            self.self_s[layer] = 0.0
        for record in self.records.values():
            record.clear()
        return calls, self_s, counts


# -------------------------------------------------------------- derived counts

def _bound(fn_name, args, kwargs):
    import stochprod
    module, name = fn_name.split(".")
    fn = getattr(getattr(stochprod, module), name)
    fn = inspect.unwrap(fn)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _support(model):
    m = model.num_symbols
    return np.array([np.asarray(model.step_distribution(s)) > 0
                     for s in range(m)], dtype=np.int64)


def _paths(first_support, support, length):
    """Number of positive-probability words of the given length."""
    v = np.asarray(first_support, dtype=np.int64)
    for _ in range(length - 1):
        v = v @ support
    return int(v.sum())


def _window_words(model, start, h):
    from stochprod.sequences import ScriptedModel
    if isinstance(model, ScriptedModel):
        return 1
    first = np.asarray(model.start_distribution(start)) > 0
    return _paths(first, _support(model), h)


def _continuations(system, horizons):
    """Mode continuations a certificate search enumerates: every
    positive-probability word of each length up to ``horizons``, from each
    current mode."""
    signal = system.signal
    support = _support(signal)
    return sum(_paths(np.asarray(signal.step_distribution(mode)) > 0, support, h)
               for mode in range(system.num_modes)
               for h in range(1, horizons + 1))


def derived_counts(records):
    from stochprod.products import default_checkpoints

    counts = {"sequences.window_starts.count": 0, "sequences.words": 0,
              "lyapunov.continuations": 0, "products.steps": 0,
              "agreement.events": 0, "lyapunov.mc_steps": 0}
    for args, kwargs, result, error in records["sequences.window_starts"]:
        if error is None:
            counts["sequences.window_starts.count"] += len(result)
    for args, kwargs, result, error in records["sequences.window_class_probability"]:
        a = _bound("sequences.window_class_probability", args, kwargs)
        counts["sequences.words"] += _window_words(a["model"], a["start"], a["h"])
    for args, kwargs, result, error in records["lyapunov.certify_contraction"]:
        a = _bound("lyapunov.certify_contraction", args, kwargs)
        horizons = result.horizon if error is None else int(a["horizon_max"])
        counts["lyapunov.continuations"] += _continuations(a["system"], horizons)
    for args, kwargs, result, error in records["products.simulate_product"]:
        if error is not None:
            continue
        a = _bound("products.simulate_product", args, kwargs)
        cps = a["checkpoints"] or default_checkpoints(result.steps)
        cps = sorted(c for c in set(cps) if 1 <= c <= result.steps)
        last = result.checkpoints[-1] if result.checkpoints else 0
        # the run ends at its last step, or at the first checkpoint past the
        # last recorded one, where tau fell below the floor
        counts["products.steps"] += next((c for c in cps if c > last), last)
    ticks = 0.0
    for args, kwargs, result, error in records["agreement.simulate_async"]:
        if error is not None:
            continue
        a = _bound("agreement.simulate_async", args, kwargs)
        events = len(result.spreads) - 1
        q = 1.0 - float(np.prod(1.0 - a["clocks"].activation_probabilities()))
        counts["agreement.events"] += events
        ticks += events / q
    counts["agreement.events_per_tick"] = (
        counts["agreement.events"] / ticks if ticks else 0.0)
    for args, kwargs, result, error in records["lyapunov.monte_carlo_decay"]:
        a = _bound("lyapunov.monte_carlo_decay", args, kwargs)
        counts["lyapunov.mc_steps"] += int(a["steps"]) * int(a["trials"])
    return counts
