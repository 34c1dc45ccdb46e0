"""JSON encoding of the domain objects used by the experiment runner.

Schemas:

* matrix   ``{"n": int, "rows": [[...], ...]}``
* graph    ``{"n": int, "edges": [[i, j], ...]}``  (0-based vertices)
* model    ``{"variant": "iid" | "markov" | "scripted", "seed": int,
             "set": [matrix, ...]?, "weights": [...]? ,
             "initial": [...]?, "transition": [[...], ...]?,
             "indices": [...]?}``
* system   ``{"blocks": [{"A": [[...], ...], "b": [...]}, ...]}``
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigParse
from .graphs import DirectedGraph
from .matrices import StochasticMatrix
from .sequences import (
    FiniteMatrixSet,
    IIDModel,
    MarkovModulatedModel,
    ScriptedModel,
    SequenceModel,
)

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "graph_to_json",
    "graph_from_json",
    "model_from_json",
    "model_to_json",
    "system_blocks_from_json",
]


def matrix_to_json(matrix: StochasticMatrix) -> dict:
    return {"n": matrix.n, "rows": matrix.entries.tolist()}


def _integer(value) -> int:
    """``int(value)``, refusing a string, a JSON boolean and a float with a
    fractional part rather than parsing or truncating it; an integral float
    such as ``60000.0`` is read as is."""
    if isinstance(value, (str, bool)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _number(value) -> float:
    """``float(value)`` of a JSON number, refusing a string or a boolean."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _array(value) -> np.ndarray:
    """Float array of a JSON number or nested lists of numbers, refusing a
    string or a boolean anywhere in it."""
    cells = np.asarray(value, dtype=object)
    if any(isinstance(c, (str, bool)) for c in cells.flat):
        raise ValueError(f"{value!r} holds a string or a boolean")
    return cells.astype(float)


def _field(params: dict, key: str, convert, default=None):
    """``convert(params[key])``, ``default`` standing in for an absent key
    unless None; a value ``convert`` rejects raises ``ConfigParse``."""
    value = params[key] if default is None else params.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigParse(f"config field {key!r}: bad value {value!r}") from exc


def matrix_from_json(obj) -> StochasticMatrix:
    try:
        rows = obj["rows"]
    except (TypeError, KeyError) as exc:
        raise ConfigParse("matrix object needs a 'rows' field") from exc
    m = StochasticMatrix(rows)
    if "n" in obj and _field(obj, "n", _integer) != m.n:
        raise ConfigParse(f"matrix declares n={obj['n']} but has {m.n} rows")
    return m


def graph_to_json(graph: DirectedGraph) -> dict:
    return {"n": graph.n, "edges": sorted(map(list, graph.edges))}


def graph_from_json(obj) -> DirectedGraph:
    try:
        return DirectedGraph(_integer(obj["n"]), frozenset(
            (_integer(i), _integer(j)) for i, j in obj["edges"]))
    except (TypeError, KeyError, ValueError) as exc:
        raise ConfigParse(f"bad graph object: {exc}") from exc


def model_from_json(obj, matrix_set: FiniteMatrixSet | None = None) -> SequenceModel:
    try:
        variant = obj["variant"]
    except (TypeError, KeyError) as exc:
        raise ConfigParse("model object needs a 'variant' field") from exc
    seed = _field(obj, "seed", _integer, 0)
    if matrix_set is None and obj.get("set"):
        matrix_set = FiniteMatrixSet(
            tuple(matrix_from_json(m) for m in obj["set"]))
    try:
        if variant == "iid":
            return IIDModel(weights=_field(obj, "weights", _array),
                            seed=seed, matrix_set=matrix_set)
        if variant == "markov":
            return MarkovModulatedModel(
                initial=_field(obj, "initial", _array),
                transition=_field(obj, "transition", _array),
                seed=seed, matrix_set=matrix_set)
        if variant == "scripted":
            return ScriptedModel(indices=tuple(map(_integer, obj["indices"])),
                                 seed=seed, matrix_set=matrix_set)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParse(f"bad {variant!r} model object: {exc}") from exc
    raise ConfigParse(f"unknown model variant {variant!r}")


def model_to_json(model: SequenceModel, include_set: bool = True) -> dict:
    out: dict = {"seed": model.seed}
    if isinstance(model, IIDModel):
        out.update(variant="iid", weights=model.weights.tolist())
    elif isinstance(model, MarkovModulatedModel):
        out.update(variant="markov", initial=model.initial.tolist(),
                   transition=model.transition.tolist())
    elif isinstance(model, ScriptedModel):
        out.update(variant="scripted", indices=list(model.indices))
    else:
        raise ConfigParse(f"cannot serialize model type {type(model).__name__}")
    if include_set and model.matrix_set is not None:
        out["set"] = [matrix_to_json(m) for m in model.matrix_set.matrices]
    return out


def system_blocks_from_json(obj) -> list:
    try:
        return [(_array(blk["A"]), _array(blk["b"])) for blk in obj["blocks"]]
    except (TypeError, KeyError, ValueError) as exc:
        raise ConfigParse(f"bad system object: {exc}") from exc
