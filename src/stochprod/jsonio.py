"""Reading the domain objects of an experiment config from parsed JSON.

Schemas:

* matrix   ``{"n": int, "rows": [[...], ...]}``
* graph    ``{"n": int, "edges": [[i, j], ...]}``  (0-based vertices)
* model    ``{"variant": "iid" | "markov" | "scripted", "seed": int,
             "set": [matrix, ...]?, "weights": [...]? ,
             "initial": [...]?, "transition": [[...], ...]?,
             "indices": [...]?}``
* system   ``{"blocks": [{"A": [[...], ...], "b": [...]}, ...]}``

Every field is read by ``_field``, which turns a value its converter
rejects into a ``ConfigParse`` naming the field.  Numbers and nested lists
of them are read by ``_checks.reals``, whose ``DimensionMismatch`` (text, a
boolean, null, ragged lists) ``_field`` reports with the field's name; its
``NonFiniteEntry`` for a number past the float range (``1e400``) and the
library's own refusals pass through unchanged.
"""

from __future__ import annotations

import math

from ._checks import reals
from .errors import ConfigParse, DimensionMismatch
from .graphs import DirectedGraph
from .matrices import StochasticMatrix
from .sequences import (
    FiniteMatrixSet,
    IIDModel,
    MarkovModulatedModel,
    ScriptedModel,
    SequenceModel,
)

__all__ = ["matrix_from_json", "graph_from_json", "model_from_json",
           "system_blocks_from_json"]

_REQUIRED = object()


def _field(params, key: str, convert, default=_REQUIRED):
    """``convert(params[key])``, or ``default`` (already typed) for an absent
    key that is not required; ``ConfigParse`` for a ``params`` that is not an
    object, a missing required key or a value ``convert`` rejects."""
    if not isinstance(params, dict):
        raise ConfigParse(f"expected an object with field {key!r}, got {params!r}")
    if key not in params:
        if default is _REQUIRED:
            raise ConfigParse(f"config missing field {key!r}")
        return default
    value = params[key]
    try:
        return convert(value)
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ConfigParse(f"config field {key!r}: bad value {value!r}") from exc
    except DimensionMismatch as exc:  # not numbers, or not of their shape
        raise ConfigParse(f"config field {key!r}: bad value {value!r}: {exc}") from exc


def _integer(value) -> int:
    """``int(value)`` of a JSON integer or integral float (``60000.0``); a
    string, a boolean or a fraction is refused, never parsed or truncated."""
    if isinstance(value, (str, bool)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _number(value) -> float:
    """``float(value)`` of a finite JSON number, refusing a string, a boolean
    or a number too large for a float (``1e400`` parses to ``inf``)."""
    if isinstance(value, (str, bool)) or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _boolean(value) -> bool:
    """A JSON ``true`` or ``false``, refusing anything else."""
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not true or false")
    return value


def _string(value) -> str:
    """A nonempty JSON string."""
    if not isinstance(value, str) or not value:
        raise TypeError(f"{value!r} is not a nonempty string")
    return value


def _list(convert):
    """Converter of a JSON list that converts it item by item."""
    def read(value) -> list:
        if not isinstance(value, list):
            raise TypeError(f"{value!r} is not a list")
        return [convert(item) for item in value]
    return read


def _edge(value) -> tuple:
    i, j = value
    return _integer(i), _integer(j)


def _block(obj) -> tuple:
    return _field(obj, "A", reals), _field(obj, "b", reals)


def matrix_from_json(obj) -> StochasticMatrix:
    m = _field(obj, "rows", StochasticMatrix)
    if _field(obj, "n", _integer, m.n) != m.n:
        raise ConfigParse(f"matrix declares n={obj['n']} but has {m.n} rows")
    return m


def graph_from_json(obj) -> DirectedGraph:
    return DirectedGraph(_field(obj, "n", _integer),
                         frozenset(_field(obj, "edges", _list(_edge))))


def model_from_json(obj) -> SequenceModel:
    variant = _field(obj, "variant", _string)
    mats = _field(obj, "set", _list(matrix_from_json), [])
    common = {"seed": _field(obj, "seed", _integer, 0),
              "matrix_set": FiniteMatrixSet(tuple(mats)) if mats else None}
    if variant == "iid":
        return IIDModel(weights=_field(obj, "weights", reals), **common)
    if variant == "markov":
        return MarkovModulatedModel(initial=_field(obj, "initial", reals),
                                    transition=_field(obj, "transition", reals),
                                    **common)
    if variant == "scripted":
        return ScriptedModel(indices=tuple(_field(obj, "indices", _list(_integer))),
                             **common)
    raise ConfigParse(f"unknown model variant {variant!r}")


def system_blocks_from_json(obj) -> list:
    return _field(obj, "blocks", _list(_block))
