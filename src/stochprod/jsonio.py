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
rejects into a ``ConfigParse`` naming the field.
"""

from __future__ import annotations

from itertools import chain

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


def _integer(value) -> int:
    """``int(value)`` of a JSON integer or integral float (``60000.0``); a
    string, a boolean or a fraction is refused, never parsed or truncated."""
    if isinstance(value, (str, bool)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _number(value) -> float:
    """``float(value)`` of a JSON number, refusing a string or a boolean."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"{value!r} is not a number")
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


def _check_leaves(value):
    """Refuse nested lists with a leaf that is not an int or a float (a
    boolean, a string, null) or with numbers and lists at one depth."""
    level = [value]
    while level:
        kinds = set(map(type, level))
        if kinds <= {int, float}:
            return
        if kinds != {list}:
            raise ValueError(f"{value!r} holds a value that is not a number")
        level = list(chain.from_iterable(level))


def _array(value) -> np.ndarray:
    """Float array of a JSON number or nested lists of numbers."""
    _check_leaves(value)
    return np.asarray(value, dtype=float)


def _matrix(rows) -> StochasticMatrix:
    """Rows past the dtype checks, then refusing booleans among numbers."""
    matrix = StochasticMatrix(rows)
    _check_leaves(rows)
    return matrix


def _edge(value) -> tuple:
    i, j = value
    return _integer(i), _integer(j)


def _block(obj) -> tuple:
    return _field(obj, "A", _array), _field(obj, "b", _array)


def matrix_from_json(obj) -> StochasticMatrix:
    m = _field(obj, "rows", _matrix)
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
        return IIDModel(weights=_field(obj, "weights", _array), **common)
    if variant == "markov":
        return MarkovModulatedModel(initial=_field(obj, "initial", _array),
                                    transition=_field(obj, "transition", _array),
                                    **common)
    if variant == "scripted":
        return ScriptedModel(indices=tuple(_field(obj, "indices", _list(_integer))),
                             **common)
    raise ConfigParse(f"unknown model variant {variant!r}")


def system_blocks_from_json(obj) -> list:
    return _field(obj, "blocks", _list(_block))
