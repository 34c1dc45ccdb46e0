"""The checks every value passes where the package takes it in.

A count is an integer, numpy's included, but not a boolean.  A real array
holds integer and float numbers only, in a full array, and is finite.  A
distribution is a nonempty vector of nonnegative reals summing to 1.  A seed
is a count of at least 0.  This module imports only the package's exception
types, which import nothing, so any module can call it.
"""

from __future__ import annotations

from itertools import chain
from numbers import Integral

import numpy as np

from .errors import DimensionMismatch, InvalidDistribution, NonFiniteEntry

DIST_TOL = 1e-12


def count(value, name: str, least: int | None = None) -> int:
    """``int(value)`` of an integer of at least ``least``, when given; nothing
    is truncated or parsed: anything else raises ``InvalidDistribution``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidDistribution(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidDistribution(f"{name} must be at least {least}")
    return int(value)


def _array(value, dtype=None) -> np.ndarray:
    try:
        return np.asarray(value, dtype)
    except ValueError as exc:  # ragged nested lists
        raise DimensionMismatch(f"entries do not form an array: {exc}") from exc


def reals(value, ndim=None, what="", finite=True) -> np.ndarray:
    """A read-only float64 copy of ``value``: ``DimensionMismatch`` for text,
    a boolean, None, ragged input or other than ``ndim`` axes (``what``
    names the array expected), then ``NonFiniteEntry`` for a NaN or inf if
    ``finite``.  A sequence's leaves are walked: numpy reads [1, True] as ints."""
    a = _array(value)
    if a.dtype.kind not in "iuf":
        raise DimensionMismatch(f"expected numbers, got an array of {a.dtype}")
    leaves = [] if isinstance(value, np.ndarray) else [value]
    for _ in range(a.ndim):
        leaves = list(chain.from_iterable(leaves))
    kinds = set(map(type, leaves))
    if np.ndarray in kinds:  # numpy reads a 0-d array in a list as a scalar
        kinds.update(e.dtype.type for e in leaves if type(e) is np.ndarray)
    if {bool, np.bool_} & kinds:
        raise DimensionMismatch("expected numbers, got a boolean")
    if ndim is not None and a.ndim != ndim:
        raise DimensionMismatch(f"expected {what}, got shape {a.shape}")
    x = np.array(a, dtype=float)
    if finite and not np.isfinite(x).all():
        rows = x.reshape(len(x) if x.ndim else 1, -1)  # vector entry i: (i, 0)
        i, j = np.argwhere(~np.isfinite(rows))[0].tolist()
        raise NonFiniteEntry(i, j, float(rows[i, j]))
    x.flags.writeable = False
    return x


def square(value, dtype=bool, ndim=2, finite=True) -> np.ndarray:
    """``value`` as an array of ``dtype`` (``reals`` for float, None keeps
    numpy's) of ``ndim`` axes, the last two alike, or DimensionMismatch."""
    a = (reals(value, ndim, "a square array", finite) if dtype is float
         else _array(value, dtype))
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square array, got shape {a.shape}")
    return a


def distribution(vec, what: str) -> np.ndarray:
    """``reals`` of a probability vector, or ``InvalidDistribution`` for an
    empty one, a NaN, a negative entry or a sum off 1 by over ``DIST_TOL``."""
    v = reals(vec, 1, f"a vector of {what}", finite=False)
    if not (v.size and (v >= 0).all() and abs(v.sum() - 1.0) <= DIST_TOL):
        raise InvalidDistribution(f"{what} is not a distribution: {v.tolist()}")
    return v


def seed(value) -> int:
    """A seed: an integer of at least 0, as numpy's generators take."""
    if count(value, "seed") < 0:
        raise InvalidDistribution(f"seed must be nonnegative, got {value}")
    return int(value)
