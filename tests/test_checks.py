"""The boundary checks of ``stochprod._checks``: ``reals`` either returns the
float64 array numpy would make of its input, as a read-only copy, or raises
a ``StochprodError``; and the module stays a leaf that any module can
import."""

import ast
import os

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochprod import _checks
from stochprod.errors import DimensionMismatch, NonFiniteEntry, StochprodError

SRC = os.path.dirname(_checks.__file__)

NUMBERS = (st.integers(-2**70, 2**70) | st.floats()
           | st.floats().map(np.float64) | st.integers(-9, 9).map(np.int64))
NOT_NUMBERS = (st.booleans() | st.booleans().map(np.bool_) | st.none()
               | st.text(max_size=2))
LEAVES = NUMBERS | NOT_NUMBERS


@st.composite
def nested(draw):
    """A scalar, or nested lists of 1-3 items at 1-3 depths (ragged when a
    row draws its own width), some of whose rows are arrays, or one array
    of the whole."""
    depth = draw(st.integers(0, 3))
    width = draw(st.integers(0, 3))

    def build(level):
        if level == depth:
            return draw(LEAVES)
        size = draw(st.integers(0, 3)) if draw(st.booleans()) else width
        row = [build(level + 1) for _ in range(size)]
        if level and draw(st.integers(0, 3)) == 0:
            try:
                return np.array(row)
            except ValueError:
                pass
        return row

    value = build(0)
    if draw(st.booleans()):
        try:
            value = np.array(value)
        except ValueError:
            pass
    return value


def leaves(value):
    """The leaves of nested lists and arrays, and every array among them."""
    if isinstance(value, np.ndarray):
        return value.ravel().tolist() if value.dtype != object else [
            leaf for item in value.ravel() for leaf in leaves(item)], [value]
    if isinstance(value, list):
        out, arrays = [], []
        for item in value:
            more, found = leaves(item)
            out += more
            arrays += found
        return out, arrays
    return [value], []


@settings(max_examples=300, deadline=None)
@given(nested())
@example([1.0, True])
@example([[1, 0], [np.True_, 0]])
@example([np.array([1.0, 0.0]), np.array([True, False])])
@example([[0.5], [0.5, 0.5]])
@example([2**70])
@example(np.array([1.0, np.nan]))
def test_reals_returns_numpys_floats_or_refuses(value):
    arrays = leaves(value)[1]
    flags = [a.flags.writeable for a in arrays]
    try:
        got = _checks.reals(value)
    except StochprodError:
        got = None
    assert [a.flags.writeable for a in arrays] == flags
    if got is None:
        return
    want = np.array(value, dtype=float)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable and np.isfinite(got).all()
    assert not any(isinstance(a, np.ndarray) and np.shares_memory(got, a)
                   for a in [value, *arrays])
    # a boolean, a string or None anywhere is refused, however numpy reads it
    assert not any(isinstance(leaf, (bool, np.bool_, str, type(None)))
                   for leaf in leaves(value)[0])


@given(st.lists(NUMBERS | st.booleans(), min_size=1, max_size=4))
def test_reals_refuses_exactly_booleans_and_non_finite_numbers(row):
    kinds = {type(v) for v in row}
    floats = np.array([float(v) for v in row])
    if bool in kinds:
        expected = DimensionMismatch
    elif np.asarray(row).dtype == object:
        expected = DimensionMismatch  # an int past 64 bits among the rest
    elif not np.isfinite(floats).all():
        expected = NonFiniteEntry
    else:
        assert _checks.reals(row).tolist() == floats.tolist()
        return
    try:
        _checks.reals(row)
    except expected:
        return
    raise AssertionError(f"{row!r} not refused with {expected.__name__}")


def _package_imports(path):
    """The package modules a source file imports, by relative name."""
    tree = ast.parse(open(path).read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("stochprod")):
            found.add(node.module or "")
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names
                      if a.name.startswith("stochprod")}
    return found


def test_checks_is_a_leaf_module():
    # _checks takes only the exception types, which import nothing, so any
    # module can call it without an import cycle
    assert _package_imports(os.path.join(SRC, "_checks.py")) == {"errors"}
    assert _package_imports(os.path.join(SRC, "errors.py")) == set()
