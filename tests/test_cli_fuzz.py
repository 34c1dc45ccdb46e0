"""Generative test of the CLI's input boundary.

Each example takes one of the golden configs under ``tests/data`` and
replaces or deletes one or two of its JSON values, then runs ``cli.main`` in
process.  Whatever the config holds, the run either succeeds (exit 0 or 3)
or fails with exit 2 and a one-line ``error: `` message, leaving no output
directory; no exception escapes.  Size fields get small values only, so
each example stays fast.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochprod import cli

DATA = os.path.join(os.path.dirname(__file__), "data")


def _golden(name):
    with open(os.path.join(DATA, name, "summary.json")) as fh:
        kind = json.load(fh)["kind"]
    with open(os.path.join(DATA, name, "config.json")) as fh:
        return kind, json.load(fh)


GOLDENS = {name: _golden(name) for name in sorted(os.listdir(DATA))}

# fields whose value sets the amount of work; they are replaced by small
# values only and never deleted, since their defaults are large
SIZE_FIELDS = {"steps", "trials", "max_iters", "window", "window_max",
               "horizon_max", "grid_resolution", "norm_windows",
               "record_every", "n"}


def json_values(numbers):
    scalars = st.none() | st.booleans() | numbers | st.text(max_size=3)
    keys = st.sampled_from(["rows", "edges", "variant", "weights", "blocks",
                            "A", "b", "x"])
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(keys, inner, max_size=2),
                        max_leaves=6)


SMALL = st.integers(-3, 12) | st.floats(-10, 10, allow_nan=False)
VALUES = json_values(SMALL | st.sampled_from([1e308, -1e308]))
SIZES = json_values(SMALL)


@st.composite
def mutated_goldens(draw):
    """(kind, config) of a golden config with one or two values replaced or
    deleted; the value to change is found by descending from the top, one
    random child at a time."""
    kind, config = copy.deepcopy(GOLDENS[draw(st.sampled_from(sorted(GOLDENS)))])
    for _ in range(draw(st.integers(1, 2))):
        parent, key, field = None, None, None
        node = config
        while isinstance(node, (dict, list)) and node and (
                parent is None or draw(st.booleans())):
            parent = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            field = key if isinstance(node, dict) else field
            node = node[key]
        if parent is None:
            continue
        if field not in SIZE_FIELDS and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(SIZES if field in SIZE_FIELDS else VALUES)
    return kind, config


def run_in_temp_dir(kind, config):
    """Exit code and stderr of ``stochprod run`` on ``config`` in a fresh
    directory, with ``--out`` unless the config names its own ``out``; on
    exit 2 nothing but the config is left there."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = ["run", kind, "--config", path]
        if "out" not in config:
            argv += ["--out", os.path.join(tmp, "o")]
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        if code == cli.EXIT_VALIDATION:
            assert os.listdir(tmp) == ["c.json"]
    return code, err.getvalue()


def _golden_with(name, path, value):
    kind, config = copy.deepcopy(GOLDENS[name])
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return kind, config


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(mutated_goldens())
@example(_golden_with("readme_product", ("model", "set"), 0.5))
@example(_golden_with("lineq_converged", ("graphs",), True))
@example(_golden_with("certify_markov", ("modes",),
                      [1e308, [[0.5, 0.0], [0.0, 0.5]]]))
@example(_golden_with("readme_product", ("out",), 5))
@example(_golden_with("readme_product", ("out",), ["x"]))
@example(_golden_with("readme_product", ("out",), ""))
def test_mutated_golden_configs_exit_cleanly(run):
    code, err = run_in_temp_dir(*run)
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NO_CONVERGENCE)
    if code == cli.EXIT_VALIDATION:
        assert err.startswith("error: ") and err.count("\n") == 1
