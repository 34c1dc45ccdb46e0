import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import stochprod as sp
from stochprod import cli, jsonio, lyapunov, sequences
from stochprod.errors import ConfigParse

CHAIN3 = [[0.0, 0.4, 0.6], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
SCRAM = [[0.2, 0.8], [0.5, 0.5]]


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(kind, cfg_path, out_dir, *extra):
    return cli.main(["run", kind, "--config", cfg_path, "--out", str(out_dir),
                     *extra])


def read_outputs(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "trace.csv")) as fh:
        lines = fh.read().strip().splitlines()
    return summary, lines


class TestClassify:
    def test_classifies_chain_and_averager(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "matrices": [{"n": 3, "rows": CHAIN3},
                         {"n": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]}],
            "labels": ["chain", "avg"], "seed": 1})
        out = tmp_path / "out"
        assert run_cli("classify", cfg, out) == 0
        summary, lines = read_outputs(out)
        chain, avg = summary["results"]["matrices"]
        assert chain == {"label": "chain", "tau": 1.0, "scrambling": False,
                         "sia": False, "markov": False, "period": 2}
        assert avg["scrambling"] and avg["sia"] and avg["markov"]
        assert lines[0] == "label,tau,scrambling,sia,markov,period"
        assert len(lines) == 3

    def test_envelope_fields(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "matrices": [{"n": 2, "rows": SCRAM}], "seed": 17})
        out = tmp_path / "out"
        run_cli("classify", cfg, out)
        summary, _ = read_outputs(out)
        assert summary["seed"] == 17
        assert summary["version"] == sp.__version__
        assert len(summary["config_hash"]) == 64


class TestCertify:
    def test_two_step_certificate(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "modes": [[[0.2, 0], [0, 1]], [[1, 0], [0, 0.8]], [[1, 0], [0, 0.6]]],
            "signal": {"variant": "markov", "initial": [1, 0, 0],
                       "transition": CHAIN3, "seed": 5},
            "horizon_max": 4, "steps": 40, "trials": 20, "seed": 5})
        out = tmp_path / "out"
        assert run_cli("certify", cfg, out) == 0
        summary, lines = read_outputs(out)
        cert = summary["results"]["certificate"]
        assert cert["T"] == 2
        assert cert["alpha"] >= 0.3 - 1e-9
        assert cert["supermartingale_ok"]
        assert lines[0] == "k,mean_V,q10,q50,q90"
        assert len(lines) == 42  # header + steps + initial row


    def test_signal_with_fewer_symbols_than_modes(self, tmp_path, capfd):
        # only mode 0, diag(0.6, 1), is ever taken: no horizon contracts
        with open(os.path.join(DATA, "certify_markov", "config.json")) as fh:
            cfg = json.load(fh)
        cfg["signal"] = {"variant": "iid", "weights": [1.0]}
        out = tmp_path / "out"
        assert run_cli("certify", write(tmp_path / "c.json", cfg), out) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: no contraction certificate up to horizon 4")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("horizon_max", [0, -3])
    def test_horizon_max_below_one_refused(self, tmp_path, capfd,
                                           horizon_max):
        # once reported as "no contraction certificate up to horizon -3"
        with open(os.path.join(DATA, "certify_markov", "config.json")) as fh:
            cfg = json.load(fh)
        cfg["horizon_max"] = horizon_max
        out = tmp_path / "out"
        assert run_cli("certify", write(tmp_path / "c.json", cfg), out) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: horizon_max must be at least 1")
        assert "Traceback" not in err and not out.exists()

    def test_search_over_the_image_budget(self, tmp_path, capfd, monkeypatch):
        # the golden certifies at T = 2: 3 and 8 states x 88 points x 2 are
        # each below HORIZON_CELLS, so each horizon is charged that floor
        limit = 2 * lyapunov.HORIZON_CELLS - 1
        monkeypatch.setattr(lyapunov, "IMAGE_LIMIT", limit)
        cfg = os.path.join(DATA, "certify_markov", "config.json")
        out = tmp_path / "out"
        assert run_cli("certify", cfg, out) == 2
        err = capfd.readouterr().err
        assert err.startswith(
            f"error: {limit + 1} image cells up to horizon 2 exceed {limit}")
        assert "Traceback" not in err and not out.exists()

    def test_zero_modes_certify_with_alpha_one(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "modes": [[[0, 0], [0, 0]]], "signal": {"variant": "iid",
                                                    "weights": [1.0]},
            "horizon_max": 2, "steps": 5, "trials": 3})
        out = tmp_path / "out"
        assert run_cli("certify", cfg, out) == 0
        cert = read_outputs(out)[0]["results"]["certificate"]
        assert (cert["T"], cert["alpha"], cert["rate"]) == (1, 1.0, 0.0)


class TestProduct:
    def test_converging_product(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "model": {"variant": "iid", "weights": [0.5, 0.5], "seed": 2,
                      "set": [{"n": 2, "rows": SCRAM},
                              {"n": 2, "rows": [[1, 0], [0, 1]]}]},
            "steps": 4000, "seed": 2})
        out = tmp_path / "out"
        assert run_cli("product", cfg, out) == 0
        summary, lines = read_outputs(out)
        res = summary["results"]
        assert res["p"] == 0.5 and res["h"] == 1
        assert res["bound"] == pytest.approx(0.9)
        assert res["converged"]
        assert lines[0] == "k,tau,spread"

    def test_budget_exhausted_exit_code(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "model": {"variant": "iid", "weights": [0.5, 0.5], "seed": 2,
                      "set": [{"n": 2, "rows": SCRAM},
                              {"n": 2, "rows": [[1, 0], [0, 1]]}]},
            "steps": 8, "seed": 2})
        assert run_cli("product", cfg, tmp_path / "out") == 3


    def test_entry_floor_one_gives_bound_zero(self, tmp_path, capfd):
        # p sums to 1.0000000000000004 here; with alpha = 1 the bound's base
        # was negative, and the run ended in a TypeError traceback
        cfg = write(tmp_path / "c.json", {
            "model": {"variant": "iid", "weights": [0.81304242, 0.18695758],
                      "set": [{"n": 2, "rows": [[0, 1], [0, 1]]},
                              {"n": 2, "rows": [[0, 1], [0, 1]]}]},
            "window": 3})
        assert run_cli("product", cfg, tmp_path / "out") == 0
        assert "Traceback" not in capfd.readouterr().err
        res = read_outputs(tmp_path / "out")[0]["results"]
        assert res["p"] == 1.0 and res["bound"] == 0.0

    @pytest.mark.parametrize("window_max", [0, -3])
    def test_window_max_below_one_refused(self, tmp_path, capfd, window_max):
        # the length-1 window scrambles, yet window_max 0 was once reported
        # as "no scrambling window up to length 0"
        cfg = write(tmp_path / "c.json", {
            "model": {"variant": "iid", "weights": [0.5, 0.5],
                      "set": [{"n": 2, "rows": SCRAM},
                              {"n": 2, "rows": [[1, 0], [0, 1]]}]},
            "window_max": window_max, "steps": 10})
        out = tmp_path / "out"
        assert run_cli("product", cfg, out) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: window length bound must be at least 1")
        assert "Traceback" not in err and not out.exists()

    def test_window_search_over_the_layer_budget(self, tmp_path, capfd,
                                                 monkeypatch):
        # an identity set never scrambles, so a huge window_max would run
        # its walk to the end; lengths 1-11 run 10 layers
        monkeypatch.setattr(sequences, "WINDOW_LAYERS", 10)
        cfg = write(tmp_path / "c.json", {
            "model": {"variant": "iid", "weights": [1.0],
                      "set": [{"n": 2, "rows": [[1, 0], [0, 1]]}]},
            "window_max": 10**9, "steps": 10})
        out = tmp_path / "out"
        assert run_cli("product", cfg, out) == 2
        err = capfd.readouterr().err
        assert err.startswith(
            "error: 11 enumeration layers up to window length 12 exceed 10")
        assert "Traceback" not in err and not out.exists()


class TestAsync:
    def test_rooted_graph_converges(self, tmp_path):
        edges = [[2, 1], [1, 2], [2, 5], [5, 3], [3, 4], [4, 5], [4, 0], [1, 0]]
        cfg = write(tmp_path / "c.json", {
            "graph": {"n": 6, "edges": edges},
            "rates": 0.5, "steps": 4000, "seed": 11})
        out = tmp_path / "out"
        assert run_cli("async", cfg, out) == 0
        summary, lines = read_outputs(out)
        assert summary["results"]["converged"]
        spreads = [float(line.split(",")[1]) for line in lines[1:]]
        assert spreads[-1] < 1e-8
        assert spreads[-1] <= spreads[0]

    def test_sparse_poisson_clocks_run(self, tmp_path):
        # each tick fires with probability about 2e-12; the run draws events
        cfg = write(tmp_path / "c.json", {
            "matrix": {"n": 2, "rows": SCRAM}, "clock": "poisson",
            "rates": 1e-12, "steps": 50, "seed": 4})
        assert run_cli("async", cfg, tmp_path / "out") == 0
        summary, lines = read_outputs(tmp_path / "out")
        assert summary["results"]["steps"] == 50 and len(lines) == 52


class TestLineq:
    def test_two_agent_system(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "system": {"blocks": [{"A": [[1.0, 0.0]], "b": [1.0]},
                                  {"A": [[0.0, 1.0]], "b": [1.0]}]},
            "graphs": [{"n": 2, "edges": [[0, 0], [1, 1], [0, 1], [1, 0]]}],
            "graph_model": {"variant": "iid", "weights": [1.0], "seed": 3},
            "max_iters": 500, "seed": 3})
        out = tmp_path / "out"
        assert run_cli("lineq", cfg, out) == 0
        summary, lines = read_outputs(out)
        res = summary["results"]
        assert res["converged"]
        np.testing.assert_allclose(res["solution"], [1.0, 1.0], atol=1e-7)
        assert lines[0] == "k,disagreement,residual"

    def test_non_convergence_exit_code(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "system": {"blocks": [{"A": [[1.0, 0.0]], "b": [1.0]},
                                  {"A": [[0.0, 1.0]], "b": [1.0]}]},
            "graphs": [{"n": 2, "edges": [[0, 0], [1, 1], [0, 1], [1, 0]]}],
            "graph_model": {"variant": "iid", "weights": [1.0], "seed": 3},
            "max_iters": 2, "seed": 3})
        assert run_cli("lineq", cfg, tmp_path / "out") == 3


class TestRunnerContract:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "model": {"variant": "iid", "weights": [0.5, 0.5], "seed": 9,
                      "set": [{"n": 2, "rows": SCRAM},
                              {"n": 2, "rows": [[1, 0], [0, 1]]}]},
            "steps": 500, "seed": 9})
        for out in ("a", "b"):
            run_cli("product", cfg, tmp_path / out)
        for name in ("summary.json", "trace.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "matrices": [{"n": 2, "rows": SCRAM}], "seed": 1})
        run_cli("classify", cfg, tmp_path / "a")
        run_cli("classify", cfg, tmp_path / "b", "--seed", "2")
        sa, _ = read_outputs(tmp_path / "a")
        sb, _ = read_outputs(tmp_path / "b")
        assert sa["seed"] == 1 and sb["seed"] == 2
        assert sa["config_hash"] != sb["config_hash"]

    def test_missing_config_is_validation_error(self, tmp_path, capsys):
        assert run_cli("classify", str(tmp_path / "nope.json"), tmp_path / "o") == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("classify", str(bad), tmp_path / "o") == 2

    def test_invalid_matrix_is_validation_error(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "matrices": [{"n": 2, "rows": [[0.2, 0.0], [0.0, 1.0]]}], "seed": 1})
        assert run_cli("classify", cfg, tmp_path / "o") == 2


class TestJsonReaders:
    SET = [{"n": 2, "rows": SCRAM}, {"n": 2, "rows": [[1, 0], [0, 1]]}]

    def test_model_variants_from_json(self):
        iid = jsonio.model_from_json({"variant": "iid", "seed": 4,
                                      "weights": [0.25, 0.75], "set": self.SET})
        markov = jsonio.model_from_json({
            "variant": "markov", "initial": [1, 0],
            "transition": [[0.5, 0.5], [1.0, 0.0]]})
        scripted = jsonio.model_from_json({"variant": "scripted", "seed": 4,
                                           "indices": [0, 1, 1.0]})
        assert type(iid) is sp.IIDModel and iid.seed == 4
        np.testing.assert_array_equal(iid.weights, [0.25, 0.75])
        assert [m.entries.tolist() for m in iid.matrix_set.matrices] == [
            SCRAM, [[1.0, 0.0], [0.0, 1.0]]]
        assert type(markov) is sp.MarkovModulatedModel
        assert markov.seed == 0 and markov.matrix_set is None
        np.testing.assert_array_equal(markov.transition, [[0.5, 0.5], [1, 0]])
        assert type(scripted) is sp.ScriptedModel
        assert scripted.indices == (0, 1, 1) and scripted.seed == 4
        for model, direct in (
            (iid, sp.IIDModel(weights=[0.25, 0.75], seed=4)),
            (markov, sp.MarkovModulatedModel(
                initial=[1, 0], transition=[[0.5, 0.5], [1.0, 0.0]])),
            (scripted, sp.ScriptedModel(indices=(0, 1, 1), seed=4)),
        ):
            assert np.array_equal(model.stream()(64),
                                  direct.stream()(64))

    def test_graph_from_json(self):
        g = jsonio.graph_from_json({"n": 3, "edges": [[0, 1], [1, 2], [2, 0],
                                                      [1, 1]]})
        assert g == sp.DirectedGraph(3, frozenset({(0, 1), (1, 2), (2, 0),
                                                   (1, 1)}))

    def test_missing_field_is_named(self):
        with pytest.raises(ConfigParse, match="config missing field 'edges'"):
            jsonio.graph_from_json({"n": 3})
        with pytest.raises(ConfigParse, match="expected an object"):
            jsonio.model_from_json([1])


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("name,kind", [("readme_product", "product"),
                                       ("async_periodic_graph", "async"),
                                       ("lineq_converged", "lineq"),
                                       ("lineq_exhausted", "lineq"),
                                       ("certify_markov", "certify"),
                                       ("product_markov", "product"),
                                       ("async_poisson", "async"),
                                       ("classify_periods", "classify"),
                                       ("lineq_markov", "lineq")])
def test_golden_outputs(tmp_path, name, kind):
    # each case was recorded before the change it guards: product and async
    # (a zero-diagonal, periodic graph) before the averaging builder moved to
    # graphs; lineq before the solver moved to plain arrays, one run
    # converging with record_every 7 and two norm windows, one stopping at
    # max_iters 23, off its record_every 5 grid; a Markov-signal certify
    # with 24 trials, a Markov-modulated product and a Poisson-clock async
    # run before the sampling and simulation loops were batched; a classify
    # run over periods 1 to 28 (cycles of lengths 4 and 6, periodic and
    # nilpotent transient classes, zero diagonals, a sparse n = 120 matrix)
    # before the period came from the strongly connected components; a
    # lineq run over a Markov graph signal (window 2, two norm windows)
    # converging after 2,958 iterations, past the solver's 1,024- and
    # 2,048-index draws, before those draws became lazy.  The two async runs
    # were re-recorded when runs began drawing events instead of clock
    # ticks, and the two product runs when the product began carrying its
    # row differences, whose tau has no rounding floor near 1e-14
    case = os.path.join(DATA, name)
    code = run_cli(kind, os.path.join(case, "config.json"), tmp_path)
    assert code == (3 if name == "lineq_exhausted" else 0)
    for fname in ("summary.json", "trace.csv"):
        with open(os.path.join(case, fname), "rb") as fh:
            assert (tmp_path / fname).read_bytes() == fh.read()


def test_graph_vertex_without_in_neighbor_is_validation_error(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", {
        "graph": {"n": 3, "edges": [[0, 1], [1, 0], [2, 0]]}, "seed": 1})
    assert run_cli("async", cfg, tmp_path / "o") == 2
    assert "vertex 2 has no in-neighbor" in capsys.readouterr().err


TINY_CONFIGS = {
    "classify": {"matrices": [{"n": 2, "rows": SCRAM}]},
    "certify": {"modes": [[[0.5, 0], [0, 0.5]]],
                "signal": {"variant": "iid", "weights": [1.0]},
                "horizon_max": 2, "grid_resolution": 5, "steps": 5, "trials": 2},
    "product": {"model": {"variant": "iid", "weights": [1.0],
                          "set": [{"n": 2, "rows": SCRAM}]}, "steps": 8},
    "async": {"matrix": {"n": 2, "rows": SCRAM}, "steps": 8},
    "lineq": {"system": {"blocks": [{"A": [[1.0, 0.0]], "b": [1.0]},
                                    {"A": [[0.0, 1.0]], "b": [1.0]}]},
              "graphs": [{"n": 2, "edges": [[0, 0], [1, 1], [0, 1], [1, 0]]}],
              "graph_model": {"variant": "iid", "weights": [1.0]},
              "max_iters": 50},
}
FLAG_VALUES = {"--trials": "3", "--steps": "4", "--tol": "1e-6"}


@pytest.mark.parametrize("kind", sorted(TINY_CONFIGS))
@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
def test_override_flags_follow_the_kind_table(tmp_path, capsys, kind, flag):
    cfg = write(tmp_path / "c.json", TINY_CONFIGS[kind])
    code = run_cli(kind, cfg, tmp_path / "o", flag, FLAG_VALUES[flag])
    err = capsys.readouterr().err
    if flag[2:] in cli.KIND_FLAGS[kind]:
        assert code in (0, 3)
    else:
        assert code == 2
        assert f"does not read {flag}" in err
        assert not (tmp_path / "o").exists()


MARKOV_SIGNAL = {"variant": "markov", "initial": [1.0], "transition": [[1.0]]}


# id -> (kind, fields merged into the kind's tiny config, error text)
BAD_FIELDS = {
    "lineq-record_every-0": ("lineq", {"record_every": 0},
                             "record_every must be at least 1"),
    "lineq-max_iters-negative": ("lineq", {"max_iters": -1},
                                 "max_iters must be at least 0"),
    "lineq-norm_windows-text": ("lineq", {"norm_windows": "x"},
                                "'norm_windows': bad value 'x'"),
    "lineq-norm_windows-negative": ("lineq", {"norm_windows": -2},
                                    "norm_windows must be at least 0"),
    "lineq-max_iters-over-cap": ("lineq", {"max_iters": 10**9},
                                 "max_iters must be at most 10000000"),
    # one window's enumeration layers are bounded before the first one runs
    "lineq-window-over-budget": ("lineq", {"window": 10**9},
                                 "999999999 enumeration layers of window "
                                 "length 1000000000 exceed 20000"),
    "product-window-over-budget": ("product", {"window": 1e308},
                                   "enumeration layers of window length "
                                   "10000000000000000"),
    "certify-grid_resolution-negative": ("certify", {"grid_resolution": -1},
                                         "grid sizes must be at least 1"),
    "certify-steps-0-markov": ("certify", {"steps": 0, "signal": MARKOV_SIGNAL},
                               "steps must be at least 1"),
    "certify-trials-0": ("certify", {"trials": 0},
                         "trials must be at least 1"),
    "certify-history-over-cap": ("certify", {"steps": 10**6, "trials": 10},
                                 "trials * (steps + 1) must be at most 10000000"),
    "certify-steps-text": ("certify", {"steps": "abc"},
                           "'steps': bad value 'abc'"),
    "certify-x0-text": ("certify", {"x0": "abc"}, "'x0': bad value 'abc'"),
    "async-delta-text": ("async", {"clock": "poisson", "delta": "x"},
                         "'delta': bad value 'x'"),
    "async-steps-negative": ("async", {"steps": -3},
                             "steps must be at least 0"),
    "async-steps-over-cap": ("async", {"steps": 10**7 + 1},
                             "steps must be at most 10000000"),
    "classify-labels-number": ("classify", {"labels": 5},
                               "'labels': bad value 5"),
    # a falsy labels value is refused, not replaced by the default labels
    "classify-labels-zero": ("classify", {"labels": 0}, "'labels': bad value 0"),
    "classify-labels-false": ("classify", {"labels": False},
                              "'labels': bad value False"),
    "classify-labels-empty-string": ("classify", {"labels": ""},
                                     "'labels': bad value ''"),
    "classify-labels-empty-object": ("classify", {"labels": {}},
                                     "'labels': bad value {}"),
    "classify-labels-null": ("classify", {"labels": None},
                             "'labels': bad value None"),
    "classify-labels-empty-list": ("classify", {"labels": []},
                                   "one label per matrix"),
    # NaN and Infinity are not JSON; a number past the float range is refused
    "async-tol-nan": ("async", {"tol": float("nan")}, "config holds NaN"),
    "product-tol-infinity": ("product", {"tol": float("inf")},
                             "config holds Infinity"),
    "async-delta-minus-infinity": ("async", {"clock": "poisson",
                                             "delta": float("-inf")},
                                   "config holds -Infinity"),
    "async-tol-huge-integer": ("async", {"tol": 10**400}, "'tol': bad value 1"),
    "lineq-check_connectivity-text": ("lineq", {"check_connectivity": "false"},
                                      "'check_connectivity': bad value 'false'"),
    "classify-matrix-n-text": ("classify", {"matrices": [{"n": "x", "rows": SCRAM}]},
                               "'n': bad value 'x'"),
    "classify-matrix-n-null": ("classify", {"matrices": [{"n": None, "rows": SCRAM}]},
                               "'n': bad value None"),
    "classify-matrices-number": ("classify", {"matrices": 5},
                                 "'matrices': bad value 5"),
    "classify-matrices-empty": ("classify", {"matrices": []},
                                "nonempty 'matrices' list"),
    "product-model-seed-text": ("product", {"model": {
        **TINY_CONFIGS["product"]["model"], "seed": "abc"}},
                                "'seed': bad value 'abc'"),
    "certify-signal-seed-null": ("certify", {"signal": {
        **TINY_CONFIGS["certify"]["signal"], "seed": None}},
                                 "'seed': bad value None"),
    "lineq-graph_model-seed-list": ("lineq", {"graph_model": {
        **TINY_CONFIGS["lineq"]["graph_model"], "seed": [1]}},
                                    "'seed': bad value [1]"),
    "product-model-seed-negative": ("product", {"model": {
        **TINY_CONFIGS["product"]["model"], "seed": -1}},
                                    "seed must be nonnegative, got -1"),
    "async-seed-negative": ("async", {"seed": -3},
                            "seed must be nonnegative, got -3"),
    "classify-matrix-n-fraction": ("classify", {"matrices": [{"n": 2.7,
                                                              "rows": SCRAM}]},
                                   "'n': bad value 2.7"),
    "classify-seed-fraction": ("classify", {"seed": 1.9},
                               "'seed': bad value 1.9"),
    "lineq-graph_model-seed-fraction": ("lineq", {"graph_model": {
        **TINY_CONFIGS["lineq"]["graph_model"], "seed": 0.5}},
                                        "'seed': bad value 0.5"),
    "product-steps-0": ("product", {"steps": 0}, "steps must be at least 1"),
    "product-steps-over-cap": ("product", {"steps": 10**10},
                               "steps must be at most 10000000"),
    "product-steps-fraction": ("product", {"steps": 2.5},
                               "'steps': bad value 2.5"),
    "product-window-fraction": ("product", {"window": 1.5},
                                "'window': bad value 1.5"),
    "product-steps-boolean": ("product", {"steps": True},
                              "'steps': bad value True"),
    # numbers written as JSON strings, and booleans where numbers belong
    "product-steps-string": ("product", {"steps": "8"},
                             "'steps': bad value '8'"),
    "product-tol-string": ("product", {"tol": "1e-3"},
                           "'tol': bad value '1e-3'"),
    "product-tol-boolean": ("product", {"tol": True}, "'tol': bad value True"),
    "product-model-seed-string": ("product", {"model": {
        **TINY_CONFIGS["product"]["model"], "seed": "4"}},
                                  "'seed': bad value '4'"),
    "product-model-weights-strings": ("product", {"model": {
        **TINY_CONFIGS["product"]["model"], "weights": ["1.0"]}},
                                      "'weights': bad value ['1.0']"),
    "lineq-graph_model-weights-boolean": ("lineq", {"graph_model": {
        **TINY_CONFIGS["lineq"]["graph_model"], "weights": [True]}},
                                          "'weights': bad value [True]"),
    "certify-signal-initial-string": ("certify", {"signal": {
        **MARKOV_SIGNAL, "initial": ["1.0"]}},
                                      "'initial': bad value ['1.0']"),
    "certify-signal-transition-string": ("certify", {"signal": {
        **MARKOV_SIGNAL, "transition": [["1.0"]]}},
                                         "'transition': bad value [['1.0']]"),
    "async-rates-string": ("async", {"rates": "0.5"},
                           "'rates': bad value '0.5'"),
    "async-rates-strings": ("async", {"rates": ["0.5", "0.5"]},
                            "'rates': bad value ['0.5', '0.5']"),
    "async-delta-string": ("async", {"clock": "poisson", "delta": "1"},
                           "'delta': bad value '1'"),
    "async-x0-booleans": ("async", {"x0": [True, False]},
                          "'x0': bad value [True, False]"),
    "certify-modes-strings": ("certify", {"modes": [[["0.5", 0], [0, 0.5]]]},
                              "'modes': bad value"),
    # matrix rows are checked by their array's dtype, not cell by cell
    "classify-rows-strings": ("classify", {"matrices": [{"n": 2, "rows": [
        ["0.5", "0.5"], ["0.5", "0.5"]]}]}, "expected numbers, got an array of <U3"),
    "classify-rows-mixed-strings": ("classify", {"matrices": [{"n": 2, "rows": [
        ["0.5", 0.5], [0.5, 0.5]]}]}, "expected numbers"),
    "classify-rows-booleans": ("classify", {"matrices": [{"n": 2, "rows": [
        [True, False], [False, True]]}]}, "expected numbers, got an array of bool"),
    "classify-rows-null": ("classify", {"matrices": [{"n": 2, "rows": [
        [None, 1.0], [0.5, 0.5]]}]}, "expected numbers, got an array of object"),
    "classify-rows-ragged": ("classify", {"matrices": [{"n": 2, "rows": [
        [0.5, 0.5], [1.0]]}]}, "entries do not form an array"),
    "classify-rows-vector": ("classify", {"matrices": [{"n": 2, "rows": [
        1.0, 0.5]}]}, "expected a square array, got shape (2,)"),
    "product-set-rows-strings": ("product", {"model": {
        **TINY_CONFIGS["product"]["model"], "set": [{"n": 2, "rows": [
            ["1", "0"], ["0", "1"]]}]}}, "expected numbers"),
    "lineq-system-b-string": ("lineq", {"system": {"blocks": [
        {"A": [[1.0, 0.0]], "b": ["1"]}, {"A": [[0.0, 1.0]], "b": [1.0]}]}},
                              "'b': bad value"),
    # booleans and nulls that numpy would promote to numbers or NaN
    "classify-rows-mixed-booleans": ("classify", {"matrices": [{"n": 2, "rows": [
        [True, 0.0], [0.0, 1]]}]}, "'rows': bad value [[True, 0.0], [0.0, 1]]"),
    "product-set-rows-mixed-booleans": ("product", {"model": {
        **TINY_CONFIGS["product"]["model"], "set": [{"n": 2, "rows": [
            [0.5, 0.5], [False, 1.0]]}]}}, "'rows': bad value"),
    "product-model-weights-null": ("product", {"model": {
        **TINY_CONFIGS["product"]["model"], "weights": [None]}},
                                   "'weights': bad value [None]"),
    "async-x0-null": ("async", {"x0": [None, 0.5]},
                      "'x0': bad value [None, 0.5]"),
    # values of the wrong JSON type that once escaped as raw tracebacks
    "product-model-set-number": ("product", {"model": {
        **TINY_CONFIGS["product"]["model"], "set": 0.5}}, "'set': bad value 0.5"),
    "lineq-graphs-boolean": ("lineq", {"graphs": True},
                             "'graphs': bad value True"),
    "certify-modes-scalar": ("certify", {"modes": [1e308, [[0.5, 0], [0, 0.5]]]},
                             "modes must be square"),
    "product-model-number": ("product", {"model": 5},
                             "expected an object with field 'variant', got 5"),
    "lineq-graph-edge-triple": ("lineq", {"graphs": [{"n": 2, "edges": [
        [0, 0, 1]]}]}, "'edges': bad value [[0, 0, 1]]"),
}


@pytest.mark.parametrize("kind,fields,message", list(BAD_FIELDS.values()),
                         ids=list(BAD_FIELDS))
def test_bad_field_values_are_validation_errors(tmp_path, capfd, kind, fields,
                                                message):
    cfg = write(tmp_path / "c.json", {**TINY_CONFIGS[kind], **fields})
    assert run_cli(kind, cfg, tmp_path / "o") == 2
    err = capfd.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_integral_floats_read_as_integers(tmp_path):
    cfg = {**TINY_CONFIGS["product"], "steps": 8.0, "window": 1.0,
           "seed": 3.0}
    code = run_cli("product", write(tmp_path / "c.json", cfg), tmp_path / "o")
    assert code == 3  # eight steps do not reach the tolerance
    summary, _ = read_outputs(tmp_path / "o")
    assert summary["seed"] == 3 and summary["results"]["steps"] == 8
    assert summary["results"]["h"] == 1


def test_import_loads_no_scipy():
    # numpy is the only import-time dependency; scipy is imported only by
    # the certificate grid of dimension 3 and up
    probe = ("import sys, stochprod, stochprod.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = os.path.dirname(os.path.dirname(sp.__file__))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"


def test_check_connectivity_reads_a_json_boolean(tmp_path, capsys):
    # no graph of the set is strongly connected: only the check refuses it
    cfg = {**TINY_CONFIGS["lineq"], "max_iters": 5,
           "graphs": [{"n": 2, "edges": [[0, 0], [1, 1], [0, 1]]}]}
    assert run_cli("lineq", write(tmp_path / "on.json", cfg), tmp_path / "a") == 2
    assert "no strongly connected window" in capsys.readouterr().err
    off = write(tmp_path / "off.json", {**cfg, "check_connectivity": False})
    assert run_cli("lineq", off, tmp_path / "b") in (0, 3)


@pytest.mark.parametrize("out", [5, ["x"], ""], ids=["number", "list", "empty"])
def test_config_out_must_be_a_nonempty_string(tmp_path, monkeypatch, capfd, out):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path / "c.json", {**TINY_CONFIGS["classify"], "out": out})
    assert cli.main(["run", "classify", "--config", cfg]) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"error: config field 'out': bad value {out!r}")
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize("out,message", [
    ("", "config field 'out': bad value ''"),
    ("taken", "cannot create output directory")], ids=["empty", "a-file"])
def test_bad_out_flag_is_validation_error(tmp_path, capfd, out, message):
    cfg = write(tmp_path / "c.json", TINY_CONFIGS["classify"])
    (tmp_path / "taken").write_text("")
    assert run_cli("classify", cfg, out and tmp_path / out) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_non_finite_system_is_validation_error(tmp_path, capfd):
    # 1e400 is a valid JSON number that parses to inf
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "system": {"blocks": [{"A": [[1.0, 1.5]], "b": [1.0]},
                              {"A": [[0.0, 1.0]], "b": [1.0]}]},
        "graphs": [{"n": 2, "edges": [[0, 0], [1, 1], [0, 1], [1, 0]]}],
        "graph_model": {"variant": "iid", "weights": [1.0]},
        "max_iters": 5}).replace("1.5", "1e400"))
    assert run_cli("lineq", str(cfg), tmp_path / "o") == 2
    err = capfd.readouterr().err
    assert err.startswith("error: entry (0, 1) = inf is not finite")
    assert "Traceback" not in err and "DLASCL" not in err


@pytest.mark.parametrize("literal", ["1e400", "-1e400"])
def test_overflowing_number_is_validation_error(tmp_path, capfd, literal):
    # the float literal parses to +-inf, which would be echoed as Infinity
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**TINY_CONFIGS["async"], "tol": 0.125})
                   .replace("0.125", literal))
    assert run_cli("async", str(cfg), tmp_path / "o") == 2
    err = capfd.readouterr().err
    assert err.startswith("error: config field 'tol': bad value")
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_non_finite_tol_flag_is_validation_error(tmp_path, capfd):
    cfg = write(tmp_path / "c.json", TINY_CONFIGS["async"])
    assert run_cli("async", cfg, tmp_path / "o", "--tol", "nan") == 2
    assert "'tol': bad value nan" in capfd.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["summary.json", "trace.csv"])
def test_unwritable_output_is_validation_error(tmp_path, capfd, name):
    # an output path held by a directory cannot be replaced by a file
    cfg = write(tmp_path / "c.json", TINY_CONFIGS["classify"])
    (tmp_path / "o" / name).mkdir(parents=True)
    assert run_cli("classify", cfg, tmp_path / "o") == 2
    err = capfd.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'o' / name}")
    assert "Traceback" not in err
    assert not [f for f in os.listdir(tmp_path / "o") if f.endswith(".tmp")]


def test_failed_trace_write_keeps_the_previous_summary(tmp_path, capfd):
    # both temp files are written before either rename and summary.json is
    # renamed last, so a trace that cannot be written leaves no new summary
    cfg = write(tmp_path / "c.json", TINY_CONFIGS["classify"])
    out = tmp_path / "o"
    assert run_cli("classify", cfg, out) == 0
    before = (out / "summary.json").read_bytes()
    (out / "trace.csv").unlink()
    (out / "trace.csv").mkdir()
    assert run_cli("classify", cfg, out, "--seed", "7") == 2
    err = capfd.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'trace.csv'}")
    assert "Traceback" not in err
    assert (out / "summary.json").read_bytes() == before
    assert sorted(os.listdir(out)) == ["summary.json", "trace.csv"]
    (out / "summary.json").unlink()
    assert run_cli("classify", cfg, out) == 2
    assert os.listdir(out) == ["trace.csv"]


def csv_line(cells):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1e-05)
@example(9.999999999999999e-05)
@example(0.0001)
@example(9999999999999998.0)
@example(1e16)
@example(-1e16)
def test_csv_writes_each_float_as_its_repr(v):
    # the runners hand csv their floats as they hold them (Python floats, or
    # numpy float64 scalars read off an array), and csv writes str(v)
    want = csv_line([3, repr(float(v))])
    assert csv_line([3, v]) == want
    assert csv_line([3, np.float64(v)]) == want
    assert csv_line(next(enumerate(np.array([v]), 3))) == want


def float_bits(*values):
    return [int(np.float64(v).view(np.uint64)) for v in values]


# bit patterns that differ but may print alike or nearly so: both zeros,
# NaNs of either sign and of several payloads (quiet and signalling), both
# infinities, subnormals, the ends of the normal range, and neighbours
# around repr's switch to exponent notation
RUN_POOL = float_bits(0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                      2.225073858507201e-308, 2.2250738585072014e-308,
                      1.7976931348623157e308, 1e-05, 9.999999999999999e-05,
                      1e16, 9999999999999998.0, 0.5) + [
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
    0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF]


@given(st.lists(st.one_of(st.sampled_from(RUN_POOL),
                          st.integers(0, 2**64 - 1)), max_size=40))
@example(float_bits(0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                    2.2250738585072014e-308, 1.7976931348623157e308,
                    -1.7976931348623157e308, 1e-05, 9.999999999999999e-05,
                    1e16, 9999999999999998.0, 1e-300, 1e300))
@example([0] * 9 + [2**63] * 9 + [0x7FF8000000000000] * 4
         + [0x7FF8000000000001] * 4 + [1] * 8)
def test_trace_floats_format_like_numpy_scalars(bits):
    # mostly runs of a few bit patterns, made 7 cells at a time so that runs
    # cross chunk boundaries: each text is the one csv writes for the float,
    # which is how numpy prints it, and the file is the same either way
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "TRACE_CHUNK", 7)
        got = list(cli._float_texts(values))
    assert got == [str(np.float64(v)) for v in values]
    assert [str(float(v)) for v in values] == got

    def csv_file(cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(enumerate(cells))
        return buf.getvalue()

    assert csv_file(got) == csv_file(values.tolist())
