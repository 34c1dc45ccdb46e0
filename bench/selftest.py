"""Quick self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Asserts that every metric named in BENCHMARK.json is printed, with its
unit, for each workload and both trace settings; and that corrupted
outputs (a perturbed ``p``) are reported as failed operations, both by the
oracle checks and by the reference comparison.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _perturb_p(delta):
    def corrupt(op, out_dir):
        if op.kind != "product":
            return
        path = run.Path(out_dir) / "summary.json"
        envelope = json.loads(path.read_text())
        envelope["results"]["p"] += delta
        path.write_text(json.dumps(envelope))
    return corrupt


def check_metrics(spec):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in workloads.WORKLOADS:
            result, lines = run.benchmark(workload, 0, 0.1, trace, tiny=True,
                                          setup_samples=1)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, lines
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, unit in want.items():
                assert any(line.split()[:1] == [name] and unit in line.split()
                           for line in lines), (workload, name)
            json.dumps(result, allow_nan=False)
            print(f"ok: {workload} --trace {trace} prints its "
                  f"{len(want)} metrics")


def check_corruption():
    result, lines = run.benchmark("analysis", 0, 0.1, 0, tiny=True,
                                  setup_samples=1, corrupt=_perturb_p(1e-3))
    bad = [line for line in lines if "failure: product" in line]
    assert not result["correct"] and result["failed"] == 2 and len(bad) == 2, lines
    print("ok: a perturbed p fails the oracle checks")

    from stochprod import cli
    ops, paths = run.write_configs("analysis", 0, run.WORK / "selftest", tiny=True)
    op, (config, out) = next((o, p) for o, p in zip(ops, paths)
                             if o.name == "product.window")
    assert cli.main(["run", op.kind, "--config", config, "--out", out]) == 0
    envelope, _, _ = checks.read_outputs(out)
    checker = checks.Checker({op.name: checks.exact_fields(op.kind, envelope["results"])})
    assert checker.check(op, out, 0) == []
    _perturb_p(1e-9)(op, out)
    assert any("reference" in p for p in checker.check(op, out, 0))
    print("ok: a p perturbed by 1e-9 fails the reference comparison")


def main():
    sys.path.insert(0, str(run.SRC))
    check_metrics(_spec())
    check_corruption()
    return 0


if __name__ == "__main__":
    sys.exit(main())
