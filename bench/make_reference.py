"""Record the exact fields of the benchmark's operations for a range of
seeds into ``reference.json``, which ``checks.py`` compares against.

    python3 bench/make_reference.py

Run it at the commit whose outputs are the reference; later commits must
agree with those values within ``checks.EXACT_TOL``.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads

REFERENCE_SEEDS = range(64)


def main():
    sys.path.insert(0, str(run.SRC))
    from stochprod import cli

    table = {"git_commit": run.metadata()["git_commit"]}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for seed in REFERENCE_SEEDS:
            ops, paths = run.write_configs(workload, seed,
                                           run.WORK / "reference" / workload)
            fields = {}
            for op, (config, out) in zip(ops, paths):
                if op.kind not in checks.EXACT_KINDS:
                    continue
                shutil.rmtree(out, ignore_errors=True)
                code = cli.main(["run", op.kind, "--config", config, "--out", out])
                if code != 0:
                    raise SystemExit(f"{workload} seed {seed} {op.name}: exit {code}")
                envelope, _, _ = checks.read_outputs(out)
                fields[op.name] = checks.exact_fields(op.kind, envelope["results"])
            if fields:
                table[workload][str(seed)] = fields
    run.REFERENCE.write_text(json.dumps(table, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
