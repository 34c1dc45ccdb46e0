"""Benchmark of ``stochprod run``: a single-process closed loop.

    python3 bench/run.py --workload {analysis,montecarlo,solver} --seed N
                         --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  The workload's configs are generated from ``--seed``
and written under ``.bench_work/``.  One operation is one in-process
``stochprod.cli.main(["run", kind, "--config", ...])`` call, from config
load to ``summary.json``/``trace.csv`` written; operations run one at a
time, with BLAS pinned to one thread.  A pass runs every operation of the
workload once; after an untimed warm-up pass the benchmark repeats passes
until ``--seconds`` have gone by, and checks every operation's outputs after
each pass (see ``checks.py``).  Between passes it times cold set-ups in
fresh interpreters.  Each operation runs under a SIGALRM wall
clock limit; passing it counts as a failure.

Times are reported in reference seconds.  The speed of a shared virtual
machine drifts by tens of percent within seconds and by more over minutes,
so the benchmark times its own fixed calibration kernel (``calibrate``)
right before and after every operation and every set-up, and scales each
measured time by ``CAL_REF_S`` over the mean of the two kernel times.  A
reference second is the time in which that kernel runs ``1 / CAL_REF_S``
times; the raw wall times are printed beside the metrics.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate, and it carries the per-layer metrics of ``layers.py``.  The lines
before it give the same numbers in words and the run's metadata.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported, here and in the set-up children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

OP_LIMIT_S = 20.0        # wall-clock limit of one operation
RUN_LIMIT_S = 150.0      # operations still pending after this count as failed
SETUP_SAMPLES = 7
MIN_PASSES = 3
TAIL_BEYOND = 10
TAIL_POOL = 4 * (TAIL_BEYOND + 1)   # fewest operations in a tail block
# time of one calibration kernel at reference speed: about what it takes on
# the 2.1 GHz Xeon two-vCPU virtual machine the benchmark was written on
CAL_REF_S = 0.008
SETUP_CAL_REPEATS = 5

# a fresh interpreter: time ``import stochprod`` plus config generation
SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import stochprod, stochprod.cli
import run
run.write_configs(sys.argv[3], int(sys.argv[4]), run.Path(sys.argv[5]))
print(json.dumps({"setup_s": time.perf_counter() - start,
                  "package": stochprod.__file__}))
"""


_CAL_MATRIX = np.random.default_rng(0).random((8, 8)) / 8.0


def calibrate():
    """Seconds taken by a fixed kernel that mixes what the operations do:
    small numpy products in a Python loop, then plain integer arithmetic.
    It uses nothing from ``stochprod``, so a change to the package cannot
    change it."""
    start = time.perf_counter()
    x = np.ones(8)
    last = {}
    for k in range(1500):
        x = _CAL_MATRIX @ x
        last[k & 63] = float(x[0])
        x = x / x.sum()
    total = 0
    for k in range(20000):
        total += k * k
    return time.perf_counter() - start


def _median_calibration():
    return statistics.median(calibrate() for _ in range(SETUP_CAL_REPEATS))


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that passed its limit; a
    BaseException so that no handler inside the package swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def write_configs(workload, seed, directory, tiny=False):
    """Generate the workload's operations and write one config per op."""
    ops = workloads.make_ops(workload, seed, tiny=tiny)
    paths = []
    for i, op in enumerate(ops):
        op_dir = directory / f"op{i:02d}"
        op_dir.mkdir(parents=True, exist_ok=True)
        config = op_dir / "config.json"
        config.write_text(json.dumps(op.config))
        paths.append((str(config), str(op_dir / "out")))
    return ops, paths


def measure_setup(workload, seed):
    """One cold set-up in a fresh interpreter, in reference seconds."""
    before = _median_calibration()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload,
         str(seed), str(WORK / "setup")],
        capture_output=True, text=True, timeout=120, check=False)
    after = _median_calibration()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if not probe["package"].startswith(str(SRC)):
        raise RuntimeError(f"set-up probe imported {probe['package']}")
    return probe["setup_s"] * 2.0 * CAL_REF_S / (before + after)


def run_op(cli, op, paths, limit):
    """One CLI call under a SIGALRM limit; returns (seconds, exit code,
    error text or None)."""
    config, out = paths
    argv = ["run", op.kind, "--config", config, "--out", out]
    # every check reads only files that this call wrote
    shutil.rmtree(out, ignore_errors=True)
    code = error = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = f"passed its {limit:.1f} s limit"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failed operation must not end the run
        error = f"raised {exc!r}"
    return time.perf_counter() - start, code, error


class Runner:
    """Runs passes over one workload's operations and keeps the tallies."""

    def __init__(self, cli, ops, paths, checker, deadline):
        self.cli, self.ops, self.paths = cli, ops, paths
        self.checker, self.deadline = checker, deadline
        self.attempted = self.failed = 0
        self.failures = []

    def run_pass(self, corrupt=None):
        """Run every operation once, then check them; returns (pass time,
        raw pass wall time, per-operation times, output bytes).  The pass
        and operation times are in reference seconds, the raw wall time is
        the sum of the operations' measured times.  ``corrupt(op, out_dir)``
        runs before each check."""
        times, raw, codes, errors = [], [], [], []
        cal_before = calibrate()
        for op, paths in zip(self.ops, self.paths):
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0:
                codes.append(None)
                errors.append("run time budget exhausted")
                continue
            dt, code, error = run_op(self.cli, op, paths, min(OP_LIMIT_S, remaining))
            cal_after = calibrate()
            raw.append(dt)
            times.append(dt * 2.0 * CAL_REF_S / (cal_before + cal_after))
            cal_before = cal_after
            codes.append(code)
            errors.append(error)
        out_bytes = 0
        for op, (_, out), code, error in zip(self.ops, self.paths, codes, errors):
            self.attempted += 1
            if corrupt is not None:
                corrupt(op, out)
            problems = [error] if error else self.checker.check(op, out, code)
            if problems:
                self.failed += 1
                self.failures.append(f"{op.name}: {'; '.join(problems)}")
            else:
                out_bytes += sum(os.path.getsize(os.path.join(out, f))
                                 for f in ("summary.json", "trace.csv"))
        return sum(times), sum(raw), times, out_bytes


def tail_block(n_ops):
    """Passes per tail block: the fewest whole passes holding TAIL_POOL
    operations."""
    return -(-TAIL_POOL // n_ops)


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples beyond it, i.e. the
    (TAIL_BEYOND + 1)-th largest sample: (percentile, value, samples
    beyond).  With fewer samples it is the largest one."""
    ordered = sorted(samples)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    return (100.0 * (len(ordered) - beyond) / len(ordered),
            ordered[-1 - beyond], beyond)


def block_tail(pass_times, block):
    """``tail`` of every run of ``block`` consecutive passes (the runs
    overlap), so that every pool holds the same operations however many
    passes fit in the run; returns (percentile, median value, samples
    beyond, pool size, blocks).  A run too short for one whole block pools
    what it has."""
    blocks = [sum(pass_times[i:i + block], [])
              for i in range(len(pass_times) - block + 1)]
    blocks = blocks or [sum(pass_times, [])]
    tails = [tail(b) for b in blocks]
    return (tails[0][0], statistics.median(t[1] for t in tails), tails[0][2],
            len(blocks[0]), len(blocks))


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata():
    import scipy
    import stochprod

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "stochprod": stochprod.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def _load_reference(workload, seed):
    if not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text())
    return table.get(workload, {}).get(str(seed))


def benchmark(workload, seed, seconds, trace, tiny=False,
              setup_samples=SETUP_SAMPLES, corrupt=None):
    """Run one benchmark; returns (result object, report lines).

    ``tiny`` shrinks the workload's sizes, for the self-test, and
    ``corrupt(op, out_dir)`` runs before each check of the warm-up pass, so
    the self-test can damage outputs.
    """
    started = time.perf_counter()
    import stochprod
    from stochprod import cli

    if not stochprod.__file__.startswith(str(SRC)):
        raise RuntimeError(f"imported stochprod from {stochprod.__file__}")
    ops, paths = write_configs(workload, seed, WORK / workload, tiny=tiny)
    reference = None if tiny else _load_reference(workload, seed)
    checker = checks.Checker(reference)
    runner = Runner(cli, ops, paths, checker, started + RUN_LIMIT_S)
    signal.signal(signal.SIGALRM, _on_alarm)

    runner.run_pass(corrupt)              # warm-up: untimed, still checked

    tracer = None
    if trace:
        from layers import Tracer
        tracer = Tracer(stochprod)
        setup_samples = 0     # setup_s is reported by untraced runs only
    walls, raw_walls, pass_times, traced, setups = [], [], [], [], []
    block = tail_block(len(ops))
    min_passes = max(MIN_PASSES, block)
    t0 = time.perf_counter()
    while (len(walls) < min_passes or time.perf_counter() - t0 < seconds) \
            and time.perf_counter() < runner.deadline:
        wall, raw_wall, times, out_bytes = runner.run_pass()
        walls.append(wall)
        raw_walls.append(raw_wall)
        pass_times.append(times)
        # set-ups go between passes, so that they sample the same stretch
        # of machine time as the passes
        if len(walls) % 2 and len(setups) < setup_samples:
            setups.append(measure_setup(workload, seed))
        if tracer is not None:
            tracer.install()
            try:
                wall_t, raw_t, _, _ = runner.run_pass()
            finally:
                tracer.uninstall()
            traced.append((wall_t, wall_t / raw_t, out_bytes) + tracer.take())
    while len(setups) < setup_samples:
        setups.append(measure_setup(workload, seed))

    lines = [f"workload {workload}, seed {seed}: {len(walls)} timed passes "
             f"of {len(ops)} operations, {runner.attempted} attempted, "
             f"{runner.failed} failed"]
    lines += [f"  failure: {f}" for f in runner.failures[:20]]
    lines.append("  pass times, reference s: " + " ".join(f"{w:.4g}" for w in walls))
    lines.append("  pass times, raw wall s:  " + " ".join(f"{w:.4g}" for w in raw_walls))
    lines.append(f"  reference values of seed {seed}: " + (
        "checked" if reference else "none recorded, oracle checks only"))
    if tracer is None:
        op_times = sum(pass_times, [])
        pct, tail_value, beyond, pool, n_blocks = block_tail(pass_times, block)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "op_s.p50": (statistics.median(op_times), "s"),
            "op_s.tail": (tail_value, "s"),
            "ok_frac": ((runner.attempted - runner.failed) / runner.attempted,
                        "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0, "MiB"),
        }
        notes = {
            "wall_s": (f"median of {len(walls)} passes, from {min(walls):.4g} "
                       f"to {max(walls):.4g}; raw median "
                       f"{statistics.median(raw_walls):.4g} s"),
            "op_s.p50": f"median of {len(op_times)} operations",
            "op_s.tail": (f"p{pct:.4g} of {pool} operations ({block} passes), "
                          f"{beyond} beyond it; median of {n_blocks} blocks"),
            "ok_frac": (f"failed_frac = {runner.failed}/{runner.attempted} = "
                        f"{runner.failed / runner.attempted:g}"),
            "setup_s": f"median of {setup_samples} cold set-ups",
            "peak_rss_mib": "peak RSS of this process",
        }
    else:
        metrics, notes = layer_metrics(walls, traced)
        top = sorted(traced[-1][4].items(), key=lambda kv: -kv[1])[:8]
        lines.append("  largest raw self times in the last traced pass: "
                     + ", ".join(f"{k} {v:.3g} s" for k, v in top))
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:52s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    lines.append("meta " + json.dumps(metadata(), sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def layer_metrics(walls, traced):
    """Per-pass medians of the traced passes' layer numbers.  Each traced
    entry is (pass time, reference over raw seconds, output bytes, calls,
    raw self times, derived counts); self times are reported in reference
    seconds."""
    from layers import LAYER_METRICS

    def median_of(pick):
        return statistics.median(pick(t) for t in traced)

    wall_t = median_of(lambda t: t[0])
    values = {
        "trace.overhead_frac": wall_t / statistics.median(walls) - 1.0,
        "trace.uncovered_frac": median_of(
            lambda t: 1.0 - sum(t[4].values()) * t[1] / t[0]),
        "cli.output_bytes": median_of(lambda t: t[2]),
    }
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = median_of(lambda t: t[3].get(name[:-6], 0))
        elif name.endswith(".self_s"):
            value = median_of(lambda t: t[4].get(name[:-7], 0.0) * t[1])
        else:
            value = median_of(lambda t: t[5][name])
        metrics[name] = (value, unit)
    notes = {"trace.overhead_frac": f"traced {wall_t:.4g} s per pass",
             "trace.uncovered_frac": "share of traced wall_s outside every span"}
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "stochprod" / "__init__.py").is_file():
        print(f"error: no stochprod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, lines = benchmark(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
