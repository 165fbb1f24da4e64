#!/usr/bin/env python3
"""Benchmark of record for caliblab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload thm31_ladder [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload in turn

A run imports ``caliblab`` from the checkout's ``src/`` and drives one of
the workloads in ``workloads.py`` through ``caliblab.cli.main`` in this
process, single-process and warm: one untimed repetition first, then
repetitions until ``--seconds`` have passed (and enough cells have been
timed for the tail percentile).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median
repetition), ``setup_s`` (median of fresh interpreters importing
caliblab and resolving the workload's configs), ``cell_ms_p50`` (mean
over the workload's cell kinds of each kind's median) and
``cell_ms_tail`` (over all its cells), and ``peak_rss_mb``.  A cell kind
is the replicate cells at the workload's largest T, or the bucketing
probe calls of one adaptive strategy at the largest L.  ``wall_s`` and
the cell metrics are given at reference speed (see ``Runner``), with the
measured times printed beside them.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``spans.py`` per repetition, plus kernel timings at
fixed sizes.

Every repetition's outputs are checked.  An exact check that fails, or a
command that fails, makes the run incorrect and the exit code 1.
Statistical verdicts are printed with their margins and do not affect
the exit code.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import monotonic, perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

from spans import SELF_TIME_METRICS, CellClock, Patches, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Outcome, bucketing_differential, check_cell, judge

SETUP_RUNS = 5
TRACE_MIN_REPS = 2  # of each kind, traced and untraced
REF_SECONDS = 1e-3  # the reference job's time at reference speed
REF_EVERY = 0.25  # seconds of workload between reference samples

# per-layer metric -> (unit, the end-to-end metric it should move, and where)
PER_LAYER = {
    "environments.sample_s": ("s", "cell_ms_p50 on thm31_ladder"),
    "environments.rounds": ("count", "cell_ms_p50 on thm31_ladder"),
    "groups.build_s": ("s", "cell_ms_p50 on walsh_blocks"),
    "groups.members": ("count", "cell_ms_p50 on walsh_blocks"),
    "orthogonal.fwht_s": ("s", "cell_ms_p50 on walsh_blocks"),
    "orthogonal.fwht_calls": ("count", "cell_ms_p50 on walsh_blocks"),
    "orthogonal.fwht_ops": ("ops", "cell_ms_p50 on walsh_blocks (computed: rows*n*log2 n)"),
    "orthogonal.fwht_kernel_ms": ("ms", "cell_ms_p50 on walsh_blocks (kernel alone, 64x65536)"),
    "calibration.accumulate_s": ("s", "cell_ms_p50 on thm31_ladder and walsh_blocks"),
    "calibration.stats_s": ("s", "cell_ms_p50 on thm31_ladder and walsh_blocks"),
    "calibration.checks_s": ("s", "cell_ms_p50 on thm31_ladder and walsh_blocks"),
    "calibration.checks": ("count", "cell_ms_p50 on thm31_ladder and walsh_blocks"),
    "calibration.violations": ("count", "cell_ms_p50 on thm31_ladder and walsh_blocks"),
    "calibration.buckets": ("count", "cell_ms_p50 on thm31_ladder and walsh_blocks"),
    "calibration.headroom_bits": ("bits", "the exactness ceiling on thm31_ladder"),
    "calibration.ledger_rounds": ("count", "wall_s on exact_bounds"),
    "forecasters.run_s": ("s", "wall_s on exact_bounds"),
    "forecasters.looped_rounds": ("count", "wall_s on exact_bounds"),
    "forecasters.cell_err_s": ("s", "wall_s on exact_bounds"),
    "kernels.bucketing_s": ("s", "wall_s on noise_probes"),
    "kernels.first_return_s": ("s", "wall_s on noise_probes"),
    "kernels.steps": ("count", "wall_s on noise_probes"),
    "kernels.first_return_kernel_ms": ("ms", "wall_s on noise_probes (kernel alone, 20000x1024)"),
    "kernels.bucketing_kernel_ms": ("ms", "wall_s on noise_probes (kernel alone, avoid_zero 500x2048)"),
    "probes.self_s": ("s", "wall_s on noise_probes"),
    "probes.calls": ("count", "wall_s on noise_probes"),
    "experiments.self_s": ("s", "cell_ms_p50 on walsh_blocks"),
    "experiments.cells": ("count", "cell_ms_p50 on walsh_blocks"),
    "experiments.result_bytes": ("bytes", "cell_ms_p50 on walsh_blocks (what a worker pool ships)"),
    "cli.write_s": ("s", "wall_s on every workload"),
    "cli.self_s": ("s", "wall_s on noise_probes"),
    "trace.overhead_s": ("s", "traced wall_s minus untraced wall_s"),
    "trace.unattributed_s": ("s", "traced wall_s minus the summed self times"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, pct: int) -> tuple:
    """Nearest-rank percentile, lowered in steps of 5 until >= 10 samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    while pct > 50 and n - math.ceil(pct * n / 100) < 10:
        pct -= 5
    k = max(1, math.ceil(pct * n / 100))
    return ordered[k - 1], pct, n - k


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment_record() -> dict:
    import numpy

    from caliblab import _kernels

    commit = None  # a checkout that is not a git repository has none; the digest still names the code
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
            )
            commit = probe.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("caliblab/*.py"), *ROOT.glob("configs/*.cfg")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "use_numba": bool(_kernels.USE_NUMBA),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

SETUP_CHILD = (
    "import sys, time\n"
    "sys.path[:0] = [{src!r}, {bench!r}]\n"
    "import workloads\n"
    "workloads.resolve({name!r}, {seed})\n"
    "print(time.monotonic())\n"
)


def measure_setup(name: str, seed: int) -> list:
    """Seconds from starting a fresh interpreter to caliblab imported and configs resolved."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    times = []
    for _ in range(SETUP_RUNS):
        start = monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup child failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def reference_job() -> float:
    """Seconds taken by a fixed pure-Python job, best of 2.

    The job (Fraction sums and dict updates) stands for the host's speed
    at the moment it runs.  On a shared host that speed drifts by up to
    2x over seconds to minutes; the job's time drifts with it, and the
    program's time divided by the job's time does not.
    """
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        total, counts = Fraction(0), {}
        for i in range(1, 400):
            total += Fraction(i, i + 7)
            counts[i % 97] = counts.get(i % 97, 0) + i
        best = min(best, perf_counter() - start)
    return best


class Runner:
    """Repetitions of one workload, with their checks.

    Each repetition also samples ``reference_job`` before its first
    command, after its last, and between commands every ``REF_EVERY``
    seconds.  ``factor`` is ``REF_SECONDS`` over the median sample, and
    ``scaled`` holds the cell latencies times the factor of their
    repetition: times at reference speed.
    """

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.calls = self.workload.calls(seed)
        self.dirs = [OUT / name / f"{i:02d}" for i in range(len(self.calls))]
        self.argvs = [[*argv, "--out", str(d)] for argv, d in zip(self.calls, self.dirs)]
        self.clock = CellClock(check_cell)
        self.ops = 0
        self.failures: list = []
        self.failed = 0
        self.verdicts: list = []
        self.factor = 1.0
        self.scaled: dict = defaultdict(list)

    def repetition(self) -> float:
        """One pass over the workload's commands; returns its wall time and checks its outputs."""
        from caliblab import cli

        cells_before = self.clock.cells
        failures_before = len(self.clock.failures)
        seen = {key: len(v) for key, v in self.clock.latencies.items()}
        codes = []
        sink = io.StringIO()
        samples = [reference_job()]
        elapsed = since_sample = 0.0
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for i, argv in enumerate(self.argvs):
                start = perf_counter()
                codes.append(cli.main(argv))
                took = perf_counter() - start
                elapsed += took
                since_sample += took
                if since_sample >= REF_EVERY or i == len(self.argvs) - 1:
                    samples.append(reference_job())
                    since_sample = 0.0
        self.factor = REF_SECONDS / statistics.median(samples)
        for key, v in self.clock.latencies.items():
            self.scaled[key] += [x * self.factor for x in v[seen.get(key, 0):]]

        outcome = Outcome()
        for argv, out_dir, code in zip(self.calls, self.dirs, codes):
            if code != 0:
                outcome.failures.append(f"{' '.join(argv)}: exit code {code}")
                outcome.failed += 1
                continue
            judge(argv, out_dir, outcome)
        new_cell_failures = self.clock.failures[failures_before:]
        self.account(outcome, self.clock.cells - cells_before, new_cell_failures)
        self.verdicts = outcome.verdicts
        return elapsed

    def account(self, outcome: Outcome, cells: int = 0, cell_failures=()) -> None:
        self.ops += outcome.ops + cells
        self.failed += outcome.failed + len(cell_failures)
        self.failures += outcome.failures + list(cell_failures)

    def cell_latencies(self, latencies: dict) -> list:
        return [x for key in self.workload.cells for x in latencies.get(key, [])]

    def cell_medians(self, latencies: dict) -> dict:
        """Median latency of each cell kind that was timed."""
        return {key: statistics.median(latencies[key]) for key in self.workload.cells if latencies.get(key)}


def run_untraced(runner: Runner, seconds: float) -> tuple:
    """Repetitions until ``seconds`` have passed; returns (walls, walls at reference speed)."""
    walls, scaled = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(walls) < runner.workload.min_reps:
        walls.append(runner.repetition())
        scaled.append(walls[-1] * runner.factor)
    return walls, scaled


def run_traced(runner: Runner, seconds: float) -> tuple:
    """Alternate untraced and traced repetitions; returns (untraced walls, traced walls, tracer, cells)."""
    plain, traced = [], []
    tracer = Tracer(runner.workload.cells)
    traced_cells = 0
    start = perf_counter()
    while perf_counter() - start < seconds or min(len(plain), len(traced)) < TRACE_MIN_REPS:
        if len(plain) <= len(traced):
            plain.append(runner.repetition())
            continue
        cells_before = runner.clock.cells
        with Patches() as patches:
            tracer.install(patches)
            traced.append(runner.repetition())
        traced_cells += runner.clock.cells - cells_before
    return plain, traced, tracer, traced_cells


def kernel_timings() -> dict:
    """The kernel timings of benchmarks/bench_kernels.py on the dispatched backend (median of 3)."""
    import numpy as np

    from caliblab import _kernels
    from caliblab.environments import substream

    def median_ms(fn, *args):
        runs = []
        for _ in range(3):
            start = perf_counter()
            fn(*args)
            runs.append(perf_counter() - start)
        return 1e3 * statistics.median(runs)

    base = substream(1, 0).standard_normal((64, 2**16))
    walks = np.where(substream(2, 0).random((20_000, 1024)) < 0.5, -1, 1).astype(np.int8)
    buckets = np.where(substream(3, 0).random((500, 2048)) < 0.5, -1, 1).astype(np.int8)
    code = _kernels.BUCKETING_STRATEGY_CODES["avoid_zero"]
    return {
        "orthogonal.fwht_kernel_ms": median_ms(lambda: _kernels.fwht_inplace(base.copy())),
        "kernels.first_return_kernel_ms": median_ms(_kernels.first_return_batch, walks),
        "kernels.bucketing_kernel_ms": median_ms(_kernels.bucketing_batch, buckets, code, 32),
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def cell_stats(runner: Runner, latencies: dict) -> tuple:
    """(p50, tail, tail percentile, cells beyond it, per-kind medians, cell count) in seconds.

    The kinds differ in cost, so the median of the pooled cells would jump
    between kinds from run to run; the mean of the per-kind medians does not.
    """
    cells = runner.cell_latencies(latencies)
    if not cells:
        raise RuntimeError(f"no cells were timed at {runner.workload.cells}")
    medians = runner.cell_medians(latencies)
    tail_value, pct, beyond = tail(cells, runner.workload.tail_pct)
    return statistics.fmean(medians.values()), tail_value, pct, beyond, medians, len(cells)


def end_to_end(runner: Runner, walls: list, scaled_walls: list, setups: list) -> dict:
    """The gated metrics (timings at reference speed), with the measured times printed beside them."""
    wall, raw_wall = statistics.median(scaled_walls), statistics.median(walls)
    q1, _, q3 = quartiles(scaled_walls)
    p50, tail_value, pct, beyond, medians, n = cell_stats(runner, runner.scaled)
    raw_p50, raw_tail, *_ = cell_stats(runner, runner.clock.latencies)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    where = ", ".join(f"{kind}@{size} {1e3 * v:.3f}" for (kind, size), v in medians.items())
    print(f"reference speed: REF_SECONDS / reference_job time, median {statistics.median(scaled_walls[i] / walls[i] for i in range(len(walls))):.4f}")
    print(f"wall_s       {wall:10.4f} s    median of {len(walls)} repetitions (q1 {q1:.4f}, q3 {q3:.4f}); measured {raw_wall:.4f}")
    print(f"setup_s      {statistics.median(setups):10.4f} s    median of {len(setups)} fresh interpreters, measured")
    print(f"cell_ms_p50  {1e3 * p50:10.3f} ms   mean of the per-kind medians of {n} cells ({where}); measured {1e3 * raw_p50:.3f}")
    # Reported, not gated: over five to ten seeds its spread reached 0.20-0.24
    # of its median, because the slowest tenth of the cells is where the
    # host's bursts land.
    print(f"cell_ms_tail {1e3 * tail_value:10.3f} ms   p{pct} of {n} cells, {beyond} beyond it; measured {1e3 * raw_tail:.3f}")
    print(f"peak_rss_mb  {rss:10.1f} MiB  ru_maxrss of this process")
    return {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "cell_ms_p50": metric(1e3 * p50, "ms"),
        "peak_rss_mb": metric(rss, "MiB"),
    }


def per_layer(tracer: Tracer, reps: int, cells: int, plain: list, traced: list, kernels: dict) -> dict:
    values = {name: tracer.acc[name] / reps for name in PER_LAYER if name in tracer.acc}
    for name in SELF_TIME_METRICS:
        values.setdefault(name, 0.0)
    values["calibration.headroom_bits"] = tracer.acc.gauges.get("calibration.headroom_bits", 0.0)
    values["experiments.cells"] = cells / reps
    values["experiments.result_bytes"] = tracer.result_bytes
    values.update(kernels)
    traced_wall = statistics.median(traced)
    overhead = traced_wall - statistics.median(plain)
    self_total = sum(values[name] for name in SELF_TIME_METRICS)
    values["trace.overhead_s"] = overhead
    values["trace.unattributed_s"] = statistics.mean(traced) - self_total
    for name, (unit, moves) in PER_LAYER.items():
        values.setdefault(name, 0.0)
        print(f"{name:32s} {values[name]:14.6g} {unit:6s} -> {moves}")
    # the overhead estimate is a difference of noisy medians and can come out negative
    accounted = abs(values["trace.unattributed_s"]) <= abs(overhead)
    print(
        f"self times sum to {self_total:.4f} s of {statistics.mean(traced):.4f} s traced "
        f"({len(traced)} traced, {len(plain)} untraced repetitions); "
        f"unattributed {values['trace.unattributed_s']:.4f} s "
        f"{'within' if accounted else 'OUTSIDE'} the overhead of {overhead:.4f} s"
    )
    return {name: metric(values[name], PER_LAYER[name][0]) for name in PER_LAYER}


def print_checks(runner: Runner) -> None:
    share = runner.failed / runner.ops if runner.ops else 0.0
    print(f"failed_ops   {share:10.4f}      {runner.failed} of {runner.ops} operations (cells, probe calls, identity records, kernel rows)")
    for failure in runner.failures[:20]:
        print(f"  FAILED {failure}")
    bad = [v for v in runner.verdicts if not v.passed]
    print(f"stat_checks_failed {len(bad)} of {len(runner.verdicts)} statistical verdicts at seed {runner.seed}")
    for v in bad:
        print(f"  {v.check_id}: margin {v.margin:.6g} at {v.replicates} replicates ({v.detail})")


def bench(name: str, seed: int, seconds: float, trace: int) -> tuple:
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={trace}")
    env = environment_record()
    setups = [] if trace else measure_setup(name, seed)
    runner = Runner(name, seed)
    with Patches() as patches:
        runner.clock.install(patches)
        runner.repetition()  # warm-up: imports, caches, first-call costs
        runner.clock.latencies.clear()
        runner.scaled.clear()
        if trace:
            plain, traced, tracer, cells = run_traced(runner, seconds)
        else:
            walls, scaled_walls = run_untraced(runner, seconds)
    if runner.workload.differential:
        runner.account(bucketing_differential(seed))
    if trace:
        metrics = per_layer(tracer, len(traced), cells, plain, traced, kernel_timings())
    else:
        metrics = end_to_end(runner, walls, scaled_walls, setups)
    print_checks(runner)
    env["loadavg_end"] = list(os.getloadavg())
    print("env " + json.dumps(env, sort_keys=True))
    return runner, metrics


def run_all(args) -> int:
    """Every workload in a process of its own, so that peak RSS and warm state stay per workload."""
    attempted = failed = 0
    metrics: dict = {}
    correct = True
    for name in sorted(WORKLOADS):
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "caliblab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no caliblab source tree (src/caliblab, configs/) under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.chdir(ROOT)
    os.environ.pop("CALIBLAB_SEED", None)  # the workload seed is --seed alone
    sys.path.insert(0, str(SRC))
    import caliblab

    if Path(caliblab.__file__).resolve().parent != SRC / "caliblab":
        print(f"error: imported caliblab from {caliblab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        runner, metrics = bench(args.workload, args.seed, args.seconds, args.trace)
    except Exception:  # report the failure as a result, then exit nonzero
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(runner.ops, 1), "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
