"""Outside-in instrumentation of caliblab.

Nothing here edits the package.  Every measurement comes from a wrapper
installed on a module or class attribute, as the calling module looks it
up at call time (``caliblab.experiments.accumulate_run``,
``caliblab.calibration.fwht``, ``caliblab.probes.bucketing_batch``, ...),
and every wrapper is removed again when the ``Patches`` context exits.

Two instruments share that mechanism:

* ``CellClock`` puts one timer around each replicate cell and checks the
  cell's exact outputs.  It is installed in every run, traced or not.
* ``Tracer`` records a span around each layer call.  A span's self time
  is its duration minus the time its child spans cover, so the self
  times of all spans add up to the time spent inside the top-level
  spans.
"""

from __future__ import annotations

import importlib
import math
import pickle
from collections import defaultdict
from time import perf_counter


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self):
        self._saved: list = []

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` by ``make(original)``."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        own = name in vars(owner)
        original = getattr(owner, name)
        self._saved.append((owner, name, original, own))
        setattr(owner, name, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, name, original, own in reversed(self._saved):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# Replicate cells
# ---------------------------------------------------------------------------


class CellClock:
    """Per-cell latencies and exact per-cell checks.

    A cell is one call of ``experiments.run_replicate``, keyed by
    (experiment id, T), one replicate of a bound runner, keyed by
    ("reduction" or "oracle", T), or one ``bucketing_probe`` call of the
    CLI, keyed by (strategy, L).  The bound runners loop over replicates
    inline, so a replicate there runs from one environment draw to the
    next (or to the runner's return): ``sample_bernoulli_env`` inside
    ``run_reduction_bound`` and ``sample_bit_env`` inside
    ``run_oracle_bound``.  ``check`` receives the config and the result
    of each ``run_replicate`` call and returns the names of the exact
    checks the cell fails.
    """

    def __init__(self, check=None):
        self.check = check
        self.latencies: dict = defaultdict(list)  # key -> [seconds]
        self.cells = 0
        self.failures: list = []
        self._runner = None
        self._open = None  # (key, start) of the bound-runner replicate in progress

    def install(self, patches: Patches) -> None:
        patches.wrap("caliblab.experiments", "run_replicate", self._replicate)
        patches.wrap("caliblab.cli", "bucketing_probe", self._probe)
        for runner, sampler in (
            ("run_reduction_bound", "sample_bernoulli_env"),
            ("run_oracle_bound", "sample_bit_env"),
        ):
            patches.wrap("caliblab.cli", runner, self._bound_runner(runner))
            patches.wrap("caliblab.experiments", sampler, self._marker(runner, runner.split("_")[1]))

    def _replicate(self, fn):
        def run_replicate(config, T, rep):
            start = perf_counter()
            out = fn(config, T, rep)
            self.latencies[config.experiment_id, T].append(perf_counter() - start)
            self.cells += 1
            bad = self.check(config, out) if self.check else ()
            if bad:
                self.failures.append(f"T={T} rep={rep}: {', '.join(bad)}")
            return out

        return run_replicate

    def _probe(self, fn):
        def bucketing_probe(L, *args, **kwargs):
            start = perf_counter()
            out = fn(L, *args, **kwargs)
            self.latencies[kwargs.get("strategy"), L].append(perf_counter() - start)
            return out

        return bucketing_probe

    def _close(self, now: float) -> None:
        if self._open is not None:
            key, start = self._open
            self.latencies[key].append(now - start)
            self.cells += 1
            self._open = None

    def _bound_runner(self, name):
        def make(fn):
            def runner(*args, **kwargs):
                self._runner = name
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(perf_counter())
                    self._runner = None

            return runner

        return make

    def _marker(self, runner_name, kind):
        def make(fn):
            def sampler(T, *args, **kwargs):
                if self._runner == runner_name:
                    now = perf_counter()
                    self._close(now)
                    self._open = ((kind, int(T)), now)
                return fn(T, *args, **kwargs)

            return sampler

        return make


# ---------------------------------------------------------------------------
# Layer spans
# ---------------------------------------------------------------------------


def _count_rounds(acc, out, args, kwargs):
    acc["environments.rounds"] += out.T


def _count_members(acc, out, args, kwargs):
    family = out[1] if isinstance(out, tuple) else out
    acc["groups.members"] += len(family)


def _count_fwht(acc, out, args, kwargs):
    n = out.shape[-1]
    acc["orthogonal.fwht_calls"] += 1
    acc["orthogonal.fwht_ops"] += (out.size // n) * n * int(math.log2(n))


def _count_ledger(acc, out, args, kwargs):
    acc["calibration.buckets"] += len(out.bucket_scaled)
    headroom = 53 - math.log2(4 * out.T * out.scale)
    acc.gauge_min("calibration.headroom_bits", headroom)


def _count_checks(acc, out, args, kwargs):
    results = out if isinstance(out, list) else [out]
    acc["calibration.checks"] += len(results)
    acc["calibration.violations"] += sum(not r.ok for r in results)


def _count_ledger_round(acc, out, args, kwargs):
    acc["calibration.ledger_rounds"] += 1


def _count_steps(acc, out, args, kwargs):
    acc["kernels.steps"] += args[0].size


def _count_probe(acc, out, args, kwargs):
    acc["probes.calls"] += 1


_SAMPLERS = ("sample_bernoulli_env", "sample_rademacher_env", "sample_bit_env")
_FAMILY_BUILDERS = (
    "build_pred_threshold_family",
    "build_walsh_family",
    "build_block_hadamard_family",
    "build_full_walsh_family",
    "build_bit_family",
    "build_grid_range_family",
)
_CHECKS = (
    "check_telescoping",
    "check_diff_two",
    "check_g4_context_decomp",
    "check_l1_quantization",
    "check_n_from_a",
    "check_block_mass",
    "check_block_parseval",
    "check_bias_averaging",
    "check_bits_mse",
)
_PROBES = (
    "bucketing_probe",
    "truncated_root_return_probe",
    "martingale_transform_probe",
    "simulate_first_returns",
)
_WRITERS = ("write_scaling_csv", "write_per_group_csv", "write_family_csv", "write_bounds_csv")

# (owner, attribute, self-time metric, counter); owner is a module name or
# a (module name, class name) pair.  Each metric names its layer.
SPANS = (
    [("caliblab.experiments", f, "environments.sample_s", _count_rounds) for f in _SAMPLERS]
    + [("caliblab.environments", "sample_bernoulli_on_grid", "environments.sample_s", _count_rounds)]
    + [("caliblab.experiments", f, "groups.build_s", _count_members) for f in _FAMILY_BUILDERS]
    + [
        ("caliblab.calibration", "fwht", "orthogonal.fwht_s", _count_fwht),
        ("caliblab.orthogonal", "fwht", "orthogonal.fwht_s", _count_fwht),
        ("caliblab.experiments", "accumulate_run", "calibration.accumulate_s", _count_ledger),
        (("caliblab.calibration", "BiasLedger"), "record_round", "calibration.accumulate_s",
         _count_ledger_round),
        ("caliblab.experiments", "deviation_stats", "calibration.stats_s", None),
        ("caliblab.experiments", "block_decompose", "calibration.stats_s", None),
        ("caliblab.experiments", "miss_count", "calibration.stats_s", None),
    ]
    + [("caliblab.experiments", f, "calibration.checks_s", _count_checks) for f in _CHECKS]
    + [
        ("caliblab.experiments", "run_forecaster", "forecasters.run_s", None),
        (("caliblab.forecasters", "PatternRouter"), "cell_err", "forecasters.cell_err_s", None),
        (("caliblab.forecasters", "PatternRouter"), "cell_summary", "forecasters.cell_err_s", None),
        ("caliblab.probes", "bucketing_batch", "kernels.bucketing_s", _count_steps),
        ("caliblab.probes", "first_return_batch", "kernels.first_return_s", _count_steps),
    ]
    + [("caliblab.cli", f, "probes.self_s", _count_probe) for f in _PROBES]
    + [
        ("caliblab.cli", f, "experiments.self_s", None)
        for f in ("run_scaling", "run_oracle_bound", "run_reduction_bound", "run_identity_suite")
    ]
    + [("caliblab.experiments", "run_replicate", "experiments.self_s", None)]
    + [("caliblab.cli", f, "cli.write_s", None) for f in _WRITERS]
    + [
        (("caliblab.cli", "Manifest"), "write", "cli.write_s", None),
        ("caliblab.cli", "main", "cli.self_s", None),
    ]
)

SELF_TIME_METRICS = sorted({metric for _, _, metric, _ in SPANS})


class Accumulator(defaultdict):
    """Summed counters plus min-gauges, keyed by metric name."""

    def __init__(self):
        super().__init__(float)
        self.gauges: dict = {}

    def gauge_min(self, name: str, value: float) -> None:
        self.gauges[name] = min(value, self.gauges.get(name, math.inf))


class Tracer:
    """Span stack and per-metric self times for the spans in ``SPANS``."""

    def __init__(self, cell_kinds):
        self.cell_kinds = set(cell_kinds)
        self.acc = Accumulator()
        self.top_level = 0.0  # time covered by spans with no parent span
        self.result_bytes = 0  # the largest pickled result of one cell, over the cell kinds
        self._sized: set = set()
        self._stack: list = []  # child time covered so far, per open span
        self._propose_depth = 0

    def install(self, patches: Patches) -> None:
        from caliblab.forecasters import Forecaster

        for owner, name, metric, count in SPANS:
            if isinstance(owner, tuple):
                owner = getattr(importlib.import_module(owner[0]), owner[1])
            patches.wrap(owner, name, self._span(metric, count))
        patches.wrap("caliblab.experiments", "run_replicate", self._measure_result)
        for cls in _subclasses(Forecaster):
            if "propose" in vars(cls):
                patches.wrap(cls, "propose", self._count_propose)

    def _span(self, metric, count):
        acc, stack = self.acc, self._stack

        def make(fn):
            def span(*args, **kwargs):
                stack.append(0.0)
                start = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    acc[metric] += duration - stack.pop()
                    if stack:
                        stack[-1] += duration
                    else:
                        self.top_level += duration
                if count is not None:
                    count(acc, out, args, kwargs)
                return out

            return span

        return make

    def _measure_result(self, fn):
        def run_replicate(config, T, rep):
            out = fn(config, T, rep)
            key = (config.experiment_id, T)
            if key in self.cell_kinds and key not in self._sized:
                self._sized.add(key)
                size = len(pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL))
                self.result_bytes = max(self.result_bytes, size)
            return out

        return run_replicate

    def _count_propose(self, fn):
        def propose(forecaster, ctx, history):
            if self._propose_depth == 0:
                self.acc["forecasters.looped_rounds"] += 1
            self._propose_depth += 1
            try:
                return fn(forecaster, ctx, history)
            finally:
                self._propose_depth -= 1

        return propose


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
