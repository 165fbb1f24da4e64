"""Experiment orchestration: scaling studies, oracle/reduction bound checks,
log-log exponent fits, and CSV outputs.

An ``ExperimentConfig`` resolves each T once, at construction, into a
``CellPlan`` (m, eta, family and layout, forecaster factory) that the
cells, the family CSV, the manifest and the reduction runner all read.

The hard instances are oblivious: on the Bernoulli and signed-noise
grids the contexts are a round robin fixed in advance and only the
outcomes are random.  When the forecaster is oblivious too (its
predictions read only the context means: honest, rounded_honest,
overshoot, constant), the first cell at a T builds the plan's
``CellSkeleton``, the outcome-free half of every cell at that T: the
``calibration.RunSkeleton`` of the run at heads = 0, the deviation
statistics and the checks that read no outcome.  Without a block layout
none of these reads round order, so the run at heads = 0 is one round
robin of context columns, each weighted by the rounds that show it; the
forecaster still predicts all T rounds once, and predictions that do not
repeat with the context period are refused.  Each replicate then
draws its outcomes on the cell's stream and forms only the sums that
read them.  A skeleton without a block layout reads a draw only through
its heads per context column, so its cell draws one binomial per column
(``RoundRobin.draw_counts``): n draws, not T.  A skeleton with a layout
transforms each round's residual, so its cell draws the T per-round
heads as the sampler does (``RoundRobin.draw``).  Given the same heads,
every skeleton result is the one ``general_replicate`` (sample,
forecast, ``ScaledRun.build``, accumulate, check) returns; a
differential test holds the two paths equal on the general path's own
heads, and a law test holds the column counts to their binomials.  The
bit environment and the outcome-reading
forecasters take the general path.  Skeletons are built on first use,
never when a config is resolved.

Every (T, replicate) cell derives its own Philox streams from the master
seed; ``run_scaling`` runs them in one process, one T at a time.  Reruns
with the same config and seed produce byte-identical CSVs.

Every general-path cell is one ``_cell`` call: the oracle bound's
replicates are cells of a ``bits`` plan, and the reduction bound's routed
cells of a ``grid_ranges`` plan forecast by a fresh ``PatternRouter``,
whose suite adds the exact cell triangle bound (``check_cell_triangle``).
A cell result holds what one cell knows: ``err``, ``checks``, ``extras``
and ``violations``.  Every replicate, the reduction's standalone cells
too, runs through ``_run_cells``, which names a failing cell's run, T,
replicate and stream and folds a T's cells once into ``Cells``.

The pathwise inequality suite runs inside every replicate: telescoping
and difference-of-two everywhere, the context decomposition for the
threshold trio, time-quantization and prediction-diversity on the
signed-noise grid environment, block mass / Parseval / bias-averaging
whenever a block layout is in play, and the squared-loss controls on the
bit environment.  Each inequality is one ``calibration.CheckSummary`` per
replicate, decided exactly in integers; violations (one per failing
comparison) are counted and must be zero.  A T's ``Cells`` fold keeps the
tightest slack per inequality and the failing summaries; each scaling row
and each bound runner's ``details["per_T"][T]`` hand them on as
``min_slack`` and ``failed``, which the manifest of every command records
as ``pathwise_min_slack@T=<T>/<check>=`` and ``pathwise_violation@`` lines.
A row's ``per_group_mean`` is a ``CalibrationReport`` of the mean Err
vector in family order; the groups CSV sorts its ids when it is written.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Optional

import numpy as np

from ._kernels import _walk_dtype, prefix_extent
from .calibration import (
    CalibrationReport,
    DeviationStats,
    Predictions,
    RunSkeleton,
    ScaledRun,
    SkeletonRun,
    accumulate_run,
    block_decompose,
    check_bias_averaging,
    check_bits_mse,
    check_block_mass,
    check_block_parseval,
    check_cell_triangle,
    check_diff_two,
    check_g4_context_decomp,
    check_l1_quantization,
    check_n_from_a,
    check_telescoping,
    deviation_stats,
    format_float,
    marginal_err,
    miss_count,
)
from .environments import (
    RoundRobin,
    Trajectory,
    bernoulli_contexts,
    grid_bits,
    grid_section3,
    grid_section4,
    rademacher_contexts,
    sample_bernoulli_env,
    sample_bit_env,
    sample_rademacher_env,
    section3_grid_count,
    section4_grid_count,
    substream,
)
from .forecasters import (
    MAX_Q,
    Forecaster,
    PatternRouter,
    ProperReduction,
    make_forecaster_factory,
    run_forecaster,
)
from .groups import (
    GroupFamily,
    build_bit_family,
    build_block_hadamard_family,
    build_full_walsh_family,
    build_grid_range_family,
    build_pred_threshold_family,
    build_walsh_family,
    default_block_count,
    default_eta,
)
from .orthogonal import BLOCK_ROWS, walsh_rows, walsh_rows_packed

# Exponent acceptance window for the honest/threshold scaling study;
# config constants, not hidden defaults (theory predicts 2/3)
EXPONENT_WINDOW = (0.60, 0.78)

# Desk-scale caps: memory and FWHT cost guards
MAX_T = 1 << 20
MAX_REPLICATES = 10_000
MAX_BLOCK_LENGTH = 1 << 14
# bit contexts: 2^k grid Fractions per draw, and the default oracle Q = 2^k - 1 stays within MAX_Q
MAX_K = MAX_Q.bit_length() - 1

_FORECASTER_STREAM_BIT = 1 << 63


def _int_list(raw: str) -> tuple:
    return tuple(int(s) for s in raw.split(",") if s.strip())


@dataclass(frozen=True)
class Key:
    """A config key: the runner keyword it sets, the cast of its text, its least and greatest value
    (None: unbounded) and what sets the greatest.  A list must also be nonempty and rise strictly."""

    field: str
    cast: Callable = str
    lo: Optional[int] = None
    hi: Optional[int] = None
    cap: str = "the desk-scale cap"

    def check(self, name: str, value) -> None:
        """Raise ValueError naming ``name`` unless ``value`` (None: unset) keeps the limits."""
        if value is None or self.lo is None:
            return
        shown, least, greatest = value, value, value
        if isinstance(value, (tuple, list)):
            if not value:
                raise ValueError(f"{name} is empty; give at least one T")
            shown, least, greatest = ",".join(map(str, value)), value[0], value[-1]
            if list(value) != sorted(set(value)):
                raise ValueError(f"{name}={shown} must be strictly increasing")
        if least < self.lo or (self.hi is not None and greatest > self.hi):
            limits = f"be at least {self.lo}" if self.hi is None else f"lie in {self.lo}..{self.hi}, {self.cap}"
            raise ValueError(f"{name}={shown} must {limits}")


_SEED = Key("seed", int, 0, (1 << 64) - 1, "the 64-bit seed range")  # substream keys Philox with its low 64 bits
_BOUND_REPLICATES = Key("replicates", int, 2, MAX_REPLICATES)  # a bound needs two for a standard error

_RUN_ID = re.compile(r"[A-Za-z0-9_.-]+")  # so the id names files inside --out and no CSV field needs quoting

# every key a command reads, declared once; a key the config leaves out keeps the runner's default
KEYS = {
    "scaling": {
        "run.id": Key("experiment_id"), "run.replicates": Key("replicates", int, 1, MAX_REPLICATES),
        "run.seed": _SEED, "env.kind": Key("env"),
        "env.T_list": Key("T_list", _int_list, 1, MAX_T), "env.m": Key("m", int, 1), "env.k": Key("k", int, 1, MAX_K),
        "forecaster.id": Key("forecaster"), "forecaster.Q": Key("Q", int), "forecaster.offset": Key("offset"),
        "forecaster.value": Key("value"), "forecaster.oracle": Key("oracle"),
        "forecaster.m_copies": Key("m_copies", int), "forecaster.update": Key("update"), "groups.kind": Key("groups"),
        "groups.eta": Key("eta"), "groups.K": Key("K", int, 1), "groups.pieces": Key("pieces", int, 1),
    },
    "oracle": {
        "oracle.T": Key("T", int, 1, MAX_T), "oracle.k": Key("k", int, 1, MAX_K), "oracle.oracle": Key("oracle"),
        "oracle.m_copies": Key("m_copies", int), "oracle.Q": Key("q", int), "oracle.update": Key("update"),
        "run.replicates": _BOUND_REPLICATES, "run.seed": _SEED,
    },
    "reduction": {
        "reduction.T_list": Key("T_list", _int_list, 1, MAX_T), "reduction.pieces": Key("pieces", int, 1),
        "reduction.oracle": Key("oracle"), "reduction.Q": Key("q", int),
        "run.replicates": _BOUND_REPLICATES, "run.seed": _SEED,
    },
}


def check_limits(command: str, **values) -> None:
    """Check ``values``, given by runner keyword, against the limits of ``command``'s keys, naming the key."""
    for key, spec in KEYS[command].items():
        if spec.field in values:
            spec.check(key, values[spec.field])


def fit_exponent(points) -> tuple[float, float, float]:
    """OLS slope of log(value) on log(T): (slope, intercept, slope stderr).

    Needs >= 2 positive points; the stderr is 0 when only two points are
    given (the fit is then exact).
    """
    pts = [(float(t), float(v)) for t, v in points]
    if len(pts) < 2:
        raise ValueError("need at least two points to fit an exponent")
    if any(v <= 0 or t <= 0 for t, v in pts):
        raise ValueError("exponent fit needs positive T and values")
    x = np.log([t for t, _ in pts])
    y = np.log([v for _, v in pts])
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    if sxx == 0:
        raise ValueError("need distinct T values")
    slope = float(((x - xbar) * (y - y.mean())).sum() / sxx)
    intercept = float(y.mean() - slope * xbar)
    n = len(pts)
    if n == 2:
        return slope, intercept, 0.0
    resid = y - (intercept + slope * x)
    stderr = math.sqrt(float((resid**2).sum()) / (n - 2) / sxx)
    return slope, intercept, stderr


@dataclass
class ExperimentConfig:
    """One scaling study.  Construction checks the kinds against their
    tables and builds ``plans``, one ``CellPlan`` per T, so a config that
    cannot build a cell fails before any cell runs."""

    experiment_id: str = "scaling"
    env: str = "bernoulli"
    forecaster: str = "honest"
    groups: str = "pred_threshold"
    T_list: tuple = (1024,)
    replicates: int = 10
    seed: int = 42
    m: Optional[int] = None
    k: int = 3
    Q: Optional[int] = None
    offset: Optional[str] = None
    value: Optional[str] = None
    eta: Optional[str] = None
    K: Optional[int] = None
    pieces: int = 3
    oracle: str = "uniform_random"
    m_copies: int = 1
    update: str = "largest"

    def __post_init__(self):
        self.T_list = tuple(int(t) for t in self.T_list)
        check_limits("scaling", **vars(self))
        if not _RUN_ID.fullmatch(self.experiment_id):
            raise ValueError(f"run.id={self.experiment_id!r} must match {_RUN_ID.pattern}, a file name prefix in --out")
        for key, kind, table in (("env.kind", self.env, ENVS), ("groups.kind", self.groups, FAMILIES)):
            if kind not in table:
                raise KeyError(f"unknown {key}: {kind!r}; accepted: {', '.join(table)}")
        self.plans = {T: _plan(self, T) for T in self.T_list}


@dataclass(frozen=True)
class CellPlan:
    """What every cell at one T runs with: the environment kind, T, the grid
    size m, eta (None unless the family or a ``2eta`` offset takes it), the
    group family with its block layout (``family.layout``, None without
    blocks) and the forecaster factory.  ``skeleton`` builds the cells'
    outcome-free half on first use."""

    env: str
    T: int
    m: int
    eta: Optional[Fraction]
    family: GroupFamily
    forecaster: Callable[[], Forecaster]

    def resolved(self) -> dict:
        """m, and eta, K and L where they apply."""
        out: dict = {"m": self.m}
        if self.eta is not None:
            out["eta"] = self.eta
        if self.family.layout is not None:
            out.update(K=self.family.layout.K, L=self.family.layout.L)
        return out

    @cached_property
    def skeleton(self) -> Optional["CellSkeleton"]:
        """The ``CellSkeleton`` of these cells, built on first access; None
        when they take the general path (``general_replicate``)."""
        return CellSkeleton.build(self)


@dataclass(frozen=True)
class EnvKind:
    """An environment: its default grid size at T, grid for size m and
    sampler, and for a round-robin environment its contexts at (T, m)."""

    grid_count: Callable[[int], int]
    grid: Callable[[ExperimentConfig, int], tuple]
    sample: Callable[[ExperimentConfig, int, int, int], Trajectory]
    contexts: Optional[Callable[[int, int], RoundRobin]] = None


# entries call samplers and family builders by this module's global names
# at call time, so a wrapper installed on one of those names sees every call
ENVS = {
    "bernoulli": EnvKind(
        grid_count=section3_grid_count,
        grid=lambda config, m: tuple(grid_section3(m)),
        sample=lambda config, T, m, stream: sample_bernoulli_env(T, m, config.seed, stream=stream),
        contexts=lambda T, m: bernoulli_contexts(T, m),
    ),
    "rademacher": EnvKind(
        grid_count=section4_grid_count,
        grid=lambda config, m: tuple(grid_section4(m)),
        sample=lambda config, T, m, stream: sample_rademacher_env(T, config.seed, m=m, stream=stream),
        contexts=lambda T, m: rademacher_contexts(T, m),
    ),
    "bits": EnvKind(
        grid_count=section4_grid_count,
        grid=lambda config, m: grid_bits(config.k),
        sample=lambda config, T, m, stream: sample_bit_env(T, config.k, config.seed, stream=stream),
    ),
}


@dataclass(frozen=True)
class FamilyKind:
    """A group family: its builder, the environments it runs on and whether it takes eta."""

    build: Callable[[ExperimentConfig, int, int, Optional[Fraction]], GroupFamily]  # (config, T, m, eta)
    envs: tuple = tuple(ENVS)
    uses_eta: bool = False


FAMILIES = {
    "pred_threshold": FamilyKind(lambda config, T, m, eta: build_pred_threshold_family(m, eta), uses_eta=True),
    # the Walsh halves index the signed-noise grid, grid_section4(m)
    "walsh": FamilyKind(lambda config, T, m, eta: build_walsh_family(m), envs=("rademacher",)),
    "block_hadamard": FamilyKind(
        lambda config, T, m, eta: build_block_hadamard_family(T, config.K or default_block_count(T))
    ),
    "full_walsh": FamilyKind(
        lambda config, T, m, eta: build_full_walsh_family(T, m, config.K or default_block_count(T)),
        envs=("rademacher",),
    ),
    # bit groups read the bit context
    "bits": FamilyKind(lambda config, T, m, eta: build_bit_family(config.k), envs=("bits",)),
    "grid_ranges": FamilyKind(
        lambda config, T, m, eta: build_grid_range_family(list(ENVS[config.env].grid(config, m)), config.pieces)
    ),
}


def cast_value(key: str, raw, cast: Callable):
    """``cast(raw)``; a value the cast refuses names ``key``."""
    try:
        return cast(raw)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"bad value for {key}: {raw!r}") from None


def _forecaster_factory(config: ExperimentConfig, eta: Optional[Fraction]):
    params: dict = {}
    if config.Q is not None:
        params["Q"] = config.Q
    if config.offset is not None:
        params["offset"] = 2 * eta if config.offset == "2eta" else cast_value("forecaster.offset", config.offset, Fraction)
    if config.value is not None:
        params["value"] = cast_value("forecaster.value", config.value, Fraction)
    if config.forecaster == "proper_reduction":
        params.update(oracle=config.oracle, m=config.m_copies, update=config.update)
    try:
        return make_forecaster_factory(config.forecaster, **params)
    except KeyError as exc:
        # proper_reduction is known, so under it only the oracle can be unknown
        key = "forecaster.oracle" if config.forecaster == "proper_reduction" else "forecaster.id"
        raise KeyError(f"unknown {key}: {exc.args[0]!r}") from None


def _plan(config: ExperimentConfig, T: int) -> CellPlan:
    """Resolve m, eta, the family, its layout and the forecaster factory at T."""
    kind = FAMILIES[config.groups]
    if config.env not in kind.envs:
        raise ValueError(
            f"groups.kind={config.groups} does not run on env.kind={config.env}; "
            f"it runs on env.kind={', '.join(kind.envs)}"
        )
    m = int(config.m) if config.m is not None else ENVS[config.env].grid_count(T)
    eta = None
    if kind.uses_eta or config.offset == "2eta":
        eta = default_eta(m, T) if config.eta is None else cast_value("groups.eta", config.eta, Fraction)
    try:
        family = kind.build(config, T, m, eta)
    except ValueError as exc:
        raise ValueError(f"groups.kind={config.groups} at T={T}: {exc}") from None
    if family.layout is not None and family.layout.L > MAX_BLOCK_LENGTH:
        raise ValueError(
            f"block length L={family.layout.L} at T={T} exceeds the desk-scale cap {MAX_BLOCK_LENGTH}; "
            f"raise groups.K to shorten blocks"
        )
    forecaster = _forecaster_factory(config, eta)
    try:
        forecaster()
    except ValueError as exc:
        # name forecaster.id and the forecaster.* keys in play; proper_reduction's three always have values
        names = ("Q", "offset", "value")
        if config.forecaster == "proper_reduction":
            names += ("oracle", "m_copies", "update")
        given = "".join(f", forecaster.{n}={getattr(config, n)}" for n in names if getattr(config, n) is not None)
        raise ValueError(f"forecaster.id={config.forecaster}{given}: {exc}") from None
    return CellPlan(config.env, T, m, eta, family, forecaster)


def _cell_stream(T: int, rep: int) -> int:
    return (T << 24) + rep


def _cell(config: ExperimentConfig, plan: CellPlan, stream: int, forecaster: Forecaster) -> dict:
    """Sample the plan's environment on ``stream``, run ``forecaster`` on the
    paired forecaster stream, build the run and return its cell result."""
    traj = ENVS[plan.env].sample(config, plan.T, plan.m, stream)
    rng = substream(config.seed, stream | _FORECASTER_STREAM_BIT)
    run = ScaledRun.build(traj, run_forecaster(traj, forecaster, rng), *plan.family.required_denominators())
    return _cell_result(plan, run, *_outcome_free(plan, run), forecaster)


@dataclass(frozen=True, eq=False)
class CellSkeleton:
    """The outcome-free half of every cell at one T of a plan whose
    environment is a round robin and whose forecaster is oblivious.

    Contexts, predictions, the scale, the buckets, the direct group weights
    and the deviation statistics are the same in every replicate; only
    the heads differ.  The skeleton holds the contexts (``env``), the
    ``RunSkeleton`` of the run at heads = 0, the eta statistics at
    heads = 0 (None without the threshold trio), and the checks and
    extras that read no outcome.
    """

    env: RoundRobin
    run: RunSkeleton
    stats: Optional[DeviationStats]
    checks: list
    extras: dict

    @classmethod
    def build(cls, plan: CellPlan) -> Optional["CellSkeleton"]:
        """The skeleton of the plan's cells, or None without one.

        An oblivious forecaster reads only the context means and T, so it
        predicts all T rounds once, from the means alone; a prediction
        that does not repeat with the context period n raises
        ``ValueError``.  Without a layout nothing the skeleton keeps reads
        round order, and its run at heads = 0 is one round robin of
        columns: the first min(n, T) rounds, each weighted by the rounds
        that show its column (``RoundRobin.rounds_per_column``).  A layout
        reads round order (its ``BlockRows``, each round's residual and the
        per-block squared deviations), so its run holds every round."""
        contexts = ENVS[plan.env].contexts
        forecaster = plan.forecaster()
        if contexts is None or not forecaster.oblivious:
            return None
        env = contexts(plan.T, plan.m)
        n, T = len(env.grid), plan.T
        # the run at heads = 0
        if plan.family.layout is None:
            traj = env.trajectory(np.zeros(min(n, T), dtype=bool))
            mult = env.rounds_per_column()[: traj.T]
            # the one length-T input: the context means of all T rounds, all the forecaster reads
            means = replace(traj, T=T, x_num=np.tile(env.num, -(-T // n))[:T])
        else:
            traj = means = env.trajectory(np.zeros(T, dtype=bool))
            mult = None
        pred = run_forecaster(means, forecaster)
        # p[t] == p[t % n] for every t: each prediction equals the one a period before it
        if not np.array_equal(pred.num[n:], pred.num[:-n]):
            raise ValueError(f"predictions do not repeat with the context period {n}")
        run = ScaledRun.build(
            traj, Predictions(pred.num[: traj.T], pred.den), *plan.family.required_denominators(), mult=mult
        )
        checks, extras, stats = _outcome_free(plan, run)
        skeleton = RunSkeleton.build(run, plan.family, n, env.step)
        return cls(env, skeleton, stats, checks, extras)


def run_replicate(config: ExperimentConfig, T: int, rep: int) -> dict:
    """One (T, replicate) cell of the plan at T.  With a skeleton it draws
    the outcomes on the cell's stream and forms only the sums that read
    them: without a block layout one binomial head count per context
    column (``RoundRobin.draw_counts``), with one the T per-round heads
    (``RoundRobin.draw``).  Otherwise it is ``general_replicate``."""
    plan = config.plans[T]
    skeleton = plan.skeleton
    if skeleton is None:
        return general_replicate(config, T, rep)
    rng = substream(config.seed, _cell_stream(T, rep))
    if skeleton.run.rows is None:
        run = SkeletonRun(skeleton.run, skeleton.env.draw_counts(rng))
    else:
        run = SkeletonRun.from_heads(skeleton.run, skeleton.env.draw(rng))
    return _skeleton_cell(plan, run)


def _skeleton_cell(plan: CellPlan, run: SkeletonRun) -> dict:
    """The cell of one outcome draw on the plan's skeleton."""
    skeleton = plan.skeleton
    stats = None if skeleton.stats is None else run.deviation_stats(skeleton.stats)
    return _cell_result(plan, run, skeleton.checks, skeleton.extras, stats)


def general_replicate(config: ExperimentConfig, T: int, rep: int) -> dict:
    """One (T, replicate) cell through ``ScaledRun.build``: sample, forecast,
    accumulate, check.  Every plan can run it.  For a plan with a skeleton
    it is the reference the skeleton cell must equal on the same heads
    (``SkeletonRun.from_heads``).  A layout cell's ``run_replicate`` draws
    those heads and equals it; a layout-free one draws its column counts
    directly, so the two agree in law, not draw for draw."""
    plan = config.plans[T]
    return _cell(config, plan, _cell_stream(T, rep), plan.forecaster())


def _outcome_free(plan: CellPlan, run: ScaledRun) -> tuple[list, dict, Optional[DeviationStats]]:
    """The checks and extras of a cell that read no outcome: the signed-noise
    grid's deviation statistics and its block bias transform D.  Also the eta
    statistics the context decomposition reads (None without the threshold
    trio), whose N_x alone reads outcomes."""
    m, layout = plan.m, plan.family.layout
    eta_stats = deviation_stats(run, eta=plan.eta) if plan.family.kind == "pred_threshold" else None
    checks, extras = [], {}
    if plan.env == "rademacher":
        stats = deviation_stats(run, layout=layout)
        checks += [check_l1_quantization(stats, m), check_n_from_a(stats, m)]
        extras["A"] = float(stats.A)
        if layout is not None:
            checks.extend(check_block_mass(stats))
            d = block_decompose(run, layout)
            checks += [check_block_parseval(d, stats), check_bias_averaging(d, stats)]
    return checks, extras, eta_stats


def _cell_result(plan: CellPlan, run, free_checks: list, free_extras: dict, eta_stats, forecaster=None) -> dict:
    """Accumulate the run, check it and report: err, checks, extras and violations."""
    ledger = accumulate_run(run, plan.family)
    err, extras = ledger.report(), {}
    checks = [check_telescoping(ledger), check_diff_two(ledger)]
    if isinstance(forecaster, PatternRouter):
        checks.append(check_cell_triangle(ledger, {z: forecaster.cell_err(z) for z in forecaster.cells}))
    if eta_stats is not None:
        checks.append(check_g4_context_decomp(ledger, eta_stats, plan.eta, plan.m))
        extras["sum_abs_nx"] = float(np.abs(eta_stats.N_x_num).sum()) / eta_stats.scale
    checks += free_checks
    extras.update(free_extras)
    if plan.env == "bits":
        checks.extend(check_bits_mse(ledger))
        extras["misses"] = float(miss_count(run))
    # one name per failing comparison, in check order
    violations = [c.name for c in checks for _ in range(c.failures)]
    return {"err": err, "checks": checks, "extras": extras, "violations": violations}


class Cells:
    """The results of one T's cells, folded once, in replicate order, each
    as its cell finishes; no cell result is kept."""

    def __init__(self, replicates: int):
        self.replicates = replicates
        # C-contiguous (groups, replicates) float64 in family order: each row mean sums in np.mean's order
        self.err: Optional[np.ndarray] = None
        self.mcerr = np.empty(replicates)
        self.extras: dict = {}  # key -> (replicates,) float64
        self.failed: list = []  # every failing (rep, CheckSummary), in replicate and then check order
        self.violations = 0  # one per failing comparison
        self.min_slack: dict = {}  # check name -> tightest slack, in the order the checks are first seen

    def add(self, rep: int, result: dict) -> None:
        """Fold replicate ``rep``'s cell result: its error vector into column ``rep``."""
        report = result["err"]
        if self.err is None:
            self.err = np.empty((len(report.vector), self.replicates))
            self.extras = {key: np.empty(self.replicates) for key in result["extras"]}
        self.err[:, rep] = report.vector
        self.mcerr[rep] = report.mcerr
        for key, values in self.extras.items():
            values[rep] = result["extras"][key]
        for c in result["checks"]:
            if c.failures:
                self.failed.append((rep, c))
                self.violations += c.failures
            if c.count:
                self.min_slack[c.name] = min(c.min_slack, self.min_slack.get(c.name, c.min_slack))


def mean_se(x: np.ndarray) -> tuple[float, float]:
    """The mean of ``x`` and its standard error, nan for one value."""
    return float(x.mean()), (float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else math.nan)


def _run_cells(name: str, T: int, replicates: int, cell: Callable[[int, int], dict], stream=_cell_stream) -> Cells:
    """The fold of ``cell(rep, stream(T, rep))`` for rep = 0..replicates-1 at T, run in replicate order."""
    cells = Cells(replicates)
    for rep in range(replicates):
        try:
            result = cell(rep, stream(T, rep))
        except Exception as exc:
            # same exception type, so callers' handlers still apply; the message names the cell
            exc.args = (f"{name}: cell T={T} rep={rep} stream={stream(T, rep)}: {exc}",)
            raise
        cells.add(rep, result)
    return cells


@dataclass
class ScalingRow:
    T: int
    replicates: int
    mean_mcerr: float
    stderr: float  # nan for one replicate
    argmax_group: str
    per_group_mean: CalibrationReport  # group id -> mean Err, in family order
    violations: int
    extras_mean: dict
    min_slack: dict  # check name -> tightest slack over the replicates
    failed: list  # every failing (rep, CheckSummary), in replicate and then check order


@dataclass
class ScalingResult:
    config: ExperimentConfig
    rows: list
    exponent: float
    intercept: float
    exponent_stderr: float
    stage_s: dict = field(default_factory=dict)  # stage name -> wall seconds, summed over the T ladder

    @property
    def exponent_ci95(self) -> tuple[float, float]:
        half = 1.96 * self.exponent_stderr
        return (self.exponent - half, self.exponent + half)

    def total_violations(self) -> int:
        return sum(r.violations for r in self.rows)


def run_scaling(config: ExperimentConfig) -> ScalingResult:
    """Replicated Monte Carlo across the T ladder plus a log-log fit.  Each T's
    cells run in (T, replicate) order and fold into its row before the next T's
    start.  ``stage_s`` holds the wall time of the cells and of their rows."""
    rows = []
    cells_s = aggregate_s = 0.0
    for T in config.T_list:
        start = time.perf_counter()
        cells = _run_cells(config.experiment_id, T, config.replicates, lambda rep, _: run_replicate(config, T, rep))
        ran = time.perf_counter()
        cells_s += ran - start
        family = config.plans[T].family
        means = cells.err.mean(axis=-1)
        ids = family.ids()
        mean_mcerr, stderr = mean_se(cells.mcerr)
        rows.append(
            ScalingRow(
                T=T,
                replicates=len(cells.mcerr),
                mean_mcerr=mean_mcerr,
                stderr=stderr,
                argmax_group=min(ids[i] for i in np.flatnonzero(means == means.max())),  # ties: the smallest id
                per_group_mean=CalibrationReport(family.index, means),
                violations=cells.violations,
                extras_mean={key: float(v.mean()) for key, v in cells.extras.items()},
                min_slack=cells.min_slack,
                failed=cells.failed,
            )
        )
        aggregate_s += time.perf_counter() - ran

    # a zero mean (an exactly calibrated run) has no logarithm: its exponent is nan, as for one T
    if len(rows) >= 2 and all(r.mean_mcerr > 0 for r in rows):
        slope, intercept, se = fit_exponent([(r.T, r.mean_mcerr) for r in rows])
    else:
        slope, intercept, se = float("nan"), float("nan"), float("nan")
    return ScalingResult(
        config=config, rows=rows, exponent=slope, intercept=intercept, exponent_stderr=se,
        stage_s={"cells": cells_s, "aggregate": aggregate_s},
    )


# ---------------------------------------------------------------------------
# Bound checks
# ---------------------------------------------------------------------------


@dataclass
class BoundRecord:
    """One (measured, bound) comparison; margin > 0 means satisfied."""

    check_id: str
    measured: float
    bound: float
    direction: str  # 'ge': measured >= bound; 'le': measured <= bound

    @property
    def margin(self) -> float:
        return self.measured - self.bound if self.direction == "ge" else self.bound - self.measured

    @property
    def passed(self) -> bool:
        return self.margin >= 0


def _oracle_factory(prefix: str, oracle: str, q: int):
    """``make_forecaster_factory(oracle, Q=q)``, tried once: an unknown oracle
    names ``<prefix>.oracle``; a forecaster that cannot be built with Q, or
    that reads its context, names ``<prefix>.oracle`` and ``<prefix>.Q``."""
    try:
        factory = make_forecaster_factory(oracle, Q=q)
        blind = factory().context_blind
    except KeyError:
        raise KeyError(f"unknown {prefix}.oracle: {oracle!r}") from None
    except ValueError as exc:
        raise ValueError(f"{prefix}.oracle={oracle}, {prefix}.Q={q}: {exc}") from None
    if not blind:
        raise ValueError(
            f"{prefix}.oracle={oracle} reads its context; accepted: the context-blind "
            f"oracles uniform_random, empirical_mean_bucket"
        )
    return factory


def oracle_bound_value(T: int, k: int, m_copies: int) -> float:
    n = 1 << k
    return (1.0 / 8.0) * (1.0 - m_copies / n) * T / n**2


def run_oracle_bound(
    T: int = 10_000,
    k: int = 3,
    m_copies: int = 1,
    oracle: str = "uniform_random",
    q: Optional[int] = None,
    update: str = "largest",
    replicates: int = 100,
    seed: int = 42,
) -> tuple[list[BoundRecord], dict]:
    """Proper m-copy reduction on the bit environment versus the theory floor.

    Replicate ``rep`` is a cell of a ``bits`` plan drawn on environment
    stream ``rep`` and checked by the cell's pathwise suite.  ``details``
    holds the seed and ``per_T[T]``: the fold's ``min_slack`` and ``failed``."""
    check_limits("oracle", T=T, k=k, replicates=replicates, seed=seed)
    n = 1 << k
    q = q if q is not None else n - 1
    factory = _oracle_factory("oracle", oracle, q)
    try:
        ProperReduction(factory, m_copies, update_policy=update)
    except ValueError as exc:
        raise ValueError(f"oracle.m_copies={m_copies}, oracle.update={update}: {exc}") from None
    config = ExperimentConfig(
        env="bits", forecaster="proper_reduction", groups="bits", T_list=(T,), replicates=replicates, seed=seed,
        k=k, Q=q, oracle=oracle, m_copies=m_copies, update=update,
    )
    plan = config.plans[T]
    # environment stream rep, not _cell_stream(T, rep), so the bound's draws keep their bytes
    cells = _run_cells(
        "oracle bound", T, replicates, lambda rep, stream: _cell(config, plan, stream, plan.forecaster()),
        stream=lambda T, rep: rep,
    )
    misses = cells.extras["misses"]
    miss_spread = misses.std(ddof=1)
    miss_se = float(miss_spread) / T / math.sqrt(replicates)
    records = [
        BoundRecord("oracle_mcerr_floor", float(cells.mcerr.mean()), oracle_bound_value(T, k, m_copies), "ge"),
        BoundRecord("oracle_miss_rate", float(misses.mean()) / T, (1 - m_copies / n) - 3 * miss_se, "ge"),
        BoundRecord(
            "oracle_correct_mass",
            float(T - misses.mean()),
            (m_copies / n) * T + 3 * float(miss_spread / math.sqrt(replicates)),
            "le",
        ),
        BoundRecord("oracle_pathwise_violations", float(cells.violations), 0.0, "le"),
    ]
    return records, {"seed": seed, "per_T": {T: {"min_slack": cells.min_slack, "failed": cells.failed}}}


def _concave_envelope(points) -> tuple[float, float]:
    """Fit R_hat(n) = c n^beta dominating all measured means, beta <= 1."""
    slope, intercept, _ = fit_exponent(points)
    beta = min(slope, 1.0)
    c = max(v / n**beta for n, v in points)
    return c, beta


def run_reduction_bound(
    T_list=(1024,),
    replicates: int = 50,
    seed: int = 42,
    pieces: int = 3,
    oracle: str = "empirical_mean_bucket",
    q: int = 4,
) -> tuple[list[BoundRecord], dict]:
    """Pattern routing over disjoint context groups versus cellwise envelopes.

    Measures the standalone oracle's marginal calibration curve on each
    cell's context sub-grid at the realized cell lengths, fits a concave
    power envelope, and checks the router's measured multicalibration
    against the cell sum.  Each replicate is a routed cell whose suite
    checks the triangle inequality Err(g_j) <= sum of its cells' errors
    pathwise.  ``details`` holds the seed, the envelope's ``c`` and
    ``beta``, and ``per_T[T]``: the first routed cell's ``cells`` summary
    and the fold's ``min_slack`` and ``failed``.
    """
    check_limits("reduction", T_list=T_list, pieces=pieces, replicates=replicates, seed=seed)
    factory = _oracle_factory("reduction", oracle, q)
    for T in T_list:
        points = len(grid_section3(section3_grid_count(T)))
        Key("pieces", int, 1, points, f"the grid points at T={T}").check("reduction.pieces", pieces)
    config = ExperimentConfig(env="bernoulli", groups="grid_ranges", T_list=T_list, seed=seed, pieces=pieces)
    records: list[BoundRecord] = []
    envelope_points = []
    standalone: dict = {}
    lengths: dict = {}  # T -> the realized cell lengths

    for T, plan in config.plans.items():
        family = plan.family
        grid = family.grid
        # realized cell lengths are deterministic under round-robin contexts
        counts = ENVS[plan.env].contexts(T, plan.m).rounds_per_column()
        cell_lengths = lengths[T] = [int(counts[g.lo : g.hi + 1].sum()) for g in family]
        if 0 in cell_lengths:
            raise ValueError(f"reduction.T_list: T={T} leaves one of the reduction.pieces={pieces} cells without rounds")
        for z, (g, t_z) in enumerate(zip(family, cell_lengths)):
            cell_grid, cell_seed = grid[g.lo : g.hi + 1], seed + 1000 + z
            cells = _run_cells(
                f"reduction bound standalone z={z} seed={cell_seed}", T, replicates,
                lambda rep, stream: _standalone_cell(cell_grid, t_z, factory, cell_seed, stream),
                stream=lambda T, rep: rep,
            )
            standalone[(T, z)] = mean_se(cells.mcerr)
            envelope_points.append((t_z, standalone[(T, z)][0]))

    c, beta = _concave_envelope(envelope_points)
    details: dict = {"seed": seed, "envelope": {"c": c, "beta": beta}, "per_T": {}}

    for T, plan in config.plans.items():
        per_T = details["per_T"][T] = {}

        def routed(rep, stream):
            router = PatternRouter(factory, plan.family)
            result = _cell(config, plan, stream, router)
            if rep == 0:
                per_T["cells"] = router.cell_summary()
            return result

        cells = _run_cells("reduction bound", T, replicates, routed)
        envelope_sum = sum(c * t_z**beta for t_z in lengths[T])
        records.append(BoundRecord(f"reduction_mcerr_vs_cells@T={T}", float(cells.mcerr.mean()), envelope_sum, "le"))
        records.append(BoundRecord(f"reduction_pathwise@T={T}", float(cells.violations), 0.0, "le"))
        for j, g in enumerate(plan.family):
            smean, sse = standalone[(T, j)]  # disjoint groups: cell index == group index
            rmean, rse = mean_se(cells.err[j])
            tol = 3.0 * math.sqrt(sse**2 + rse**2)
            records.append(BoundRecord(f"reduction_matched@T={T}/{g.id}", abs(rmean - smean), tol, "le"))
        per_T.update(min_slack=cells.min_slack, failed=cells.failed)
    return records, details


def _standalone_cell(cell_grid, t_z: int, factory, seed: int, stream: int) -> dict:
    """The cell result of the standalone oracle on one cell's sub-grid, drawn on ``stream``: its marginal Err."""
    from .environments import sample_bernoulli_on_grid

    traj = sample_bernoulli_on_grid(cell_grid, t_z, seed, stream=stream)
    pred = run_forecaster(traj, factory(), substream(seed, stream | _FORECASTER_STREAM_BIT))
    err = float(marginal_err(pred.num, pred.den, traj.y_num, traj.den))
    return {"err": CalibrationReport({"marginal": 0}, np.array([err])), "checks": [], "extras": {}, "violations": []}


# ---------------------------------------------------------------------------
# Exact identity suite
# ---------------------------------------------------------------------------


def _powers_of_two(lo: int, hi: int):
    n = lo
    while n <= hi:
        yield n
        n *= 2


def walsh_prefix_violations(n: int, bounds: np.ndarray, block_rows: int = BLOCK_ROWS) -> int:
    """Rows j = 1..n-1 of the length-``n`` Walsh system whose largest
    |prefix sum| exceeds ``bounds[j - 1]``.

    Rows are built ``block_rows`` at a time as packed sign bytes and each
    row's largest |prefix sum| is taken byte by byte (``prefix_extent``:
    one cumsum over the n/8 byte starts and the per-byte prefix extremes),
    so memory stays O(block_rows * n / 8), not O(n^2).
    """
    bad = 0
    for lo in range(1, n, block_rows):
        hi = min(lo + block_rows, n)
        extent = prefix_extent(walsh_rows_packed(lo, hi, n), n)
        bad += int(np.count_nonzero(extent > bounds[lo - 1 : hi - 1]))
    return bad


def run_identity_suite(
    h1_max: int = 1024,
    prefix_max: int = 4096,
    expansion_max: int = 1024,
    block_max: int = 256,
    seed: int = 0,
) -> list[BoundRecord]:
    """Zero-tolerance identity checks; measured values are violation counts."""
    from .calibration import BiasLedger
    from .groups import ConstantGroup
    from .orthogonal import fwht, threshold_blocks

    records = []

    # the Walsh and threshold checks take BLOCK_ROWS rows at a time, never an
    # n x n or (m + 1) x m array: fwht of Walsh rows lo..hi-1 is rows
    # lo..hi-1 of n I
    bad = 0
    for n in _powers_of_two(1, h1_max):
        for lo in range(0, n, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, n)
            expected = np.zeros((hi - lo, n), dtype=np.int64)
            expected[np.arange(hi - lo), np.arange(lo, hi)] = n
            bad += int(np.count_nonzero(fwht(walsh_rows(lo, hi, n)) != expected))
    records.append(BoundRecord("identity_h1_orthogonality", float(bad), 0.0, "le"))

    bad = 0
    for n in _powers_of_two(2, prefix_max):
        j = np.arange(1, n)
        bad += walsh_prefix_violations(n, j & -j)
    records.append(BoundRecord("identity_walsh_prefix", float(bad), 0.0, "le"))

    # one transform per rank block serves the reconstruction and the L1
    # column max, both on the integer coefficients m * alpha (|m * alpha| <= m),
    # and the L1 bound sum_l max_r |m * alpha_l(r)| <= m * (1 + log2 m) is
    # compared exactly
    bad = 0
    for m in _powers_of_two(2, expansion_max):
        col_max = np.zeros(m, dtype=np.int64)
        for signs, coef in threshold_blocks(m):
            recon = fwht(coef.astype(_walk_dtype(m))) // m
            bad += int(np.count_nonzero(recon != signs))
            np.maximum(col_max, np.abs(coef).max(axis=0), out=col_max)
        if int(col_max.sum()) > m * m.bit_length():
            bad += 1
    records.append(BoundRecord("identity_threshold_expansion", float(bad), 0.0, "le"))

    bad = 0
    for L in _powers_of_two(2, block_max):
        T = 2 * L
        traj = sample_rademacher_env(T, seed, m=2)
        fam = build_block_hadamard_family(T=T, K=2)
        run = ScaledRun.build(traj, Predictions(num=np.zeros(T, dtype=np.int64), den=1))
        # row a - 1 is the indicator of block a
        expected = np.repeat(np.eye(2, dtype=np.int64), L, axis=1)
        for plus, minus in fam.signed_pairs():
            w = plus.weights(run).astype(np.int64) + minus.weights(run)
            bad += int(np.count_nonzero(w != expected[plus.a - 1]))
    records.append(BoundRecord("identity_half_group_complement", float(bad), 0.0, "le"))

    traj = sample_bernoulli_env(T=512, m=8, seed=seed)
    fam = build_pred_threshold_family(8, Fraction(1, 16))
    fam.groups.append(ConstantGroup())
    ledger = BiasLedger(fam)
    rng = substream(seed, 7)
    total = Fraction(0)
    for t in range(traj.T):
        p = Fraction(int(rng.integers(0, 17)), 16)
        y = traj.outcome(t)
        ledger.record_round(traj.context(t), p, y)
        total += p - y
    records.append(
        BoundRecord(
            "identity_ledger_telescoping",
            float(ledger.telescoped("g_all") != total),
            0.0,
            "le",
        )
    )
    return records


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


_BOOL = {True: "true", False: "false"}.__getitem__
# keyed by exact type: one lookup per field keeps pace with the csv module; an isinstance chain took twice as long
_FORMAT = {float: format_float, np.float64: format_float, bool: _BOOL, np.bool_: _BOOL}
# lines per write: the file streams, and a whole-table join would hold every line at once
CHUNK_LINES = 4096


def write_lines(path, header, lines) -> None:
    """Write ``header`` and then ``lines`` to ``path`` in the one CSV dialect of the package: utf-8,
    fields joined by commas and never quoted, each line ended by ``\\n``.  ``lines`` are rendered
    lines without their end, taken and written ``CHUNK_LINES`` at a time."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(lines, CHUNK_LINES)):
            fh.write("\n".join(chunk) + "\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` through ``write_lines``, a float (numpy's float64
    too) written by ``format_float``, a bool (numpy's too) as ``true``/``false`` and anything else by
    ``str``."""
    write_lines(path, header, (",".join([_FORMAT.get(type(v), str)(v) for v in row]) for row in rows))


def write_family_csv(path, config: ExperimentConfig) -> None:
    rows = ((T, *row) for T, plan in config.plans.items() for row in plan.family.manifest_rows())
    write_csv(path, ("T", "group_id", "kind", "params"), rows)


def write_scaling_csv(path, result: ScalingResult) -> None:
    eid = result.config.experiment_id
    rows = ((eid, row.T, row.replicates, row.mean_mcerr, row.stderr, row.argmax_group) for row in result.rows)
    write_csv(path, ("experiment_id", "T", "replicate_count", "mean_mcerr", "stderr", "argmax_group"), rows)


def _group_lines(eid: str, T: int, means: CalibrationReport):
    """The groups-CSV lines of one T in sorted id order, the bytes ``write_csv`` gives its sorted
    (eid, T, id, mean) rows.  Each distinct mean is formatted once, keyed by its float64 bits so that
    -0.0 stays apart from 0.0."""
    ids = sorted(means.index)
    vector = means.vector[[means.index[gid] for gid in ids]]
    bits, inverse = np.unique(vector.view(np.int64), return_inverse=True)
    texts = ["," + format_float(v) for v in bits.view(np.float64).tolist()]
    prefixes = map(f"{eid},{T},".__add__, ids)
    return map(str.__add__, prefixes, map(texts.__getitem__, inverse.tolist()))


def write_per_group_csv(path, result: ScalingResult) -> None:
    eid = result.config.experiment_id
    lines = chain.from_iterable(_group_lines(eid, row.T, row.per_group_mean) for row in result.rows)
    write_lines(path, ("experiment_id", "T", "group_id", "mean_err"), lines)


def write_bounds_csv(path, records) -> None:
    rows = ((r.check_id, r.measured, r.bound, r.margin, r.passed) for r in records)
    write_csv(path, ("check_id", "measured", "bound", "margin", "pass"), rows)
