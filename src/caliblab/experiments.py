"""Experiment orchestration: scaling studies, oracle/reduction bound checks,
log-log exponent fits, and CSV outputs.

Every (T, replicate) cell derives its own Philox streams from the master
seed, so results are independent of scheduling order; aggregation is a
deterministic fold in (T, replicate) order.  Reruns with the same config
and seed produce byte-identical CSVs.

The pathwise inequality suite runs inside every replicate (unless
disabled): telescoping and difference-of-two everywhere, the context
decomposition for the threshold trio, time-quantization and
prediction-diversity on the signed-noise grid environment, block mass /
Parseval / bias-averaging whenever a block layout is in play, and the
squared-loss controls on the bit environment.  Each inequality is one
``calibration.CheckSummary`` per replicate; violations (one per failing
comparison) are counted and must be zero, and each scaling row keeps the
tightest slack per inequality over its replicates, which the scaling
manifest records as ``pathwise_min_slack@T=<T>/<check>=`` lines.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .calibration import (
    Predictions,
    ScaledRun,
    accumulate_run,
    block_decompose,
    check_bias_averaging,
    check_bits_mse,
    check_block_mass,
    check_block_parseval,
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
    Trajectory,
    grid_section3,
    sample_bernoulli_env,
    sample_bit_env,
    sample_rademacher_env,
    section3_grid_count,
    section4_grid_count,
    substream,
)
from .forecasters import (
    PatternRouter,
    ProperReduction,
    context_blind,
    make_forecaster_factory,
    run_forecaster,
)
from .groups import (
    build_bit_family,
    build_block_hadamard_family,
    build_full_walsh_family,
    build_grid_range_family,
    build_pred_threshold_family,
    build_walsh_family,
    default_block_count,
    default_eta,
)
from .orthogonal import walsh_rows

# Exponent acceptance window for the honest/threshold scaling study;
# config constants, not hidden defaults (theory predicts 2/3)
EXPONENT_WINDOW = (0.60, 0.78)

# Diagnostic floor for E[sum_v |Nz|] log2(L+1) / E[N_a] per Hadamard index,
# calibrated on honest runs (observed minima ~2.2 across L in 2^5..2^11)
NOISE_FLOOR_DIAG = 0.2

# Desk-scale caps: memory and FWHT cost guards
MAX_T = 1 << 20
MAX_REPLICATES = 10_000
MAX_BLOCK_LENGTH = 1 << 14

_FORECASTER_STREAM_BIT = 1 << 63


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
    workers: int = 1
    checks: bool = True

    def __post_init__(self):
        self.T_list = tuple(int(t) for t in self.T_list)
        if list(self.T_list) != sorted(set(self.T_list)):
            raise ValueError("T list must be strictly increasing")
        if self.T_list and self.T_list[-1] > MAX_T:
            raise ValueError(f"T={self.T_list[-1]} exceeds the desk-scale cap {MAX_T}")
        if self.replicates > MAX_REPLICATES:
            raise ValueError(f"replicates={self.replicates} exceeds the cap {MAX_REPLICATES}")


def _env_grid_count(config: ExperimentConfig, T: int) -> int:
    if config.m is not None:
        return int(config.m)
    if config.env == "bernoulli":
        return section3_grid_count(T)
    return section4_grid_count(T)


def _resolve_eta(config: ExperimentConfig, m_env: int, T: int) -> Fraction:
    if config.eta is not None:
        return Fraction(config.eta)
    return default_eta(m_env, T)


def _build_family(config: ExperimentConfig, T: int, m_env: int, traj_grid):
    if config.groups == "pred_threshold":
        return build_pred_threshold_family(m_env, _resolve_eta(config, m_env, T)), None
    if config.groups == "walsh":
        return build_walsh_family(m_env), None
    if config.groups == "block_hadamard":
        layout, fam = build_block_hadamard_family(T, config.K or default_block_count(T))
        _check_block_cap(layout)
        return fam, layout
    if config.groups == "full_walsh":
        layout, fam = build_full_walsh_family(T, m_env, config.K or default_block_count(T))
        _check_block_cap(layout)
        return fam, layout
    if config.groups == "bits":
        return build_bit_family(config.k), None
    if config.groups == "grid_ranges":
        return build_grid_range_family(list(traj_grid), config.pieces), None
    raise KeyError(config.groups)


def _check_block_cap(layout) -> None:
    if layout.L > MAX_BLOCK_LENGTH:
        raise ValueError(
            f"block length L={layout.L} exceeds the desk-scale cap {MAX_BLOCK_LENGTH}; "
            f"raise groups.K to shorten blocks"
        )


def _forecaster_params(config: ExperimentConfig, eta: Optional[Fraction]) -> dict:
    params: dict = {}
    if config.Q is not None:
        params["Q"] = config.Q
    if config.offset is not None:
        if config.offset == "2eta":
            if eta is None:
                raise ValueError("offset '2eta' needs a threshold family")
            params["offset"] = 2 * eta
        else:
            params["offset"] = Fraction(config.offset)
    if config.value is not None:
        params["value"] = Fraction(config.value)
    if config.forecaster == "proper_reduction":
        params.update(oracle=config.oracle, m=config.m_copies, update=config.update)
    return params


def _sample_env(config: ExperimentConfig, T: int, m_env: int, stream: int) -> Trajectory:
    if config.env == "bernoulli":
        return sample_bernoulli_env(T, m_env, config.seed, stream=stream)
    if config.env == "rademacher":
        return sample_rademacher_env(T, config.seed, m=m_env, stream=stream)
    if config.env == "bits":
        return sample_bit_env(T, config.k, config.seed, stream=stream)
    raise KeyError(config.env)


def _cell_stream(T: int, rep: int) -> int:
    return (T << 24) + rep


def run_replicate(config: ExperimentConfig, T: int, rep: int) -> dict:
    """One (T, replicate) cell: sample, forecast, accumulate, check."""
    m_env = _env_grid_count(config, T)
    stream = _cell_stream(T, rep)
    traj = _sample_env(config, T, m_env, stream)
    family, layout = _build_family(config, T, m_env, traj.grid)
    eta = family.eta if family.kind == "pred_threshold" else None
    params = _forecaster_params(config, eta if eta is not None else _maybe_eta(config, m_env, T))
    forecaster = make_forecaster_factory(config.forecaster, **params)()
    rng = substream(config.seed, stream | _FORECASTER_STREAM_BIT)
    pred = run_forecaster(traj, forecaster, rng)

    run = ScaledRun.build(traj, pred, *family.required_denominators())
    ledger = accumulate_run(run, family)
    report = ledger.report()
    out = {
        "mcerr": report.mcerr,
        "err": report.err,
        "argmax": report.argmax_group,
        "violations": [],
        "min_slack": {},
        "extras": {},
    }
    if not config.checks:
        return out

    checks = [check_telescoping(ledger), check_diff_two(ledger)]
    if family.kind == "pred_threshold":
        stats = deviation_stats(run, eta=eta)
        checks.append(check_g4_context_decomp(ledger, stats, eta, m_env))
        out["extras"]["sum_abs_nx"] = float(np.abs(stats.N_x_num).sum()) / stats.scale
    if config.env == "rademacher":
        stats = deviation_stats(run, layout=layout)
        checks.append(check_l1_quantization(stats, m_env))
        checks.append(check_n_from_a(stats, m_env))
        out["extras"]["A"] = float(stats.A)
        if layout is not None:
            checks.extend(check_block_mass(stats))
            decomp = block_decompose(run, layout)
            checks.append(check_block_parseval(decomp, stats))
            checks.append(check_bias_averaging(decomp, stats))
    if config.env == "bits":
        checks.extend(check_bits_mse(run, report))
        out["extras"]["sq_loss"] = run.sq_loss
        out["extras"]["misses"] = float(miss_count(run))
    # one name per failing comparison, in check order
    out["violations"] = [c.name for c in checks for _ in range(c.failures)]
    out["min_slack"] = {c.name: c.min_slack for c in checks if c.count}
    return out


def _maybe_eta(config: ExperimentConfig, m_env: int, T: int) -> Optional[Fraction]:
    if config.offset == "2eta":
        return _resolve_eta(config, m_env, T)
    return None


def _scaling_batch(args) -> list:
    config_dict, T, lo, hi = args
    config = ExperimentConfig(**config_dict)
    out = []
    for rep in range(lo, hi):
        try:
            out.append((T, rep, run_replicate(config, T, rep)))
        except Exception as exc:
            # same exception type, so callers' handlers still apply; the message names the cell
            exc.args = (f"{config.experiment_id}: cell T={T} rep={rep} stream={_cell_stream(T, rep)}: {exc}",)
            raise
    return out


@dataclass
class ScalingRow:
    T: int
    replicates: int
    mean_mcerr: float
    stderr: float
    argmax_group: str
    per_group_mean: dict
    violations: int
    extras_mean: dict
    min_slack: dict  # check name -> tightest slack over the replicates


@dataclass
class ScalingResult:
    config: ExperimentConfig
    rows: list
    exponent: float
    intercept: float
    exponent_stderr: float

    @property
    def exponent_ci95(self) -> tuple[float, float]:
        half = 1.96 * self.exponent_stderr
        return (self.exponent - half, self.exponent + half)

    def total_violations(self) -> int:
        return sum(r.violations for r in self.rows)


def run_scaling(config: ExperimentConfig) -> ScalingResult:
    """Replicated Monte Carlo across the T ladder plus a log-log fit."""
    tasks = []
    batch = max(1, config.replicates // max(1, 4 * config.workers))
    cd = asdict(config)
    for T in config.T_list:
        for lo in range(0, config.replicates, batch):
            tasks.append((cd, T, lo, min(lo + batch, config.replicates)))
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(_scaling_batch, tasks))
    else:
        chunks = [_scaling_batch(t) for t in tasks]
    cells = sorted(
        (item for chunk in chunks for item in chunk), key=lambda item: (item[0], item[1])
    )

    rows = []
    for T in config.T_list:
        results = [r for (t, _, r) in cells if t == T]
        mcerrs = np.array([r["mcerr"] for r in results])
        group_ids = sorted(results[0]["err"])
        # C-contiguous (groups, replicates): each row mean sums in np.mean's order
        means = np.array([[r["err"][gid] for r in results] for gid in group_ids]).mean(axis=-1)
        per_group = dict(zip(group_ids, means.tolist()))
        argmax = group_ids[int(np.argmax(means))]  # ids are sorted: ties go to the smallest
        extras_mean = {
            key: float(np.mean([r["extras"][key] for r in results]))
            for key in results[0]["extras"]
        }
        min_slack: dict = {}
        for r in results:
            for name, slack in r["min_slack"].items():
                min_slack[name] = min(slack, min_slack.get(name, slack))
        rows.append(
            ScalingRow(
                T=T,
                replicates=len(results),
                mean_mcerr=float(mcerrs.mean()),
                stderr=float(mcerrs.std(ddof=1) / math.sqrt(len(mcerrs))) if len(mcerrs) > 1 else 0.0,
                argmax_group=argmax,
                per_group_mean=per_group,
                violations=sum(len(r["violations"]) for r in results),
                extras_mean=extras_mean,
                min_slack=min_slack,
            )
        )

    if len(rows) >= 2:
        slope, intercept, se = fit_exponent([(r.T, r.mean_mcerr) for r in rows])
    else:
        slope, intercept, se = float("nan"), float("nan"), float("nan")
    return ScalingResult(
        config=config, rows=rows, exponent=slope, intercept=intercept, exponent_stderr=se
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


def oracle_bound_value(T: int, k: int, m_copies: int) -> float:
    n = 1 << k
    return (1.0 / 8.0) * (1.0 - m_copies / n) * T / n**2


def run_oracle_bound(
    T: int,
    k: int,
    m_copies: int = 1,
    oracle: str = "uniform_random",
    q: Optional[int] = None,
    update: str = "largest",
    replicates: int = 100,
    seed: int = 42,
) -> tuple[list[BoundRecord], dict]:
    """Proper m-copy reduction on the bit environment versus the theory floor."""
    n = 1 << k
    q = q if q is not None else n - 1
    base = make_forecaster_factory(oracle, Q=q)
    probe = base()
    factory = base if probe.context_blind else (lambda: context_blind(base()))
    family = build_bit_family(k)

    mcerrs = np.empty(replicates)
    sq_losses = np.empty(replicates)
    misses = np.empty(replicates)
    violations = 0
    for rep in range(replicates):
        traj = sample_bit_env(T, k, seed, stream=rep)
        reduction = ProperReduction(factory, m_copies, update_policy=update)
        rng = substream(seed, rep | _FORECASTER_STREAM_BIT)
        pred = run_forecaster(traj, reduction, rng)
        run = ScaledRun.build(traj, pred, *family.required_denominators())
        report = accumulate_run(run, family).report()
        mcerrs[rep] = report.mcerr
        sq_losses[rep] = run.sq_loss
        misses[rep] = miss_count(run)
        violations += sum(c.failures for c in check_bits_mse(run, report))

    mean_mcerr = float(mcerrs.mean())
    se = float(mcerrs.std(ddof=1) / math.sqrt(replicates))
    bound = oracle_bound_value(T, k, m_copies)
    miss_rate = float(misses.mean()) / T
    miss_se = float(misses.std(ddof=1)) / T / math.sqrt(replicates)
    records = [
        BoundRecord("oracle_mcerr_floor", mean_mcerr, bound, "ge"),
        BoundRecord("oracle_miss_rate", miss_rate, (1 - m_copies / n) - 3 * miss_se, "ge"),
        BoundRecord(
            "oracle_correct_mass",
            float(T - misses.mean()),
            (m_copies / n) * T + 3 * float(misses.std(ddof=1) / math.sqrt(replicates)),
            "le",
        ),
        BoundRecord("oracle_pathwise_violations", float(violations), 0.0, "le"),
    ]
    details = {
        "mean_mcerr": mean_mcerr,
        "stderr": se,
        "bound": bound,
        "mean_sq_loss": float(sq_losses.mean()),
        "miss_rate": miss_rate,
    }
    return records, details


def _concave_envelope(points) -> tuple[float, float]:
    """Fit R_hat(n) = c n^beta dominating all measured means, beta <= 1."""
    slope, intercept, _ = fit_exponent(points)
    beta = min(slope, 1.0)
    c = max(v / n**beta for n, v in points)
    return c, beta


def run_reduction_bound(
    T_list,
    replicates: int = 50,
    seed: int = 42,
    pieces: int = 3,
    oracle: str = "empirical_mean_bucket",
    q: int = 4,
    groups_kind: str = "grid_ranges",
) -> tuple[list[BoundRecord], dict]:
    """Pattern routing over disjoint context groups versus cellwise envelopes.

    Measures the standalone oracle's marginal calibration curve on each
    cell's context sub-grid at the realized cell lengths, fits a concave
    power envelope, and checks the router's measured multicalibration
    against the cell sum; the per-replicate triangle inequality
    Err(g_j) <= sum of its cells' errors is checked pathwise.
    """
    factory = make_forecaster_factory(oracle, Q=q)
    if groups_kind != "grid_ranges":
        # routing is only defined for binary prediction-independent groups;
        # constructing the router against anything else must hard-fail
        m_probe = section3_grid_count(int(T_list[0]))
        probe_family, _ = _build_family(
            ExperimentConfig(groups=groups_kind, T_list=tuple(T_list)),
            int(T_list[0]),
            m_probe,
            tuple(grid_section3(m_probe)),
        )
        PatternRouter(factory, probe_family)
        raise ValueError(
            f"reduction bound runs on grid_ranges group families, got {groups_kind!r}"
        )
    records: list[BoundRecord] = []
    details: dict = {"per_T": {}}
    envelope_points = []
    standalone: dict = {}
    setups: dict = {}

    for T in T_list:
        m_env = section3_grid_count(T)
        grid = grid_section3(m_env)
        family = build_grid_range_family(grid, pieces)
        # realized cell lengths are deterministic under round-robin contexts
        counts = np.bincount(np.arange(T) % len(grid), minlength=len(grid))
        cell_lengths = [int(counts[g.lo : g.hi + 1].sum()) for g in family]
        setups[T] = (m_env, family)
        for z, (g, t_z) in enumerate(zip(family, cell_lengths)):
            mean, se = _standalone_cell_err(grid[g.lo : g.hi + 1], t_z, factory, seed + 1000 + z, replicates)
            standalone[(T, z)] = (mean, se)
            envelope_points.append((t_z, mean))
        details["per_T"][T] = {"cell_lengths": cell_lengths}

    c, beta = _concave_envelope(envelope_points)
    details["envelope"] = {"c": c, "beta": beta}

    for T in T_list:
        m_env, family = setups[T]
        mcerrs = np.empty(replicates)
        per_group = {g.id: np.empty(replicates) for g in family}
        violations = []
        min_slack = None
        for rep in range(replicates):
            traj = sample_bernoulli_env(T, m_env, seed, stream=_cell_stream(T, rep))
            router = PatternRouter(factory, family)
            rng = substream(seed, _cell_stream(T, rep) | _FORECASTER_STREAM_BIT)
            pred = run_forecaster(traj, router, rng)
            run = ScaledRun.build(traj, pred, *family.required_denominators())
            ledger = accumulate_run(run, family)
            report = ledger.report()
            mcerrs[rep] = report.mcerr
            cell_err = {z: router.cell_err(z) for z in router.cells}
            if rep == 0:
                details["per_T"][T]["cells"] = router.cell_summary(cell_err)
            for j, g in enumerate(family):
                per_group[g.id][rep] = report.err[g.id]
                bound_j = sum((e for z, e in cell_err.items() if z[j] == 1), Fraction(0))
                err_j = ledger.err_exact(g.id)
                slack = bound_j - err_j
                min_slack = slack if min_slack is None else min(min_slack, slack)
                if slack < 0:
                    violations.append({"T": T, "rep": rep, "group": g.id, "err": err_j, "bound": bound_j})
        cell_lengths = details["per_T"][T]["cell_lengths"]
        envelope_sum = sum(c * t_z**beta for t_z in cell_lengths)
        mean_mcerr = float(mcerrs.mean())
        se = float(mcerrs.std(ddof=1) / math.sqrt(replicates))
        records.append(BoundRecord(f"reduction_mcerr_vs_cells@T={T}", mean_mcerr, envelope_sum, "le"))
        records.append(BoundRecord(f"reduction_pathwise@T={T}", float(len(violations)), 0.0, "le"))
        matched = []
        for j, g in enumerate(family):
            z = j  # disjoint groups: cell index == group index
            smean, sse = standalone[(T, z)]
            rmean = float(per_group[g.id].mean())
            rse = float(per_group[g.id].std(ddof=1) / math.sqrt(replicates))
            gap = abs(rmean - smean)
            tol = 3.0 * math.sqrt(sse**2 + rse**2)
            matched.append((g.id, rmean, smean, gap, tol))
            records.append(BoundRecord(f"reduction_matched@T={T}/{g.id}", gap, tol, "le"))
        details["per_T"][T].update(
            mean_mcerr=mean_mcerr,
            stderr=se,
            envelope_sum=envelope_sum,
            matched=matched,
            pathwise_min_slack=float(min_slack),
            pathwise_violations=violations,
        )
    return records, details


def _standalone_cell_err(cell_grid, t_z, factory, seed, replicates) -> tuple[float, float]:
    """Marginal Err of the standalone oracle on one cell's sub-grid environment."""
    from .environments import sample_bernoulli_on_grid

    errs = np.empty(replicates)
    for rep in range(replicates):
        traj = sample_bernoulli_on_grid(cell_grid, t_z, seed, stream=rep)
        rng = substream(seed, rep | _FORECASTER_STREAM_BIT)
        pred = run_forecaster(traj, factory(), rng)
        errs[rep] = float(marginal_err(pred.num, pred.den, traj.y_num, traj.den))
    return float(errs.mean()), float(errs.std(ddof=1) / math.sqrt(replicates))


# ---------------------------------------------------------------------------
# Exact identity suite
# ---------------------------------------------------------------------------


# rows per block in the identity suite: memory O(128 n), never O(n^2), and
# faster than 256-row blocks for the prefix scans
IDENTITY_BLOCK_ROWS = 128


def _powers_of_two(lo: int, hi: int):
    n = lo
    while n <= hi:
        yield n
        n *= 2


def walsh_prefix_violations(n: int, bounds: np.ndarray, block_rows: int = IDENTITY_BLOCK_ROWS) -> int:
    """Rows j = 1..n-1 of the length-``n`` Walsh system whose largest
    |prefix sum| exceeds ``bounds[j - 1]``.

    Rows are built ``block_rows`` at a time with int32 prefix sums
    (|prefix| <= n), so memory stays O(block_rows * n), not O(n^2).
    """
    bad = 0
    for lo in range(1, n, block_rows):
        hi = min(lo + block_rows, n)
        prefix_max_abs = np.abs(np.cumsum(walsh_rows(lo, hi, n), axis=1, dtype=np.int32)).max(axis=1)
        bad += int(np.count_nonzero(prefix_max_abs > bounds[lo - 1 : hi - 1]))
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
    from .orthogonal import fwht, threshold_l1_bound, threshold_signs, trailing_zeros

    records = []

    # the Walsh and threshold checks take IDENTITY_BLOCK_ROWS rows at a time,
    # never an n x n or (m + 1) x m array: fwht of Walsh rows lo..hi-1 is
    # rows lo..hi-1 of n I
    bad = 0
    for n in _powers_of_two(1, h1_max):
        for lo in range(0, n, IDENTITY_BLOCK_ROWS):
            hi = min(lo + IDENTITY_BLOCK_ROWS, n)
            expected = np.zeros((hi - lo, n), dtype=np.int64)
            expected[np.arange(hi - lo), np.arange(lo, hi)] = n
            bad += int(np.count_nonzero(fwht(walsh_rows(lo, hi, n)) != expected))
    records.append(BoundRecord("identity_h1_orthogonality", float(bad), 0.0, "le"))

    bad = 0
    for n in _powers_of_two(2, prefix_max):
        bounds = np.array([1 << trailing_zeros(j) for j in range(1, n)])
        bad += walsh_prefix_violations(n, bounds)
    records.append(BoundRecord("identity_walsh_prefix", float(bad), 0.0, "le"))

    # threshold ranks r = 0..m in row blocks; the running column max of
    # |alpha_l(r)| is exact, so the L1 test sees the same float as a full table
    bad = 0
    for m in _powers_of_two(2, expansion_max):
        col_max = np.zeros(m)
        for lo in range(0, m + 1, IDENTITY_BLOCK_ROWS):
            signs = np.stack([threshold_signs(m, r) for r in range(lo, min(lo + IDENTITY_BLOCK_ROWS, m + 1))])
            table = fwht(signs) / m
            recon = fwht(np.rint(table * m).astype(np.int64)) // m
            bad += int(np.count_nonzero(recon != signs))
            np.maximum(col_max, np.abs(table).max(axis=0), out=col_max)
        if float(col_max.sum()) > threshold_l1_bound(m) + 1e-12:
            bad += 1
    records.append(BoundRecord("identity_threshold_expansion", float(bad), 0.0, "le"))

    bad = 0
    for L in _powers_of_two(2, block_max):
        T = 2 * L
        traj = sample_rademacher_env(T, seed, m=2)
        _, fam = build_block_hadamard_family(T=T, K=2)
        run = ScaledRun.build(traj, Predictions(num=np.zeros(T, dtype=np.int64), den=1))
        for plus, minus in fam.signed_pairs():
            w = plus.weights(run).astype(np.int64) + minus.weights(run)
            expected = np.zeros(T, dtype=np.int64)
            expected[(plus.a - 1) * L : plus.a * L] = 1
            bad += int(np.count_nonzero(w != expected))
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
# Diagnostics
# ---------------------------------------------------------------------------


def l1_truthfulness_ratio(T: int, replicates: int, seed: int, q: Optional[int] = None) -> float:
    """E[A] / (log2(m+1) E[MCerr]) for rounded-honest on the full family."""
    m_env = section4_grid_count(T)
    q = q if q is not None else m_env
    config = ExperimentConfig(
        experiment_id="l1-diag",
        env="rademacher",
        forecaster="rounded_honest",
        groups="full_walsh",
        T_list=(T,),
        replicates=replicates,
        seed=seed,
        Q=q,
        checks=True,
    )
    result = run_scaling(config)
    row = result.rows[0]
    if row.violations:
        raise AssertionError(f"pathwise violations in diagnostic run: {row.violations}")
    return row.extras_mean["A"] / (math.log2(m_env + 1) * row.mean_mcerr)


def noise_floor_diagnostic(T: int, K: int, replicates: int, seed: int) -> dict:
    """min over (a, j) of E[sum_v |Nz|] log2(L+1) / E[N_a], honest forecaster."""
    m_env = section4_grid_count(T)
    from .groups import build_block_layout

    layout = build_block_layout(T, K)
    noise_sums = None
    n_a_sum = np.zeros(layout.K)
    for rep in range(replicates):
        traj = sample_rademacher_env(T, seed, m=m_env, stream=rep)
        run = ScaledRun.build(traj, Predictions(num=traj.x_num.copy(), den=traj.den))
        dec = block_decompose(run, layout)
        stats = deviation_stats(run, layout=layout)
        n_a_sum += stats.N_a
        block = np.empty((layout.K, layout.L))
        for a in range(1, layout.K + 1):
            _, z = dec.Nz[a]
            block[a - 1] = np.abs(z / dec.scale).sum(axis=0)
        noise_sums = block if noise_sums is None else noise_sums + block
    mean_noise = noise_sums / replicates
    mean_n_a = n_a_sum / replicates
    ratios = mean_noise * math.log2(layout.L + 1) / mean_n_a[:, None]
    return {
        "min_ratio": float(ratios.min()),
        "layout": layout,
        "ratios": ratios,
    }


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def family_manifest_rows(config: ExperimentConfig) -> list[tuple]:
    """(T, id, kind, params) rows for the families a config will build."""
    from .environments import grid_section4

    rows = []
    for T in config.T_list:
        m_env = _env_grid_count(config, T)
        if config.env == "bernoulli":
            grid = tuple(grid_section3(m_env))
        elif config.env == "rademacher":
            grid = tuple(grid_section4(m_env))
        else:
            grid = ()
        family, _ = _build_family(config, T, m_env, grid)
        for line in family.manifest_lines():
            gid, kind, params = line.split(",", 2)
            rows.append((T, gid, kind, params))
    return rows


def write_family_csv(path, config: ExperimentConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["T", "group_id", "kind", "params"])
        for row in family_manifest_rows(config):
            w.writerow(row)


def write_scaling_csv(path, result: ScalingResult) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["experiment_id", "T", "replicate_count", "mean_mcerr", "stderr", "argmax_group"])
        for row in result.rows:
            w.writerow(
                [
                    result.config.experiment_id,
                    row.T,
                    row.replicates,
                    format_float(row.mean_mcerr),
                    format_float(row.stderr),
                    row.argmax_group,
                ]
            )


def write_per_group_csv(path, result: ScalingResult) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["experiment_id", "T", "group_id", "mean_err"])
        for row in result.rows:
            for gid in sorted(row.per_group_mean):
                w.writerow(
                    [result.config.experiment_id, row.T, gid, format_float(row.per_group_mean[gid])]
                )


def write_bounds_csv(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["check_id", "measured", "bound", "margin", "pass"])
        for r in records:
            w.writerow(
                [
                    r.check_id,
                    format_float(r.measured),
                    format_float(r.bound),
                    format_float(r.margin),
                    str(r.passed).lower(),
                ]
            )
