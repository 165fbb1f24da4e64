"""Scaled runs, bias ledgers, Err/MCerr reports, deviation statistics,
block decompositions.

Biases accumulate exactly.  The streaming ledger works in Fractions; the
vectorized path works in integer numerators over one common scale.
``ScaledRun`` is the one place where that scale, the scaled prediction,
context-mean and outcome arrays, the prediction-bucket index and the
exact-sum guard (every partial sum stays below 2^53) live; the
accumulator, the deviation statistics, the block decomposition and the
bit-environment checks all read one ``ScaledRun`` per run.  Reports
convert to float64 only at the end, so an exactly-zero calibration error
is reported as exactly 0.0.

Signed functionals (differences of two half-groups) are measured from
the signed weights directly, never by subtracting two separately rounded
reports, so the bias + noise = ledger-bias identity is exact.  A family's
blockwise Hadamard half-groups are never evaluated one by one: their
Err numerators and difference-of-two checks are (K, L) arrays computed
from the per-block transform of the residual.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Optional

import numpy as np

from .environments import ContextRecord, Trajectory
from .groups import BlockLayout, GroupFamily, ThresholdGroup
from .orthogonal import fwht

STREAMING_FAMILY_LIMIT = 64

_EXACT_SUM_LIMIT = 2**53


@dataclass
class Predictions:
    """A run's prediction sequence: integer numerators over one denominator."""

    num: np.ndarray
    den: int

    def __post_init__(self):
        self.num = np.asarray(self.num, dtype=np.int64)
        if self.den < 1:
            raise ValueError("denominator must be positive")
        if self.num.min(initial=0) < 0 or self.num.max(initial=0) > self.den:
            raise ValueError("predictions must lie in [0, 1]")

    @property
    def T(self) -> int:
        return int(self.num.shape[0])

    def fraction(self, t: int) -> Fraction:
        return Fraction(int(self.num[t]), self.den)

    @classmethod
    def from_fractions(cls, values) -> "Predictions":
        values = [Fraction(v) for v in values]
        den = math.lcm(*(v.denominator for v in values)) if values else 1
        num = np.array([v.numerator * (den // v.denominator) for v in values], dtype=np.int64)
        return cls(num=num, den=den)


def marginal_err(p_num: np.ndarray, p_den: int, y_num: np.ndarray, y_den: int) -> Fraction:
    """Exact marginal calibration error sum_v |sum_{t: p_t = v} (p_t - y_t)|
    of predictions ``p_num / p_den`` against outcomes ``y_num / y_den``.

    Each round contributes d_t = p_t y_den - y_t p_den, an int64 of
    magnitude at most p_den y_den; the rounds are stably sorted by
    prediction and each run of equal predictions summed by
    ``np.add.reduceat``.  Every partial sum is bounded by T p_den y_den,
    which is checked below 2^63 in Python integers first.
    """
    t = len(p_num)
    if t * p_den * y_den >= 2**63:
        raise OverflowError(
            f"int64 cell sums could overflow: T={t} * p_den={p_den} * y_den={y_den} >= 2^63"
        )
    if t == 0:
        return Fraction(0)
    order = np.argsort(p_num, kind="stable")
    p = np.asarray(p_num, dtype=np.int64)[order]
    d = p * y_den - np.asarray(y_num, dtype=np.int64)[order] * p_den
    starts = np.concatenate(([0], np.flatnonzero(np.diff(p)) + 1))
    return Fraction(int(np.abs(np.add.reduceat(d, starts)).sum()), p_den * y_den)


def _check_unit_interval(value: Fraction, what: str) -> Fraction:
    value = Fraction(value)
    if not 0 <= value <= 1:
        raise ValueError(f"{what} must lie in [0, 1], got {value}")
    return value


@dataclass
class CalibrationReport:
    """Per-group Err and their maximum; argmax ties break on group id."""

    err: dict
    mcerr: float
    argmax_group: Optional[str]

    @classmethod
    def from_err(cls, err: dict) -> "CalibrationReport":
        if not err:
            return cls(err={}, mcerr=0.0, argmax_group=None)
        mcerr = max(err.values())
        best = min(gid for gid, e in err.items() if e == mcerr)
        return cls(err=err, mcerr=mcerr, argmax_group=best)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["group_id", "err"])
            for gid in sorted(self.err):
                w.writerow([gid, format_float(self.err[gid])])


def format_float(x: float) -> str:
    return f"{x:.17g}"


class BiasLedger:
    """Streaming exact ledger for families below the size threshold.

    Entries exist only for realized prediction values; each maps
    (group id, prediction) to the accumulated bias as a Fraction.
    """

    def __init__(self, family: GroupFamily, streaming_limit: int = STREAMING_FAMILY_LIMIT):
        if len(family) > streaming_limit:
            raise ValueError(
                f"family of size {len(family)} exceeds the streaming limit "
                f"{streaming_limit}; accumulate post hoc with accumulate_run"
            )
        self.family = family
        self.entries: dict = {}
        self.rounds_seen = 0

    def record_round(self, ctx: ContextRecord, p: Fraction, y: Fraction) -> None:
        p = _check_unit_interval(p, "prediction")
        y = _check_unit_interval(y, "outcome")
        resid = p - y
        for g in self.family:
            w = g.evaluate(ctx, p)
            if w:
                key = (g.id, p)
                self.entries[key] = self.entries.get(key, Fraction(0)) + w * resid
        self.rounds_seen += 1

    def bias(self, gid: str, p: Fraction) -> Fraction:
        return self.entries.get((gid, Fraction(p)), Fraction(0))

    def err_exact(self, gid: str) -> Fraction:
        return sum((abs(b) for (g, _), b in self.entries.items() if g == gid), Fraction(0))

    def telescoped(self, gid: str = "g_all") -> Fraction:
        return sum((b for (g, _), b in self.entries.items() if g == gid), Fraction(0))

    def report(self) -> CalibrationReport:
        err = {g.id: float(self.err_exact(g.id)) for g in self.family}
        return CalibrationReport.from_err(err)


@dataclass(frozen=True, eq=False)
class ScaledRun:
    """One run over one common scale: the lcm of the trajectory's and the
    predictions' denominators and of any extra ones (a family's
    ``required_denominators()``, eta).  ``p``, ``x``, ``y`` are predictions,
    context means and outcomes over ``scale``; round t falls in bucket
    ``bucket_idx[t]`` of value ``bucket_scaled[.]`` and size ``bucket_counts[.]``.
    """

    traj: Trajectory
    T: int
    scale: int
    p: np.ndarray
    x: np.ndarray
    y: np.ndarray
    bucket_scaled: np.ndarray
    bucket_idx: np.ndarray
    bucket_counts: np.ndarray
    _resid_coeffs: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, traj: Trajectory, pred: Predictions, *dens: int) -> "ScaledRun":
        if pred.T != traj.T:
            raise ValueError(f"prediction length {pred.T} does not match T={traj.T}")
        scale = math.lcm(traj.den, pred.den, *dens)
        if 4 * traj.T * scale >= _EXACT_SUM_LIMIT:
            raise ValueError(f"scaled sums would overflow exact float range: T={traj.T}, scale={scale}")
        p = pred.num * (scale // pred.den)
        unit = scale // traj.den
        buckets, idx, counts = np.unique(p, return_inverse=True, return_counts=True)
        return cls(traj, traj.T, scale, p, traj.x_num * unit, traj.y_num * unit, buckets, idx, counts)

    @cached_property
    def resid(self) -> np.ndarray:
        return self.p - self.y

    @cached_property
    def sq_loss(self) -> float:
        """sum_t (p_t - y_t)^2 in float64."""
        return float(np.sum((self.resid / self.scale) ** 2))

    @cached_property
    def in_interval(self) -> np.ndarray:
        """Bit environment: p_t in J_val = [val/N, (val+1)/N), J_{N-1} closed at 1."""
        n = 1 << self.traj.params["k"]
        val = self.traj.grid_idx
        unit = self.scale // n
        return (self.p >= val * unit) & (
            (self.p < (val + 1) * unit) | ((val == n - 1) & (self.p == self.scale))
        )

    def bucket_sums(self, values: np.ndarray, idx=None, n=None) -> np.ndarray:
        """Exact int64 sums of integer ``values`` per bucket (per class of ``idx`` if given)."""
        if idx is None:
            idx, n = self.bucket_idx, len(self.bucket_scaled)
        # float64 bincount is exact: all partial sums are < 2^53 by the build guard
        out = np.bincount(idx, weights=values.astype(np.float64), minlength=n)
        return np.rint(out).astype(np.int64)

    def resid_coefficients(self, layout: BlockLayout) -> dict:
        """``_block_coefficients`` of the residual p - y, memoised per layout."""
        if layout not in self._resid_coeffs:
            self._resid_coeffs[layout] = _block_coefficients(self, layout, self.resid)
        return self._resid_coeffs[layout]


@dataclass
class RunLedger:
    """Exact per-(group, bucket) biases for one run, vectorized.

    Direct groups carry an int64 bias vector over the realized buckets
    (numerators over ``scale``).  The family's block half-groups are
    evaluated through the transform into (K, L) arrays at [a - 1, j]: the
    Err numerators of had+/a/j and had-/a/j over ``2 * scale``, and of the
    signed functional over ``scale``; None when the family has no layout.
    """

    family: GroupFamily
    scaled: ScaledRun
    bias: dict
    block_plus_abs: Optional[np.ndarray] = None
    block_minus_abs: Optional[np.ndarray] = None
    block_coeff_abs: Optional[np.ndarray] = None

    scale = property(lambda self: self.scaled.scale)
    T = property(lambda self: self.scaled.T)
    bucket_scaled = property(lambda self: self.scaled.bucket_scaled)

    def bucket_fractions(self) -> list[Fraction]:
        return [Fraction(int(v), self.scale) for v in self.bucket_scaled]

    def err_exact(self, gid: str) -> Fraction:
        if gid in self.bias:
            return Fraction(int(np.abs(self.bias[gid]).sum()), self.scale)
        a, j, sign = self.family.block_keys[gid]
        half = self.block_plus_abs if sign == 1 else self.block_minus_abs
        return Fraction(int(half[a - 1, j]), 2 * self.scale)

    def err_float(self) -> dict:
        err = {gid: float(np.abs(b).sum()) / self.scale for gid, b in self.bias.items()}
        if self.block_plus_abs is not None:
            # (K, L, 2) in family order: a, then j, then +/-
            halves = np.stack([self.block_plus_abs, self.block_minus_abs], axis=-1)
            err.update(zip(self.family.block_ids, (halves.ravel() / (2.0 * self.scale)).tolist()))
        return err

    def report(self) -> CalibrationReport:
        return CalibrationReport.from_err(self.err_float())

    def telescoped(self) -> Fraction:
        return Fraction(int(self.scaled.resid.sum()), self.scale)


def accumulate_run(run: ScaledRun, family: GroupFamily) -> RunLedger:
    """Post-hoc exact accumulation of a whole run against a family.

    ``run`` must be built with the family's ``required_denominators()``.
    """
    bias = {g.id: run.bucket_sums(g.weights(run).astype(np.int64) * run.resid) for g in family.groups}
    lay = family.layout
    if lay is None:
        return RunLedger(family=family, scaled=run, bias=bias)
    block_abs = np.zeros((3, lay.K, lay.L), dtype=np.int64)  # plus, minus, signed
    for a, (_, c) in run.resid_coefficients(lay).items():
        # c has shape (buckets in block, L); column j holds the signed
        # functional bias, and the half-group biases are (c0 +- cj)/2
        c0 = c[:, :1]
        block_abs[:, a - 1] = (np.abs(c0 + c).sum(axis=0), np.abs(c0 - c).sum(axis=0), np.abs(c).sum(axis=0))
    return RunLedger(family, run, bias, *block_abs)


def _block_coefficients(run: ScaledRun, layout: BlockLayout, values: np.ndarray) -> dict:
    """Per block: transform of the bucket-masked value rows.

    Returns {a: (present_buckets, coeffs)} where coeffs[r, j] is the
    transform coefficient <psi_j, block-a values restricted to bucket
    present_buckets[r]>.  One transform per (block, realized bucket):
    O(q_a L log L) per block.
    """
    out = {}
    for a in range(1, layout.K + 1):
        lo = (a - 1) * layout.L
        hi = min(a * layout.L, run.T)
        if lo >= hi:
            out[a] = (np.zeros(0, dtype=np.int64), np.zeros((0, layout.L), dtype=np.int64))
            continue
        local_idx = run.bucket_idx[lo:hi]
        present = np.unique(local_idx)
        rows = np.zeros((len(present), layout.L), dtype=np.int64)
        pos = np.searchsorted(present, local_idx)
        rows[pos, np.arange(hi - lo)] = values[lo:hi]
        out[a] = (present, fwht(rows))
    return out


# ---------------------------------------------------------------------------
# Deviation statistics
# ---------------------------------------------------------------------------


@dataclass
class DeviationStats:
    """Honesty-deviation and bucket-diversity statistics of one run.

    Linear quantities (A, N_x, R_x) are exact integers over ``scale``;
    quadratic ones (S, E_a) are float64, accurate to ~1e-11 relative at
    desk scale.
    """

    scale: int
    T_prime: int
    A_num: int
    S: float
    n_v: np.ndarray
    N: float
    N_a: Optional[np.ndarray] = None
    E_a: Optional[np.ndarray] = None
    q_a: Optional[np.ndarray] = None
    N_x_num: Optional[np.ndarray] = None
    R_x_num: Optional[np.ndarray] = None
    honest_counts: Optional[np.ndarray] = None

    @property
    def A(self) -> Fraction:
        return Fraction(self.A_num, self.scale)


def deviation_stats(
    run: ScaledRun,
    layout: Optional[BlockLayout] = None,
    eta: Optional[Fraction] = None,
) -> DeviationStats:
    """A, S, bucket counts, per-block and per-context deviation summaries.

    With a layout, statistics cover rounds 1..T' = K L; otherwise all T.
    Per-context noise/drift splits (N_x, R_x over eta-honest rounds) are
    computed only when ``eta`` is given; ``run`` must then be built with
    eta's denominator.
    """
    scale = run.scale
    tp = layout.T_prime if layout is not None else run.T
    x_scaled = run.x[:tp]
    delta = run.p[:tp] - x_scaled

    a_num = int(np.abs(delta).sum())
    s_val = float(np.sum((delta / scale).astype(np.float64) ** 2))
    bucket_idx = run.bucket_idx[:tp]
    if tp == run.T:
        n_v = run.bucket_counts
    else:
        # prefix counts in bucket (= value) order, unrealized buckets dropped
        n_v = np.bincount(bucket_idx)
        n_v = n_v[n_v > 0]
    n_big = float(np.sqrt(n_v).sum())

    n_a = e_a = q_a = None
    if layout is not None:
        n_a = np.empty(layout.K, dtype=np.float64)
        e_a = np.empty(layout.K, dtype=np.float64)
        q_a = np.empty(layout.K, dtype=np.int64)
        for a in range(layout.K):
            sl = slice(a * layout.L, (a + 1) * layout.L)
            counts = np.bincount(bucket_idx[sl])
            n_a[a] = np.sqrt(counts[counts > 0]).sum()
            q_a[a] = int((counts > 0).sum())
            e_a[a] = float(np.sum((delta[sl] / scale).astype(np.float64) ** 2))

    n_x = r_x = honest_counts = None
    if eta is not None:
        eta_scaled = Fraction(eta) * scale
        if eta_scaled.denominator != 1:
            raise ValueError("scale does not absorb eta's denominator")
        honest = np.abs(delta) < int(eta_scaled)
        gidx = run.traj.grid_idx[:tp][honest]
        n_grid = len(run.traj.grid)
        n_x = run.bucket_sums((x_scaled - run.y[:tp])[honest], gidx, n_grid)
        r_x = run.bucket_sums(delta[honest], gidx, n_grid)
        honest_counts = np.bincount(gidx, minlength=n_grid)

    return DeviationStats(
        scale=scale,
        T_prime=tp,
        A_num=a_num,
        S=s_val,
        n_v=n_v,
        N=n_big,
        N_a=n_a,
        E_a=e_a,
        q_a=q_a,
        N_x_num=n_x,
        R_x_num=r_x,
        honest_counts=honest_counts,
    )


# ---------------------------------------------------------------------------
# Blockwise bias/noise decomposition
# ---------------------------------------------------------------------------


@dataclass
class BlockDecomposition:
    """Signed Hadamard bias (D) and noise (Nz) per (block, bucket, j).

    ``D[a]`` and ``Nz[a]`` are (present_buckets, matrix) pairs with
    integer entries over ``scale``: matrix[r, j] is the coefficient of
    the bias (resp. noise) sequence of block a restricted to bucket r.
    D + Nz equals the signed-functional ledger bias exactly.
    """

    layout: BlockLayout
    scale: int
    D: dict
    Nz: dict

    def signed_err(self, a: int, j: int) -> Fraction:
        """Err of the signed functional h_{a,j} = sum_v |D + Nz|."""
        _, d = self.D[a]
        _, z = self.Nz[a]
        return Fraction(int(np.abs(d[:, j] + z[:, j]).sum()), self.scale)

    def block_parseval_gap(self, E_a: np.ndarray) -> float:
        """Max relative gap of sum_j sum_v D^2 = L * E_a across blocks."""
        worst = 0.0
        for a in range(1, self.layout.K + 1):
            _, d = self.D[a]
            lhs = float(np.sum((d / self.scale).astype(np.float64) ** 2))
            rhs = self.layout.L * float(E_a[a - 1])
            denom = max(abs(rhs), 1e-30)
            worst = max(worst, abs(lhs - rhs) / denom)
        return worst

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["block", "j", "bucket_value", "D", "Nz"])
            for a in range(1, self.layout.K + 1):
                buckets, d = self.D[a]
                _, z = self.Nz[a]
                for r, b in enumerate(buckets):
                    for j in range(self.layout.L):
                        w.writerow(
                            [
                                a,
                                j,
                                str(Fraction(int(b), self.scale)),
                                format_float(d[r, j] / self.scale),
                                format_float(z[r, j] / self.scale),
                            ]
                        )


def block_decompose(run: ScaledRun, layout: BlockLayout) -> BlockDecomposition:
    """Transform the bias (p - x) and noise (x - y) streams per (block, bucket).

    Nz follows by linearity as coeffs(p - y) - D, from the residual
    transform the run memoises per layout (shared with ``accumulate_run``).
    """
    if layout.T_prime > run.T:
        raise ValueError("layout covers more rounds than the trajectory")
    d = _block_coefficients(run, layout, run.p - run.x)
    nz = {a: (present, c - d[a][1]) for a, (present, c) in run.resid_coefficients(layout).items()}
    return BlockDecomposition(layout=layout, scale=run.scale, D=d, Nz=nz)


# ---------------------------------------------------------------------------
# Pathwise inequality suite
# ---------------------------------------------------------------------------

REL_TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    ok: bool
    lhs: float
    rhs: float

    def __bool__(self):
        return self.ok


def _ge(name: str, lhs: float, rhs: float, exact: bool = False) -> CheckResult:
    slack = 0.0 if exact else REL_TOL * max(abs(lhs), abs(rhs), 1.0)
    return CheckResult(name=name, ok=lhs >= rhs - slack, lhs=float(lhs), rhs=float(rhs))


def check_telescoping(ledger: RunLedger) -> CheckResult:
    """sum_v B(v, g_all) telescopes to sum_t (p_t - y_t), exactly."""
    run = ledger.scaled
    if "g_all" in ledger.bias:
        lhs = int(ledger.bias["g_all"].sum())
    else:
        lhs = int(run.bucket_sums(run.resid).sum())
    rhs = int(run.resid.sum())
    return CheckResult("telescoping", lhs == rhs, lhs / ledger.scale, rhs / ledger.scale)


def check_diff_two(ledger: RunLedger) -> list[CheckResult]:
    """Err(g+ - g-) <= Err(g+) + Err(g-) for every constructed pair."""
    out = []
    for plus, minus in ledger.family.direct_pairs():
        signed = Fraction(int(np.abs(ledger.bias[plus.id] - ledger.bias[minus.id]).sum()), ledger.scale)
        bound = ledger.err_exact(plus.id) + ledger.err_exact(minus.id)
        out.append(CheckResult("diff_two", signed <= bound, float(signed), float(bound)))
    if ledger.block_coeff_abs is not None:
        # one result per (a, j), in family order; both sides over 2 * scale
        lhs = 2 * ledger.block_coeff_abs.ravel()
        rhs = (ledger.block_plus_abs + ledger.block_minus_abs).ravel()
        den = 2 * ledger.scale
        out.extend(
            map(CheckResult, repeat("diff_two"), (lhs <= rhs).tolist(), (lhs / den).tolist(), (rhs / den).tolist())
        )
    return out


def check_g4_context_decomp(
    ledger: RunLedger, stats: DeviationStats, eta: Fraction, m: int
) -> CheckResult:
    """sum_v |B(v, g3)| >= sum_x |N_x| - sum_x |R_x| whenever eta <= 1/(2m)."""
    if Fraction(eta) > Fraction(1, 2 * m):
        raise ValueError("context decomposition needs eta <= 1/(2m)")
    g3 = next(
        g.id for g in ledger.family if isinstance(g, ThresholdGroup) and g.which == 3
    )
    lhs = ledger.err_exact(g3)
    rhs = Fraction(
        int(np.abs(stats.N_x_num).sum()) - int(np.abs(stats.R_x_num).sum()), stats.scale
    )
    return CheckResult("g4_context_decomp", lhs >= rhs, float(lhs), float(rhs))


def check_l1_quantization(stats: DeviationStats, m: int) -> CheckResult:
    """A >= sum_v n_v^2 / (16 T') - T'/m - 1, exactly in rationals."""
    tp = stats.T_prime
    lhs = stats.A
    rhs = Fraction(int(np.sum(stats.n_v**2)), 16 * tp) - Fraction(tp, m) - 1
    return CheckResult("l1_quantization", lhs >= rhs, float(lhs), float(rhs))


def check_n_from_a(stats: DeviationStats, m: int) -> CheckResult:
    """N >= T' / (4 sqrt(A + T'/m + 1))."""
    tp = stats.T_prime
    rhs = tp / (4.0 * math.sqrt(float(stats.A) + tp / m + 1.0))
    return _ge("n_from_a", stats.N, rhs)


def check_block_mass(stats: DeviationStats) -> list[CheckResult]:
    """N <= sum_a N_a <= sqrt(K) N."""
    total = float(stats.N_a.sum())
    k = len(stats.N_a)
    return [
        _ge("block_mass_lower", total, stats.N),
        _ge("block_mass_upper", math.sqrt(k) * stats.N, total),
    ]


def check_bias_averaging(decomp: BlockDecomposition, stats: DeviationStats) -> list[CheckResult]:
    """(1/L) sum_j sum_v |D| <= sqrt(q_a E_a) per block."""
    out = []
    lay = decomp.layout
    for a in range(1, lay.K + 1):
        _, d = decomp.D[a]
        lhs = float(np.abs(d / decomp.scale).sum()) / lay.L
        rhs = math.sqrt(float(stats.q_a[a - 1]) * float(stats.E_a[a - 1]))
        out.append(_ge("bias_averaging", rhs, lhs))
    return out


def check_block_parseval(decomp: BlockDecomposition, stats: DeviationStats) -> CheckResult:
    gap = decomp.block_parseval_gap(stats.E_a)
    return CheckResult("block_parseval", gap <= REL_TOL, gap, REL_TOL)


def check_bits_mse(run: ScaledRun, report: CalibrationReport) -> list[CheckResult]:
    """Appendix-style squared loss controls for the bit environment:
    per-round miss penalty (exact) and squared loss <= (2 - 1/(2N)) MCerr."""
    n = 1 << run.traj.params["k"]
    scale = run.scale
    # exact per-round penalty: a miss means (p - y)^2 >= 1/(4 N^2),
    # i.e. (2 N scaled diff)^2 >= scale^2 in integers
    miss_sq = run.resid[~run.in_interval] ** 2
    floor_sq = (scale // (2 * n)) ** 2
    miss_ok = bool(np.all(miss_sq >= floor_sq))
    worst = float(miss_sq.min(initial=floor_sq)) / scale**2
    results = [CheckResult("bits_miss_penalty", miss_ok, worst, floor_sq / scale**2)]
    rhs = (2.0 - 1.0 / (2 * n)) * report.mcerr
    results.append(_ge("bits_mse_vs_mcerr", rhs, run.sq_loss))
    return results


def miss_count(run: ScaledRun) -> int:
    """Rounds whose prediction lands outside the context's interval J_val."""
    return int((~run.in_interval).sum())
