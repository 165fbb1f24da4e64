"""Scaled runs, bias ledgers, Err/MCerr reports, deviation statistics,
block decompositions.

Biases accumulate exactly.  The streaming ledger works in Fractions; the
vectorized path works in int64 numerators over one common scale.
``ScaledRun`` is the one place where that scale, the scaled prediction,
context-mean and outcome arrays and the prediction-bucket index live; the
accumulator, the deviation statistics, the block decomposition and the
bit-environment checks all read one ``ScaledRun`` per run.  Building it
checks once, in Python integers, that 2 T scale < 2^63: every per-round
value summed is at most ``scale`` in magnitude, so every int64 sum (and
every difference of two, and every half-group numerator over 2 scale)
is exact by construction.  The bucket index is a counting sort over the
prediction numerators when their denominator is at most 4 T, and
``np.unique`` otherwise.  Reports convert to float64 only at the end,
so an exactly-zero calibration error is reported as exactly 0.0.

Signed functionals (differences of two half-groups) are measured from
the signed weights directly, never by subtracting two separately rounded
reports, so the bias + noise = ledger-bias identity is exact.  A family's
blockwise Hadamard half-groups are never evaluated one by one: their
Err numerators and difference-of-two checks are (K, L) arrays computed
from the per-block transform of the residual, and a ledger reports one
float64 error vector in ``family.ids()`` order.

Each pathwise inequality yields one ``CheckSummary`` per run, however
many comparisons it makes: their count, the number that fail, the exact
tightest slack (a ``Fraction`` for the integer and rational checks) and
the index, lhs and rhs of the first failure.  Difference-of-two compares
one int64 vector of signed Errs with one of bounds, both over 2 scale,
covering the direct pairs and the (K, L) block pairs alike.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .environments import ContextRecord, Trajectory
from .groups import BlockLayout, GroupFamily, ThresholdGroup
from .orthogonal import fwht

STREAMING_FAMILY_LIMIT = 64


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
    def from_vector(cls, ids: list, err: np.ndarray) -> "CalibrationReport":
        """Report of the float64 errors ``err[i]`` of groups ``ids[i]``."""
        if not ids:
            return cls(err={}, mcerr=0.0, argmax_group=None)
        mcerr = err.max()
        best = min(ids[i] for i in np.flatnonzero(err == mcerr).tolist())
        return cls(err=dict(zip(ids, err.tolist())), mcerr=float(mcerr), argmax_group=best)

    @classmethod
    def from_err(cls, err: dict) -> "CalibrationReport":
        return cls.from_vector(list(err), np.array(list(err.values()), dtype=np.float64))

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


def _bucket_index(num: np.ndarray, den: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(num, return_inverse=True, return_counts=True)`` for
    numerators in [0, den]: a counting sort (bincount, presence mask and a
    cumsum lookup table) when den <= 4 T, ``np.unique`` otherwise.
    """
    if den > 4 * len(num):
        return np.unique(num, return_inverse=True, return_counts=True)
    counts = np.bincount(num, minlength=den + 1)
    present = counts > 0
    lut = np.cumsum(present) - 1
    return np.flatnonzero(present), lut[num], counts[present]


@dataclass(frozen=True, eq=False)
class ScaledRun:
    """One run over one common scale: the lcm of the trajectory's and the
    predictions' denominators and of any extra ones (a family's
    ``required_denominators()``, eta).  ``p``, ``x``, ``y`` are predictions,
    context means and outcomes over ``scale``; round t falls in bucket
    ``bucket_idx[t]`` of value ``bucket_scaled[.]`` and size ``bucket_counts[.]``,
    buckets in ascending value order.
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
        if 2 * traj.T * scale >= 2**63:
            raise OverflowError(f"int64 bucket sums could overflow: 2 * T={traj.T} * scale={scale} >= 2^63")
        unit = scale // pred.den
        # v -> v * unit is increasing, so the buckets of pred.num are the buckets of p
        buckets, idx, counts = _bucket_index(pred.num, pred.den)
        p = pred.num * unit
        x_unit = scale // traj.den
        return cls(traj, traj.T, scale, p, traj.x_num * x_unit, traj.y_num * x_unit, buckets * unit, idx, counts)

    @cached_property
    def resid(self) -> np.ndarray:
        return self.p - self.y

    @cached_property
    def dev(self) -> np.ndarray:
        """Honesty deviation p - x, shared by the threshold groups and the deviation statistics."""
        return self.p - self.x

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
        """Exact int64 sums of integer ``values`` per bucket (per class of ``idx`` if given).

        Each value must be at most ``scale`` in magnitude, as w (p - y),
        p - x and x - y are; ``build``'s 2 T scale < 2^63 check then
        bounds every partial sum.
        """
        if idx is None:
            idx, n = self.bucket_idx, len(self.bucket_scaled)
        out = np.zeros(n, dtype=np.int64)
        np.add.at(out, idx, values)
        return out

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

    def err_vector(self) -> np.ndarray:
        """float64 Err of every group, in ``family.ids()`` order."""
        direct = [float(np.abs(b).sum()) / self.scale for b in self.bias.values()]
        if self.block_plus_abs is None:
            return np.array(direct, dtype=np.float64)
        # (K, L, 2) in family order: a, then j, then +/-
        halves = np.stack([self.block_plus_abs, self.block_minus_abs], axis=-1)
        return np.concatenate([direct, halves.ravel() / (2.0 * self.scale)])

    def report(self) -> CalibrationReport:
        return CalibrationReport.from_vector(self.family.ids(), self.err_vector())

    def telescoped(self) -> Fraction:
        return Fraction(int(self.scaled.resid.sum()), self.scale)


def accumulate_run(run: ScaledRun, family: GroupFamily) -> RunLedger:
    """Post-hoc exact accumulation of a whole run against a family.

    ``run`` must be built with the family's ``required_denominators()``.
    """
    bias = {g.id: run.bucket_sums(run.resid * g.weights(run)) for g in family.groups}
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

    Linear quantities (A, N_x, R_x) are exact integers over ``scale``,
    summed in int64 (``ScaledRun.bucket_sums``, exact under ``build``'s
    2 T scale < 2^63 check); ``honest_counts`` are exact round counts.
    Quadratic ones (S, E_a) are float64, accurate to ~1e-11 relative at
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
    delta = run.dev[:tp]

    abs_delta = np.abs(delta)
    a_num = int(abs_delta.sum())
    frac = delta / scale
    s_val = float(np.square(frac, out=frac).sum())
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
        honest = abs_delta < int(eta_scaled)
        gidx = run.traj.grid_idx[:tp]
        n_grid = len(run.traj.grid)
        # dishonest rounds weigh 0; the float counts are exact integers below 2^53
        n_x = run.bucket_sums((x_scaled - run.y[:tp]) * honest, gidx, n_grid)
        r_x = run.bucket_sums(delta * honest, gidx, n_grid)
        honest_counts = np.bincount(gidx, weights=honest, minlength=n_grid).astype(np.int64)

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


@dataclass(frozen=True)
class CheckSummary:
    """All comparisons of one pathwise inequality in one run.

    ``min_slack`` is the tightest margin by which a comparison holds
    (negative when it fails): an exact ``Fraction`` for the exact checks,
    a float for the float ones, None when there is nothing to compare.
    A float check passes within ``REL_TOL``, so its slack can be slightly
    negative on a pass.  ``first`` is the index of the first failing
    comparison, with its two sides ``lhs`` and ``rhs`` in the check's own
    units; all three are None when every comparison holds.
    """

    name: str
    count: int
    failures: int
    min_slack: object
    first: Optional[int] = None
    lhs: object = None
    rhs: object = None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    @classmethod
    def over(cls, name: str, lhs, rhs, slack, ok=None, value=float) -> "CheckSummary":
        """Summary of the comparisons of ``lhs[i]`` with ``rhs[i]`` (scalars
        or arrays), each holding by ``slack[i]`` and passing where ``ok[i]``
        (by default where ``slack[i] >= 0``).  ``value`` converts an entry
        to the number reported."""
        lhs, rhs, slack = np.atleast_1d(lhs, rhs, slack)
        if not slack.size:
            return cls(name, 0, 0, None)
        failed = np.flatnonzero(~(slack >= 0 if ok is None else np.atleast_1d(ok)))
        tightest = value(slack.min())
        if not failed.size:
            return cls(name, slack.size, 0, tightest)
        i = int(failed[0])
        return cls(name, slack.size, failed.size, tightest, i, value(lhs[i]), value(rhs[i]))


def _float_ge(name: str, lhs, rhs) -> CheckSummary:
    """lhs >= rhs per entry, up to REL_TOL relative to the larger side (or 1)."""
    lhs, rhs = np.asarray(lhs, dtype=np.float64), np.asarray(rhs, dtype=np.float64)
    tol = REL_TOL * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    return CheckSummary.over(name, lhs, rhs, lhs - rhs, ok=lhs >= rhs - tol)


def check_telescoping(ledger: RunLedger) -> CheckSummary:
    """sum_v B(v, g_all) telescopes to sum_t (p_t - y_t), exactly."""
    run = ledger.scaled
    if "g_all" in ledger.bias:
        lhs = int(ledger.bias["g_all"].sum())
    else:
        lhs = int(run.bucket_sums(run.resid).sum())
    rhs = int(run.resid.sum())
    return CheckSummary.over(
        "telescoping", lhs, rhs, -abs(lhs - rhs), value=lambda v: Fraction(int(v), ledger.scale)
    )


def check_diff_two(ledger: RunLedger) -> CheckSummary:
    """Err(g+ - g-) <= Err(g+) + Err(g-) for every constructed pair.

    One int64 vector of signed Errs and one of bounds, both over
    ``2 * scale``, in ``signed_pairs()`` order: the direct pairs, then the
    (a, j) pairs of the block layout.
    """
    lhs, rhs = [], []
    for plus, minus in ledger.family.direct_pairs():
        bp, bm = ledger.bias[plus.id], ledger.bias[minus.id]
        lhs.append(2 * int(np.abs(bp - bm).sum()))
        rhs.append(2 * (int(np.abs(bp).sum()) + int(np.abs(bm).sum())))
    lhs, rhs = np.array(lhs, dtype=np.int64), np.array(rhs, dtype=np.int64)
    if ledger.block_coeff_abs is not None:
        lhs = np.concatenate([lhs, 2 * ledger.block_coeff_abs.ravel()])
        rhs = np.concatenate([rhs, (ledger.block_plus_abs + ledger.block_minus_abs).ravel()])
    den = 2 * ledger.scale
    return CheckSummary.over("diff_two", lhs, rhs, rhs - lhs, value=lambda v: Fraction(int(v), den))


def check_g4_context_decomp(
    ledger: RunLedger, stats: DeviationStats, eta: Fraction, m: int
) -> CheckSummary:
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
    return CheckSummary.over("g4_context_decomp", lhs, rhs, lhs - rhs, value=Fraction)


def check_l1_quantization(stats: DeviationStats, m: int) -> CheckSummary:
    """A >= sum_v n_v^2 / (16 T') - T'/m - 1, exactly in rationals."""
    tp = stats.T_prime
    lhs = stats.A
    rhs = Fraction(int(np.sum(stats.n_v**2)), 16 * tp) - Fraction(tp, m) - 1
    return CheckSummary.over("l1_quantization", lhs, rhs, lhs - rhs, value=Fraction)


def check_n_from_a(stats: DeviationStats, m: int) -> CheckSummary:
    """N >= T' / (4 sqrt(A + T'/m + 1))."""
    tp = stats.T_prime
    rhs = tp / (4.0 * math.sqrt(float(stats.A) + tp / m + 1.0))
    return _float_ge("n_from_a", stats.N, rhs)


def check_block_mass(stats: DeviationStats) -> list[CheckSummary]:
    """N <= sum_a N_a <= sqrt(K) N."""
    total = float(stats.N_a.sum())
    k = len(stats.N_a)
    return [
        _float_ge("block_mass_lower", total, stats.N),
        _float_ge("block_mass_upper", math.sqrt(k) * stats.N, total),
    ]


def check_bias_averaging(decomp: BlockDecomposition, stats: DeviationStats) -> CheckSummary:
    """(1/L) sum_j sum_v |D| <= sqrt(q_a E_a), one comparison per block a."""
    lay = decomp.layout
    lhs = [float(np.abs(decomp.D[a][1] / decomp.scale).sum()) / lay.L for a in range(1, lay.K + 1)]
    rhs = [math.sqrt(float(stats.q_a[a]) * float(stats.E_a[a])) for a in range(lay.K)]
    return _float_ge("bias_averaging", rhs, lhs)


def check_block_parseval(decomp: BlockDecomposition, stats: DeviationStats) -> CheckSummary:
    gap = decomp.block_parseval_gap(stats.E_a)
    return CheckSummary.over("block_parseval", gap, REL_TOL, REL_TOL - gap)


def check_bits_mse(run: ScaledRun, report: CalibrationReport) -> list[CheckSummary]:
    """Appendix-style squared loss controls for the bit environment:
    per-round miss penalty (exact) and squared loss <= (2 - 1/(2N)) MCerr."""
    n = 1 << run.traj.params["k"]
    scale = run.scale
    # exact per-round penalty: a miss means (p - y)^2 >= 1/(4 N^2), i.e.
    # |scaled diff| >= scale / (2 N) in integers (2 N divides scale); the
    # squares are taken in Python integers, as int64 would wrap above 2^63
    floor = scale // (2 * n)
    miss = np.abs(run.resid[~run.in_interval])
    # one comparison, of the closest miss, when any round misses
    worst = [int(miss.min()) ** 2] if miss.size else []
    penalty = CheckSummary.over(
        "bits_miss_penalty", worst, floor**2, [w - floor**2 for w in worst], value=lambda v: Fraction(int(v), scale**2)
    )
    rhs = (2.0 - 1.0 / (2 * n)) * report.mcerr
    return [penalty, _float_ge("bits_mse_vs_mcerr", rhs, run.sq_loss)]


def miss_count(run: ScaledRun) -> int:
    """Rounds whose prediction lands outside the context's interval J_val."""
    return int((~run.in_interval).sum())
