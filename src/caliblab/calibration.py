"""Scaled runs, bias ledgers, Err/MCerr reports, deviation statistics,
block bias transforms and the pathwise inequality suite.

Biases accumulate exactly.  The streaming ledger works in Fractions; the
vectorized path works in int64 numerators over one common scale.
``ScaledRun`` is the one place where that scale, the scaled prediction,
context-mean and outcome arrays and the prediction-bucket index live; the
accumulator, the deviation statistics, the block bias transform and the
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
reports, so the bias + noise = ledger-bias identity is exact.  Per-group
quantities are arrays in family order, found by id through
``GroupFamily.index``.  A ledger's direct biases are one (direct groups,
buckets) int64 array, and every group's Err numerator over 2 scale is one
int64 vector, ``err``, in ``family.ids()`` order, formed once per ledger:
the report, MCerr and every pathwise check read it.  A family's blockwise
Hadamard half-groups are never evaluated one by one: their entries of
``err`` and their signed functionals (one (K, L) array over scale) come
from the per-block transform of the residual.  A ledger reports ``err``
over 2 scale as one float64 vector, a ``CalibrationReport``: a read-only
mapping over that vector and the index.

A layout's rounds are split into (block, bucket) rows once per run and
layout: ``BlockRows``, which ``ScaledRun.block_rows`` memoises and the
residual transform, the bias transform D and the per-block deviation
statistics all read.  Its ``transform`` is the one Walsh transform of
block rows, one (rows, L) array from one FWHT per chunk of at most
``STACK_ENTRIES`` entries, and ``per_block`` its one per-block row sum.
The ledger's block Err sums are ``abs_sums``: per run of at most
``SUM_BLOCKS`` blocks of a chunk, one product of those blocks' 0/1
membership matrix with |c0 + c|, |c0 - c| and |c|.  Every coefficient
is at most L scale in magnitude and every one of those sums at most
2 L scale, so they are formed in ``exact_dtype(2 L scale)``, the package's
one exactness rule (``orthogonal``).

Runs whose outcomes are linear in a heads sequence, y = y0 + step heads,
and whose predictions and direct group weights repeat with the context
period (the round-robin environments under an oblivious forecaster) have
a ``RunSkeleton``: the run at heads = 0 reduced to per-column bucket and
weight arrays, its biases and residual sums, and, with a layout, the
``BlockRows`` of the run and their transform of the residual at
heads = 0.  Without a layout nothing the skeleton keeps reads round
order, so it is built from one round robin of columns: a ``ScaledRun``
whose entry j stands for the ``mult[j]`` rounds that show column j,
every sum over rounds weighted by those multiplicities.  A
``SkeletonRun`` (the skeleton plus one draw's heads per context column,
and with a layout the per-round heads too) forms each direct bias and
residual sum as its value at heads = 0 minus step times the same sum
over the column heads, mapped to buckets through the weights; the block
transform is linear, so a draw's block coefficients are the skeleton's
minus step times ``BlockRows.transform`` of its 0/1 heads.  The
skeleton keeps its coefficients in ``exact_dtype(2 L scale)``, so at the
desk sizes a draw's coefficients stay float32 from the heads product to
the block Err sums.  ``accumulate_run`` and ``check_telescoping`` read
either kind of run; ``ScaledRun.build`` stays the general path and the
reference the skeleton is tested against.

Each pathwise inequality yields one ``CheckSummary`` per run, however
many comparisons it makes: their count, the number that fail, the exact
tightest slack and the index, lhs and rhs of the first failure, all
``Fraction``s.  Every check compares integer numerators over one
denominator, in int64 under a checked ceiling and in Python integers above
it; bias averaging is compared squared, so its slack is in squared units.
Sums of square roots are decided on certified brackets (``_roots_ge``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .environments import ContextRecord, Trajectory
from .groups import BlockLayout, GroupFamily, ThresholdGroup
from .orthogonal import exact_dtype, fwht

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
    of predictions ``p_num / p_den`` (numerators in [0, p_den]) against
    outcomes ``y_num / y_den``.

    Each round contributes d_t = p_t y_den - y_t p_den, an int64 of
    magnitude at most p_den y_den, summed per prediction with an int64
    ``np.add.at``: when p_den <= 4 t into p_den + 1 slots indexed by the
    numerators themselves (a slot no round takes adds |0|), otherwise into
    the classes of ``_bucket_index`` (``np.unique``), so that the slots
    never outnumber 4 t + 1.  Every partial sum is bounded by
    t p_den y_den, which is checked below 2^63 in Python integers first.
    """
    t = len(p_num)
    if t * p_den * y_den >= 2**63:
        raise OverflowError(
            f"int64 cell sums could overflow: T={t} * p_den={p_den} * y_den={y_den} >= 2^63"
        )
    p = np.asarray(p_num, dtype=np.int64)
    d = p * y_den - np.asarray(y_num, dtype=np.int64) * p_den
    if p_den <= 4 * t:
        sums = np.zeros(p_den + 1, dtype=np.int64)
    else:
        _, p, counts = _bucket_index(p, p_den)
        sums = np.zeros(len(counts), dtype=np.int64)
    np.add.at(sums, p, d)
    return Fraction(int(np.abs(sums).sum()), p_den * y_den)


def _check_unit_interval(value: Fraction, what: str) -> Fraction:
    value = Fraction(value)
    if not 0 <= value <= 1:
        raise ValueError(f"{what} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True, eq=False)
class CalibrationReport(Mapping):
    """Per-group Err, read-only: ``vector[index[gid]]`` is the float64 Err
    of group ``gid``, and ``index`` is a ``GroupFamily.index`` (id ->
    position in family order), so the report iterates in family order."""

    index: dict
    vector: np.ndarray

    def __getitem__(self, gid: str) -> float:
        return float(self.vector[self.index[gid]])

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    @property
    def mcerr(self) -> float:
        """The largest Err, 0.0 for an empty family."""
        return float(self.vector.max()) if self.vector.size else 0.0


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
        err = np.array([float(self.err_exact(gid)) for gid in self.family.index], dtype=np.float64)
        return CalibrationReport(self.family.index, err)


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


def _wide(x: np.ndarray, ceiling: int) -> np.ndarray:
    """``x`` if ``ceiling``, a bound on every value formed from it, is below 2^63, else as Python ints."""
    return x if ceiling < 2**63 else x.astype(object)


@dataclass(frozen=True, eq=False)
class ScaledRun:
    """One run over one common scale: the lcm of the trajectory's and the
    predictions' denominators and of any extra ones (a family's
    ``required_denominators()``, eta).  ``p``, ``x``, ``y`` are predictions,
    context means and outcomes over ``scale``; round t falls in bucket
    ``bucket_idx[t]`` of value ``bucket_scaled[.]`` and size ``bucket_counts[.]``,
    buckets in ascending value order.

    With ``mult``, entry t of the arrays stands for ``mult[t]`` equal
    rounds: ``T`` is their total, and ``bucket_counts``, ``bucket_sums``,
    ``total`` and what is built on them (the ledger, the deviation
    statistics, a ``RunSkeleton``) weigh entry t by ``mult[t]``.  The
    readers of round order, ``block_rows`` and the bit environment's
    ``sq_loss_num`` and ``in_interval``, need a run of single rounds.
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
    mult: Optional[np.ndarray] = None
    _block_rows: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, traj: Trajectory, pred: Predictions, *dens: int, mult: Optional[np.ndarray] = None) -> "ScaledRun":
        """The run of ``traj`` and ``pred``; with ``mult`` (int64, one
        positive count per round of ``traj``) round t stands for ``mult[t]``
        rounds, and the int64 ceiling is checked at their total."""
        if pred.T != traj.T:
            raise ValueError(f"prediction length {pred.T} does not match T={traj.T}")
        T = traj.T if mult is None else int(mult.sum())
        scale = math.lcm(traj.den, pred.den, *dens)
        if 2 * T * scale >= 2**63:
            raise OverflowError(f"int64 bucket sums could overflow: 2 * T={T} * scale={scale} >= 2^63")
        unit = scale // pred.den
        # v -> v * unit is increasing, so the buckets of pred.num are the buckets of p
        buckets, idx, counts = _bucket_index(pred.num, pred.den)
        if mult is not None:
            counts = np.zeros(len(buckets), dtype=np.int64)
            np.add.at(counts, idx, mult)
        p = pred.num * unit
        x_unit = scale // traj.den
        return cls(traj, T, scale, p, traj.x_num * x_unit, traj.y_num * x_unit, buckets * unit, idx, counts, mult)

    @cached_property
    def resid(self) -> np.ndarray:
        return self.p - self.y

    @cached_property
    def dev(self) -> np.ndarray:
        """Honesty deviation p - x, shared by the threshold groups and the deviation statistics."""
        return self.p - self.x

    @cached_property
    def sq_loss_num(self) -> int:
        """sum_t (p_t - y_t)^2 over scale^2, exactly: in int64 under T scale^2 < 2^63, else in Python ints."""
        r = _wide(self.resid, self.T * self.scale**2)
        return int((r * r).sum())

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
        np.add.at(out, idx, values if self.mult is None else values * self.mult)
        return out

    def total(self, values: np.ndarray) -> int:
        """Exact sum of integer ``values`` over the rounds, bounded as in ``bucket_sums``."""
        return int(values.sum() if self.mult is None else values @ self.mult)

    def direct_biases(self, family: GroupFamily) -> np.ndarray:
        """(direct groups, buckets) int64 biases w (p - y), in family order."""
        bias = [self.bucket_sums(self.resid * g.weights(self)) for g in family.groups]
        return np.array(bias, dtype=np.int64).reshape(-1, len(self.bucket_scaled))

    def route_biases(self, route, family: GroupFamily) -> np.ndarray:
        """``direct_biases(family)`` read through ``route``, a
        ``forecasters.Route`` of this run's contexts formed from the
        family's direct groups (a whole-run ``PatternRouter`` checks its
        route against the trajectory it predicts): one
        int64 sum of p - y per (bucket, route cell), then each group's row
        the sum of the rows of the cells whose pattern sets its bit, one
        product with ``route.members``.  Every row is a sum over distinct
        rounds, so it is bounded as in ``bucket_sums`` and exact in int64,
        for overlapping groups too."""
        if route.ids != tuple(g.id for g in family.groups):
            raise ValueError(f"a route of groups {route.ids} does not serve the direct groups of {family.kind}")
        if self.mult is not None or route.T != self.T:
            raise ValueError(f"a route built for T={route.T} does not serve a run of {len(self.p)} entries")
        n, buckets = len(route.cells), len(self.bucket_scaled)
        key = self.bucket_idx * n
        key += route.label
        sums = self.bucket_sums(self.resid, key, buckets * n).reshape(buckets, n)
        return route.members @ sums.T

    def resid_bucket_sums(self) -> np.ndarray:
        return self.bucket_sums(self.resid)

    def resid_total(self) -> int:
        return self.total(self.resid)

    def block_rows(self, layout: BlockLayout) -> "BlockRows":
        """The ``BlockRows`` of this run's buckets under ``layout``, memoised."""
        if self.mult is not None:
            raise ValueError("block rows read round order; build the run of every round")
        if layout not in self._block_rows:
            self._block_rows[layout] = BlockRows.build(self.bucket_idx, len(self.bucket_scaled), layout)
        return self._block_rows[layout]

    def resid_coefficients(self, layout: BlockLayout) -> np.ndarray:
        """(rows, L) block transform of the residual p - y."""
        return self.block_rows(layout).transform(self.resid)


@dataclass
class RunLedger:
    """Exact per-group Err numerators for one run, vectorized.

    ``scaled`` is the run: a ``ScaledRun``, or a ``SkeletonRun`` (one
    outcome draw on a ``RunSkeleton``), which has no per-round arrays.
    ``bias`` is the (direct groups, buckets) int64 array of the direct
    groups' biases over the realized buckets, in family order (numerators
    over ``scale``).  ``err`` is the int64 Err numerator over ``2 * scale``
    of every group in ``family.ids()`` order, block half-groups included;
    ``signed`` is the (K, L) array of the block signed functionals' Err
    numerators over ``scale`` at [a - 1, j], None when the family has no
    layout.
    """

    family: GroupFamily
    scaled: ScaledRun
    bias: np.ndarray
    err: np.ndarray
    signed: Optional[np.ndarray] = None

    scale = property(lambda self: self.scaled.scale)
    T = property(lambda self: self.scaled.T)
    bucket_scaled = property(lambda self: self.scaled.bucket_scaled)

    def err_exact(self, gid: str) -> Fraction:
        return Fraction(int(self.err[self.family.index[gid]]), 2 * self.scale)

    def report(self) -> CalibrationReport:
        return CalibrationReport(self.family.index, self.err / (2.0 * self.scale))

    def mcerr_num(self) -> int:
        """MCerr's numerator over ``2 * scale``: the largest Err, 0 for an empty family."""
        return int(self.err.max(initial=0))

    def telescoped(self) -> Fraction:
        return Fraction(self.scaled.resid_total(), self.scale)


def accumulate_run(run, family: GroupFamily, route=None) -> RunLedger:
    """Post-hoc exact accumulation of a whole run against a family.

    ``run`` is a ``ScaledRun`` built with the family's
    ``required_denominators()``, or a ``SkeletonRun`` of a skeleton built
    for this family.  Given the ``Route`` of a ``ScaledRun``'s contexts
    over the family's direct groups, the direct biases are its
    ``route_biases``; ``direct_biases`` is their reference.
    """
    bias = run.direct_biases(family) if route is None else run.route_biases(route, family)
    n = len(bias)
    err = np.empty(len(family), dtype=np.int64)
    err[:n] = 2 * np.abs(bias).sum(axis=1)
    lay = family.layout
    if lay is None:
        return RunLedger(family, run, bias, err)
    # every coefficient is at most L scale in magnitude, so every |c0 +- c|
    # and every partial block sum of them at most 2 L scale
    coeffs = run.resid_coefficients(lay).astype(exact_dtype(2 * lay.L * run.scale), copy=False)
    block_abs = run.block_rows(lay).abs_sums(coeffs)  # plus, minus, signed
    # family order: a, then j, then +/-
    err[n::2], err[n + 1 :: 2] = block_abs[0].ravel(), block_abs[1].ravel()
    return RunLedger(family, run, bias, err, block_abs[2])


# ---------------------------------------------------------------------------
# Block rows: one (block, bucket) split per run and layout
# ---------------------------------------------------------------------------

# entries of the stacked (block, bucket) rows that one transform takes:
# 32 MiB of int64 residual or 4 MiB of bool heads, and a ``fwht`` peak of
# 32 MiB in float32 or 64 MiB in float64 or int64 (tracemalloc).
# ``BlockRows.abs_sums`` reads at most one chunk's rows at a time: three
# planes of them, 48 MiB in float32 (96 MiB in float64 or int64)
STACK_ENTRIES = 1 << 22

# blocks whose Err sums one membership product takes.  A block has at most
# L rows, so the (blocks, rows) 0/1 matrix of a run of them is at most
# SUM_BLOCKS^2 L entries and the product does at most SUM_BLOCKS times the
# additions the sums need; one product over all K blocks would grow as K
# times the rows.  Timed against 8, 32 and 64 and against a reduceat over
# the float32 planes at K = 14 to 4096 (BENCH_block_f32.json), 16 ran
# within 30% of the fastest everywhere, and ahead of reduceat everywhere
# but at K = 4096 blocks of L = 4
SUM_BLOCKS = 16


@dataclass(frozen=True, eq=False)
class BlockRows:
    """The (block, bucket) split of a layout's T' = K L rounds: one row per
    block and bucket realized in it, in block then bucket order.

    Row r holds ``counts[r]`` rounds of bucket ``bucket[r]``; block a
    (1-based, never empty) owns rows ``first[a - 1]:first[a]``; round t
    sits at the flat entry ``slots[t]`` = row * L + t % L.  ``chunks``
    runs consecutive blocks [lo, hi) whose rows stack to at most
    ``STACK_ENTRIES`` entries, or one block that alone has more, so one
    transform's buffers stay bounded at large T.
    """

    L: int
    bucket: np.ndarray
    counts: np.ndarray
    first: np.ndarray
    slots: np.ndarray
    chunks: tuple

    @classmethod
    def build(cls, bucket_idx: np.ndarray, n_buckets: int, layout: BlockLayout) -> "BlockRows":
        K, L = layout.K, layout.L
        code = np.repeat(np.arange(K), L) * n_buckets + bucket_idx[: K * L]
        keys, row_of, counts = _bucket_index(code, K * n_buckets - 1)
        first = np.searchsorted(keys, np.arange(K + 1) * n_buckets)
        chunks, lo = [], 0
        for a in range(1, K):
            if (first[a + 1] - first[lo]) * L > STACK_ENTRIES:
                chunks.append((lo, a))
                lo = a
        chunks.append((lo, K))
        slots = row_of * L + np.tile(np.arange(L), K)
        return cls(L, keys % n_buckets, counts, first, slots, tuple(chunks))

    def transform(self, values: np.ndarray) -> np.ndarray:
        """(rows, L) coefficients in row order, one FWHT per chunk: entry
        [r, j] is <psi_j, the ``values[:T']`` of row r's rounds in their block>.
        The rows keep the dtype of ``values``; the output is in the dtype
        ``fwht`` picks for them by ``exact_dtype``, or in int64 where two
        chunks pick different ones."""
        L, first, out = self.L, self.first, []
        for lo, hi in self.chunks:
            base = first[lo]
            rows = np.zeros((first[hi] - base) * L, dtype=values.dtype)
            rows[self.slots[lo * L : hi * L] - base * L] = values[lo * L : hi * L]
            out.append(fwht(rows.reshape(-1, L)))
        if len({c.dtype for c in out}) > 1:  # integer coefficients, exact in int64 from any dtype
            out = [c.astype(np.int64) for c in out]
        return out[0] if len(out) == 1 else np.concatenate(out)

    def abs_sums(self, coeffs: np.ndarray) -> np.ndarray:
        """(3, K, L) int64 sums over each block's rows of |c0 + c|, |c0 - c|
        and |c|, for ``coeffs`` (rows, L) and c0 its column 0, in the dtype
        of ``coeffs``, which must hold every partial sum exactly
        (``exact_dtype``): per run [lo, hi) of at most ``SUM_BLOCKS`` blocks of a
        chunk, one product of its (hi - lo, rows) 0/1 block-membership
        matrix with the three planes of its rows.  Row r's column j is a
        signed functional's bias, and its half-groups' biases are
        (c0 +- c) / 2."""
        first = self.first
        out = np.empty((3, len(first) - 1, self.L), dtype=coeffs.dtype)
        for start, stop in self.chunks:
            for lo in range(start, stop, SUM_BLOCKS):
                hi = min(lo + SUM_BLOCKS, stop)
                c = coeffs[first[lo] : first[hi]]
                terms = np.empty((3, *c.shape), dtype=c.dtype)
                np.add(c[:, :1], c, out=terms[0])
                np.subtract(c[:, :1], c, out=terms[1])
                np.abs(terms[:2], out=terms[:2])
                np.abs(c, out=terms[2])
                row = np.arange(first[lo], first[hi])
                members = (row >= first[lo:hi, None]) & (row < first[lo + 1 : hi + 1, None])
                np.matmul(members.astype(c.dtype), terms, out=out[:, lo:hi])
        return out.astype(np.int64, copy=False)

    def per_block(self, x: np.ndarray) -> np.ndarray:
        """Sums of the rows of ``x`` (rows first) over each block: (K, ...)."""
        return np.add.reduceat(x, self.first[:-1], axis=0)


# ---------------------------------------------------------------------------
# Run skeletons: the outcome-free half of a run
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RunSkeleton:
    """The outcome-free half of every run on one family whose outcomes are
    linear in a heads sequence, y = y0 + step heads, and whose predictions
    and direct group weights repeat with the context period n.

    It is built once from the ``ScaledRun`` at heads = 0 and keeps only
    compact arrays: per context column j < n the bucket (``onehot[j]``, a
    zero row for a column never shown) and each direct group's weight; the
    direct biases, the residual bucket sums and the residual total at
    heads = 0; and, with a layout, the run's ``BlockRows`` and their
    transform of the residual at heads = 0, ``coeff0``, taken once and
    kept in ``exact_dtype(2 L scale)``, the dtype of the ledger's block
    sums.  ``step`` is over ``scale``.  Every outcome sum of a draw is its
    value at heads = 0 minus ``step`` times the same sum over the heads
    (``SkeletonRun``); the block transform is linear, so that holds for
    its coefficients too.  Without a layout (``rows`` is None) a draw is
    read only through its heads per context column, so it needs n column
    counts, not T per-round heads; with a layout the heads enter the block
    transform round by round, so it needs the heads of every round.
    """

    family: GroupFamily
    T: int
    period: int
    scale: int
    step: int
    bucket_scaled: np.ndarray
    onehot: np.ndarray  # (period, buckets) int64
    weights: np.ndarray  # (direct groups, period) int64, 0 or 1
    bias0: np.ndarray  # (direct groups, buckets) int64
    resid0: np.ndarray  # (buckets,) int64
    total0: int
    rows: Optional[BlockRows] = None
    coeff0: Optional[np.ndarray] = None  # (rows, L) residual transform at heads = 0, in exact_dtype(2 L scale)

    @classmethod
    def build(cls, run0: ScaledRun, family: GroupFamily, period: int, step: int) -> "RunSkeleton":
        """Skeleton of ``run0``, the run at heads = 0, whose predictions and
        direct group weights repeat with ``period``; ``step`` is the
        outcome step over ``run0.traj.den``.  Columns are read from the
        first min(period, T) entries of ``run0``.

        Without a layout ``run0`` may be one round robin of columns, each
        entry weighted by its rounds (``ScaledRun.mult``); the biases and
        residual sums are then sums over columns.  A layout reads round
        order (the ``BlockRows`` and the residual transform), so its
        ``run0`` holds every round."""
        T, cols = run0.T, min(period, run0.T)
        onehot = np.zeros((period, len(run0.bucket_scaled)), dtype=np.int64)
        onehot[np.arange(cols), run0.bucket_idx[:cols]] = 1
        weights = np.zeros((len(family.groups), period), dtype=np.int64)
        for row, g in zip(weights, family.groups):
            row[:cols] = g.weights(run0)[:cols]
        bias0 = run0.direct_biases(family)
        lay, extra = family.layout, {}
        if lay is not None:
            coeff0 = run0.resid_coefficients(lay).astype(exact_dtype(2 * lay.L * run0.scale), copy=False)
            extra = dict(rows=run0.block_rows(lay), coeff0=coeff0)
        step_scaled = step * (run0.scale // run0.traj.den)
        return cls(
            family, T, period, run0.scale, step_scaled, run0.bucket_scaled, onehot, weights, bias0,
            run0.resid_bucket_sums(), run0.resid_total(), **extra,
        )


@dataclass(frozen=True, eq=False)
class SkeletonRun:
    """One outcome draw on a ``RunSkeleton``: the heads per context column
    (``column_heads``, int64, over the rounds t with t % period == j) and,
    where the skeleton has a layout, the run's heads (bool, T), and the
    sums ``accumulate_run`` and ``check_telescoping`` read, formed from
    them.  The direct biases, the residual sums and the noise sums take
    the column heads through each group's weights and the column-to-bucket
    map; the layout's residual coefficients are the skeleton's ``coeff0``
    minus ``step`` times the transform of the heads themselves, bool rows
    through ``BlockRows.transform``."""

    skeleton: RunSkeleton
    column_heads: np.ndarray
    heads: Optional[np.ndarray] = None

    T = property(lambda self: self.skeleton.T)
    scale = property(lambda self: self.skeleton.scale)
    bucket_scaled = property(lambda self: self.skeleton.bucket_scaled)

    @classmethod
    def from_heads(cls, skeleton: RunSkeleton, heads: np.ndarray) -> "SkeletonRun":
        """The draw of per-round ``heads``, counted per context column."""
        n, T = skeleton.period, skeleton.T
        full = T - T % n
        counts = np.count_nonzero(heads[:full].reshape(-1, n), axis=0).astype(np.int64, copy=False)
        counts[: T - full] += heads[full:]
        return cls(skeleton, counts, heads)

    def direct_biases(self, family: GroupFamily) -> np.ndarray:
        sk = self.skeleton
        if family is not sk.family:
            raise ValueError("the skeleton was built for another family")
        return sk.bias0 - sk.step * ((sk.weights * self.column_heads) @ sk.onehot)

    def resid_bucket_sums(self) -> np.ndarray:
        return self.skeleton.resid0 - self.skeleton.step * (self.column_heads @ self.skeleton.onehot)

    def resid_total(self) -> int:
        return self.skeleton.total0 - self.skeleton.step * int(self.column_heads.sum())

    def block_rows(self, layout: BlockLayout) -> BlockRows:
        """The skeleton's ``BlockRows``, which hold for its family's layout only."""
        if layout != self.skeleton.family.layout:
            raise ValueError("the skeleton was built for another layout")
        return self.skeleton.rows

    def resid_coefficients(self, layout: BlockLayout) -> np.ndarray:
        """(rows, L) block transform of the residual in ``coeff0``'s dtype:
        ``coeff0`` minus ``step`` times the transform of the bool heads,
        formed in place."""
        sk = self.skeleton
        if self.heads is None:
            raise ValueError("the block transform reads per-round heads; this draw holds only the column heads")
        out = self.block_rows(layout).transform(self.heads[: layout.T_prime]).astype(sk.coeff0.dtype, copy=False)
        out *= -sk.step
        out += sk.coeff0
        return out

    def deviation_stats(self, stats0: DeviationStats) -> DeviationStats:
        """This draw's statistics from ``stats0``, those of the run at
        heads = 0 over all T rounds: only the noise sums N_x read outcomes.
        Predictions repeat per column, so a column is eta-honest in every
        round or in none, and ``honest_counts`` marks the honest ones."""
        if stats0.T_prime != self.T:
            raise ValueError("skeleton statistics cover all T rounds")
        if stats0.N_x_num is None:
            return stats0
        honest = stats0.honest_counts > 0
        return replace(stats0, N_x_num=stats0.N_x_num - self.skeleton.step * (honest * self.column_heads))


# ---------------------------------------------------------------------------
# Deviation statistics
# ---------------------------------------------------------------------------


@dataclass
class DeviationStats:
    """Honesty-deviation and bucket-diversity statistics of one run, all exact integers.

    Linear quantities (A, N_x, R_x) are over ``scale``, summed in int64
    (``ScaledRun.bucket_sums`` and ``total``, exact under ``build``'s
    2 T scale < 2^63 check); ``n_v`` and ``honest_counts`` are round counts.
    With a layout, ``rows`` is its ``BlockRows``, whose ``counts`` are the
    n_{a,v}, and ``sq_dev[a - 1]`` is sum_t delta_t^2 over block a, over scale^2.
    """

    scale: int
    T_prime: int
    A_num: int
    n_v: np.ndarray
    rows: Optional[BlockRows] = None
    sq_dev: Optional[np.ndarray] = None
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
    """A, bucket counts, per-block and per-context deviation summaries.

    With a layout, statistics cover rounds 1..T' = K L; otherwise all T.
    Without a layout every statistic is a sum over rounds, so ``run`` may
    be one round robin of columns weighted by their rounds
    (``ScaledRun.mult``); the per-block sum_t delta_t^2 reads round order.
    Per-context noise/drift splits (N_x, R_x over eta-honest rounds) are
    computed only when ``eta`` is given; ``run`` must then be built with
    eta's denominator.
    """
    scale = run.scale
    tp = layout.T_prime if layout is not None else run.T
    x_scaled = run.x[:tp]
    delta = run.dev[:tp]

    abs_delta = np.abs(delta)
    a_num = run.total(abs_delta)
    if tp == run.T:
        n_v = run.bucket_counts
    else:
        # prefix counts in bucket (= value) order, unrealized buckets dropped
        n_v = np.bincount(run.bucket_idx[:tp])
        n_v = n_v[n_v > 0]

    rows = sq_dev = None
    if layout is not None:
        rows = run.block_rows(layout)
        d = _wide(delta, layout.L * scale**2)
        sq_dev = (d * d).reshape(layout.K, layout.L).sum(axis=1)

    n_x = r_x = honest_counts = None
    if eta is not None:
        eta_scaled = Fraction(eta) * scale
        if eta_scaled.denominator != 1:
            raise ValueError("scale does not absorb eta's denominator")
        honest = (abs_delta < int(eta_scaled)).astype(np.int64)
        gidx = run.traj.grid_idx[:tp]
        n_grid = len(run.traj.grid)
        # dishonest rounds weigh 0
        n_x = run.bucket_sums((x_scaled - run.y[:tp]) * honest, gidx, n_grid)
        r_x = run.bucket_sums(delta * honest, gidx, n_grid)
        honest_counts = run.bucket_sums(honest, gidx, n_grid)

    return DeviationStats(scale, tp, a_num, n_v, rows, sq_dev, n_x, r_x, honest_counts)


def block_decompose(run: ScaledRun, layout: BlockLayout) -> np.ndarray:
    """D, the (rows, L) int64 transform of the bias p - x over ``scale`` in
    the rows of ``run.block_rows(layout)``: entry [r, j] is the coefficient
    of the bias sequence of the block owning row r restricted to its bucket.
    The noise x - y is never formed: D plus it is the residual transform."""
    if layout.T_prime > run.T:
        raise ValueError("layout covers more rounds than the trajectory")
    return run.block_rows(layout).transform(run.dev).astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# Pathwise inequality suite
# ---------------------------------------------------------------------------

# resolutions, in bits, of the square-root brackets, tried in turn until they decide
SQRT_BITS = (64, 128, 256)


@dataclass(frozen=True)
class CheckSummary:
    """All comparisons of one pathwise inequality in one run.

    ``min_slack`` is the exact ``Fraction`` by which the tightest comparison
    holds (negative when it fails), None when there is nothing to compare.
    ``first`` is the index of the first failing comparison, with its two
    sides ``lhs`` and ``rhs`` as ``Fraction``s in the check's own units;
    all three are None when every comparison holds.
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
    def over(cls, name: str, lhs, rhs, slack, den: int = 1) -> "CheckSummary":
        """Summary of the comparisons of ``lhs[i]`` with ``rhs[i]``, each
        holding by ``slack[i]`` and passing where ``slack[i] >= 0``: integer
        scalars or arrays (int64, or Python ints where int64 could wrap),
        all numerators over the one denominator ``den``."""
        lhs, rhs, slack = np.atleast_1d(lhs, rhs, slack)
        if not slack.size:
            return cls(name, 0, 0, None)
        failed = np.flatnonzero(slack < 0)
        tightest = Fraction(int(slack.min()), den)
        if not failed.size:
            return cls(name, slack.size, 0, tightest)
        i = int(failed[0])
        return cls(name, slack.size, failed.size, tightest, i, Fraction(int(lhs[i]), den), Fraction(int(rhs[i]), den))


def _root_sum(values, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits sum_i sqrt(values[i]) <= hi, from ``math.isqrt``;
    lo == hi when every value times 4^bits is a square."""
    lo = hi = 0
    for v in values:
        v = int(v) << 2 * bits
        r = math.isqrt(v)
        lo, hi = lo + r, hi + r + (r * r != v)
    return lo, hi


def _roots_ge(name: str, big, small, den: int = 1, equal: bool = False) -> CheckSummary:
    """sum_i sqrt(big[i]) >= sum_i sqrt(small[i]), both over ``den``, as one
    comparison of certified ``_root_sum`` brackets refined through
    ``SQRT_BITS``.  ``equal`` says the two sides are known equal: slack 0.
    Otherwise the sides reported are the lower end of the big bracket and
    the upper end of the small one, so the slack is a certified lower bound,
    and a comparison no bracket decides counts as a failure."""
    if equal:
        return CheckSummary.over(name, 0, 0, 0)
    for bits in SQRT_BITS:
        big_lo, big_hi = _root_sum(big, bits)
        small_lo, small_hi = _root_sum(small, bits)
        if big_lo >= small_hi or big_hi < small_lo:
            break
    return CheckSummary.over(name, big_lo, small_hi, big_lo - small_hi, den << bits)


def check_telescoping(ledger: RunLedger) -> CheckSummary:
    """sum_v B(v, g_all) telescopes to sum_t (p_t - y_t), exactly."""
    run = ledger.scaled
    i = ledger.family.index.get("g_all")
    lhs = int((run.resid_bucket_sums() if i is None else ledger.bias[i]).sum())
    rhs = run.resid_total()
    return CheckSummary.over("telescoping", lhs, rhs, -abs(lhs - rhs), ledger.scale)


def check_diff_two(ledger: RunLedger) -> CheckSummary:
    """Err(g+ - g-) <= Err(g+) + Err(g-) for every constructed pair.

    One int64 vector of signed Errs and one of bounds, both over
    ``2 * scale``, in ``signed_pairs()`` order: the direct pairs, then the
    (a, j) pairs of the block layout.
    """
    plus, minus = ledger.family.direct_pair_rows
    lhs = 2 * np.abs(ledger.bias[plus] - ledger.bias[minus]).sum(axis=1)
    rhs = ledger.err[plus] + ledger.err[minus]
    if ledger.signed is not None:
        halves = ledger.err[len(ledger.bias) :]
        lhs = np.concatenate([lhs, 2 * ledger.signed.ravel()])
        rhs = np.concatenate([rhs, halves[0::2] + halves[1::2]])
    return CheckSummary.over("diff_two", lhs, rhs, rhs - lhs, 2 * ledger.scale)


def check_cell_triangle(ledger: RunLedger, cell_errs: dict) -> CheckSummary:
    """Err(g_j) <= sum of the exact ``cell_errs[z]`` over the routed cells z
    with z[j] = 1, per direct group j: both sides Python integers (object
    arrays, never int64) over lcm(2 scale, the cell-error denominators)."""
    den = math.lcm(2 * ledger.scale, *(e.denominator for e in cell_errs.values()))
    lhs = ledger.err[: len(ledger.bias)].astype(object) * (den // (2 * ledger.scale))
    nums = {z: e.numerator * (den // e.denominator) for z, e in cell_errs.items()}
    rhs = np.array([sum(n for z, n in nums.items() if z[j]) for j in range(len(lhs))], dtype=object)
    return CheckSummary.over("cell_triangle", lhs, rhs, rhs - lhs, den)


def check_g4_context_decomp(
    ledger: RunLedger, stats: DeviationStats, eta: Fraction, m: int
) -> CheckSummary:
    """sum_v |B(v, g3)| >= sum_x |N_x| - sum_x |R_x| whenever eta <= 1/(2m),
    in Python integers over lcm(2 scale, the statistics' scale)."""
    if Fraction(eta) > Fraction(1, 2 * m):
        raise ValueError("context decomposition needs eta <= 1/(2m)")
    g3 = next(i for i, g in enumerate(ledger.family.groups) if isinstance(g, ThresholdGroup) and g.which == 3)
    den = math.lcm(2 * ledger.scale, stats.scale)
    lhs = int(ledger.err[g3]) * (den // (2 * ledger.scale))
    rhs = (int(np.abs(stats.N_x_num).sum()) - int(np.abs(stats.R_x_num).sum())) * (den // stats.scale)
    return CheckSummary.over("g4_context_decomp", lhs, rhs, lhs - rhs, den)


def check_l1_quantization(stats: DeviationStats, m: int) -> CheckSummary:
    """A >= sum_v n_v^2 / (16 T') - T'/m - 1, exactly: over 16 T' m scale."""
    tp, scale = stats.T_prime, stats.scale
    lhs = stats.A_num * 16 * tp * m
    rhs = int(np.sum(stats.n_v**2)) * scale * m - 16 * tp * scale * (tp + m)
    return CheckSummary.over("l1_quantization", lhs, rhs, lhs - rhs, 16 * tp * m * scale)


def check_n_from_a(stats: DeviationStats, m: int) -> CheckSummary:
    """N = sum_v sqrt(n_v) >= T' / (4 sqrt(B)), B = A + T'/m + 1 = b / (m scale):
    over 4 b, sum_v sqrt(16 b^2 n_v) >= sqrt(T'^2 m scale b), on brackets."""
    tp, scale = stats.T_prime, stats.scale
    b = stats.A_num * m + (tp + m) * scale
    return _roots_ge("n_from_a", [16 * b * b * int(n) for n in stats.n_v], [tp * tp * m * scale * b], 4 * b)


def check_block_mass(stats: DeviationStats) -> list[CheckSummary]:
    """N <= sum_a N_a <= sqrt(K) N, N_a = sum_v sqrt(n_{a,v}), on brackets.

    Each equality case is found in integers from the terms: the lower one
    when the n_{a,v} are the n_v (no bucket in two blocks), the upper one
    (Cauchy-Schwarz) when the K n_{a,v} are the n_v, each K times (every
    bucket has the same count in every block)."""
    counts, n_v, k = stats.rows.counts, stats.n_v, len(stats.rows.first) - 1
    lower = sorted(counts.tolist()) == sorted(n_v.tolist())
    upper = sorted((k * counts).tolist()) == sorted(np.repeat(n_v, k).tolist())
    return [
        _roots_ge("block_mass_lower", counts, n_v, equal=lower),
        _roots_ge("block_mass_upper", k * n_v, counts, equal=upper),
    ]


def check_bias_averaging(d: np.ndarray, stats: DeviationStats) -> CheckSummary:
    """(1/L) sum_j sum_v |D| <= sqrt(q_a E_a) per block a, squared: in
    Python integers over scale^2, (sum_j sum_v |D|)^2 <= L^2 q_a sum_t delta_t^2,
    q_a the buckets of block a.  Its slack is in these squared units."""
    rows = stats.rows
    # |D[r, j]| <= n_r scale for a row of n_r rounds, so a block's sum is at most L^2 scale
    l1 = rows.per_block(np.abs(_wide(d, rows.L**2 * stats.scale)).sum(axis=1)).astype(object)
    rhs = rows.L**2 * np.diff(rows.first).astype(object) * stats.sq_dev.astype(object)
    return CheckSummary.over("bias_averaging", l1 * l1, rhs, rhs - l1 * l1, stats.scale**2)


def check_block_parseval(d: np.ndarray, stats: DeviationStats) -> CheckSummary:
    """sum_j sum_v D^2 = L sum_t delta_t^2 per block, exactly, over scale^2."""
    rows = stats.rows
    # |D[r, j]| <= n_r scale for a row of n_r rounds, so a block's sum of squares is at most L^3 scale^2
    d = _wide(d, rows.L**3 * stats.scale**2)
    lhs = rows.per_block((d * d).sum(axis=1))
    rhs = rows.L * stats.sq_dev.astype(object)
    return CheckSummary.over("block_parseval", lhs, rhs, -abs(lhs - rhs), stats.scale**2)


def check_bits_mse(ledger: RunLedger) -> list[CheckSummary]:
    """Appendix-style squared loss controls for the bit environment, exactly:
    the per-round miss penalty, and sum_t (p_t - y_t)^2 <= (2 - 1/(2N)) MCerr,
    as 4 N sum_t (scaled diff)^2 <= (4 N - 1) scale M over 4 N scale^2, with
    M the numerator of MCerr over 2 scale (``RunLedger.mcerr_num``)."""
    run = ledger.scaled
    n = 1 << run.traj.params["k"]
    scale = run.scale
    # a miss means (p - y)^2 >= 1/(4 N^2), i.e. |scaled diff| >= scale / (2 N)
    # in integers (2 N divides scale); the squares are Python integers
    floor = scale // (2 * n)
    miss = np.abs(run.resid[~run.in_interval])
    # one comparison, of the closest miss, when any round misses
    worst = [int(miss.min()) ** 2] if miss.size else []
    penalty = CheckSummary.over("bits_miss_penalty", worst, floor**2, [w - floor**2 for w in worst], scale**2)
    lhs, rhs = 4 * n * run.sq_loss_num, (4 * n - 1) * scale * ledger.mcerr_num()
    return [penalty, CheckSummary.over("bits_mse_vs_mcerr", lhs, rhs, rhs - lhs, 4 * n * scale**2)]


def miss_count(run: ScaledRun) -> int:
    """Rounds whose prediction lands outside the context's interval J_val."""
    return int((~run.in_interval).sum())
