"""Oblivious hard environments producing reproducible trajectories.

Values that feed the calibration metric (context means, outcomes,
predictions) are exact rationals: the metric conditions on exact
prediction-bucket equality, which floating point cannot honor.  The
artifact-wide representation is ``fractions.Fraction`` at the API
surface, while each trajectory also stores its rounds columnwise as
integer numerators over a single common denominator so that downstream
accumulation stays in (exact) integer arithmetic.

Randomness comes from named counter-based Philox streams keyed by
(master seed, stream index): replicates are order-independent and
regeneration from (kind, parameters, seed) is bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

def substream(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for the given (master seed, stream index) pair."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream & 0xFFFFFFFFFFFFFFFF)])
    return np.random.Generator(np.random.Philox(key=key))


def icbrt(n: int) -> int:
    """Exact integer cube root floor(n^(1/3)); float cbrt misrounds at cubes."""
    if n < 0:
        raise ValueError("icbrt needs a nonnegative integer")
    k = round(n ** (1.0 / 3.0))
    while (k + 1) ** 3 <= n:
        k += 1
    while k**3 > n:
        k -= 1
    return k


def pow2_floor(n: int) -> int:
    if n < 1:
        raise ValueError("pow2_floor needs n >= 1")
    return 1 << (n.bit_length() - 1)


def section3_grid_count(T: int) -> int:
    """Default grid size floor(T^(1/3)) for the Bernoulli instance, floored at 8."""
    return max(8, icbrt(T))


def section4_grid_count(T: int) -> int:
    """Power-of-two grid size max{2, 2^floor(log2 T^(1/3))} for the Rademacher instance."""
    return max(2, pow2_floor(max(1, icbrt(T))))


@dataclass(frozen=True)
class ContextRecord:
    """One round's context: a grid mean, a (mean, time) pair, or a bit vector."""

    mean: Optional[Fraction] = None
    time: Optional[int] = None
    bits: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        has_mean = self.mean is not None
        has_bits = self.bits is not None
        if has_bits and (has_mean or self.time is not None):
            raise ValueError("bit contexts carry bits only")
        if not has_bits and not has_mean:
            raise ValueError("context needs a mean or a bit vector")

    def bit_value(self) -> int:
        """val(x) = sum_r x_r 2^(k-r), MSB-first."""
        if self.bits is None:
            raise ValueError("not a bit context")
        v = 0
        for b in self.bits:
            v = (v << 1) | int(b)
        return v

    def label_mean(self) -> Fraction:
        """The conditional outcome mean this context encodes."""
        if self.mean is not None:
            return self.mean
        n = 1 << len(self.bits)
        return Fraction(2 * self.bit_value() + 1, 2 * n)


@dataclass
class Trajectory:
    """An ordered run of (context, outcome) rounds for one environment draw.

    Columnwise representation: ``grid_idx[t]`` indexes ``grid`` (the exact
    mean values), and ``x_num``/``y_num`` are the context-mean and outcome
    numerators over the shared denominator ``den``.
    """

    T: int
    params: dict
    grid: tuple[Fraction, ...]
    grid_idx: np.ndarray
    x_num: np.ndarray
    y_num: np.ndarray
    den: int
    bits: Optional[np.ndarray] = None
    timed: bool = False

    def context(self, t: int) -> ContextRecord:
        """Context of round t (0-based)."""
        if self.bits is not None:
            return ContextRecord(bits=tuple(int(b) for b in self.bits[t]))
        mean = self.grid[int(self.grid_idx[t])]
        return ContextRecord(mean=mean, time=t + 1 if self.timed else None)

    def outcome(self, t: int) -> Fraction:
        return Fraction(int(self.y_num[t]), self.den)


def grid_section3(m: int) -> list[Fraction]:
    """Interior grid {j/m in [1/4, 3/4]}, ascending.  Size m0 >= (m-1)/2."""
    if m < 8:
        raise ValueError(f"Bernoulli instance needs m >= 8, got {m}")
    lo = -(-m // 4)  # ceil(m/4)
    hi = (3 * m) // 4
    grid = [Fraction(j, m) for j in range(lo, hi + 1)]
    assert 2 * len(grid) >= m - 1
    return grid


def grid_section4(m: int) -> list[Fraction]:
    """m equispaced means from 1/4 to 3/4, spacing 1/(2(m-1)); m a power of two."""
    if m < 2 or (m & (m - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 2, got {m}")
    den = 2 * (m - 1)
    return [Fraction(1, 4) + Fraction(i - 1, den) for i in range(1, m + 1)]


def grid_bits(k: int) -> tuple[Fraction, ...]:
    """The midpoint labels mu(v) = (2v + 1) / 2^(k+1) of the k-bit contexts v = 0..2^k - 1."""
    n = 1 << k
    return tuple(Fraction(2 * v + 1, 2 * n) for v in range(n))


@dataclass(frozen=True, eq=False)
class RoundRobin:
    """The context half of a round-robin environment over T rounds.

    Round t shows grid point t % n, with context-mean numerator
    ``num[t % n]`` over ``den``.  Its outcome numerator is
    ``tails[t % n] + step * heads[t]``, heads drawn by ``draw``: every
    outcome is linear in the heads.  ``draw_counts`` draws only the heads
    per grid point.  Only per-grid-point arrays are kept.
    """

    T: int
    grid: tuple
    num: np.ndarray
    den: int
    thresholds: np.ndarray  # P(heads) per grid point
    tails: np.ndarray  # outcome numerator on tails, per grid point
    step: int  # heads add step to the outcome numerator
    params: dict
    timed: bool = False

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """The per-round outcome draw of the samplers and of the cells
        with a block layout: heads[t] is u_t < thresholds[t % n] for the
        T uniforms u_t of ``rng.random(T)``, compared as a (T // n, n)
        block and a tail, never with a tiled length-T copy of the
        thresholds."""
        n, T = len(self.thresholds), self.T
        u = rng.random(T)
        full = T - T % n
        heads = np.empty(T, dtype=bool)
        np.less(u[:full].reshape(-1, n), self.thresholds, out=heads[:full].reshape(-1, n))
        np.less(u[full:], self.thresholds[: T - full], out=heads[full:])
        return heads

    def rounds_per_column(self) -> np.ndarray:
        """Rounds shown at each grid point j: T // n, plus one for j < T % n."""
        n, T = len(self.thresholds), self.T
        return T // n + (np.arange(n) < T % n)

    def draw_counts(self, rng: np.random.Generator) -> np.ndarray:
        """The outcome draw of a cell that reads only the heads per grid
        point: one Binomial(rounds_per_column[j], thresholds[j]) per column
        j, int64.  It has the law of the column counts of ``draw`` but not
        their bytes: it takes n draws of ``rng``, not T uniforms."""
        return rng.binomial(self.rounds_per_column(), self.thresholds).astype(np.int64, copy=False)

    def trajectory(self, heads: np.ndarray) -> Trajectory:
        """The trajectory of the first len(heads) <= T rounds under ``heads``."""
        n, T = len(self.num), len(heads)
        reps, full = -(-T // n), T - T % n
        y_num = heads * np.int64(self.step)
        np.add(y_num[:full].reshape(-1, n), self.tails, out=y_num[:full].reshape(-1, n))
        y_num[full:] += self.tails[: T - full]
        return Trajectory(
            T=T,
            params=self.params,
            grid=self.grid,
            grid_idx=np.tile(np.arange(n, dtype=np.int64), reps)[:T],
            x_num=np.tile(self.num, reps)[:T],
            y_num=y_num,
            den=self.den,
            timed=self.timed,
        )

    def sample(self, seed: int, stream: int = 0) -> Trajectory:
        return self.trajectory(self.draw(substream(seed, stream)))


def _bernoulli_round_robin(grid: list, T: int, params: dict) -> RoundRobin:
    """Bernoulli(x) outcomes (den on heads, 0 on tails) over an ascending rational grid."""
    den = math.lcm(*(x.denominator for x in grid))
    num = np.array([x.numerator * (den // x.denominator) for x in grid], dtype=np.int64)
    return RoundRobin(T, tuple(grid), num, den, num / den, np.zeros_like(num), den, params)


def bernoulli_contexts(T: int, m: int) -> RoundRobin:
    """Round-robin contexts on the Section 3 grid of size m, Bernoulli(x^t) outcomes."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return _bernoulli_round_robin(grid_section3(m), T, {"m": m})


def sample_bernoulli_env(T: int, m: int, seed: int, stream: int = 0) -> Trajectory:
    """Round-robin grid contexts with independent Bernoulli(x^t) outcomes."""
    return bernoulli_contexts(T, m).sample(seed, stream)


def sample_bernoulli_on_grid(grid, T: int, seed: int, stream: int = 0) -> Trajectory:
    """Round-robin over an explicit ascending rational grid, Bernoulli outcomes.

    Used to replay a pattern-routing cell's context sub-grid standalone.
    """
    if T < 1 or not grid:
        raise ValueError("need T >= 1 and a nonempty grid")
    grid = [Fraction(x) for x in grid]
    env = _bernoulli_round_robin(grid, T, {"grid": tuple(str(x) for x in grid)})
    return env.sample(seed, stream)


def rademacher_contexts(T: int, m: Optional[int] = None) -> RoundRobin:
    """Time-augmented contexts on the Section 4 grid, outcomes x^t -+ 1/4 by
    fair signs: heads (u < 1/2) give x^t - 1/4, tails x^t + 1/4."""
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    if m is None:
        m = section4_grid_count(T)
    grid = grid_section4(m)
    num = (m - 1) + 2 * np.arange(m, dtype=np.int64)  # over 4(m - 1)
    return RoundRobin(T, tuple(grid), num, 4 * (m - 1), np.full(m, 0.5), num + (m - 1), -2 * (m - 1), {"m": m}, timed=True)


def sample_rademacher_env(T: int, seed: int, m: Optional[int] = None, stream: int = 0) -> Trajectory:
    """Time-augmented contexts with outcomes x^t +- 1/4 by fair signs."""
    return rademacher_contexts(T, m).sample(seed, stream)


def sample_bit_env(T: int, k: int, seed: int, stream: int = 0) -> Trajectory:
    """Uniform k-bit contexts with deterministic midpoint labels mu(x)."""
    if T < 1 or k < 1:
        raise ValueError(f"need T >= 1 and k >= 1, got T={T}, k={k}")
    n = 1 << k
    rng = substream(seed, stream)
    bits = rng.integers(0, 2, size=(T, k), dtype=np.uint8)
    # the context value, most significant bit first: k shift-or steps over
    # the uint8 columns take half the time of an int64 matmul
    val = np.zeros(T, dtype=np.int64)
    for column in bits.T:
        val <<= 1
        val |= column
    mu_num = 2 * val + 1  # over 2N
    return Trajectory(
        T=T,
        params={"k": k},
        grid=grid_bits(k),
        grid_idx=val,
        x_num=mu_num,
        y_num=mu_num.copy(),
        den=2 * n,
        bits=bits,
    )

