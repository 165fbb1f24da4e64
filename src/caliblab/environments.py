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

RationalValue = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


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

    env_kind: str
    T: int
    seed: int
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

    def context_counts(self) -> np.ndarray:
        return np.bincount(self.grid_idx, minlength=len(self.grid))

    def dump(self, path) -> None:
        """One text record per round: round, serialized context, outcome."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for t in range(self.T):
                if self.bits is not None:
                    ctx = "".join(str(int(b)) for b in self.bits[t])
                else:
                    ctx = str(self.grid[int(self.grid_idx[t])])
                fh.write(f"{t + 1}\t{ctx}\t{Fraction(int(self.y_num[t]), self.den)}\n")


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


def _round_robin_bernoulli(num: np.ndarray, den: int, T: int, rng: np.random.Generator):
    """Round-robin grid indices, context numerators ``num[t % len(num)]`` and
    Bernoulli(num / den) outcome numerators (den or 0) for T rounds.

    The per-grid thresholds num / den are computed once and tiled, so each
    draw is compared with the same float as ``x_num[t] / den``.
    """
    reps = -(-T // len(num))
    idx = np.tile(np.arange(len(num), dtype=np.int64), reps)[:T]
    x_num = np.tile(num, reps)[:T]
    heads = rng.random(T) < np.tile(num / den, reps)[:T]
    return idx, x_num, heads * np.int64(den)


def sample_bernoulli_env(T: int, m: int, seed: int, stream: int = 0) -> Trajectory:
    """Round-robin grid contexts with independent Bernoulli(x^t) outcomes."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    grid = grid_section3(m)
    num = np.array([f.numerator * (m // f.denominator) for f in grid], dtype=np.int64)
    idx, x_num, y_num = _round_robin_bernoulli(num, m, T, substream(seed, stream))
    return Trajectory(
        env_kind="bernoulli",
        T=T,
        seed=seed,
        params={"m": m, "stream": stream},
        grid=tuple(grid),
        grid_idx=idx,
        x_num=x_num,
        y_num=y_num,
        den=m,
    )


def sample_bernoulli_on_grid(grid, T: int, seed: int, stream: int = 0) -> Trajectory:
    """Round-robin over an explicit ascending rational grid, Bernoulli outcomes.

    Used to replay a pattern-routing cell's context sub-grid standalone.
    """
    if T < 1 or not grid:
        raise ValueError("need T >= 1 and a nonempty grid")
    grid = [Fraction(x) for x in grid]
    den = math.lcm(*(x.denominator for x in grid))
    num = np.array([x.numerator * (den // x.denominator) for x in grid], dtype=np.int64)
    idx, x_num, y_num = _round_robin_bernoulli(num, den, T, substream(seed, stream))
    return Trajectory(
        env_kind="bernoulli",
        T=T,
        seed=seed,
        params={"grid": tuple(str(x) for x in grid), "stream": stream},
        grid=tuple(grid),
        grid_idx=idx,
        x_num=x_num,
        y_num=y_num,
        den=den,
    )


def sample_rademacher_env(T: int, seed: int, m: Optional[int] = None, stream: int = 0) -> Trajectory:
    """Time-augmented contexts with outcomes x^t +- 1/4 by fair signs."""
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    if m is None:
        m = section4_grid_count(T)
    grid = grid_section4(m)
    den = 4 * (m - 1)
    idx = np.arange(T, dtype=np.int64) % m
    x_num = (m - 1) + 2 * idx
    rng = substream(seed, stream)
    xi = 1 - 2 * (rng.random(T) < 0.5)  # -1 on heads, +1 otherwise, int64
    y_num = x_num + xi * (m - 1)  # +- 1/4 in units of 1/(4(m-1))
    return Trajectory(
        env_kind="rademacher",
        T=T,
        seed=seed,
        params={"m": m, "stream": stream},
        grid=tuple(grid),
        grid_idx=idx,
        x_num=x_num,
        y_num=y_num,
        den=den,
        timed=True,
    )


def sample_bit_env(T: int, k: int, seed: int, stream: int = 0) -> Trajectory:
    """Uniform k-bit contexts with deterministic midpoint labels mu(x)."""
    if T < 1 or k < 1:
        raise ValueError(f"need T >= 1 and k >= 1, got T={T}, k={k}")
    n = 1 << k
    rng = substream(seed, stream)
    bits = rng.integers(0, 2, size=(T, k), dtype=np.uint8)
    weights = (1 << np.arange(k - 1, -1, -1)).astype(np.int64)
    val = bits.astype(np.int64) @ weights
    mu_num = 2 * val + 1  # over 2N
    grid = tuple(Fraction(2 * v + 1, 2 * n) for v in range(n))
    return Trajectory(
        env_kind="bits",
        T=T,
        seed=seed,
        params={"k": k, "stream": stream},
        grid=grid,
        grid_idx=val,
        x_num=mu_num,
        y_num=mu_num.copy(),
        den=2 * n,
        bits=bits,
    )


ENV_SAMPLERS = {
    "bernoulli": sample_bernoulli_env,
    "rademacher": sample_rademacher_env,
    "bits": sample_bit_env,
}
