"""Group families: evaluatable weighting functions g(context, prediction).

All lower-bound families are binary valued.  Signed functionals (Walsh
features, blockwise Hadamard signs) are exposed as differences of two
binary half-groups, never as standalone [-1,1] groups, matching how the
bound constructions are assembled.

Each group supports exact scalar evaluation on (ContextRecord, Fraction)
plus a vectorized ``weights`` path over a whole run, used by the
calibration accumulators.  The vectorized path reads a
``calibration.ScaledRun``: predictions and context means arrive as
numerators over one common ``scale`` that the family's
``required_denominators`` have been folded into.

A ``GroupFamily`` keeps only its direct groups (constant, Walsh halves,
thresholds, bits, ranges) as objects.  The 2 K L blockwise Hadamard
half-groups of ``block_hadamard`` and ``full_walsh`` families are the
family's ``layout``: ids, length, manifest and signed pairs derive from
it, the ledger evaluates them as (K, L) arrays, and a
``BlockHadamardHalfGroup`` object is created only when the family is
iterated or looked up by id.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from .environments import ContextRecord, pow2_floor
from .orthogonal import walsh_row, walsh_sign

if TYPE_CHECKING:
    from .calibration import ScaledRun


def default_eta(m: int, T: int) -> Fraction:
    """Safe rational default for the honesty margin.

    Targets (1/2) sqrt(m/T) but rounded down to a rational with
    denominator 2mT (via integer sqrt, so the choice is exact and
    reproducible), then capped at 1/(2m) so the eta-neighborhoods of
    distinct grid contexts stay disjoint.
    """
    if m < 1 or T < 1:
        raise ValueError("need m >= 1 and T >= 1")
    candidate = Fraction(math.isqrt(m**3 * T), 2 * m * T)
    return min(candidate, Fraction(1, 2 * m))


def default_block_count(T: int) -> int:
    """Desk-scale block count max{2, ceil(log2(T+1))}.

    The asymptotic construction uses ceil(log2(T+1)^10) blocks, which
    exceeds T at every desk-scale T (about 10^11 at T = 2^14).
    """
    return max(2, math.ceil(math.log2(T + 1)))


@dataclass(frozen=True)
class BlockLayout:
    """Partition of rounds 1..T' into K contiguous blocks of length L."""

    T: int
    K: int
    L: int

    @property
    def T_prime(self) -> int:
        return self.K * self.L

    def block_of(self, t: int) -> Optional[int]:
        """1-based block index containing 1-based round t, None beyond T'."""
        if 1 <= t <= self.T_prime:
            return (t - 1) // self.L + 1
        return None

    def local_time(self, t: int) -> int:
        return (t - 1) % self.L


@lru_cache(maxsize=32)
def layout_block_ids(layout: BlockLayout) -> tuple[str, ...]:
    """Ids of a layout's 2 K L block half-groups in family order: a, then
    j, then +/-.  Memoised per layout, since every replicate rebuilds its
    family over the same few layouts."""
    heads = [(f"had+/{a}/", f"had-/{a}/") for a in range(1, layout.K + 1)]
    tails = [str(j) for j in range(layout.L)]
    return tuple(head + tail for pair in heads for tail in tails for head in pair)


def build_block_layout(T: int, K: int) -> BlockLayout:
    if K < 1 or 2 * K > T:
        raise ValueError(f"need 1 <= K <= T/2, got K={K}, T={T}")
    L = pow2_floor(T // K)
    if L < 2:
        raise ValueError(f"K={K} leaves no room for blocks of length >= 2 at T={T}")
    return BlockLayout(T=T, K=K, L=L)


class GroupFunction:
    """Base weighting function; subclasses fill in evaluation."""

    id: str
    binary = True
    prediction_independent = True
    signed = False

    def evaluate(self, ctx: ContextRecord, p: Optional[Fraction]):
        raise NotImplementedError

    def weights(self, run: ScaledRun) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        return ""

    def __repr__(self):
        return f"<{type(self).__name__} {self.id}>"


class ConstantGroup(GroupFunction):
    def __init__(self, id: str = "g_all"):
        self.id = id

    def evaluate(self, ctx, p):
        return 1

    def weights(self, run):
        return np.ones(run.T, dtype=np.int8)

    def describe(self):
        return "constant 1"


class ThresholdGroup(GroupFunction):
    """g1: overshoot by >= eta; g2: undershoot by >= eta; g3: |v - x| < eta."""

    prediction_independent = False

    def __init__(self, which: int, eta: Fraction):
        if which not in (1, 2, 3):
            raise ValueError(f"threshold group index must be 1, 2 or 3, got {which}")
        eta = Fraction(eta)
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.which = which
        self.eta = eta
        self.id = f"g{which}@eta={eta}"

    def evaluate(self, ctx, p):
        x = ctx.label_mean()
        if self.which == 1:
            return 1 if p >= x + self.eta else 0
        if self.which == 2:
            return 1 if p <= x - self.eta else 0
        return 1 if abs(p - x) < self.eta else 0

    def weights(self, run):
        eta_scaled = self.eta * run.scale
        if eta_scaled.denominator != 1:
            raise ValueError("scale does not absorb eta's denominator")
        e = int(eta_scaled)
        if self.which == 1:
            mask = run.dev >= e
        elif self.which == 2:
            mask = run.dev <= -e
        else:
            mask = np.abs(run.dev) < e
        return mask.astype(np.int8)

    def describe(self):
        return f"eta={self.eta}"


class WalshHalfGroup(GroupFunction):
    """(1 +- psi_l(idx(x)-1))/2 on the m-point mean grid; off-grid idx is 1."""

    def __init__(self, l: int, sign: int, grid_to_idx: dict, m: int):
        if not 1 <= l < m:
            raise ValueError(f"Walsh feature index must satisfy 1 <= l < m, got {l}")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.l = l
        self.sign = sign
        self.m = m
        self._grid_to_idx = grid_to_idx
        self._row = walsh_row(l, m)
        self.id = f"wal{'+' if sign == 1 else '-'}/{l}"

    def feature_sign(self, ctx: ContextRecord) -> int:
        idx = self._grid_to_idx.get(ctx.mean, 1)
        return int(self._row[idx - 1])

    def evaluate(self, ctx, p):
        return (1 + self.sign * self.feature_sign(ctx)) // 2

    def weights(self, run):
        if len(run.traj.grid) != self.m:
            raise ValueError("trajectory grid does not match the Walsh family grid")
        signs = self._row[run.traj.grid_idx]
        return ((1 + self.sign * signs) // 2).astype(np.int8)

    def describe(self):
        return f"l={self.l};sign={self.sign:+d};m={self.m}"


class BlockHadamardHalfGroup(GroupFunction):
    """1[t in J_a] (1 +- psi_{a,j}(local time))/2 on a block layout."""

    def __init__(self, a: int, j: int, sign: int, layout: BlockLayout):
        if not 1 <= a <= layout.K:
            raise ValueError(f"block index out of range: a={a}")
        if not 0 <= j < layout.L:
            raise ValueError(f"system index out of range: j={j}")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.a = a
        self.j = j
        self.sign = sign
        self.layout = layout
        self.id = f"had{'+' if sign == 1 else '-'}/{a}/{j}"

    def evaluate(self, ctx, p):
        t = ctx.time
        if t is None:
            raise ValueError("block groups need time-augmented contexts")
        if self.layout.block_of(t) != self.a:
            return 0
        s = self.layout.local_time(t)
        return (1 + self.sign * walsh_sign(self.j, s, self.layout.L)) // 2

    def weights(self, run):
        lay = self.layout
        out = np.zeros(run.T, dtype=np.int8)
        lo = (self.a - 1) * lay.L
        hi = min(self.a * lay.L, run.T)
        if lo < hi:
            row = walsh_row(self.j, lay.L)[: hi - lo]
            out[lo:hi] = (1 + self.sign * row) // 2
        return out

    def describe(self):
        return f"a={self.a};j={self.j};sign={self.sign:+d};L={self.layout.L}"


class BitGroup(GroupFunction):
    """g_0 = 1; g_r reads bit r (1-based, MSB first) of the context."""

    def __init__(self, r: int):
        if r < 0:
            raise ValueError("bit index must be >= 0")
        self.r = r
        self.id = f"bit/{r}"

    def evaluate(self, ctx, p):
        if self.r == 0:
            return 1
        if ctx.bits is None:
            raise ValueError("bit groups need bit contexts")
        return int(ctx.bits[self.r - 1])

    def weights(self, run):
        if self.r == 0:
            return np.ones(run.T, dtype=np.int8)
        if run.traj.bits is None:
            raise ValueError("bit groups need a bit-context trajectory")
        return run.traj.bits[:, self.r - 1].astype(np.int8)

    def describe(self):
        return f"r={self.r}"


class GridRangeGroup(GroupFunction):
    """1[lo <= grid index <= hi] over the environment's mean grid (0-based)."""

    def __init__(self, lo: int, hi: int, grid_to_idx: dict):
        if lo > hi:
            raise ValueError("empty grid range")
        self.lo = lo
        self.hi = hi
        self._grid_to_idx = grid_to_idx
        self.id = f"range/{lo}-{hi}"

    def evaluate(self, ctx, p):
        idx = self._grid_to_idx.get(ctx.mean)
        if idx is None:
            return 0
        return 1 if self.lo <= idx - 1 <= self.hi else 0

    def weights(self, run):
        return ((run.traj.grid_idx >= self.lo) & (run.traj.grid_idx <= self.hi)).astype(np.int8)

    def describe(self):
        return f"lo={self.lo};hi={self.hi}"


class SignedDiffGroup(GroupFunction):
    """Pointwise difference plus - minus of two [0,1]-valued groups."""

    binary = False
    signed = True

    def __init__(self, plus: GroupFunction, minus: GroupFunction):
        if plus.signed or minus.signed:
            raise ValueError("signed_diff takes [0,1]-valued groups")
        self.plus = plus
        self.minus = minus
        self.prediction_independent = plus.prediction_independent and minus.prediction_independent
        self.id = f"diff({plus.id},{minus.id})"

    def evaluate(self, ctx, p):
        return self.plus.evaluate(ctx, p) - self.minus.evaluate(ctx, p)

    def weights(self, run):
        return self.plus.weights(run).astype(np.int8) - self.minus.weights(run)

    def describe(self):
        return f"plus={self.plus.id};minus={self.minus.id}"


def signed_diff(plus: GroupFunction, minus: GroupFunction) -> SignedDiffGroup:
    return SignedDiffGroup(plus, minus)


@dataclass
class GroupFamily:
    """An immutable collection of groups with identity metadata: the direct
    ``groups``, then the ``layout``'s block half-groups in (a, j, +/-) order."""

    kind: str
    groups: list
    m: Optional[int] = None
    eta: Optional[Fraction] = None
    layout: Optional[BlockLayout] = None
    k: Optional[int] = None
    grid: Optional[tuple] = None

    def __len__(self):
        return len(self.groups) + len(self.block_ids)

    def __iter__(self):
        return itertools.chain(self.groups, self._block_groups())

    def _block_groups(self):
        return (BlockHadamardHalfGroup(*key, self.layout) for key in self.block_keys.values())

    @cached_property
    def block_ids(self) -> tuple[str, ...]:
        """Ids of the block half-groups, in family order."""
        return () if self.layout is None else layout_block_ids(self.layout)

    @cached_property
    def block_keys(self) -> dict:
        """Block half-group id -> (a, j, sign), in family order."""
        lay = self.layout
        if lay is None:
            return {}
        return dict(zip(self.block_ids, itertools.product(range(1, lay.K + 1), range(lay.L), (1, -1))))

    def ids(self) -> list[str]:
        return [*(g.id for g in self.groups), *self.block_ids]

    def by_id(self, gid: str) -> GroupFunction:
        for g in self.groups:
            if g.id == gid:
                return g
        return BlockHadamardHalfGroup(*self.block_keys[gid], self.layout)

    def required_denominators(self) -> list[int]:
        return [g.eta.denominator for g in self.groups if isinstance(g, ThresholdGroup)]

    def manifest_lines(self) -> list[str]:
        return [f"{g.id},{type(g).__name__},{g.describe()}" for g in self]

    def direct_pairs(self) -> list[tuple[GroupFunction, GroupFunction]]:
        """(plus, minus) half-group pairs among the direct groups, in family order."""
        by_id = {g.id: g for g in self.groups}
        pairs = [(by_id.get(g.id.replace("-", "+", 1)), g) for g in self.groups if g.id[:4] in ("wal-", "had-")]
        return [(plus, minus) for plus, minus in pairs if plus is not None]

    def signed_pairs(self) -> list[tuple[GroupFunction, GroupFunction]]:
        """(plus, minus) half-group pairs, in family order."""
        blocks = self._block_groups()
        # zip over one iterator pairs each had+/a/j with the had-/a/j after it
        return self.direct_pairs() + list(zip(blocks, blocks))


def build_pred_threshold_family(m: int, eta: Fraction) -> GroupFamily:
    """The disjoint trio {g1, g2, g3}.

    Construction asserts eta <= 1/(2m): with round-robin grids of spacing
    >= 1/m this makes the eta-neighborhoods of distinct contexts disjoint,
    the precondition of the context decomposition of the g3 error.
    """
    eta = Fraction(eta)
    if eta > Fraction(1, 2 * m):
        raise ValueError(f"eta={eta} violates the disjointness bound 1/(2m) for m={m}")
    groups = [ThresholdGroup(w, eta) for w in (1, 2, 3)]
    return GroupFamily(kind="pred_threshold", groups=groups, m=m, eta=eta)


def build_walsh_family(m: int, grid: Optional[list[Fraction]] = None) -> GroupFamily:
    """g_all plus the 2(m-1) global Walsh half-groups on the m-point grid."""
    if m < 2 or (m & (m - 1)) != 0:
        raise ValueError(f"m must be a power of two >= 2, got {m}")
    if grid is None:
        from .environments import grid_section4

        grid = grid_section4(m)
    grid_to_idx = {x: i + 1 for i, x in enumerate(grid)}
    groups: list[GroupFunction] = [ConstantGroup()]
    for l in range(1, m):
        groups.append(WalshHalfGroup(l, +1, grid_to_idx, m))
        groups.append(WalshHalfGroup(l, -1, grid_to_idx, m))
    return GroupFamily(kind="walsh", groups=groups, m=m, grid=tuple(grid))


def build_block_hadamard_family(T: int, K: int) -> tuple[BlockLayout, GroupFamily]:
    """2 K L blockwise Hadamard half-groups over the derived layout."""
    layout = build_block_layout(T, K)
    return layout, GroupFamily(kind="block_hadamard", groups=[], layout=layout)


def build_bit_family(k: int) -> GroupFamily:
    """{g_0, ..., g_k}: the constant group plus one group per context bit."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return GroupFamily(kind="bits", groups=[BitGroup(r) for r in range(k + 1)], k=k)


def build_full_walsh_family(T: int, m: int, K: int, grid=None) -> tuple[BlockLayout, GroupFamily]:
    """The complete prediction-independent family: constant + global Walsh
    half-groups + blockwise Hadamard half-groups."""
    walsh = build_walsh_family(m, grid=grid)
    layout = build_block_layout(T, K)
    return layout, GroupFamily(kind="full_walsh", groups=walsh.groups, m=m, layout=layout, grid=walsh.grid)


def build_grid_range_family(grid: list[Fraction], pieces: int = 3) -> GroupFamily:
    """Disjoint binary context groups splitting the grid into index ranges."""
    n = len(grid)
    if pieces < 1 or pieces > n:
        raise ValueError(f"cannot split {n} grid points into {pieces} pieces")
    grid_to_idx = {x: i + 1 for i, x in enumerate(grid)}
    bounds = [round(i * n / pieces) for i in range(pieces + 1)]
    groups = [
        GridRangeGroup(bounds[i], bounds[i + 1] - 1, grid_to_idx)
        for i in range(pieces)
    ]
    return GroupFamily(kind="grid_ranges", groups=groups, grid=tuple(grid))
