"""Group families: evaluatable weighting functions g(context, prediction).

Every group is binary valued.  Signed functionals (Walsh features,
blockwise Hadamard signs) exist only as pairs of binary half-groups
(``GroupFamily.signed_pairs``), never as standalone [-1,1] groups,
matching how the bound constructions are assembled; the difference-of-two
check reads the signed weights of each pair directly.

Each group supports exact scalar evaluation on (ContextRecord, Fraction)
plus a vectorized ``weights`` path over a whole run, used by the
calibration accumulators.  The vectorized path reads a
``calibration.ScaledRun``: predictions and context means arrive as
numerators over one common ``scale`` that the family's
``required_denominators`` have been folded into, and ``weights`` gives
one weight per entry of the run's arrays (per column, for a run of
round-robin columns weighted by their rounds).

A ``GroupFamily`` keeps only its direct groups (constant, Walsh halves,
thresholds, bits, ranges) as objects.  The 2 K L blockwise Hadamard
half-groups of ``block_hadamard`` and ``full_walsh`` families are the
family's ``layout``: ids, length, manifest and signed pairs derive from
it, the ledger evaluates them as (K, L) arrays, and a
``BlockHadamardHalfGroup`` object is created only when the family is
iterated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from .environments import ContextRecord, grid_section4, pow2_floor
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
    prediction_independent = True

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
        return np.ones(len(run.p), dtype=np.int8)

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


@lru_cache(maxsize=1024)
def _block_row(j: int, L: int) -> np.ndarray:
    # psi_j on one block, read-only: built once for a had+ and had- pair and
    # for every block of a layout
    row = walsh_row(j, L)
    row.flags.writeable = False
    return row


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
            # (1 + sign * psi) / 2 is 1 exactly where psi equals the sign
            out[lo:hi] = _block_row(self.j, lay.L)[: hi - lo] == self.sign
        return out

    def describe(self):
        return self.params(self.a, self.j, self.sign, self.layout.L)

    @staticmethod
    def params(a: int, j: int, sign: int, L: int) -> str:
        """``describe`` of the half-group (a, j, sign) on blocks of length L."""
        return f"a={a};j={j};sign={sign:+d};L={L}"


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
            return np.ones(len(run.p), dtype=np.int8)
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


@dataclass
class GroupFamily:
    """An immutable collection of groups with identity metadata: the direct
    ``groups``, then the ``layout``'s block half-groups in (a, j, +/-) order."""

    kind: str
    groups: list
    layout: Optional[BlockLayout] = None
    grid: Optional[tuple] = None

    def __len__(self):
        return len(self.groups) + len(self.block_ids)

    def __iter__(self):
        return itertools.chain(self.groups, self._block_groups())

    def block_keys(self):
        """(a, j, sign) of the block half-groups, in family order."""
        lay = self.layout
        return itertools.product(range(1, lay.K + 1), range(lay.L), (1, -1)) if lay is not None else ()

    def _block_groups(self):
        return (BlockHadamardHalfGroup(a, j, sign, self.layout) for a, j, sign in self.block_keys())

    @cached_property
    def block_ids(self) -> tuple[str, ...]:
        """Ids of the 2 K L block half-groups in family order: a, then j, then +/-."""
        lay = self.layout
        if lay is None:
            return ()
        heads = [(f"had+/{a}/", f"had-/{a}/") for a in range(1, lay.K + 1)]
        tails = [str(j) for j in range(lay.L)]
        return tuple(head + tail for pair in heads for tail in tails for head in pair)

    def ids(self) -> list[str]:
        return [*(g.id for g in self.groups), *self.block_ids]

    @cached_property
    def index(self) -> dict:
        """Group id -> position in family order (``ids()``)."""
        return {gid: i for i, gid in enumerate(self.ids())}

    def required_denominators(self) -> list[int]:
        return [g.eta.denominator for g in self.groups if isinstance(g, ThresholdGroup)]

    def manifest_rows(self) -> list[tuple[str, str, str]]:
        """(id, kind, params) per group in family order; the block half-groups' rows come from
        their ``block_keys``, never from objects."""
        rows = [(g.id, type(g).__name__, g.describe()) for g in self.groups]
        kind, params = BlockHadamardHalfGroup.__name__, BlockHadamardHalfGroup.params
        keys = zip(self.block_ids, self.block_keys())
        return rows + [(gid, kind, params(a, j, sign, self.layout.L)) for gid, (a, j, sign) in keys]

    @cached_property
    def direct_pair_rows(self) -> np.ndarray:
        """(2, pairs) positions of the (wal+/l, wal-/l) pairs among the direct groups, in family order."""
        pairs = [(self.index.get("wal+" + g.id[4:]), i) for i, g in enumerate(self.groups) if g.id[:4] == "wal-"]
        return np.array([pair for pair in pairs if pair[0] is not None], dtype=np.intp).reshape(-1, 2).T

    def signed_pairs(self) -> list[tuple[GroupFunction, GroupFunction]]:
        """(plus, minus) half-group pairs, in family order."""
        blocks = self._block_groups()
        # zip over one iterator pairs each had+/a/j with the had-/a/j after it
        return [(self.groups[p], self.groups[m]) for p, m in self.direct_pair_rows.T] + list(zip(blocks, blocks))


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
    return GroupFamily(kind="pred_threshold", groups=groups)


def build_walsh_family(m: int) -> GroupFamily:
    """g_all plus the 2(m-1) global Walsh half-groups on the m-point
    signed-noise grid ``grid_section4(m)``."""
    if m < 2 or (m & (m - 1)) != 0:
        raise ValueError(f"m must be a power of two >= 2, got {m}")
    grid = grid_section4(m)
    grid_to_idx = {x: i + 1 for i, x in enumerate(grid)}
    groups: list[GroupFunction] = [ConstantGroup()]
    for l in range(1, m):
        groups.append(WalshHalfGroup(l, +1, grid_to_idx, m))
        groups.append(WalshHalfGroup(l, -1, grid_to_idx, m))
    return GroupFamily(kind="walsh", groups=groups, grid=tuple(grid))


def build_block_hadamard_family(T: int, K: int) -> GroupFamily:
    """2 K L blockwise Hadamard half-groups over the derived layout (``layout``)."""
    return GroupFamily(kind="block_hadamard", groups=[], layout=build_block_layout(T, K))


def build_bit_family(k: int) -> GroupFamily:
    """{g_0, ..., g_k}: the constant group plus one group per context bit."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return GroupFamily(kind="bits", groups=[BitGroup(r) for r in range(k + 1)])


def build_full_walsh_family(T: int, m: int, K: int) -> GroupFamily:
    """The complete prediction-independent family: constant + global Walsh
    half-groups + blockwise Hadamard half-groups."""
    walsh = build_walsh_family(m)
    return GroupFamily(kind="full_walsh", groups=walsh.groups, layout=build_block_layout(T, K), grid=walsh.grid)


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
