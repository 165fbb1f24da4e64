"""Forecasters: honest strategies, marginal oracles, and black-box reductions.

The sequential protocol per round: the context is revealed, the
forecaster proposes a finite-support distribution over [0,1], the
(obliviously fixed) outcome is determined, the prediction is drawn from
the proposal, and only then does the forecaster observe the round.
Causality is structural: ``propose`` receives a history view that ends
at the previous round, and the current outcome is appended only after
``observe``.

Deterministic forecasters emit point masses and never touch the RNG, so
their looped and vectorized runs coincide bit for bit (tested).

Only the context-blind marginal oracles serve a proper reduction or a
pattern router; a forecaster that reads its context is refused, not wrapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .calibration import Predictions, ScaledRun, marginal_err
from .environments import ContextRecord, Trajectory

# Desk-scale cap on every forecaster's Q, like experiments.MAX_T: the
# uniform oracle's support holds Q + 1 Fractions, and the rounding
# forecasters form 2 * numerator * Q in int64
MAX_Q = 1 << 12


def _grid_denominator(q: int, name: str) -> int:
    """Q, refused outside 1..MAX_Q with a message that starts with ``name``."""
    if q < 1:
        raise ValueError(f"{name} must be >= 1, got {q}")
    if q > MAX_Q:
        raise ValueError(f"{name} Q={q} exceeds the desk-scale cap {MAX_Q}")
    return q


@dataclass(frozen=True)
class PredictionDistribution:
    """Finite-support distribution on [0,1] with exact rational weights."""

    support: tuple

    def __post_init__(self):
        total = Fraction(0)
        for value, prob in self.support:
            if not 0 <= value <= 1:
                raise ValueError(f"support value outside [0,1]: {value}")
            if prob < 0:
                raise ValueError(f"negative probability: {prob}")
            total += prob
        if total != 1:
            raise ValueError(f"probabilities must sum to 1 exactly, got {total}")

    @classmethod
    def point_mass(cls, value: Fraction) -> "PredictionDistribution":
        return cls(support=((Fraction(value), Fraction(1)),))

    @classmethod
    def from_weights(cls, pairs) -> "PredictionDistribution":
        merged: dict = {}
        for value, prob in pairs:
            if prob == 0:
                continue
            value = Fraction(value)
            merged[value] = merged.get(value, Fraction(0)) + Fraction(prob)
        return cls(support=tuple(sorted(merged.items())))

    @property
    def is_point_mass(self) -> bool:
        return len(self.support) == 1

    def sample(self, rng: np.random.Generator) -> Fraction:
        """One exact draw: a uniform integer below the weights' common denominator."""
        if self.is_point_mass:
            return self.support[0][0]
        den = math.lcm(*(prob.denominator for _, prob in self.support))
        u = int(rng.integers(0, den))
        for value, prob in self.support:
            u -= prob.numerator * (den // prob.denominator)
            if u < 0:
                return value
        raise AssertionError("weights sum to 1, so the draw lands in the support")


class HistoryView:
    """Read-only transcript of completed rounds (context, prediction, outcome)."""

    def __init__(self):
        self._records: list = []

    def __len__(self):
        return len(self._records)

    def __getitem__(self, s: int):
        return self._records[s]

    def _append(self, record) -> None:
        self._records.append(record)


class Forecaster:
    """Interface: propose a distribution, then observe the realized round."""

    id = "forecaster"
    deterministic = False
    context_blind = False
    stateless = False
    # predict_all reads only the context means (traj.x_num, traj.den, T),
    # never the outcomes or the rng: equal means give equal predictions.
    # experiments.CellSkeleton hands it the means of all T rounds beside
    # per-round index and outcome arrays that may cover one round robin only
    oblivious = False

    def propose(self, ctx: ContextRecord, history: HistoryView) -> PredictionDistribution:
        raise NotImplementedError

    def observe(self, ctx: ContextRecord, p: Fraction, y: Fraction) -> None:
        pass

    def predict_all(self, traj: Trajectory, rng: Optional[np.random.Generator]) -> Optional[Predictions]:
        """Whole-run fast path, or None to fall back to the round loop."""
        return None


class HonestForecaster(Forecaster):
    """Point mass at the label mean the context encodes."""

    id = "honest"
    deterministic = True
    oblivious = True

    def propose(self, ctx, history):
        return PredictionDistribution.point_mass(ctx.label_mean())

    def predict_all(self, traj, rng):
        return Predictions(num=traj.x_num.copy(), den=traj.den)


def _round_to_grid(num: int, den: int, q: int) -> int:
    """floor(num/den * q + 1/2): nearest multiple of 1/q, half rounds up."""
    return (2 * num * q + den) // (2 * den)


class RoundedHonestForecaster(Forecaster):
    """Honest mean rounded to the nearest multiple of 1/Q (half up)."""

    deterministic = True
    oblivious = True

    def __init__(self, q: int):
        self.q = _grid_denominator(q, "rounding denominator")
        self.id = f"rounded_honest@Q={q}"

    def propose(self, ctx, history):
        x = ctx.label_mean()
        return PredictionDistribution.point_mass(
            Fraction(_round_to_grid(x.numerator, x.denominator, self.q), self.q)
        )

    def predict_all(self, traj, rng):
        num = (2 * traj.x_num * self.q + traj.den) // (2 * traj.den)
        return Predictions(num=num, den=self.q)


class OffsetForecaster(Forecaster):
    """Always predicts the honest mean plus a fixed rational offset."""

    deterministic = True
    oblivious = True

    def __init__(self, offset: Fraction):
        self.offset = Fraction(offset)
        self.id = f"overshoot@offset={self.offset}"

    def propose(self, ctx, history):
        return PredictionDistribution.point_mass(ctx.label_mean() + self.offset)

    def predict_all(self, traj, rng):
        den = math.lcm(traj.den, self.offset.denominator)
        num = traj.x_num * (den // traj.den) + self.offset.numerator * (
            den // self.offset.denominator
        )
        return Predictions(num=num, den=den)


class ConstantForecaster(Forecaster):
    """Consolidates everything onto one prediction value."""

    deterministic = True
    oblivious = True

    def __init__(self, value: Fraction = Fraction(1, 2)):
        self.value = Fraction(value)
        if not 0 <= self.value <= 1:
            raise ValueError("constant prediction must lie in [0,1]")
        self.id = f"constant@v={self.value}"

    def propose(self, ctx, history):
        return PredictionDistribution.point_mass(self.value)

    def predict_all(self, traj, rng):
        num = np.full(traj.T, self.value.numerator, dtype=np.int64)
        return Predictions(num=num, den=self.value.denominator)


class EmpiricalMeanBucketOracle(Forecaster):
    """Context-blind: running outcome mean rounded to 1/Q; 1/2 before data."""

    deterministic = True
    context_blind = True

    def __init__(self, q: int):
        self.q = _grid_denominator(q, "bucket denominator")
        self.id = f"empirical_mean_bucket@Q={q}"
        self._sum = Fraction(0)
        self._count = 0

    def propose(self, ctx, history):
        if self._count == 0:
            return PredictionDistribution.point_mass(Fraction(1, 2))
        mean = self._sum / self._count
        return PredictionDistribution.point_mass(
            Fraction(_round_to_grid(mean.numerator, mean.denominator, self.q), self.q)
        )

    def observe(self, ctx, p, y):
        self._sum += y
        self._count += 1

    def predict_sequence(self, y_num: np.ndarray, y_den: int, rng) -> tuple[np.ndarray, int]:
        t = len(y_num)
        den = math.lcm(2, self.q)
        num = np.empty(t, dtype=np.int64)
        if t == 0:
            return num, den
        num[0] = den // 2
        if t > 1:
            cums = np.cumsum(y_num[:-1])
            n_prev = np.arange(1, t, dtype=np.int64)
            k = (2 * cums * self.q + n_prev * y_den) // (2 * n_prev * y_den)
            num[1:] = k * (den // self.q)
        return num, den

    def predict_all(self, traj, rng):
        num, den = self.predict_sequence(traj.y_num, traj.den, rng)
        return Predictions(num=num, den=den)


@lru_cache(maxsize=16)
def _uniform_distribution(q: int) -> PredictionDistribution:
    # built once per Q, and only for the looped path: a reduction's copies
    # are rebuilt every replicate, and their vectorized runs never read it
    return PredictionDistribution(support=tuple((Fraction(i, q), Fraction(1, q + 1)) for i in range(q + 1)))


class UniformRandomOracle(Forecaster):
    """Context-blind: the uniform distribution over {0, 1/Q, ..., 1}."""

    context_blind = True
    stateless = True

    def __init__(self, q: int):
        self.q = _grid_denominator(q, "grid denominator")
        self.id = f"uniform_random@Q={q}"

    def propose(self, ctx, history):
        return _uniform_distribution(self.q)

    def predict_sequence(self, y_num, y_den, rng):
        return rng.integers(0, self.q + 1, size=len(y_num)).astype(np.int64), self.q

    def predict_all(self, traj, rng):
        num, den = self.predict_sequence(traj.y_num, traj.den, rng)
        return Predictions(num=num, den=den)


UPDATE_POLICIES = ("largest", "all", "none")


class ProperReduction(Forecaster):
    """Convex mixture of m context-blind oracle copies at weight 1/m each.

    The per-copy update policy is 'largest' (only copy 0, the lowest-indexed
    copy of largest weight, observes the round), 'all', or 'none'.
    """

    def __init__(self, oracle_factory: Callable[[], Forecaster], m: int, update_policy: str = "largest"):
        if m < 1:
            raise ValueError(f"copy count must be >= 1, got {m}")
        if update_policy not in UPDATE_POLICIES:
            raise ValueError(f"unknown update policy: {update_policy!r}; accepted: {', '.join(UPDATE_POLICIES)}")
        self.copies = [oracle_factory() for _ in range(m)]
        for c in self.copies:
            if not c.context_blind:
                raise ValueError(f"oracle {c.id} is not context-blind")
        self.m = m
        self.update_policy = update_policy
        self.id = f"proper_reduction(m={m},oracle={self.copies[0].id},update={update_policy})"

    def propose(self, ctx, history):
        proposals = [c.propose(ctx, history) for c in self.copies]
        if self.m == 1:
            return proposals[0]
        w = Fraction(1, self.m)
        pairs = [(value, w * prob) for dist in proposals for value, prob in dist.support]
        return PredictionDistribution.from_weights(pairs)

    def observe(self, ctx, p, y):
        if self.update_policy == "none":
            return
        if self.update_policy == "all":
            for c in self.copies:
                c.observe(ctx, p, y)
            return
        self.copies[0].observe(ctx, p, y)

    def predict_all(self, traj, rng):
        if self.m != 1:
            return None
        copy = self.copies[0]
        seq = getattr(copy, "predict_sequence", None)
        if seq is None:
            return None
        if not (copy.stateless or self.update_policy in ("largest", "all")):
            return None
        num, den = seq(traj.y_num, traj.den, rng)
        return Predictions(num=num, den=den)


@dataclass(frozen=True, eq=False)
class RoutedCell:
    """One routed cell's transcript in round order: predictions and the
    outcome numerators ``y_num`` over ``y_den``."""

    p: Predictions
    y_num: np.ndarray
    y_den: int

    @classmethod
    def from_rounds(cls, rounds) -> "RoutedCell":
        """Convert a looped cell history of (context, p, y) records once."""
        y = Predictions.from_fractions(y for _, _, y in rounds)
        return cls(Predictions.from_fractions(p for _, p, _ in rounds), y.num, y.den)


# pattern codes are int64 with one bit per group
_MAX_CODE_BITS = 62


@dataclass(frozen=True, eq=False)
class Route:
    """The pattern split of one run's contexts: one (pattern z, int64 round
    indices in round order) pair per realized pattern, in ascending code
    order.  ``ids`` names the groups whose weight bits the patterns hold,
    and ``label`` gives each round the position of its cell in ``cells``,
    in the narrowest unsigned dtype that holds it.  Prediction-independent
    groups read only T and the contexts, so one route serves every
    trajectory that shows them."""

    T: int
    grid_idx: np.ndarray
    bits: Optional[np.ndarray]
    ids: tuple
    cells: tuple
    label: np.ndarray

    @classmethod
    def of(cls, groups, traj: Trajectory) -> "Route":
        """Key each round by an int64 code of the k weight bits, group 0 most significant."""
        k = len(groups)
        if k > _MAX_CODE_BITS:
            raise ValueError(f"{k} groups exceed the {_MAX_CODE_BITS} bits of a pattern code")
        run = ScaledRun.build(traj, Predictions(num=np.zeros(traj.T, dtype=np.int64), den=1))
        codes = np.zeros(traj.T, dtype=np.int64)
        for g in groups:
            codes = (codes << 1) | g.weights(run)
        order = np.argsort(codes, kind="stable")
        cells = []
        for idx in np.split(order, np.flatnonzero(np.diff(codes[order])) + 1) if traj.T else ():
            code = int(codes[idx[0]])
            cells.append((tuple((code >> (k - 1 - j)) & 1 for j in range(k)), idx))
        label = np.empty(traj.T, dtype=np.min_scalar_type(max(len(cells) - 1, 0)))
        for pos, (_, idx) in enumerate(cells):
            label[idx] = pos
        return cls(traj.T, traj.grid_idx, traj.bits, tuple(g.id for g in groups), tuple(cells), label)

    @cached_property
    def members(self) -> np.ndarray:
        """The (groups, cells) int64 0/1 matrix: entry [j, c] is bit j of cell c's pattern."""
        return np.array([z for z, _ in self.cells], dtype=np.int64).reshape(len(self.cells), len(self.ids)).T


class PatternRouter(Forecaster):
    """Routes each round to a fresh oracle copy per realized group pattern.

    Only prediction-independent groups are admissible: the routing
    pattern must be known before the prediction is made.  The whole-run
    path (a deterministic oracle with ``predict_sequence``, k groups that
    fit a pattern code) reads one ``Route``, checked against the
    trajectory: the given one, or else one formed from it.  It is kept as
    ``route``, so that the ledger reads the split the predictions were
    routed by; a looped router keeps none.  Ascending codes are the
    lexicographic pattern order in which cells are created and draw from
    ``rng``.
    """

    def __init__(self, oracle_factory: Callable[[], Forecaster], groups, route: Optional[Route] = None):
        for g in groups:
            if not g.prediction_independent:
                raise ValueError(f"group {g.id} is prediction-dependent; routing is invalid")
        self.groups = list(groups)
        self.oracle_factory = oracle_factory
        probe = oracle_factory()
        self._whole_run = hasattr(probe, "predict_sequence") and probe.deterministic and len(self.groups) <= _MAX_CODE_BITS
        self.route = route if self._whole_run else None
        self.copies: dict = {}
        self._histories: dict = {}
        self._cells: dict = {}
        self.id = f"pattern_router(k={len(self.groups)})"

    @property
    def cells(self) -> dict:
        """Pattern -> ``RoutedCell``; looped histories convert on first read."""
        for z, history in self._histories.items():
            if z not in self._cells:
                self._cells[z] = RoutedCell.from_rounds(history)
        return self._cells

    def _pattern(self, ctx) -> tuple:
        return tuple(int(g.evaluate(ctx, None)) for g in self.groups)

    def _copy_for(self, z: tuple) -> tuple[Forecaster, HistoryView]:
        if z not in self.copies:
            self.copies[z] = self.oracle_factory()
            self._histories[z] = HistoryView()
        return self.copies[z], self._histories[z]

    def propose(self, ctx, history):
        copy, cell_history = self._copy_for(self._pattern(ctx))
        return copy.propose(ctx, cell_history)

    def observe(self, ctx, p, y):
        z = self._pattern(ctx)
        copy, cell_history = self._copy_for(z)
        copy.observe(ctx, p, y)
        cell_history._append((ctx, p, y))
        self._cells.pop(z, None)

    def predict_all(self, traj, rng):
        if not self._whole_run:
            return None
        route = self.route = self.route or Route.of(self.groups, traj)
        contexts = np.array_equal(route.grid_idx, traj.grid_idx) and np.array_equal(route.bits, traj.bits)
        if route.T != traj.T or not contexts:
            raise ValueError(f"a route built for T={route.T} does not serve this trajectory at T={traj.T}")
        parts = []
        for z, idx in route.cells:
            copy = self.oracle_factory()
            y_num = traj.y_num[idx]
            num, den = copy.predict_sequence(y_num, traj.den, rng)
            self.copies[z] = copy
            self._cells[z] = RoutedCell(Predictions(num=num, den=den), y_num, traj.den)
            parts.append((idx, num, den))
        den = math.lcm(*(part_den for _, _, part_den in parts))
        out = np.empty(traj.T, dtype=np.int64)
        for idx, num, part_den in parts:
            out[idx] = num * (den // part_den)
        return Predictions(num=out, den=den)

    def cell_sizes(self) -> dict:
        return {z: cell.p.T for z, cell in self.cells.items()}

    def cell_err(self, z: tuple) -> Fraction:
        """Marginal calibration error of one cell's transcript."""
        cell = self.cells[z]
        return marginal_err(cell.p.num, cell.p.den, cell.y_num, cell.y_den)

    def cell_summary(self) -> list[tuple]:
        """(pattern string, T_z, cell Err) rows, sorted by pattern."""
        sizes = self.cell_sizes()
        return [("".join(map(str, z)), sizes[z], float(self.cell_err(z))) for z in sorted(sizes)]


def run_forecaster(
    traj: Trajectory,
    forecaster: Forecaster,
    rng: Optional[np.random.Generator] = None,
    prefer_vectorized: bool = True,
) -> Predictions:
    """Drive one forecaster through a trajectory; returns its predictions."""
    if prefer_vectorized:
        fast = forecaster.predict_all(traj, rng)
        if fast is not None:
            return fast
    history = HistoryView()
    values = []
    for t in range(traj.T):
        ctx = traj.context(t)
        dist = forecaster.propose(ctx, history)
        y = traj.outcome(t)
        p = dist.sample(rng) if not dist.is_point_mass else dist.support[0][0]
        forecaster.observe(ctx, p, y)
        history._append((ctx, p, y))
        values.append(p)
    return Predictions.from_fractions(values)


def make_forecaster_factory(fid: str, **params) -> Callable[[], Forecaster]:
    """Resolve a forecaster id (as used in configs) to a fresh-instance factory.

    The one forecaster registry: an unknown id raises ``KeyError(id)``, a
    missing parameter ``ValueError``.  A ``proper_reduction`` oracle takes ``Q`` only.
    """

    def q(default):
        return int(params.get("Q", default))

    if fid == "honest":
        return HonestForecaster
    if fid == "rounded_honest":
        return lambda: RoundedHonestForecaster(q(16))
    if fid == "overshoot":
        if "offset" not in params:
            raise ValueError("overshoot needs forecaster.offset")
        offset = Fraction(params["offset"])
        return lambda: OffsetForecaster(offset)
    if fid == "constant":
        value = Fraction(params.get("value", Fraction(1, 2)))
        return lambda: ConstantForecaster(value)
    if fid == "empirical_mean_bucket":
        return lambda: EmpiricalMeanBucketOracle(q(4))
    if fid == "uniform_random":
        return lambda: UniformRandomOracle(q(7))
    if fid == "proper_reduction":
        oracle_id = params.get("oracle", "uniform_random")
        oracle_factory = make_forecaster_factory(oracle_id, **{k: v for k, v in params.items() if k == "Q"})
        m = int(params.get("m", 1))
        policy = params.get("update", "largest")
        return lambda: ProperReduction(oracle_factory, m, update_policy=policy)
    raise KeyError(fid)
