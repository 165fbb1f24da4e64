from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblab import calibration
from caliblab.calibration import Predictions, ScaledRun, accumulate_run, marginal_err
from caliblab.environments import (
    ContextRecord,
    bernoulli_contexts,
    sample_bernoulli_env,
    sample_bit_env,
    sample_rademacher_env,
    substream,
)
from caliblab.forecasters import (
    MAX_Q,
    ConstantForecaster,
    EmpiricalMeanBucketOracle,
    HistoryView,
    HonestForecaster,
    OffsetForecaster,
    PatternRouter,
    PredictionDistribution,
    ProperReduction,
    RoundedHonestForecaster,
    Route,
    UniformRandomOracle,
    make_forecaster_factory,
    run_forecaster,
)
from caliblab.groups import (
    BitGroup,
    GroupFamily,
    GridRangeGroup,
    build_grid_range_family,
    build_pred_threshold_family,
)

HALF = Fraction(1, 2)


def test_distribution_validation():
    with pytest.raises(ValueError):
        PredictionDistribution(support=((Fraction(1, 2), Fraction(1, 2)),))
    with pytest.raises(ValueError):
        PredictionDistribution(support=((Fraction(3, 2), Fraction(1)),))
    with pytest.raises(ValueError):
        PredictionDistribution(
            support=((Fraction(0), Fraction(3, 2)), (Fraction(1), Fraction(-1, 2)))
        )


def test_point_mass_sampling_skips_rng():
    dist = PredictionDistribution.point_mass(Fraction(3, 8))
    assert dist.sample(None) == Fraction(3, 8)


@pytest.mark.parametrize("q", [1, 2, 3, 7, 16, 255])
def test_uniform_random_looped_draws_match_predict_sequence(q):
    # one exact integer draw per looped round takes the same Philox values
    # as the vectorized path's single batched draw
    traj = sample_bernoulli_env(T=300, m=9, seed=4)
    looped = run_forecaster(traj, UniformRandomOracle(q), substream(4, q), prefer_vectorized=False)
    num, den = UniformRandomOracle(q).predict_sequence(traj.y_num, traj.den, substream(4, q))
    assert [looped.fraction(t) for t in range(traj.T)] == [Fraction(int(v), den) for v in num]


def test_sample_is_exact_over_the_common_denominator():
    dist = PredictionDistribution(support=((Fraction(0), Fraction(1, 3)), (Fraction(1), Fraction(2, 3))))
    rng = substream(11, 0)
    draws = [dist.sample(rng) for _ in range(60)]
    # integers below 3 decide each draw: 0 picks 0, 1 and 2 pick 1
    assert draws == [Fraction(int(u > 0)) for u in substream(11, 0).integers(0, 3, size=60)]


def test_honest_forecaster():
    f = HonestForecaster()
    ctx = ContextRecord(mean=Fraction(5, 8))
    dist = f.propose(ctx, HistoryView())
    assert dist.support == ((Fraction(5, 8), Fraction(1)),)
    # bit contexts: honest emits mu(x)
    bctx = ContextRecord(bits=(1, 0))
    assert f.propose(bctx, HistoryView()).support[0][0] == Fraction(5, 8)


def test_rounded_honest():
    f = RoundedHonestForecaster(10)
    ctx = ContextRecord(mean=Fraction(13, 25))
    assert f.propose(ctx, HistoryView()).support[0][0] == HALF
    # half rounds up
    up = RoundedHonestForecaster(2).propose(ContextRecord(mean=Fraction(1, 4)), HistoryView())
    assert up.support[0][0] == HALF
    # per-round rounding error is at most 1/(2Q)
    traj = sample_bernoulli_env(T=200, m=9, seed=1)
    pred = RoundedHonestForecaster(10).predict_all(traj, None)
    for t in range(traj.T):
        assert abs(pred.fraction(t) - traj.context(t).label_mean()) <= Fraction(1, 20)


def test_vectorized_matches_loop_for_deterministic():
    traj = sample_bernoulli_env(T=300, m=8, seed=7)
    for f_fast, f_loop in [
        (HonestForecaster(), HonestForecaster()),
        (RoundedHonestForecaster(7), RoundedHonestForecaster(7)),
        (OffsetForecaster(Fraction(1, 32)), OffsetForecaster(Fraction(1, 32))),
        (ConstantForecaster(HALF), ConstantForecaster(HALF)),
        (EmpiricalMeanBucketOracle(4), EmpiricalMeanBucketOracle(4)),
    ]:
        fast = run_forecaster(traj, f_fast, None, prefer_vectorized=True)
        slow = run_forecaster(traj, f_loop, None, prefer_vectorized=False)
        assert fast.den == slow.den or True
        for t in range(traj.T):
            assert fast.fraction(t) == slow.fraction(t), (f_fast.id, t)


def test_empirical_mean_bucket_example():
    oracle = EmpiricalMeanBucketOracle(4)
    hist = HistoryView()
    assert oracle.propose(ContextRecord(mean=HALF), hist).support[0][0] == HALF
    for y in (1, 1, 0, 1):
        oracle.observe(ContextRecord(mean=HALF), HALF, Fraction(y))
    assert oracle.propose(ContextRecord(mean=HALF), hist).support[0][0] == Fraction(3, 4)


def test_uniform_random_refuses_q_above_the_cap():
    # the support holds Q + 1 Fractions, so a huge Q is refused before it is built
    assert len(UniformRandomOracle(MAX_Q).propose(ContextRecord(mean=HALF), HistoryView()).support) == MAX_Q + 1
    for q in (MAX_Q + 1, 10**15 + 1):
        with pytest.raises(ValueError, match=f"Q={q} exceeds the desk-scale cap {MAX_Q}"):
            UniformRandomOracle(q)


@pytest.mark.parametrize("cls", [RoundedHonestForecaster, EmpiricalMeanBucketOracle])
def test_rounding_forecasters_refuse_q_above_the_cap(cls):
    # as the uniform oracle does: 2 * numerator * Q must stay inside int64
    assert cls(MAX_Q).q == MAX_Q
    for q in (MAX_Q + 1, 10**18):
        with pytest.raises(ValueError, match=f"Q={q} exceeds the desk-scale cap {MAX_Q}"):
            cls(q)


def test_uniform_random_support():
    oracle = UniformRandomOracle(7)
    dist = oracle.propose(ContextRecord(mean=HALF), HistoryView())
    assert len(dist.support) == 8
    assert all(p == Fraction(1, 8) for _, p in dist.support)
    # one support point per width-1/8 interval: mass exactly 1/N each
    for b in range(8):
        lo, hi = Fraction(b, 8), Fraction(b + 1, 8)
        mass = sum(p for v, p in dist.support if lo <= v < hi or (b == 7 and v == hi))
        assert mass == Fraction(1, 8)


def test_proper_reduction_m1_identity():
    traj = sample_bit_env(T=50, k=2, seed=5)
    rng1 = substream(9, 1)
    rng2 = substream(9, 1)
    red = ProperReduction(lambda: UniformRandomOracle(3), m=1)
    alone = UniformRandomOracle(3)
    p1 = run_forecaster(traj, red, rng1)
    p2 = run_forecaster(traj, alone, rng2)
    assert np.array_equal(p1.num, p2.num) and p1.den == p2.den


def test_proper_reduction_requires_context_blind():
    with pytest.raises(ValueError):
        ProperReduction(HonestForecaster, m=2)


def test_proper_reduction_mixture():
    red = ProperReduction(lambda: UniformRandomOracle(1), m=2)
    dist = red.propose(ContextRecord(mean=HALF), HistoryView())
    # two identical uniform copies over {0, 1}: mixture is the same distribution
    assert dist.support == ((Fraction(0), HALF), (Fraction(1), HALF))


def test_proper_reduction_update_policies():
    for policy, counts in [("largest", (1, 0)), ("all", (1, 1)), ("none", (0, 0))]:
        copies = []

        def factory():
            c = EmpiricalMeanBucketOracle(4)
            copies.append(c)
            return c

        red = ProperReduction(factory, m=2, update_policy=policy)
        red.propose(ContextRecord(mean=HALF), HistoryView())
        red.observe(ContextRecord(mean=HALF), HALF, Fraction(1))
        assert tuple(c._count for c in copies) == counts


def test_router_rejects_prediction_dependent_groups():
    fam = build_pred_threshold_family(8, Fraction(1, 16))
    with pytest.raises(ValueError):
        PatternRouter(lambda: UniformRandomOracle(3), fam.groups)


def test_router_lazy_instantiation_and_partition():
    traj = sample_bernoulli_env(T=90, m=9, seed=8)
    fam = build_grid_range_family(list(traj.grid), pieces=3)
    router = PatternRouter(lambda: EmpiricalMeanBucketOracle(4), fam.groups)
    pred = run_forecaster(traj, router, None, prefer_vectorized=False)
    # disjoint cover: only singleton patterns realized
    assert len(router.copies) == 3
    sizes = router.cell_sizes()
    assert sum(sizes.values()) == traj.T
    # multiset union of cell transcripts equals the full transcript
    all_p = sorted(cell.p.fraction(t) for cell in router.cells.values() for t in range(cell.p.T))
    assert all_p == sorted(pred.fraction(t) for t in range(traj.T))


def test_router_vectorized_matches_loop():
    traj = sample_bernoulli_env(T=120, m=9, seed=9)
    fam = build_grid_range_family(list(traj.grid), pieces=3)
    fast = PatternRouter(lambda: EmpiricalMeanBucketOracle(4), fam.groups)
    slow = PatternRouter(lambda: EmpiricalMeanBucketOracle(4), fam.groups)
    p_fast = run_forecaster(traj, fast, None, prefer_vectorized=True)
    p_slow = run_forecaster(traj, slow, None, prefer_vectorized=False)
    for t in range(traj.T):
        assert p_fast.fraction(t) == p_slow.fraction(t)
    assert fast.cell_sizes() == slow.cell_sizes()
    for z in fast.cells:
        assert fast.cell_err(z) == slow.cell_err(z)


def _reference_err(pairs) -> Fraction:
    """Scalar reference: sum over prediction values of |sum of (p - y)|."""
    biases: dict = {}
    for p, y in pairs:
        biases[p] = biases.get(p, Fraction(0)) + (p - y)
    return sum((abs(b) for b in biases.values()), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_router_vectorized_looped_and_scalar_reference_agree(data):
    T = data.draw(st.integers(1, 300))
    m = data.draw(st.integers(8, 30))
    traj = sample_bernoulli_env(T=T, m=m, seed=data.draw(st.integers(0, 2**16)))
    fam = build_grid_range_family(list(traj.grid), pieces=data.draw(st.integers(1, 4)))
    groups = list(fam.groups)
    if data.draw(st.booleans()):
        # an overlapping range, so that multi-bit patterns are realized
        n = len(traj.grid)
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo, n - 1))
        groups.append(GridRangeGroup(lo, hi, {x: i + 1 for i, x in enumerate(traj.grid)}))
    q = data.draw(st.integers(1, 8))
    fast = PatternRouter(lambda: EmpiricalMeanBucketOracle(q), groups)
    slow = PatternRouter(lambda: EmpiricalMeanBucketOracle(q), groups)
    # a route formed once from the contexts alone, as a round-robin plan forms it
    route = Route.of(groups, bernoulli_contexts(T, m).trajectory(np.zeros(T, dtype=bool)))
    routed = PatternRouter(lambda: EmpiricalMeanBucketOracle(q), groups, route)
    p_fast = run_forecaster(traj, fast, None, prefer_vectorized=True)
    p_slow = run_forecaster(traj, slow, None, prefer_vectorized=False)
    p_routed = run_forecaster(traj, routed, None, prefer_vectorized=True)
    assert [p_fast.fraction(t) for t in range(T)] == [p_slow.fraction(t) for t in range(T)]
    assert (p_routed.den, p_routed.num.tolist()) == (p_fast.den, p_fast.num.tolist())
    assert list(routed.cells) == list(fast.cells) == [z for z, _ in route.cells]

    transcripts: dict = {}
    for t in range(T):
        z = tuple(int(g.evaluate(traj.context(t), None)) for g in groups)
        transcripts.setdefault(z, []).append((p_slow.fraction(t), traj.outcome(t)))
    assert set(fast.cells) == set(slow.cells) == set(transcripts)
    # cells in ascending code order, i.e. lexicographic pattern order, each with its rounds in round order
    assert [z for z, _ in route.cells] == sorted(transcripts)
    assert all(np.all(np.diff(idx) > 0) for _, idx in route.cells)
    sizes = {z: len(pairs) for z, pairs in transcripts.items()}
    assert fast.cell_sizes() == slow.cell_sizes() == routed.cell_sizes() == sizes
    for z, pairs in transcripts.items():
        assert fast.cell_err(z) == slow.cell_err(z) == routed.cell_err(z) == _reference_err(pairs)


def test_a_route_refuses_a_trajectory_it_was_not_formed_from():
    fam = build_grid_range_family(list(sample_bernoulli_env(T=120, m=9, seed=9).grid), pieces=3)
    route = Route.of(fam.groups, bernoulli_contexts(120, 9).trajectory(np.zeros(120, dtype=bool)))
    router = PatternRouter(lambda: EmpiricalMeanBucketOracle(4), fam.groups, route)
    with pytest.raises(ValueError, match=r"T=120 .* T=121"):
        router.predict_all(sample_bernoulli_env(T=121, m=9, seed=9), None)
    # the same T on another grid shows other contexts
    with pytest.raises(ValueError, match=r"T=120 .* T=120"):
        router.predict_all(sample_bernoulli_env(T=120, m=12, seed=9), None)
    # the same T with other bit contexts
    bit_groups = [BitGroup(1), BitGroup(2)]
    bit_route = Route.of(bit_groups, sample_bit_env(64, 2, seed=1))
    with pytest.raises(ValueError, match=r"T=64 .* T=64"):
        PatternRouter(lambda: EmpiricalMeanBucketOracle(4), bit_groups, bit_route).predict_all(
            sample_bit_env(64, 2, seed=2), None
        )
    assert PatternRouter(lambda: EmpiricalMeanBucketOracle(4), bit_groups, bit_route).predict_all(
        sample_bit_env(64, 2, seed=1), None
    ).T == 64


def test_router_decides_its_path_once_and_a_random_oracle_loops_without_its_route():
    made = []

    def factory():
        made.append(1)
        return EmpiricalMeanBucketOracle(4)

    traj = sample_bernoulli_env(T=120, m=9, seed=9)
    fam = build_grid_range_family(list(traj.grid), pieces=3)
    router = PatternRouter(factory, fam.groups)
    assert len(made) == 1
    run_forecaster(traj, router, None)
    assert len(made) == 1 + len(router.cells) == 4  # one copy per cell, no further probe
    # a non-deterministic oracle takes the round loop and never reads the route, even one built for another T
    other = Route.of(fam.groups, bernoulli_contexts(60, 9).trajectory(np.zeros(60, dtype=bool)))
    looped = PatternRouter(lambda: UniformRandomOracle(3), fam.groups, other)
    assert looped.predict_all(traj, substream(1)) is None
    assert run_forecaster(traj, looped, substream(1)).T == traj.T
    assert looped.cell_sizes() == router.cell_sizes()


def _ranges(traj, overlapping: bool) -> GroupFamily:
    """Three disjoint grid ranges, plus one range overlapping two of them."""
    fam = build_grid_range_family(list(traj.grid), pieces=3)
    if not overlapping:
        return fam
    n = len(traj.grid)
    overlap = GridRangeGroup(n // 4, (3 * n) // 4, {x: i + 1 for i, x in enumerate(traj.grid)})
    return GroupFamily("grid_ranges", [*fam.groups, overlap], grid=fam.grid)


@pytest.mark.parametrize("overlapping", [False, True])
@pytest.mark.parametrize("T, m", [(1, 9), (3 * 7 + 5, 12), (1001, 9), (16384, 25)])
def test_route_biases_equal_the_weight_biases(T, m, overlapping):
    traj = sample_bernoulli_env(T=T, m=m, seed=T + m)
    n = len(traj.grid)
    assert T == 1 or T % n  # a partial last round robin
    fam = _ranges(traj, overlapping)
    route = Route.of(fam.groups, bernoulli_contexts(T, m).trajectory(np.zeros(T, dtype=bool)))
    assert route.ids == tuple(g.id for g in fam.groups)
    assert route.label.dtype == np.uint8 and route.members.shape == (len(fam.groups), len(route.cells))
    assert all(np.all(route.label[idx] == c) for c, (_, idx) in enumerate(route.cells))
    rng = np.random.default_rng(T)
    router = PatternRouter(lambda: EmpiricalMeanBucketOracle(4), fam.groups)
    # the router's predictions, and predictions on a grid of 1/7 that cut across every cell
    for pred in (run_forecaster(traj, router), Predictions(rng.integers(0, 8, size=T), 7)):
        run = ScaledRun.build(traj, pred, *fam.required_denominators())
        reference = run.direct_biases(fam)
        for r in (route, router.route):
            assert run.route_biases(r, fam).tolist() == reference.tolist()
            ledger, weights = accumulate_run(run, fam, r), accumulate_run(run, fam)
            assert ledger.bias.tolist() == weights.bias.tolist() and ledger.err.tolist() == weights.err.tolist()
    # the self-routed router keeps the route it formed: the same split
    assert router.route.ids == route.ids and router.route.label.tolist() == route.label.tolist()
    assert [(z, idx.tolist()) for z, idx in router.route.cells] == [(z, idx.tolist()) for z, idx in route.cells]


def test_route_biases_refuse_a_route_of_other_groups_or_another_T():
    traj = sample_bernoulli_env(T=120, m=9, seed=9)
    fam = build_grid_range_family(list(traj.grid), pieces=3)
    run = ScaledRun.build(traj, run_forecaster(traj, HonestForecaster()), *fam.required_denominators())
    with pytest.raises(ValueError, match="does not serve the direct groups"):
        run.route_biases(Route.of(fam.groups[:2], traj), fam)
    with pytest.raises(ValueError, match="T=60"):
        run.route_biases(Route.of(fam.groups, bernoulli_contexts(60, 9).trajectory(np.zeros(60, dtype=bool))), fam)
    # a looped router keeps no route, so its ledger reads the weights
    assert PatternRouter(lambda: UniformRandomOracle(3), fam.groups, Route.of(fam.groups, traj)).route is None


def test_marginal_err_matches_scalar_reference(monkeypatch):
    bucket_index, unique = calibration._bucket_index, []

    def counted(num, den):
        unique.append(den)
        return bucket_index(num, den)

    monkeypatch.setattr(calibration, "_bucket_index", counted)
    empty = np.zeros(0, dtype=np.int64)
    assert marginal_err(empty, 4, empty, 9) == 0
    assert marginal_err(np.array([3]), 4, np.array([0]), 9) == Fraction(3, 4)
    rng = np.random.default_rng(5)
    # t = 0 and t = 1, the boundaries p_den = 4 t and 4 t + 1, then random sizes on both sides
    cases = [(0, d) for d in (1, 5)] + [(1, d) for d in (1, 2, 3, 4, 5, 6, 40)]
    cases += [(t, 4 * t + e) for t in (2, 7, 30) for e in (-1, 0, 1, 2)]
    cases += [(int(rng.integers(1, 60)), int(rng.integers(1, 300))) for _ in range(200)]
    for t, p_den in cases:
        y_den = int(rng.integers(1, 50))
        p = rng.integers(0, p_den + 1, size=t)
        y = rng.integers(0, y_den + 1, size=t)
        pairs = [(Fraction(int(a), p_den), Fraction(int(b), y_den)) for a, b in zip(p, y)]
        unique.clear()
        assert marginal_err(p, p_den, y, y_den) == _reference_err(pairs)
        # the numerators index p_den + 1 slots directly up to p_den = 4 t, np.unique's classes above
        assert unique == ([p_den] if p_den > 4 * t else [])
    # every prediction at one end of the grid: the slots of the direct index at 0 and at p_den
    assert marginal_err(np.array([0, 0, 4]), 4, np.array([1, 0, 0]), 1) == 2


def test_marginal_err_overflow_guard_names_the_numbers():
    one = np.ones(1, dtype=np.int64)
    # T * p_den * y_den = 2^63: the int64 sums could overflow
    with pytest.raises(OverflowError, match=r"T=1 \* p_den=1099511627776 \* y_den=8388608"):
        marginal_err(one, 2**40, one, 2**23)
    # one below the limit is summed exactly
    assert marginal_err(one, 2**40, one, 2**23 - 1) == abs(Fraction(1, 2**40) - Fraction(1, 2**23 - 1))


def test_router_single_cell_equals_standalone():
    traj = sample_bernoulli_env(T=80, m=9, seed=10)
    fam = build_grid_range_family(list(traj.grid), pieces=1)
    router = PatternRouter(lambda: EmpiricalMeanBucketOracle(4), fam.groups)
    alone = EmpiricalMeanBucketOracle(4)
    p1 = run_forecaster(traj, router, None)
    p2 = run_forecaster(traj, alone, None)
    for t in range(traj.T):
        assert p1.fraction(t) == p2.fraction(t)


def test_protocol_causality():
    class Spy(HonestForecaster):
        def propose(self, ctx, history):
            with pytest.raises(IndexError):
                history[len(history)]  # the current round is not yet visible
            return super().propose(ctx, history)

    traj = sample_bernoulli_env(T=5, m=8, seed=11)
    run_forecaster(traj, Spy(), None, prefer_vectorized=False)


def test_history_contents():
    traj = sample_rademacher_env(T=4, seed=12)
    seen = []

    class Recorder(HonestForecaster):
        def propose(self, ctx, history):
            seen.append(len(history))
            return super().propose(ctx, history)

    run_forecaster(traj, Recorder(), None, prefer_vectorized=False)
    assert seen == [0, 1, 2, 3]


def test_factory_registry():
    assert make_forecaster_factory("honest")().id == "honest"
    assert make_forecaster_factory("rounded_honest", Q=5)().id == "rounded_honest@Q=5"
    f = make_forecaster_factory("overshoot", offset=Fraction(1, 8))()
    assert f.propose(ContextRecord(mean=HALF), HistoryView()).support[0][0] == Fraction(5, 8)
    with pytest.raises(KeyError):
        make_forecaster_factory("oracle_of_delphi")
    for oracle in ("empirical_mean_bucket", "uniform_random"):
        assert make_forecaster_factory(oracle, Q=4)().context_blind
    with pytest.raises(ValueError, match="forecaster.offset"):
        make_forecaster_factory("overshoot")
    # an oracle is resolved with Q only, so a reduction cannot nest itself
    nested = make_forecaster_factory("proper_reduction", oracle="proper_reduction")
    with pytest.raises(ValueError, match="not context-blind"):
        nested()
