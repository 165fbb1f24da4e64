import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblab.calibration import (
    BiasLedger,
    CalibrationReport,
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
    miss_count,
)
from caliblab.environments import (
    ContextRecord,
    sample_bernoulli_env,
    sample_bit_env,
    sample_rademacher_env,
)
from caliblab.groups import (
    ConstantGroup,
    build_bit_family,
    build_block_hadamard_family,
    build_block_layout,
    build_full_walsh_family,
    build_grid_range_family,
    build_pred_threshold_family,
    build_walsh_family,
    default_eta,
)
from caliblab.orthogonal import walsh_matrix

HALF = Fraction(1, 2)


def honest_predictions(traj) -> Predictions:
    return Predictions(num=traj.x_num.copy(), den=traj.den)


def random_predictions(traj, rng, den=16) -> Predictions:
    return Predictions(num=rng.integers(0, den + 1, size=traj.T), den=den)


def ledger_of(traj, pred, fam):
    return accumulate_run(ScaledRun.build(traj, pred, *fam.required_denominators()), fam)


def test_record_round_examples():
    fam = build_pred_threshold_family(8, Fraction(1, 16))
    fam.groups.append(ConstantGroup())
    ledger = BiasLedger(fam)
    ctx = ContextRecord(mean=HALF)
    ledger.record_round(ctx, HALF, Fraction(1))
    assert ledger.bias("g_all", HALF) == Fraction(-1, 2)
    assert ledger.bias("g3@eta=1/16", HALF) == Fraction(-1, 2)
    assert ledger.bias("g1@eta=1/16", HALF) == 0
    assert ledger.bias("g2@eta=1/16", HALF) == 0
    ledger.record_round(ctx, HALF, Fraction(0))
    assert ledger.bias("g_all", HALF) == 0  # exact cancellation
    assert ledger.rounds_seen == 2


def test_record_round_validation():
    fam = build_pred_threshold_family(8, Fraction(1, 16))
    ledger = BiasLedger(fam)
    ctx = ContextRecord(mean=HALF)
    with pytest.raises(ValueError):
        ledger.record_round(ctx, Fraction(3, 2), Fraction(0))
    with pytest.raises(ValueError):
        ledger.record_round(ctx, HALF, Fraction(-1, 10))


def test_streaming_limit():
    _, fam = build_block_hadamard_family(T=256, K=2)
    with pytest.raises(ValueError):
        BiasLedger(fam)


def test_empty_report():
    fam = build_pred_threshold_family(8, Fraction(1, 16))
    rep = BiasLedger(fam).report()
    assert rep.mcerr == 0.0


def test_report_tiebreak_lexicographic():
    rep = CalibrationReport.from_err({"b": 1.0, "a": 1.0, "c": 0.5})
    assert rep.argmax_group == "a"


def test_honest_err_g1_g2_zero_exact():
    traj = sample_bernoulli_env(T=4000, m=10, seed=3)
    eta = default_eta(10, 4000)
    fam = build_pred_threshold_family(10, eta)
    run = ledger_of(traj, honest_predictions(traj), fam)
    g1, g2, g3 = fam.ids()
    assert run.err_exact(g1) == 0
    assert run.err_exact(g2) == 0
    rep = run.report()
    assert rep.err[g1] == 0.0 and rep.err[g2] == 0.0
    assert rep.mcerr == rep.err[g3] > 0
    assert rep.argmax_group == g3


def test_streaming_matches_vectorized():
    rng = np.random.default_rng(12)
    traj = sample_bernoulli_env(T=200, m=8, seed=5)
    eta = Fraction(1, 16)
    fam = build_pred_threshold_family(8, eta)
    pred = random_predictions(traj, rng)
    ledger = BiasLedger(fam)
    for t in range(traj.T):
        ledger.record_round(traj.context(t), pred.fraction(t), traj.outcome(t))
    run = ledger_of(traj, pred, fam)
    for gid in fam.ids():
        assert ledger.err_exact(gid) == run.err_exact(gid)
    # and bucketwise
    for b, frac in zip(run.bias[fam.ids()[0]], run.bucket_fractions()):
        assert Fraction(int(b), run.scale) == ledger.bias(fam.ids()[0], frac)


def test_streaming_matches_vectorized_walsh():
    rng = np.random.default_rng(13)
    traj = sample_rademacher_env(T=96, seed=6, m=4)
    fam = build_walsh_family(4)
    pred = random_predictions(traj, rng, den=8)
    ledger = BiasLedger(fam)
    for t in range(traj.T):
        ledger.record_round(traj.context(t), pred.fraction(t), traj.outcome(t))
    run = ledger_of(traj, pred, fam)
    for gid in fam.ids():
        assert ledger.err_exact(gid) == run.err_exact(gid)


def _random_case(kind, data):
    """A small (trajectory, family) pair of the given family kind."""
    seed = data.draw(st.integers(0, 2**16))
    if kind in ("threshold", "grid_ranges"):
        m = data.draw(st.integers(8, 16))
        traj = sample_bernoulli_env(T=data.draw(st.integers(1, 48)), m=m, seed=seed)
        if kind == "grid_ranges":
            pieces = data.draw(st.integers(1, len(traj.grid)))
            return traj, build_grid_range_family(list(traj.grid), pieces)
        eta = Fraction(data.draw(st.integers(1, 9)), 18 * m)  # <= 1/(2m)
        return traj, build_pred_threshold_family(m, eta)
    if kind == "walsh":
        m = data.draw(st.sampled_from([2, 4, 8]))
        traj = sample_rademacher_env(T=data.draw(st.integers(2, 48)), seed=seed, m=m)
        return traj, build_walsh_family(m)
    if kind == "block_hadamard":
        T = data.draw(st.integers(4, 48))
        traj = sample_rademacher_env(T=T, seed=seed, m=4)
        return traj, build_block_hadamard_family(T, data.draw(st.integers(1, T // 4)))[1]
    k = data.draw(st.integers(1, 3))
    return sample_bit_env(T=data.draw(st.integers(1, 48)), k=k, seed=seed), build_bit_family(k)


@pytest.mark.parametrize("kind", ["threshold", "walsh", "block_hadamard", "bits", "grid_ranges"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_streaming_ledger_matches_accumulate_run(kind, data):
    traj, fam = _random_case(kind, data)
    # the trajectory's own denominator (with eta's) makes p = x +- eta reachable
    natural = math.lcm(traj.den, *fam.required_denominators())
    den = data.draw(st.one_of(st.integers(1, 24), st.just(natural)))
    num = data.draw(st.lists(st.integers(0, den), min_size=traj.T, max_size=traj.T))
    pred = Predictions(num=np.array(num, dtype=np.int64), den=den)
    ledger = BiasLedger(fam, streaming_limit=len(fam))
    for t in range(traj.T):
        ledger.record_round(traj.context(t), pred.fraction(t), traj.outcome(t))
    run = ledger_of(traj, pred, fam)
    for gid in fam.ids():
        assert ledger.err_exact(gid) == run.err_exact(gid), gid
    buckets = run.bucket_fractions()
    assert {p for _, p in ledger.entries} <= set(buckets)
    for gid, bias in run.bias.items():
        for b, frac in zip(bias, buckets):
            assert Fraction(int(b), run.scale) == ledger.bias(gid, frac), (gid, frac)


def test_block_groups_match_direct_evaluation():
    # FWHT-based block accumulation equals direct streaming on a small case
    rng = np.random.default_rng(14)
    traj = sample_rademacher_env(T=64, seed=7, m=4)
    layout, fam = build_block_hadamard_family(T=64, K=2)
    pred = random_predictions(traj, rng, den=4)
    ledger = BiasLedger(fam, streaming_limit=10_000)
    for t in range(traj.T):
        ledger.record_round(traj.context(t), pred.fraction(t), traj.outcome(t))
    run = ledger_of(traj, pred, fam)
    for gid in fam.ids():
        assert ledger.err_exact(gid) == run.err_exact(gid), gid


def test_telescoping_exact():
    rng = np.random.default_rng(15)
    for seed in range(5):
        traj = sample_bernoulli_env(T=333, m=9, seed=seed)
        fam = build_pred_threshold_family(9, Fraction(1, 18))
        fam.groups.append(ConstantGroup())
        pred = random_predictions(traj, rng)
        run = ledger_of(traj, pred, fam)
        chk = check_telescoping(run)
        assert chk.ok
        assert run.telescoped() == sum(
            (pred.fraction(t) - traj.outcome(t) for t in range(traj.T)), Fraction(0)
        )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_counting_sort_bucket_index_matches_unique(data):
    T = data.draw(st.integers(1, 64))
    traj = sample_bernoulli_env(T=T, m=8, seed=data.draw(st.integers(0, 2**16)))
    # den on both sides of the counting-sort rule den <= 4 T
    den = data.draw(st.one_of(st.integers(1, 4 * T), st.integers(4 * T + 1, 10**6)))
    num = data.draw(
        st.lists(st.one_of(st.just(0), st.just(den), st.integers(0, den)), min_size=T, max_size=T)
    )
    extra = data.draw(st.sampled_from([1, 3, 10, 49]))  # 3, 10, 49 make scale // den > 1
    run = ScaledRun.build(traj, Predictions(num=np.array(num), den=den), extra)
    ref = np.unique(run.p, return_inverse=True, return_counts=True)
    for got, want in zip((run.bucket_scaled, run.bucket_idx, run.bucket_counts), ref):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bucket_sums_exact_beyond_float_range(data):
    T = data.draw(st.integers(1, 64))
    traj = sample_bernoulli_env(T=T, m=8, seed=data.draw(st.integers(0, 2**16)))
    # scale = 8 k lies above 2^53 / T, where float64 partial sums would round,
    # and below the 2 T scale < 2^63 ceiling
    k = data.draw(st.integers(2**53 // (8 * T) + 1, (2**62 - 1) // (8 * T)))
    scale = 8 * k
    quarters = data.draw(st.lists(st.integers(0, 4), min_size=T, max_size=T))
    run = ScaledRun.build(traj, Predictions(num=np.array(quarters) * 2 * k, den=scale))
    assert run.scale == scale and T * scale > 2**53
    edges = st.sampled_from([-scale, scale, min(scale, 2**53 + 1)])  # 2^53 + 1 is no float64
    values = data.draw(st.lists(st.one_of(st.integers(-scale, scale), edges), min_size=T, max_size=T))
    arr = np.array(values, dtype=np.int64)
    by_bucket = {}
    by_grid = [0] * len(traj.grid)
    for p, g, v in zip(run.p.tolist(), traj.grid_idx.tolist(), values):
        by_bucket[p] = by_bucket.get(p, 0) + v
        by_grid[g] += v
    assert run.bucket_sums(arr).tolist() == [by_bucket[p] for p in run.bucket_scaled.tolist()]
    assert run.bucket_sums(arr, traj.grid_idx, len(traj.grid)).tolist() == by_grid


def test_threshold_trio_beyond_old_float_guard_matches_streaming_ledger():
    # 4 T scale >= 2^53: the float64 bucket sums needed 4 T scale < 2^53 and refused this run
    T, m = 600, 8
    traj = sample_bernoulli_env(T=T, m=m, seed=21)
    eta = Fraction(1, 16)
    fam = build_pred_threshold_family(m, eta)
    den = 16 * 3**25
    # p = x + offset, offsets around -eta, 0 and +eta in units of 1/den, so buckets repeat
    e, one = den // 16, 1
    offsets = np.array([-2 * e, -e - one, -e, -e + one, -one, 0, one, e - one, e, e + one, 2 * e])
    rng = np.random.default_rng(22)
    num = traj.x_num * (den // traj.den) + offsets[rng.integers(0, len(offsets), size=T)]
    pred = Predictions(num=num, den=den)
    run = ledger_of(traj, pred, fam)
    assert 4 * T * run.scale >= 2**53
    assert len(run.bucket_scaled) < T // 4
    ledger = BiasLedger(fam)
    for t in range(T):
        ledger.record_round(traj.context(t), pred.fraction(t), traj.outcome(t))
    buckets = run.bucket_fractions()
    for gid in fam.ids():
        assert run.err_exact(gid) == ledger.err_exact(gid) > 0, gid
        for b, frac in zip(run.bias[gid], buckets):
            assert Fraction(int(b), run.scale) == ledger.bias(gid, frac), (gid, frac)
    assert check_telescoping(run).ok


def test_scaled_run_overflow_guard_names_the_numbers():
    pred = Predictions(num=np.zeros(4, dtype=np.int64), den=2**60)
    # 2 * T * scale = 2^63: the int64 sums (and differences of two) could overflow
    with pytest.raises(OverflowError, match=r"T=4 \* scale=1152921504606846976"):
        ScaledRun.build(sample_bernoulli_env(T=4, m=8, seed=1), pred)
    # one round fewer is summed exactly
    traj = sample_bernoulli_env(T=3, m=8, seed=1)
    run = ScaledRun.build(traj, Predictions(num=np.full(3, 2**60), den=2**60))
    assert run.bucket_sums(run.resid).tolist() == [sum(2**60 - 2**57 * int(y) for y in traj.y_num)]


def test_deviation_stats_honest():
    traj = sample_bernoulli_env(T=100, m=8, seed=1)
    eta = Fraction(1, 16)
    stats = deviation_stats(ScaledRun.build(traj, honest_predictions(traj), eta.denominator), eta=eta)
    assert stats.A == 0
    assert stats.S == 0.0
    counts = traj.context_counts()
    assert stats.N == pytest.approx(np.sqrt(counts).sum())
    # honest rounds everywhere: R_x = 0, N_x free
    assert np.all(stats.R_x_num == 0)
    assert np.array_equal(stats.honest_counts, counts)


def test_deviation_stats_constant_predictor():
    traj = sample_bernoulli_env(T=100, m=8, seed=2)
    pred = Predictions(num=np.full(100, 1, dtype=np.int64), den=2)
    stats = deviation_stats(ScaledRun.build(traj, pred))
    assert len(stats.n_v) == 1
    assert stats.N == pytest.approx(np.sqrt(100))


def test_l1_quantization_on_random_sequences():
    # exercised on the time-augmented grid environment, its native scope
    rng = np.random.default_rng(16)
    traj = sample_rademacher_env(T=256, seed=8, m=8)
    for _ in range(100):
        pred = random_predictions(traj, rng, den=32)
        stats = deviation_stats(ScaledRun.build(traj, pred))
        assert check_l1_quantization(stats, m=8).ok
        assert check_n_from_a(stats, m=8).ok


def test_norm_interpolation():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = np.abs(rng.standard_normal(rng.integers(1, 40)))
        a /= np.sqrt((a**2).sum())
        l1 = a.sum()
        l4 = (a**4).sum() ** 0.25
        assert l1 >= l4**-2 - 1e-12


def test_block_mass_inequalities():
    rng = np.random.default_rng(18)
    traj = sample_rademacher_env(T=512, seed=9, m=8)
    layout = build_block_layout(512, 4)
    for _ in range(20):
        pred = random_predictions(traj, rng, den=16)
        stats = deviation_stats(ScaledRun.build(traj, pred), layout=layout)
        for chk in check_block_mass(stats):
            assert chk.ok


def test_block_decompose_honest():
    traj = sample_rademacher_env(T=128, seed=10, m=4)
    layout = build_block_layout(128, 2)
    pred = honest_predictions(traj)
    dec = block_decompose(ScaledRun.build(traj, pred), layout)
    for a in (1, 2):
        _, d = dec.D[a]
        assert np.all(d == 0)
        _, z = dec.Nz[a]
        assert dec.signed_err(a, 3) == Fraction(int(np.abs(z[:, 3]).sum()), dec.scale)


def test_block_decompose_constant_bias():
    # single bucket across a full block: all bias mass lands on j=0
    traj = sample_rademacher_env(T=64, seed=11, m=2)
    layout = build_block_layout(64, 1)
    pred = Predictions(num=np.full(64, 5, dtype=np.int64), den=8)
    dec = block_decompose(ScaledRun.build(traj, pred), layout)
    buckets, d = dec.D[1]
    assert len(buckets) == 1
    delta = (
        np.full(64, 5 * dec.scale // 8, dtype=np.int64)
        - traj.x_num * (dec.scale // traj.den)
    )
    assert d[0, 0] == delta.sum()


def test_block_decompose_identity_and_parseval():
    rng = np.random.default_rng(19)
    traj = sample_rademacher_env(T=256, seed=12, m=4)
    layout = build_block_layout(256, 2)
    _, fam = build_block_hadamard_family(T=256, K=2)
    for _ in range(5):
        pred = random_predictions(traj, rng, den=8)
        dec = block_decompose(ScaledRun.build(traj, pred), layout)
        run = ledger_of(traj, pred, fam)
        stats = deviation_stats(ScaledRun.build(traj, pred), layout=layout)
        # D + Nz equals the signed ledger bias exactly
        for a in (1, 2):
            for j in (0, 1, layout.L - 1):
                lhs = dec.signed_err(a, j)
                rhs = Fraction(int(run.block_coeff_abs[a - 1, j]), run.scale)
                assert lhs == rhs
        assert check_block_parseval(dec, stats).ok
        averaging = check_bias_averaging(dec, stats)
        assert averaging.ok and averaging.count == layout.K


@pytest.mark.parametrize("T,K,den", [(8, 1, 2), (32, 2, 4), (48, 3, 3), (100, 4, 8)])
def test_block_decompose_noise_matches_direct_transform(T, K, den):
    # Nz is derived by linearity; check it against the transform of the
    # bucket-masked x - y rows, built here round by round
    rng = np.random.default_rng(T)
    traj = sample_rademacher_env(T=T, seed=K, m=4)
    layout = build_block_layout(T, K)
    pred = random_predictions(traj, rng, den=den)
    dec = block_decompose(ScaledRun.build(traj, pred), layout)
    psi = walsh_matrix(layout.L).astype(np.int64)
    for a in range(1, layout.K + 1):
        rounds = range((a - 1) * layout.L, a * layout.L)
        values = sorted({pred.fraction(t) for t in rounds})
        rows = np.zeros((len(values), layout.L), dtype=np.int64)
        for s, t in enumerate(rounds):
            noise = (traj.context(t).mean - traj.outcome(t)) * dec.scale
            assert noise.denominator == 1
            rows[values.index(pred.fraction(t)), s] = int(noise)
        buckets, z = dec.Nz[a]
        assert len(buckets) == len(values)
        assert np.array_equal(z, rows @ psi.T)


def test_g4_context_decomposition():
    rng = np.random.default_rng(20)
    m = 8
    eta = Fraction(1, 16)
    traj = sample_bernoulli_env(T=400, m=m, seed=13)
    fam = build_pred_threshold_family(m, eta)
    for _ in range(20):
        pred = random_predictions(traj, rng, den=64)
        run = ledger_of(traj, pred, fam)
        stats = deviation_stats(ScaledRun.build(traj, pred, eta.denominator), eta=eta)
        assert check_g4_context_decomp(run, stats, eta, m).ok


def exact_err(run, w) -> Fraction:
    return Fraction(int(np.abs(run.bucket_sums(w.astype(np.int64) * run.resid)).sum()), run.scale)


def diff_two_reference(ledger) -> list:
    """(Err(g+ - g-), Err(g+) + Err(g-)) per signed pair, from the half-groups' own weights."""
    run = ledger.scaled
    out = []
    for plus, minus in ledger.family.signed_pairs():
        wp, wm = plus.weights(run), minus.weights(run)
        out.append((exact_err(run, wp.astype(np.int64) - wm), exact_err(run, wp) + exact_err(run, wm)))
    return out


def assert_summary_matches(summary, reference):
    slacks = [bound - signed for signed, bound in reference]
    failed = [i for i, slack in enumerate(slacks) if slack < 0]
    assert (summary.name, summary.count, summary.failures) == ("diff_two", len(reference), len(failed))
    assert summary.min_slack == min(slacks)
    first = (failed[0], *reference[failed[0]]) if failed else (None, None, None)
    assert (summary.first, summary.lhs, summary.rhs) == first


def test_diff_two_pathwise():
    rng = np.random.default_rng(21)
    traj = sample_rademacher_env(T=128, seed=14, m=4)
    _, fam = build_full_walsh_family(T=128, m=4, K=2)
    for _ in range(10):
        pred = random_predictions(traj, rng, den=8)
        run = ledger_of(traj, pred, fam)
        summary = check_diff_two(run)
        assert summary.ok and summary.count == len(fam.signed_pairs()) > 0
        assert_summary_matches(summary, diff_two_reference(run))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_diff_two_matches_per_pair_reference(data):
    # scalar reference per pair, from the half-groups' own weights
    T = data.draw(st.integers(4, 80))
    m = data.draw(st.sampled_from([2, 4]))
    traj = sample_rademacher_env(T=T, seed=data.draw(st.integers(0, 2**16)), m=m)
    _, fam = build_full_walsh_family(T, m, data.draw(st.integers(1, T // 4)))
    den = data.draw(st.integers(1, 12))
    num = data.draw(st.lists(st.integers(0, den), min_size=T, max_size=T))
    ledger = ledger_of(traj, Predictions(num=np.array(num, dtype=np.int64), den=den), fam)
    run = ledger.scaled
    assert_summary_matches(check_diff_two(ledger), diff_two_reference(ledger))
    for plus, minus in fam.signed_pairs():
        assert ledger.err_exact(plus.id) == exact_err(run, plus.weights(run)), plus.id
        assert ledger.err_exact(minus.id) == exact_err(run, minus.weights(run)), minus.id
    err = ledger.report().err
    assert list(err) == fam.ids()
    assert all(err[gid] == float(ledger.err_exact(gid)) for gid in fam.ids())


def test_bits_mse_checks():
    rng = np.random.default_rng(22)
    traj = sample_bit_env(T=500, k=3, seed=15)
    fam = build_bit_family(3)
    pred = random_predictions(traj, rng, den=7)
    run = ledger_of(traj, pred, fam)
    for chk in check_bits_mse(run.scaled, run.report()):
        assert chk.ok
    assert 0 <= miss_count(run.scaled) <= traj.T
    # honest predictions never miss and have zero loss
    honest = honest_predictions(traj)
    assert miss_count(ScaledRun.build(traj, honest)) == 0
    # every round misses by 3/4 over a scale of 2^40, whose squares exceed int64
    traj = sample_bit_env(T=4, k=1, seed=1)
    far = np.where(2 * traj.x_num > traj.den, 0, 2**40)
    run = ScaledRun.build(traj, Predictions(num=far, den=2**40))
    penalty = check_bits_mse(run, CalibrationReport.from_err({"g": 1.0}))[0]
    assert miss_count(run) == 4
    # worst miss 3/4 against the floor 1/(2N) = 1/4, squared
    assert penalty.ok and penalty.min_slack == Fraction(9, 16) - Fraction(1, 16)


def test_vector_report_breaks_ties_on_the_smallest_id():
    ids = ["wal+/2", "had-/1/0", "g_all", "had+/1/0"]
    errs = [0.5, 0.75, 0.25, 0.75]
    rep = CalibrationReport.from_vector(ids, np.array(errs))
    # the first tied index is had-/1/0, the smallest tied id had+/1/0
    assert (rep.mcerr, rep.argmax_group) == (0.75, "had+/1/0")
    assert list(rep.err.items()) == list(zip(ids, errs))
    assert CalibrationReport.from_vector([], np.zeros(0)).argmax_group is None


def test_report_csv(tmp_path):
    rep = CalibrationReport.from_err({"g": 0.125, "h": 1.0 / 3.0})
    path = tmp_path / "r.csv"
    rep.write_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "group_id,err"
    assert "0.125" in text and "0.33333333333333331" in text


def test_decomposition_csv(tmp_path):
    traj = sample_rademacher_env(T=32, seed=20, m=2)
    layout = build_block_layout(32, 2)
    pred = honest_predictions(traj)
    dec = block_decompose(ScaledRun.build(traj, pred), layout)
    path = tmp_path / "dec.csv"
    dec.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "block,j,bucket_value,D,Nz"
    # 2 blocks x 2 realized buckets x L columns
    assert len(lines) == 1 + 2 * 2 * layout.L
