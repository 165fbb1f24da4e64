import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblab import calibration
from caliblab.calibration import (
    BiasLedger,
    BlockRows,
    CalibrationReport,
    DeviationStats,
    Predictions,
    RunLedger,
    ScaledRun,
    accumulate_run,
    block_decompose,
    check_bias_averaging,
    check_bits_mse,
    check_block_mass,
    check_block_parseval,
    check_cell_triangle,
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
    Trajectory,
    sample_bernoulli_env,
    sample_bit_env,
    sample_rademacher_env,
)
from caliblab.groups import (
    ConstantGroup,
    GroupFamily,
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


def bucket_fractions(ledger) -> list[Fraction]:
    """The ledger's bucket values, exactly, in bucket order."""
    return [Fraction(int(v), ledger.scale) for v in ledger.bucket_scaled]


def signed_err(run, layout, a: int, j: int) -> Fraction:
    """Err of the signed functional h_{a,j} = sum_v |D + noise| over block a's rows, from the bias
    transform D and the noise transform of x - y, each built from its own stream."""
    rows = run.block_rows(layout)
    lo, hi = rows.first[a - 1 : a + 1]
    both = block_decompose(run, layout) + rows.transform(run.x - run.y)
    return Fraction(int(np.abs(both[lo:hi, j]).sum()), run.scale)


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
    fam = build_block_hadamard_family(T=256, K=2)
    with pytest.raises(ValueError):
        BiasLedger(fam)


def test_empty_report():
    fam = build_pred_threshold_family(8, Fraction(1, 16))
    rep = BiasLedger(fam).report()
    assert rep.mcerr == 0.0


def test_honest_err_g1_g2_zero_exact():
    traj = sample_bernoulli_env(T=4000, m=10, seed=3)
    eta = default_eta(10, 4000)
    fam = build_pred_threshold_family(10, eta)
    run = ledger_of(traj, honest_predictions(traj), fam)
    g1, g2, g3 = fam.ids()
    assert run.err_exact(g1) == 0
    assert run.err_exact(g2) == 0
    err = run.report().vector
    assert err[fam.index[g1]] == 0.0 and err[fam.index[g2]] == 0.0
    assert run.report().mcerr == err[fam.index[g3]] > 0


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
    gid = fam.ids()[0]
    for b, frac in zip(run.bias[fam.index[gid]], bucket_fractions(run)):
        assert Fraction(int(b), run.scale) == ledger.bias(gid, frac)


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
        return traj, build_block_hadamard_family(T, data.draw(st.integers(1, T // 4)))
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
    buckets = bucket_fractions(run)
    assert {p for _, p in ledger.entries} <= set(buckets)
    assert run.bias.shape == (len(fam.groups), len(buckets))
    for gid in (g.id for g in fam.groups):
        for b, frac in zip(run.bias[fam.index[gid]], buckets):
            assert Fraction(int(b), run.scale) == ledger.bias(gid, frac), (gid, frac)


def test_block_groups_match_direct_evaluation():
    # FWHT-based block accumulation equals direct streaming on a small case
    rng = np.random.default_rng(14)
    traj = sample_rademacher_env(T=64, seed=7, m=4)
    fam = build_block_hadamard_family(T=64, K=2)
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
    buckets = bucket_fractions(run)
    for gid in fam.ids():
        assert run.err_exact(gid) == ledger.err_exact(gid) > 0, gid
        for b, frac in zip(run.bias[fam.index[gid]], buckets):
            assert Fraction(int(b), run.scale) == ledger.bias(gid, frac), (gid, frac)
    assert check_telescoping(run).ok


def test_scaled_run_overflow_guard_names_the_numbers():
    def pred_of(T):
        return Predictions(num=np.zeros(T, dtype=np.int64), den=2**60)

    # 2 * T * scale = 2^63: the int64 sums (and differences of two) could overflow
    with pytest.raises(OverflowError, match=r"T=4 \* scale=1152921504606846976"):
        ScaledRun.build(sample_bernoulli_env(T=4, m=8, seed=1), pred_of(4))
    # a run of columns weighted by their rounds is checked at the rounds it stands for, 3 + 1
    with pytest.raises(OverflowError, match=r"T=4 \* scale=1152921504606846976"):
        ScaledRun.build(sample_bernoulli_env(T=2, m=8, seed=1), pred_of(2), mult=np.array([3, 1]))
    # one round fewer is summed exactly
    traj = sample_bernoulli_env(T=3, m=8, seed=1)
    run = ScaledRun.build(traj, Predictions(num=np.full(3, 2**60), den=2**60))
    assert run.bucket_sums(run.resid).tolist() == [sum(2**60 - 2**57 * int(y) for y in traj.y_num)]


def test_runs_of_weighted_columns_refuse_block_rows():
    traj = sample_rademacher_env(T=8, seed=1, m=8)
    run = ScaledRun.build(traj, honest_predictions(traj), mult=np.full(8, 4))
    assert run.T == 32 and run.bucket_counts.tolist() == [4] * 8
    with pytest.raises(ValueError, match="block rows read round order"):
        run.block_rows(build_block_layout(32, 2))


def test_deviation_stats_honest():
    traj = sample_bernoulli_env(T=100, m=8, seed=1)
    eta = Fraction(1, 16)
    stats = deviation_stats(ScaledRun.build(traj, honest_predictions(traj), eta.denominator), eta=eta)
    assert stats.A == 0
    counts = np.bincount(traj.grid_idx, minlength=len(traj.grid))
    # honest predictions are the means, so the buckets are the realized grid points
    assert np.array_equal(stats.n_v, counts[counts > 0])
    # honest rounds everywhere: R_x = 0, N_x free
    assert np.all(stats.R_x_num == 0)
    assert np.array_equal(stats.honest_counts, counts)


def test_deviation_stats_constant_predictor():
    traj = sample_bernoulli_env(T=100, m=8, seed=2)
    pred = Predictions(num=np.full(100, 1, dtype=np.int64), den=2)
    stats = deviation_stats(ScaledRun.build(traj, pred))
    assert stats.n_v.tolist() == [100]


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
    run = ScaledRun.build(traj, pred)
    d = block_decompose(run, layout)
    rows = run.block_rows(layout)
    assert d.shape == (rows.first[-1], layout.L)
    assert np.all(d == 0)
    # with no bias the residual transform is all noise
    for a, z in enumerate(np.split(run.resid_coefficients(layout), rows.first[1:-1]), start=1):
        assert signed_err(run, layout, a, 3) == Fraction(int(np.abs(z[:, 3]).sum()), run.scale)


def test_block_decompose_constant_bias():
    # single bucket across a full block: all bias mass lands on j=0
    traj = sample_rademacher_env(T=64, seed=11, m=2)
    layout = build_block_layout(64, 1)
    pred = Predictions(num=np.full(64, 5, dtype=np.int64), den=8)
    run = ScaledRun.build(traj, pred)
    (d,) = block_decompose(run, layout)
    rows = run.block_rows(layout)
    assert list(rows.first) == [0, 1]
    assert Fraction(int(run.bucket_scaled[rows.bucket[0]]), run.scale) == Fraction(5, 8)
    delta = (
        np.full(64, 5 * run.scale // 8, dtype=np.int64)
        - traj.x_num * (run.scale // traj.den)
    )
    assert d[0] == delta.sum()


def test_block_decompose_identity_and_parseval():
    rng = np.random.default_rng(19)
    traj = sample_rademacher_env(T=256, seed=12, m=4)
    layout = build_block_layout(256, 2)
    fam = build_block_hadamard_family(T=256, K=2)
    for _ in range(5):
        pred = random_predictions(traj, rng, den=8)
        scaled = ScaledRun.build(traj, pred)
        d = block_decompose(scaled, layout)
        run = ledger_of(traj, pred, fam)
        stats = deviation_stats(scaled, layout=layout)
        # bias plus noise equals the signed ledger bias exactly
        for a in (1, 2):
            for j in (0, 1, layout.L - 1):
                lhs = signed_err(scaled, layout, a, j)
                rhs = Fraction(int(run.signed[a - 1, j]), run.scale)
                assert lhs == rhs
        parseval = check_block_parseval(d, stats)
        assert parseval.ok and parseval.min_slack == 0
        averaging = check_bias_averaging(d, stats)
        assert averaging.ok and averaging.count == layout.K


@pytest.mark.parametrize(
    "T,K,den,flat",
    [(8, 1, 2, None), (32, 2, 4, None), (48, 3, 3, None), (100, 4, 8, None), (64, 4, 8, 2)],
    ids=["8-1-2", "32-2-4", "48-3-3", "100-4-8", "64-4-8-flat2"],
)
def test_block_decompose_noise_matches_direct_transform(monkeypatch, T, K, den, flat):
    # D and the noise against the transforms of the bucket-masked p - x and
    # x - y rows, built here round by round; with one block per transform and
    # with every block in one.  The per-block sums (the row counts, the
    # bias-averaging l1 and the Parseval sums) against the same rows;
    # ``flat`` names a block with one prediction, so one row
    rng = np.random.default_rng(T)
    traj = sample_rademacher_env(T=T, seed=K, m=4)
    layout = build_block_layout(T, K)
    pred = random_predictions(traj, rng, den=den)
    if flat is not None:
        pred.num[(flat - 1) * layout.L : flat * layout.L] = den // 2
    scale = ScaledRun.build(traj, pred).scale
    psi = walsh_matrix(layout.L).astype(np.int64)
    values, bias, noise, n_a, sq_dev = [], [], [], [], []
    for a in range(1, layout.K + 1):
        rounds = range((a - 1) * layout.L, a * layout.L)
        present = sorted({pred.fraction(t) for t in rounds})
        d_rows = np.zeros((len(present), layout.L), dtype=np.int64)
        z_rows = np.zeros((len(present), layout.L), dtype=np.int64)
        counts = [0] * len(present)
        for s, t in enumerate(rounds):
            r = present.index(pred.fraction(t))
            d = (pred.fraction(t) - traj.context(t).mean) * scale
            z = (traj.context(t).mean - traj.outcome(t)) * scale
            assert d.denominator == z.denominator == 1
            d_rows[r, s], z_rows[r, s] = int(d), int(z)
            counts[r] += 1
        values.append(present)
        bias.append(d_rows @ psi.T)
        noise.append(z_rows @ psi.T)
        n_a += counts
        sq_dev.append(int((d_rows**2).sum()))
    first = np.cumsum([0] + [len(v) for v in values])
    # sum_j sum_v |D| and sum_j sum_v D^2 per block, exactly
    averaging_lhs = [int(np.abs(b).sum()) for b in bias]
    parseval_lhs = [int((b.astype(object) ** 2).sum()) for b in bias]
    assert flat is None or first[flat] - first[flat - 1] == 1
    for entries, n_chunks in ((1, layout.K), (calibration.STACK_ENTRIES, 1)):
        monkeypatch.setattr(calibration, "STACK_ENTRIES", entries)
        run = ScaledRun.build(traj, pred)
        d = block_decompose(run, layout)
        stats = deviation_stats(run, layout=layout)
        rows = stats.rows
        assert rows is run.block_rows(layout) and len(rows.chunks) == n_chunks
        assert np.array_equal(rows.first, first)
        assert [Fraction(int(v), scale) for v in run.bucket_scaled[rows.bucket]] == [v for vs in values for v in vs]
        assert np.array_equal(d, np.concatenate(bias))
        assert np.array_equal(run.resid_coefficients(layout) - d, np.concatenate(noise))
        assert rows.counts.tolist() == n_a
        assert rows.per_block(np.abs(d).sum(axis=1)).tolist() == averaging_lhs
        # L sum_t delta_t^2 is the reference sum of squares, block by block
        assert [layout.L * int(v) for v in stats.sq_dev] == [layout.L * v for v in sq_dev] == parseval_lhs
        assert check_block_parseval(d, stats).min_slack == 0


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


def assert_summary_matches(summary, reference, name="diff_two"):
    slacks = [bound - signed for signed, bound in reference]
    failed = [i for i, slack in enumerate(slacks) if slack < 0]
    assert (summary.name, summary.count, summary.failures) == (name, len(reference), len(failed))
    assert summary.min_slack == min(slacks)
    first = (failed[0], *reference[failed[0]]) if failed else (None, None, None)
    assert (summary.first, summary.lhs, summary.rhs) == first


def test_diff_two_direct_pairs_match_per_pair_reference():
    # one (plus, minus) pair per family, so min_slack is that pair's own slack
    rng = np.random.default_rng(23)
    traj = sample_rademacher_env(T=96, seed=8, m=8)
    walsh = build_walsh_family(8)
    pred = random_predictions(traj, rng, den=8)
    slacks = set()
    for l in range(1, 8):
        plus, minus = walsh.groups[walsh.index[f"wal+/{l}"]], walsh.groups[walsh.index[f"wal-/{l}"]]
        fam = GroupFamily(kind="walsh", groups=[ConstantGroup(), plus, minus], grid=walsh.grid)
        ledger = ledger_of(traj, pred, fam)
        run = ledger.scaled
        wp, wm = plus.weights(run), minus.weights(run)
        reference = [(exact_err(run, wp.astype(np.int64) - wm), exact_err(run, wp) + exact_err(run, wm))]
        summary = check_diff_two(ledger)
        assert_summary_matches(summary, reference)
        slacks.add(summary.min_slack)
    assert len(slacks) > 1 and max(slacks) > 0


def test_diff_two_pathwise():
    rng = np.random.default_rng(21)
    traj = sample_rademacher_env(T=128, seed=14, m=4)
    fam = build_full_walsh_family(T=128, m=4, K=2)
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
    fam = build_full_walsh_family(T, m, data.draw(st.integers(1, T // 4)))
    den = data.draw(st.integers(1, 12))
    num = data.draw(st.lists(st.integers(0, den), min_size=T, max_size=T))
    ledger = ledger_of(traj, Predictions(num=np.array(num, dtype=np.int64), den=den), fam)
    run = ledger.scaled
    assert_summary_matches(check_diff_two(ledger), diff_two_reference(ledger))
    for plus, minus in fam.signed_pairs():
        assert ledger.err_exact(plus.id) == exact_err(run, plus.weights(run)), plus.id
        assert ledger.err_exact(minus.id) == exact_err(run, minus.weights(run)), minus.id
    report = ledger.report()
    assert list(report) == fam.ids()
    assert all(report.vector[fam.index[gid]] == float(ledger.err_exact(gid)) for gid in fam.ids())


def test_cell_triangle_matches_a_fraction_reference():
    rng = np.random.default_rng(31)
    traj = sample_bernoulli_env(T=200, m=8, seed=12)
    fam = build_grid_range_family(list(traj.grid), 3)
    ledger = ledger_of(traj, random_predictions(traj, rng, den=12), fam)
    run = ledger.scaled
    errs = [exact_err(run, g.weights(run)) for g in fam]
    assert min(errs) > Fraction(1, 7)
    third, seventh, two_fifths = Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)
    cases = [
        # the overlapping cell (1, 1, 0) counts toward groups 0 and 1; group 2's cell is its Err, a tight pass
        {(1, 1, 0): errs[0] + errs[1] + third, (0, 0, 1): errs[2], (1, 0, 0): seventh},
        # group 1's only cell falls 1/7 short of its Err
        {(1, 1, 0): errs[1] - seventh, (1, 0, 0): errs[0] + third, (0, 0, 1): errs[2] + two_fifths},
        # no cells: every group fails
        {},
    ]
    summaries = [check_cell_triangle(ledger, cells) for cells in cases]
    for cells, summary in zip(cases, summaries):
        reference = [(errs[j], sum((e for z, e in cells.items() if z[j]), Fraction(0))) for j in range(3)]
        assert_summary_matches(summary, reference, "cell_triangle")
    assert [s.failures for s in summaries] == [0, 1, 3]
    assert summaries[0].min_slack == 0
    assert (summaries[1].first, summaries[1].lhs, summaries[1].rhs) == (1, errs[1], errs[1] - seventh)
    assert summaries[1].min_slack == -seventh


def run_on(x, p, den) -> ScaledRun:
    """The run of predictions ``p`` on contexts of means ``x`` whose outcomes are the means, all
    numerators over ``den``."""
    x = np.array(x, dtype=np.int64)
    grid = sorted(set(x.tolist()))
    traj = Trajectory(len(x), {}, tuple(Fraction(v, den) for v in grid),
                      np.searchsorted(grid, x), x, x.copy(), den)
    return ScaledRun.build(traj, Predictions(num=np.array(p), den=den))


def test_n_from_a_equality_and_one_unit_short():
    # N = sqrt(4) = 2 against T'/(4 sqrt(A + T'/m + 1)) = 16 / (4 sqrt(2 + 1 + 1)) = 2
    stats = DeviationStats(scale=1, T_prime=16, A_num=2, n_v=np.array([4]))
    summary = check_n_from_a(stats, m=16)
    assert summary.ok and summary.min_slack == 0
    # one round fewer in the bucket: N = sqrt(3) < 2, reported on its lower bracket end
    short = check_n_from_a(replace(stats, n_v=np.array([3])), m=16)
    assert (short.failures, short.first, short.rhs) == (1, 0, 2)
    assert short.lhs**2 <= 3 < (short.lhs + Fraction(1, 2**60)) ** 2
    assert short.min_slack == short.lhs - 2


def test_block_mass_equality_cases_and_one_unit_perturbations():
    layout = build_block_layout(8, 2)
    x = [1, 3, 1, 3, 3, 1, 3, 1]
    # one bucket per block, none shared: N = sum_a N_a exactly
    lower = deviation_stats(run_on(x, [1, 1, 1, 1, 2, 2, 2, 2], 4), layout=layout)
    # two buckets, two rounds each, in every block: sum_a N_a = sqrt(K) N exactly
    upper = deviation_stats(run_on(x, [1, 2, 1, 2, 2, 1, 2, 1], 4), layout=layout)
    for stats, tight in ((lower, 0), (upper, 1)):
        summaries = check_block_mass(stats)
        assert all(s.ok for s in summaries)
        assert summaries[tight].min_slack == 0 and summaries[1 - tight].min_slack > 0
    # one more round in the first bucket: N = sqrt(5) + 2 > sum_a N_a = 4
    bad = check_block_mass(replace(lower, n_v=lower.n_v + [1, 0]))[0]
    assert (bad.name, bad.failures, bad.first, bad.lhs) == ("block_mass_lower", 1, 0, 4)
    assert (bad.rhs - 2) ** 2 >= 5 > (bad.rhs - 2 - Fraction(1, 2**60)) ** 2
    # one fewer: sqrt(2) (sqrt(3) + 2) < sum_a N_a = 4 sqrt(2)
    bad = check_block_mass(replace(upper, n_v=upper.n_v - [1, 0]))[1]
    assert (bad.name, bad.failures, bad.first) == ("block_mass_upper", 1, 0)
    assert float(bad.lhs) == pytest.approx(math.sqrt(6) + math.sqrt(8), rel=1e-15) and bad.lhs < bad.rhs
    assert bad.rhs**2 >= 32 > (bad.rhs - Fraction(1, 2**60)) ** 2


def _block_abs_reference(coeffs: np.ndarray, first) -> np.ndarray:
    """The int64 sums of |c0 + c|, |c0 - c| and |c| over each block's rows, block by block."""
    sums = []
    for lo, hi in zip(first[:-1], first[1:]):
        c = coeffs[lo:hi].astype(np.int64)
        sums.append([np.abs(c[:, :1] + c).sum(axis=0), np.abs(c[:, :1] - c).sum(axis=0), np.abs(c).sum(axis=0)])
    return np.array(sums).transpose(1, 0, 2)


@pytest.mark.parametrize(
    "limit, extra, dtype",
    [(2**24, 0, np.float32), (2**24, 1, np.float64), (2**53, 0, np.float64), (2**53, 1, np.int64)],
    ids=["2^24", "2^24+1", "2^53", "2^53+1"],
)
def test_block_abs_sums_are_exact_up_to_the_ceiling(limit, extra, dtype):
    # two blocks of L = 4 rounds: rows 0 and 1 in block 1, row 2 in block 2.
    # Block 1's plus sums reach limit + extra in columns 0 and 1, the
    # ceiling, and no value formed exceeds it
    h = limit // 4
    coeffs = np.array([[h, h, -h, 3], [h, h + extra, 5, -h], [7, -7, 2 * h, 0]], dtype=np.int64)
    first = np.array([0, 2, 3])
    want = _block_abs_reference(coeffs, first)
    assert want[0, 0, :2].tolist() == [limit, limit + extra]
    exact = calibration._exact(limit + extra)
    assert exact == dtype
    # from int64 and from float64 coefficients, every one exact in both
    for chunks, source in ((((0, 2),), np.int64), (((0, 1), (1, 2)), np.float64)):
        rows = BlockRows(4, np.array([0, 1, 0]), np.array([2, 2, 4]), first, np.zeros(0, dtype=np.int64), chunks)
        got = rows.abs_sums(coeffs.astype(source).astype(exact))
        assert got.dtype == np.int64 and np.array_equal(got, want)
    if extra:
        # one past the limit the narrower float rounds limit + 1 away
        narrower = calibration._exact(limit)
        assert not np.array_equal(rows.abs_sums(coeffs.astype(narrower)), want)


def test_block_abs_sums_at_many_short_blocks_stay_exact_and_small():
    # K = 2^12 blocks of L = 4 rounds at T = 2^14: about 4 rows a block, so a
    # (K, rows) membership matrix would be 2^26 entries.  Per-round values of
    # magnitude at most scale = 2^21 put the ceiling 2 L scale at 2^24, the
    # float32 limit, and the block sums run SUM_BLOCKS blocks at a time
    layout = build_block_layout(2**14, 2**12)
    rng = np.random.default_rng(14)
    rows = BlockRows.build(rng.integers(0, 8, 2**14), 8, layout)
    scale = 2**21
    values = rng.choice(np.array([-scale, scale, 3 - scale]), 2**14)
    coeffs = rows.transform(values)
    exact = calibration._exact(2 * layout.L * scale)
    assert exact == np.float32 and rows.first[-1] > 3 * layout.K
    want = _block_abs_reference(coeffs, rows.first)
    assert want.max() == 2**24
    tracemalloc.start()
    try:
        got = rows.abs_sums(coeffs.astype(exact))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # the (3, K, L) result and the planes of SUM_BLOCKS blocks: under 2 MiB
    assert peak < 2**21


def test_undecided_bracket_counts_as_a_failure(monkeypatch):
    # sqrt(6) > sqrt(5), but whole-number brackets [2, 3] and [2, 3] cannot tell them apart
    rows = BlockRows(8, np.array([0]), np.array([6]), np.array([0, 1]), np.zeros(0, dtype=np.int64), ((0, 1),))
    stats = DeviationStats(scale=1, T_prime=6, A_num=0, n_v=np.array([5]), rows=rows)
    decided = check_block_mass(stats)[0]
    assert decided.ok and float(decided.min_slack) == pytest.approx(math.sqrt(6) - math.sqrt(5), rel=1e-15)
    monkeypatch.setattr(calibration, "SQRT_BITS", (0, 1))
    undecided = check_block_mass(stats)[0]
    # at 1 bit the brackets are [4, 5] / 2 on both sides
    assert (undecided.failures, undecided.first, undecided.lhs, undecided.rhs) == (1, 0, 2, Fraction(5, 2))
    assert undecided.min_slack == Fraction(-1, 2)


def test_bias_averaging_equality_and_one_unit_perturbation():
    # delta = (1, 1, 1, -1) / 4 in each block of one bucket: every |D| is 2/4, the Cauchy-Schwarz equality
    layout = build_block_layout(8, 2)
    run = run_on([1, 1, 1, 3] * 2, [2] * 8, 4)
    d = block_decompose(run, layout)
    assert np.array_equal(np.abs(d), np.full((2, 4), 2))
    stats = deviation_stats(run, layout=layout)
    summary = check_bias_averaging(d, stats)
    assert (summary.count, summary.failures, summary.min_slack) == (2, 0, 0)
    # (sum |D|)^2 = 8^2 against L^2 q sum delta^2 = 16 * 1 * 4, over scale^2 = 16; one unit less of
    # sum delta^2 in block 2
    bad = check_bias_averaging(d, replace(stats, sq_dev=stats.sq_dev - [0, 1]))
    assert (bad.failures, bad.first, bad.lhs, bad.rhs, bad.min_slack) == (1, 1, 4, 3, -1)


def test_block_parseval_equality_and_one_unit_perturbation():
    layout = build_block_layout(8, 2)
    run = run_on([1, 1, 1, 3] * 2, [2] * 8, 4)
    d, stats = block_decompose(run, layout), deviation_stats(run, layout=layout)
    summary = check_block_parseval(d, stats)
    assert (summary.count, summary.failures, summary.min_slack) == (2, 0, 0)
    # one unit more, then one less, on a coefficient of block 2: 3^2 or 1^2, plus 3 * 2^2, against
    # L sum delta^2 = 16, over 16; an equality fails on either side
    for unit, lhs in ((1, 21), (-1, 13)):
        bad = d.copy()
        bad[1, 0] += unit
        bad = check_block_parseval(bad, stats)
        assert (bad.failures, bad.first, bad.lhs, bad.rhs) == (1, 1, Fraction(lhs, 16), 1)
        assert bad.min_slack == -abs(Fraction(lhs - 16, 16))


def test_block_checks_take_python_ints_above_the_int64_ceiling():
    # scale 2^31 puts L^3 scale^2 above 2^63: the sums of squares are taken in Python integers
    rng = np.random.default_rng(29)
    traj = sample_rademacher_env(T=64, seed=3, m=4)
    layout = build_block_layout(64, 2)
    run = ScaledRun.build(traj, random_predictions(traj, rng, den=2**31))
    assert layout.L**3 * run.scale**2 >= 2**63
    d, stats = block_decompose(run, layout), deviation_stats(run, layout=layout)
    assert stats.sq_dev.dtype == object and sum(stats.sq_dev) > 2**63
    assert check_block_parseval(d, stats).min_slack == 0
    assert check_bias_averaging(d, stats).ok


def test_bits_mse_vs_mcerr_equality_and_one_unit_perturbation():
    # two rounds at p = 1/2 with y in {1/4, 3/4}: sum (p - y)^2 = 1/8 over scale 28, and a ledger whose
    # MCerr is 2/28 makes (2 - 1/(2N)) MCerr = 7/4 * 1/14 = 1/8, the equality
    traj = sample_bit_env(T=2, k=1, seed=1)
    run = ScaledRun.build(traj, Predictions(num=np.full(2, 14), den=28))
    fam = build_bit_family(1)
    assert run.scale == 28 and Fraction(run.sq_loss_num, run.scale**2) == Fraction(1, 8)
    # err holds each group's Err numerator over 2 scale: twice its |bias| sum
    mse = check_bits_mse(RunLedger(fam, run, np.array([[2], [0]]), np.array([4, 0])))[1]
    assert (mse.name, mse.count, mse.failures, mse.min_slack) == ("bits_mse_vs_mcerr", 1, 0, 0)
    # one unit less of bias: MCerr 1/28 and a bound of 1/16
    bad = check_bits_mse(RunLedger(fam, run, np.array([[1], [0]]), np.array([2, 0])))[1]
    assert (bad.failures, bad.first, bad.lhs, bad.rhs, bad.min_slack) == (1, 0, Fraction(1, 8), Fraction(1, 16), Fraction(-1, 16))


@pytest.mark.parametrize("kind", ["bits", "block_hadamard", "empty"])
def test_mcerr_num_is_the_reports_largest_err(kind):
    # the block half-groups count, over 2 scale, and an empty family's MCerr is 0
    traj = sample_bit_env(T=64, k=2, seed=3)
    fam = {
        "bits": build_bit_family(2),
        "block_hadamard": build_block_hadamard_family(T=64, K=2),
        "empty": GroupFamily(kind="empty", groups=[]),
    }[kind]
    ledger = ledger_of(traj, random_predictions(traj, np.random.default_rng(5), den=8), fam)
    assert float(Fraction(ledger.mcerr_num(), 2 * ledger.scale)) == ledger.report().mcerr
    assert (ledger.mcerr_num() == 0) == (kind == "empty")
    # with no group at all the bound is 0 and the squared loss is not
    assert [s.ok for s in check_bits_mse(ledger)] == [True, kind != "empty"]


def test_bits_mse_checks():
    rng = np.random.default_rng(22)
    traj = sample_bit_env(T=500, k=3, seed=15)
    fam = build_bit_family(3)
    pred = random_predictions(traj, rng, den=7)
    run = ledger_of(traj, pred, fam)
    for chk in check_bits_mse(run):
        assert chk.ok
    assert 0 <= miss_count(run.scaled) <= traj.T
    # honest predictions never miss and have zero loss
    honest = honest_predictions(traj)
    assert miss_count(ScaledRun.build(traj, honest)) == 0
    # every round misses by 3/4 over a scale of 2^40, whose squares exceed int64
    traj = sample_bit_env(T=4, k=1, seed=1)
    far = np.where(2 * traj.x_num > traj.den, 0, 2**40)
    ledger = ledger_of(traj, Predictions(num=far, den=2**40), build_bit_family(1))
    run = ledger.scaled
    penalty, mse = check_bits_mse(ledger)
    assert miss_count(run) == 4
    # worst miss 3/4 against the floor 1/(2N) = 1/4, squared
    assert penalty.ok and penalty.min_slack == Fraction(9, 16) - Fraction(1, 16)
    # sum_t (p - y)^2 = 4 (3/4)^2, taken in Python integers
    assert Fraction(run.sq_loss_num, run.scale**2) == Fraction(9, 4)
    assert mse.count == 1 and mse.min_slack == Fraction(7, 4) * Fraction(ledger.mcerr_num(), 2 * run.scale) - Fraction(9, 4)


def test_vector_report_keeps_family_order():
    ids = ["wal+/2", "had-/1/0", "g_all", "had+/1/0"]
    errs = [0.5, 0.75, 0.25, 0.75]
    rep = CalibrationReport({gid: i for i, gid in enumerate(ids)}, np.array(errs))
    assert rep.mcerr == 0.75
    assert list(rep.items()) == list(zip(ids, errs))
    assert all(type(e) is float for e in rep.values())
    with pytest.raises(TypeError):
        rep["g_all"] = 1.0  # a read-only mapping
    empty = CalibrationReport({}, np.zeros(0))
    assert (dict(empty), empty.mcerr) == ({}, 0.0)
