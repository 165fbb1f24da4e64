import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblab import _kernels, probes
from caliblab._kernels import (
    BUCKETING_STRATEGY_CODES,
    bucketing_batch,
    bucketing_packed,
    first_return_batch,
    prefix_extent,
)
from caliblab.environments import substream
from caliblab.orthogonal import walsh_rows
from caliblab.probes import (
    BUCKETING_FLOOR,
    MARTINGALE_FLOOR,
    SINGLE_BUCKET_RHO,
    _draw_packed,
    _draw_signs,
    _first_returns_chunked,
    bucketing_probe,
    bucketing_trace,
    first_return_pmf,
    martingale_transform_probe,
    simulate_first_returns,
    truncated_root_return_expectation,
    truncated_root_return_probe,
)


def test_first_return_pmf_values():
    assert first_return_pmf(1) == Fraction(1, 2)
    assert first_return_pmf(2) == Fraction(1, 8)
    assert first_return_pmf(3) == Fraction(1, 16)
    with pytest.raises(ValueError):
        first_return_pmf(0)


def test_first_return_pmf_subprobability():
    partial = Fraction(0)
    prev = Fraction(0)
    for n in range(1, 1001):
        partial += first_return_pmf(n)
        assert prev < partial < 1
        prev = partial
    assert float(partial) > 0.97  # tail ~ 1/sqrt(n)


def test_first_return_tail():
    # P(tau_0 > m) = 1 - sum_{j <= m/2} P(tau_0 = 2j)
    for m, tail in ((1, 1), (2, Fraction(1, 2)), (4, Fraction(3, 8))):
        assert 1 - sum((first_return_pmf(j) for j in range(1, m // 2 + 1)), Fraction(0)) == tail


def test_truncated_expectation_l2_exact():
    assert truncated_root_return_expectation(2) == pytest.approx(math.sqrt(2))


def test_truncated_expectation_log_growth():
    vals = [truncated_root_return_expectation(2**e) for e in range(4, 17)]
    ratios = [v / math.log2(2**e + 1) for e, v in zip(range(4, 17), vals)]
    # ratio trend settles; late ratios do not grow
    assert ratios[-1] <= ratios[2]
    assert all(r < 1.0 for r in ratios)


def test_simulated_pmf_matches_closed_form():
    reps = 100_000
    taus = simulate_first_returns(L=44, replicates=reps, seed=7)
    for n in range(1, 11):
        p = float(first_return_pmf(n))
        emp = float((taus == 2 * n).mean())
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(emp - p) <= 4 * se, (n, emp, p)


def test_first_return_min_is_two():
    taus = simulate_first_returns(L=2, replicates=1000, seed=1)
    assert set(np.unique(taus)) == {2}


def test_root_return_probe_against_analytic():
    rep = truncated_root_return_probe(L=256, replicates=50_000, seed=3)
    assert rep.passed
    assert abs(rep.estimate - rep.bound) <= 3 * rep.stderr


def _never_returning(L):
    # +1 first, then +1, -1, +1, -1, ...: the walk stays in {1, 2}
    row = np.ones(L, dtype=np.int8)
    row[2::2] = -1
    return row


def _chunked_against_full(M, max_signs):
    calls = []

    def source(rows, lo, hi):
        calls.append((rows.copy(), lo, hi))
        return M[rows, lo:hi]

    full = first_return_batch(M)
    with mock.patch.object(probes, "_BATCH_SIGNS", max_signs):
        chunked = _first_returns_chunked(M.shape[1], M.shape[0], source)
    assert chunked.dtype == np.int64
    assert np.array_equal(chunked, full)
    for rows, lo, hi in calls:
        # only walks still away from zero at step lo are extended
        assert np.all(full[rows] > lo)
        assert rows.size * (hi - lo) <= max(max_signs, hi - lo)
    return calls


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_chunked_first_returns_match_full_horizon(data):
    L = data.draw(st.sampled_from([1, 2]) | st.integers(3, 63) | st.integers(64, 1200), label="L")
    reps = data.draw(st.integers(1, 40), label="reps")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    M = np.where(np.random.default_rng(seed).random((reps, L)) < 0.5, -1, 1).astype(np.int8)
    for r in data.draw(st.lists(st.integers(0, reps - 1), max_size=3), label="never"):
        M[r] = _never_returning(L)
    max_signs = data.draw(st.sampled_from([1, 5, 64, 300, probes._BATCH_SIGNS]), label="max_signs")
    _chunked_against_full(M, max_signs)


@pytest.mark.parametrize("L", [1, 2, 17, 63, 64, 65, 192, 200, 1000])
def test_chunked_first_returns_edge_horizons(L):
    M = np.where(substream(21, L).random((50, L)) < 0.5, -1, 1).astype(np.int8)
    M[::7] = _never_returning(L)
    M[3::7] = -_never_returning(L)  # never returns from below
    _chunked_against_full(M, 100)


def test_chunked_first_returns_split_at_the_batch_limit():
    # 70,000 walks x 64 steps is more than 2^22 signs: the first chunk
    # takes two sub-batches; L = 200 ends on a partial chunk (64 + 128 + 8)
    L, reps = 200, 70_000
    M = np.where(substream(22, 0).random((reps, L)) < 0.5, -1, 1).astype(np.int8)
    M[:100] = _never_returning(L)
    assert probes._BATCH_SIGNS == 1 << 22
    calls = _chunked_against_full(M, probes._BATCH_SIGNS)
    assert [(lo, hi) for _, lo, hi in calls][:2] == [(0, 64), (0, 64)]
    assert calls[-1][1:] == (192, 200)


def test_simulate_first_returns_draws_only_open_walks():
    drawn = []
    draw = probes._draw_signs

    def counting(rng, shape):
        drawn.append(shape[0] * shape[1])
        return draw(rng, shape)

    with mock.patch.object(probes, "_draw_signs", counting):
        taus = simulate_first_returns(L=4096, replicates=2000, seed=23)
    # E[min(tau, L)] ~ sqrt(8 L / pi) ~ 102 steps, not L = 4096
    assert sum(drawn) < 4096 * 2000 / 10
    assert taus.dtype == np.int64
    assert taus.min() == 2 and taus.max() == 4096
    assert np.all(taus[taus < 4096] % 2 == 0)


def test_draw_signs():
    signs = _draw_signs(substream(24, 3), (3, 13))  # 39 signs: not a multiple of 8
    assert signs.dtype == np.int8 and signs.shape == (3, 13) and signs.flags.c_contiguous
    assert set(np.unique(signs)) <= {-1, 1}
    assert np.array_equal(signs, _draw_signs(substream(24, 3), (3, 13)))
    assert not np.array_equal(_draw_signs(substream(24, 4), (40, 13)), _draw_signs(substream(24, 3), (40, 13)))
    # the bits of Generator.bytes, most significant first
    bits = np.unpackbits(np.frombuffer(substream(24, 3).bytes(5), dtype=np.uint8))[:39]
    assert np.array_equal(signs.ravel(), 2 * bits.astype(np.int8) - 1)
    many = _draw_signs(substream(24, 5), (1000, 1000))
    assert abs(many.mean(dtype=np.float64)) <= 5 / math.sqrt(many.size)


def test_probes_reject_bad_sizes():
    with pytest.raises(ValueError, match="L=0"):
        simulate_first_returns(L=0, replicates=10, seed=1)
    with pytest.raises(ValueError, match="replicates=0"):
        simulate_first_returns(L=8, replicates=0, seed=1)
    with pytest.raises(ValueError, match="L=0"):
        truncated_root_return_probe(L=0, replicates=10)
    with pytest.raises(ValueError, match="L=0"):
        bucketing_probe(L=0, replicates=10)
    with pytest.raises(ValueError, match="L=0"):
        martingale_transform_probe(L=0, replicates=10)
    with pytest.raises(ValueError, match="replicates=1"):
        truncated_root_return_probe(L=64, replicates=1)
    with pytest.raises(ValueError, match="replicates=1"):
        bucketing_probe(L=64, replicates=1)
    with pytest.raises(ValueError, match="replicates=1"):
        martingale_transform_probe(L=64, replicates=1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bucketing_batch_matches_trace(data):
    # random +-1 rows; small pools recycle buckets, large ones exceed L
    L = data.draw(st.integers(1, 300), label="L")
    n_pool = data.draw(st.integers(1, 8) | st.integers(1, L + 2), label="n_pool")
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=L, max_size=L), min_size=1, max_size=4))
    signs = np.where(np.array(rows), 1, -1).astype(np.int8)
    for name, code in BUCKETING_STRATEGY_CODES.items():
        sum_abs, sum_sqrt, l_eps = bucketing_batch(signs, code, n_pool)
        assert (sum_abs.dtype, sum_sqrt.dtype, l_eps.dtype) == (np.int64, np.float64, np.int64)
        for r, row in enumerate(signs):
            ref = bucketing_trace(row, name, n_pool)
            assert int(sum_abs[r]) == sum(abs(v) for v in ref["sums"].values()), name
            assert int(l_eps[r]) == ref["returns"], name
            assert math.isclose(float(sum_sqrt[r]), ref["sum_sqrt"], rel_tol=1e-12), name


def test_kernels_exact_beyond_int16_walks():
    # walks longer than 2^15 steps leave the int16 range the kernels use below it
    L = 2**15 + 5
    signs = np.ones((2, L), dtype=np.int8)
    signs[1] = -1
    assert first_return_batch(signs).tolist() == [L, L]
    for name in ("single_bucket", "fresh_bucket_on_return", "avoid_zero"):
        sum_abs, _, l_eps = bucketing_batch(signs, BUCKETING_STRATEGY_CODES[name], 4)
        assert sum_abs.tolist() == [L, L] and l_eps.tolist() == [1, 1], name
    sum_abs, _, _ = bucketing_batch(signs, BUCKETING_STRATEGY_CODES["zero_seeking"], 4)
    assert sum_abs.tolist() == [L, L]


def _packed_matches_trace(bits, n_pool):
    # the kernel on packbits of the rows equals the scalar bucketing_trace of each row's signs, for every strategy
    signs = np.where(bits, 1, -1).astype(np.int8)
    packed = np.packbits(bits, axis=1)
    for name, code in BUCKETING_STRATEGY_CODES.items():
        sum_abs, sum_sqrt, l_eps = bucketing_packed(packed, bits.shape[1], code, n_pool)
        assert (sum_abs.dtype, sum_sqrt.dtype, l_eps.dtype) == (np.int64, np.float64, np.int64)
        for r, row in enumerate(signs):
            ref = bucketing_trace(row, name, n_pool)
            assert int(sum_abs[r]) == sum(abs(v) for v in ref["sums"].values()), (name, r)
            assert int(l_eps[r]) == ref["returns"], (name, r)
            assert math.isclose(float(sum_sqrt[r]), ref["sum_sqrt"], rel_tol=1e-12), (name, r)


# rows of repeated bytes: 0x00 and 0xFF never return, 0xAA returns every second step, and
# 0x00 0xFF / 0xFF 0x00 return on the last step of a byte that starts 8 away from zero
PATTERNS = [(0x00,), (0xFF,), (0xAA,), (0x00, 0xFF), (0xFF, 0x00)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bucketing_packed_matches_trace(data):
    L = data.draw(st.integers(1, 300), label="L")
    n_pool = data.draw(st.integers(1, 8) | st.integers(1, L + 2), label="n_pool")
    reps = data.draw(st.integers(1, 5), label="reps")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    bits = np.random.default_rng(seed).random((reps, L)) < data.draw(st.sampled_from([0.5, 0.2, 0.8]), label="p")
    for r in data.draw(st.lists(st.integers(0, reps - 1), max_size=2), label="patterned"):
        pattern = data.draw(st.sampled_from(PATTERNS), label="pattern")
        bits[r] = np.unpackbits(np.resize(np.array(pattern, dtype=np.uint8), -(-L // 8)))[:L]
    _packed_matches_trace(bits, n_pool)


def test_bucketing_packed_exact_beyond_int16_walks():
    # all +1, all -1 and alternating rows of a walk longer than 2^15 steps, which takes an int32 cumsum
    L = 2**15 + 8
    bits = np.zeros((3, L), dtype=bool)
    bits[0] = True
    bits[2, ::2] = True
    assert _kernels._walk_dtype(L) == np.int32
    for n_pool in (1, 4, 181, L):
        _packed_matches_trace(bits, n_pool)
    sum_abs, _, l_eps = bucketing_packed(np.packbits(bits, axis=1), L, 0, 1)
    assert sum_abs.tolist() == [L, L, 0] and l_eps.tolist() == [1, 1, L // 2]


def test_packed_walk_tables():
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int64)
    walk = np.cumsum(2 * bits - 1, axis=1)
    assert np.array_equal(_kernels._PREFIX, walk) and _kernels._PREFIX.dtype == np.int8
    assert np.array_equal(_kernels._NET, 2 * bits.sum(axis=1) - 8) and _kernels._NET.dtype == np.int8
    assert np.array_equal(_kernels._PREFIX_MAX, walk.max(axis=1)) and _kernels._PREFIX_MAX.dtype == np.int8
    assert np.array_equal(_kernels._PREFIX_MIN, walk.min(axis=1)) and _kernels._PREFIX_MIN.dtype == np.int8
    assert _kernels._HIT.shape == (17, 256) and _kernels._HIT.dtype == np.uint8
    for d in range(-8, 9):
        assert np.array_equal(np.unpackbits(_kernels._HIT[d + 8][:, None], axis=1), walk == d), d


def test_prefix_extent_matches_cumsum_on_every_walsh_row():
    # every row j = 0..n-1 of n = 2..4096, 512 rows at a time; n = 2 and 4
    # fill part of one byte, whose padding bits must not count as steps
    for e in range(1, 13):
        n = 2**e
        for lo in range(0, n, 512):
            signs = walsh_rows(lo, min(lo + 512, n), n)
            prefix = np.cumsum(signs, axis=1, dtype=np.int16)
            reference = np.maximum(prefix.max(axis=1), -prefix.min(axis=1))
            assert np.array_equal(prefix_extent(np.packbits(signs > 0, axis=1), n), reference), (n, lo)


def test_prefix_extent_matches_cumsum_on_random_rows():
    rng = np.random.default_rng(27)
    for horizon in [*range(1, 41), 255, 1000, 4096, 2**15 + 3]:
        signs = (2 * rng.integers(0, 2, (40, horizon)) - 1).astype(np.int8)
        signs[0] = 1  # a walk that only climbs, and one that only falls
        signs[1] = -1
        prefix = np.cumsum(signs, axis=1, dtype=np.int64)
        reference = np.maximum(prefix.max(axis=1), -prefix.min(axis=1))
        assert np.array_equal(prefix_extent(np.packbits(signs > 0, axis=1), horizon), reference), horizon
    with pytest.raises(ValueError, match="2 bytes"):
        prefix_extent(np.zeros((3, 1), dtype=np.uint8), 9)


def test_draw_packed_holds_the_drawn_signs():
    for reps, L in ((3, 13), (4, 16), (5, 1), (2, 100)):
        packed = _draw_packed(substream(24, 3), (reps, L))
        assert packed.dtype == np.uint8 and packed.shape == (reps, -(-L // 8))
        signs = _draw_signs(substream(24, 3), (reps, L))
        assert np.array_equal(np.unpackbits(packed, axis=1, count=L), signs > 0)
        assert not np.unpackbits(packed, axis=1)[:, L:].any()  # pad bits are zero


def test_bucketing_packed_rejects_bad_input():
    packed = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="strategy codes 0 to 4"):
        bucketing_packed(packed, 16, 5, 2)
    for horizon in (0, 8, 17):
        with pytest.raises(ValueError, match="bytes per row"):
            bucketing_packed(packed, horizon, 0, 2)
    with pytest.raises(ValueError, match="bytes per row"):
        bucketing_packed(packed.astype(np.int8), 16, 0, 2)
    with pytest.raises(ValueError, match="n_pool"):
        bucketing_packed(packed, 16, 3, 0)


def test_bucketing_batch_rejects_bad_input():
    for bad in ([[1, 0, -1]], [[1, 2, -1]], [[-128, 1, 1]]):
        for code in BUCKETING_STRATEGY_CODES.values():
            with pytest.raises(ValueError, match="signs"):
                bucketing_batch(np.array(bad, dtype=np.int8), code, 2)
    with pytest.raises(ValueError, match="n_pool"):
        bucketing_batch(np.ones((1, 3), dtype=np.int8), 1, 0)


def test_martingale_all_ones_closed_form():
    rep = martingale_transform_probe(L=10_000, indicator_strategy="all_ones", replicates=4000, seed=5)
    # E|N| ~ sqrt(2/pi) sigma sqrt(L) for the fair-coin residual walk
    target = math.sqrt(2 / math.pi) * 0.5 * math.sqrt(10_000)
    assert abs(rep.estimate - target) / target < 0.05
    assert rep.passed


def test_martingale_thinned_variance_accounting():
    alpha = 0.25
    base = martingale_transform_probe(L=4096, indicator_strategy="all_ones", replicates=6000, seed=6)
    thin = martingale_transform_probe(
        L=4096, alpha=alpha, indicator_strategy="thinned", replicates=6000, seed=6
    )
    assert abs(thin.estimate - math.sqrt(alpha) * base.estimate) / base.estimate < 0.1


def test_martingale_adversarial_floor():
    rep = martingale_transform_probe(
        L=4096, indicator_strategy="halt_on_zero", replicates=6000, seed=7
    )
    assert rep.extras["mean_selected"] >= 4096 / 2
    assert rep.extras["scaled"] >= MARTINGALE_FLOOR
    assert rep.passed


def test_martingale_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        martingale_transform_probe(L=16, indicator_strategy="peek_ahead")
    with pytest.raises(ValueError):
        martingale_transform_probe(L=16, alpha=0.0)


def test_martingale_offcenter_mean():
    rep = martingale_transform_probe(
        L=1024, indicator_strategy="all_ones", replicates=4000, seed=8, x=Fraction(1, 4)
    )
    sigma = math.sqrt(0.25 * 0.75)
    target = math.sqrt(2 / math.pi) * sigma * math.sqrt(1024)
    assert abs(rep.estimate - target) / target < 0.07


def test_bucketing_single_bucket_closed_form():
    rep = bucketing_probe(L=4096, strategy="single_bucket", replicates=4000, seed=9)
    assert abs(rep.estimate - SINGLE_BUCKET_RHO) / SINGLE_BUCKET_RHO < 0.05
    assert rep.passed


def test_bucketing_round_robin_matches_independent_walks():
    rep = bucketing_probe(L=4096, strategy="round_robin", replicates=4000, seed=10)
    assert abs(rep.estimate - SINGLE_BUCKET_RHO) / SINGLE_BUCKET_RHO < 0.1


def test_bucketing_floor_all_strategies_small():
    for strategy in BUCKETING_STRATEGY_CODES:
        rep = bucketing_probe(L=256, strategy=strategy, replicates=2000, seed=11)
        assert rep.extras["rho_log"] >= BUCKETING_FLOOR, strategy
        assert rep.extras["returns_ok"], strategy


def test_bucketing_rejects_bad_args():
    with pytest.raises(ValueError):
        bucketing_probe(L=64, strategy="clairvoyant")
    with pytest.raises(ValueError, match="unknown bucketing strategy"):
        bucketing_probe(L=64, strategy=lambda sums, counts, t, rng: 0)
    with pytest.raises(ValueError):
        bucketing_probe(L=64, h=Fraction(3, 2))


def test_trace_excursion_bookkeeping():
    rng = substream(14, 0)
    for strategy in BUCKETING_STRATEGY_CODES:
        for _ in range(20):
            signs = np.where(rng.random(200) < 0.5, -1, 1).astype(np.int8)
            trace = bucketing_trace(signs, strategy, n_pool=4)
            # L_eps = sum_v R_v: returns equal total excursion starts
            total_exc = sum(len(v) for v in trace["excursions"].values())
            assert trace["returns"] == total_exc
            for v, count in trace["counts"].items():
                lens = trace["excursions"].get(v, [])
                assert sum(lens) == count
                # subadditivity: sqrt(n_v) <= sum_j sqrt(l_j)
                assert math.sqrt(count) <= sum(math.sqrt(l) for l in lens) + 1e-12


def test_probe_report_fields():
    rep = bucketing_probe(L=64, strategy="single_bucket", replicates=500, seed=15)
    assert rep.replicates == 500
    assert rep.parameters["L"] == 64
    assert rep.stderr > 0
