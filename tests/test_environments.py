import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblab.environments import (
    ContextRecord,
    grid_section3,
    grid_section4,
    icbrt,
    sample_bernoulli_env,
    sample_bernoulli_on_grid,
    sample_bit_env,
    sample_rademacher_env,
    section3_grid_count,
    section4_grid_count,
    substream,
)


def test_icbrt_exact_at_cubes():
    assert icbrt(64) == 4
    assert icbrt(63) == 3
    assert icbrt(1) == 1
    assert icbrt(0) == 0
    for n in range(1, 3000):
        k = icbrt(n)
        assert k**3 <= n < (k + 1) ** 3


def test_grid_counts():
    assert section3_grid_count(2**10) == 10
    assert section3_grid_count(2**18) == 64
    assert section4_grid_count(64) == 4  # T^(1/3) = 4 exactly; float cbrt would give 2
    assert section4_grid_count(2**14) == 16


def test_grid_section3_example():
    grid = grid_section3(8)
    assert grid == [Fraction(j, 8) for j in range(2, 7)]
    assert len(grid) == 5
    with pytest.raises(ValueError):
        grid_section3(4)


def test_grid_section3_size_bound():
    for m in range(8, 200):
        grid = grid_section3(m)
        assert 2 * len(grid) >= m - 1
        assert all(Fraction(1, 4) <= x <= Fraction(3, 4) for x in grid)
        assert grid == sorted(grid)


def test_grid_section4_examples():
    assert grid_section4(2) == [Fraction(1, 4), Fraction(3, 4)]
    assert grid_section4(4) == [Fraction(1, 4), Fraction(5, 12), Fraction(7, 12), Fraction(3, 4)]
    with pytest.raises(ValueError):
        grid_section4(3)


def test_grid_section4_spacing_exact():
    for m in (2, 4, 8, 32):
        grid = grid_section4(m)
        step = Fraction(1, 2 * (m - 1))
        for a, b in zip(grid, grid[1:]):
            assert b - a == step


def test_bernoulli_round_robin_counts():
    traj = sample_bernoulli_env(T=10, m=8, seed=1)
    assert traj.grid_idx.tolist() == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]
    assert traj.context_counts().tolist() == [2, 2, 2, 2, 2]
    traj = sample_bernoulli_env(T=12, m=8, seed=1)
    counts = traj.context_counts()
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 12


@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 300), m=st.integers(8, 40), seed=st.integers(0, 2**16), stream=st.integers(0, 3))
def test_samplers_match_per_round_reference(T, m, seed, stream):
    # the reference divides each round's context numerator and selects with np.where
    def reference(num, den):
        idx = np.arange(T, dtype=np.int64) % len(num)
        x_num = num[idx]
        heads = substream(seed, stream).random(T) < (x_num / den)
        return idx, x_num, np.where(heads, den, 0).astype(np.int64)

    grid = grid_section3(m)
    num = np.array([int(x * m) for x in grid], dtype=np.int64)
    on_grid = sorted(grid[:: 1 + seed % 3] + [Fraction(5, 7)])
    den = math.lcm(7, *(x.denominator for x in on_grid))
    on_num = np.array([int(x * den) for x in on_grid], dtype=np.int64)
    for traj, (idx, x_num, y_num) in (
        (sample_bernoulli_env(T, m, seed, stream), reference(num, m)),
        (sample_bernoulli_on_grid(on_grid, T, seed, stream), reference(on_num, den)),
    ):
        for got, want in ((traj.grid_idx, idx), (traj.x_num, x_num), (traj.y_num, y_num)):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
    if T >= 2:
        traj = sample_rademacher_env(T, seed, m=4, stream=stream)
        xi = np.where(substream(seed, stream).random(T) < 0.5, -1, 1).astype(np.int64)
        assert traj.y_num.dtype == np.int64
        assert np.array_equal(traj.y_num, traj.x_num + 3 * xi)


def test_bernoulli_outcomes_binary_and_mean():
    T = 100_000
    traj = sample_bernoulli_env(T=T, m=8, seed=42)
    assert set(np.unique(traj.y_num)) <= {0, traj.den}
    for i, x in enumerate(traj.grid):
        mask = traj.grid_idx == i
        t_x = int(mask.sum())
        emp = traj.y_num[mask].sum() / (traj.den * t_x)
        tol = 3 * np.sqrt(float(x) * (1 - float(x)) / t_x)
        assert abs(emp - float(x)) <= tol
        assert Fraction(3, 16) <= x * (1 - x) <= Fraction(1, 4)


def test_rademacher_env():
    traj = sample_rademacher_env(T=64, seed=3)
    assert traj.params["m"] == 4
    quarter = traj.den // 4
    diff = traj.y_num - traj.x_num
    assert set(np.unique(diff)) == {-quarter, quarter}
    assert traj.y_num.min() >= 0 and traj.y_num.max() <= traj.den
    big = sample_rademacher_env(T=100_000, seed=5)
    xi_mean = (big.y_num - big.x_num).sum() / (big.den / 4) / big.T
    assert abs(xi_mean) <= 3 / np.sqrt(big.T)


def test_rademacher_context_has_time():
    traj = sample_rademacher_env(T=8, seed=0)
    ctx = traj.context(2)
    assert ctx.time == 3
    assert ctx.mean == traj.grid[traj.grid_idx[2]]


def test_bit_env_mu():
    ctx = ContextRecord(bits=(1, 0))
    assert ctx.bit_value() == 2
    assert ctx.label_mean() == Fraction(5, 8)
    traj = sample_bit_env(T=1000, k=2, seed=9)
    for t in range(5):
        c = traj.context(t)
        assert traj.outcome(t) == c.label_mean()
    # midpoints of J_val: odd numerator over 2N
    assert all(f == Fraction(2 * v + 1, 8) for v, f in enumerate(traj.grid))


def test_bit_env_uniformity():
    T, k = 100_000, 3
    traj = sample_bit_env(T=T, k=k, seed=11)
    n = 1 << k
    counts = np.bincount(traj.grid_idx, minlength=n)
    p = 1 / n
    tol = 3 * np.sqrt(p * (1 - p) * T)
    assert np.all(np.abs(counts - T * p) <= tol)


def test_regeneration_bit_identical():
    for sample, kwargs in [
        (sample_bernoulli_env, dict(T=500, m=11, seed=77)),
        (sample_rademacher_env, dict(T=500, seed=77)),
        (sample_bit_env, dict(T=500, k=3, seed=77)),
    ]:
        a = sample(**kwargs)
        b = sample(**kwargs)
        assert np.array_equal(a.y_num, b.y_num)
        assert np.array_equal(a.grid_idx, b.grid_idx)
        c = sample(**{**kwargs, "seed": 78})
        assert not np.array_equal(a.y_num, c.y_num)


def test_substreams_are_independent_of_order():
    a = substream(5, 0).random(4)
    b = substream(5, 1).random(4)
    a2 = substream(5, 0).random(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_contexts_in_range_and_denominators():
    traj = sample_bernoulli_env(T=100, m=9, seed=0)
    assert all(Fraction(1, 4) <= x <= Fraction(3, 4) for x in traj.grid)
    assert traj.den == 9
    traj4 = sample_rademacher_env(T=100, seed=0, m=8)
    assert traj4.den == 4 * 7


def test_context_record_validation():
    with pytest.raises(ValueError):
        ContextRecord()
    with pytest.raises(ValueError):
        ContextRecord(mean=Fraction(1, 2), bits=(0, 1))


def test_dump(tmp_path):
    traj = sample_bernoulli_env(T=3, m=8, seed=2)
    out = tmp_path / "traj.txt"
    traj.dump(out)
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    rnd, ctx, y = lines[0].split("\t")
    assert rnd == "1" and ctx == "1/4" and y in {"0", "1"}
    bits = sample_bit_env(T=2, k=3, seed=2)
    out2 = tmp_path / "bits.txt"
    bits.dump(out2)
    rnd, ctx, y = out2.read_text().splitlines()[0].split("\t")
    assert len(ctx) == 3 and set(ctx) <= {"0", "1"}
