import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblab.orthogonal import (
    OrthoSystem,
    fwht,
    is_power_of_two,
    prefix_extremum,
    threshold_expansion,
    threshold_l1_bound,
    threshold_l1_mass,
    threshold_signs,
    trailing_zeros,
    walsh_matrix,
    walsh_row,
    walsh_sign,
)


def brute_force_transform(values):
    """O(n^2) oracle: coefficient j = <values, psi_j> via the full sign matrix."""
    n = len(values)
    return walsh_matrix(n).astype(np.float64) @ np.asarray(values, dtype=np.float64)


def test_walsh_sign_examples():
    assert walsh_sign(0, 5, 8) == 1  # psi_0 is identically +1
    assert walsh_sign(1, 1, 4) == -1  # <01,01>_2 = 1
    assert walsh_sign(3, 3, 4) == 1  # <11,11>_2 = 2 = 0 mod 2


def test_walsh_sign_validation():
    with pytest.raises(ValueError):
        walsh_sign(0, 0, 3)
    with pytest.raises(ValueError):
        walsh_sign(4, 0, 4)
    with pytest.raises(ValueError):
        walsh_sign(0, -1, 4)


def test_walsh_row_matches_scalar():
    n = 32
    for j in (0, 1, 5, 31):
        row = walsh_row(j, n)
        assert row.tolist() == [walsh_sign(j, s, n) for s in range(n)]


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
def test_orthogonality_exact(n):
    w = walsh_matrix(n).astype(np.int64)
    gram = w @ w.T
    assert np.array_equal(gram, n * np.eye(n, dtype=np.int64))


def test_prefix_extremum_examples():
    assert prefix_extremum(1, 8) == (0, 1)  # alternating +-+-...
    assert prefix_extremum(2, 4) == (1, 2)  # ++--
    tz, mx = prefix_extremum(4, 8)  # ++++----
    assert (tz, mx) == (2, 4)
    assert mx <= 2**tz


def test_prefix_extremum_rejects_constant_row():
    with pytest.raises(ValueError):
        prefix_extremum(0, 8)
    with pytest.raises(ValueError):
        prefix_extremum(8, 8)


def test_trailing_zeros():
    assert trailing_zeros(1) == 0
    assert trailing_zeros(12) == 2
    with pytest.raises(ValueError):
        trailing_zeros(0)


def test_fwht_unit_vector():
    a = np.zeros(4)
    a[0] = 1.0
    assert fwht(a).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_fwht_row_orthogonality():
    a = walsh_row(2, 4)
    assert fwht(a).tolist() == [0, 0, 4, 0]


def test_fwht_matches_brute_force():
    rng = np.random.default_rng(7)
    for n in (2, 8, 64, 256):
        v = rng.standard_normal(n)
        np.testing.assert_allclose(fwht(v), brute_force_transform(v), rtol=1e-12, atol=1e-12)


def test_fwht_integer_exact():
    rng = np.random.default_rng(8)
    v = rng.integers(-1000, 1000, size=128)
    out = fwht(v)
    assert out.dtype == np.int64
    assert np.array_equal(out, brute_force_transform(v).astype(np.int64))


def dense_transform(x, w):
    """x @ w.T along the last axis, 512 rows of ``w`` at a time, in x's dtype."""
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty(flat.shape, dtype=x.dtype)
    for lo in range(0, len(w), 512):
        out[:, lo : lo + 512] = flat @ w[lo : lo + 512].T.astype(x.dtype)
    return out.reshape(x.shape)


def strided_butterfly(a):
    """The textbook in-place radix-2 butterflies, pairing bit 0 first."""
    n, h = a.shape[-1], 1
    while h < n:
        b = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        b[..., 0, :], b[..., 1, :] = b[..., 0, :] + b[..., 1, :], b[..., 0, :] - b[..., 1, :]
        h *= 2
    return a


@pytest.mark.parametrize("log_n", range(13))
def test_fwht_matches_dense_product(log_n):
    # odd and even log2 n leave the result in either work buffer
    n = 2**log_n
    rng = np.random.default_rng(log_n)
    w = walsh_matrix(n)
    wide = rng.integers(-(2**20), 2**20, size=(2, 3, 2 * n))
    column_major = rng.integers(-(2**20), 2**20, size=(n, 3)).T
    inputs = [wide[0, 0, :n], wide[0, :, :n], wide[:, :, n:], wide[:, :, ::2], column_major]
    assert n == 1 or not (column_major.flags.c_contiguous or wide[:, :, ::2].flags.c_contiguous)
    before = [x.copy() for x in inputs]
    for x in inputs:
        out = fwht(x)
        assert out.dtype == np.int64 and out.shape == x.shape
        assert np.array_equal(out, dense_transform(x, w))
        # floats on a 1/8 grid: every partial sum is exact in float64, in any order
        eighths = x / 8.0
        out = fwht(eighths)
        assert out.dtype == np.float64 and not np.shares_memory(out, eighths)
        assert np.array_equal(out, dense_transform(eighths, w))
        gauss = rng.standard_normal(x.shape)
        assert np.array_equal(fwht(gauss), strided_butterfly(gauss.copy()))
    assert all(np.array_equal(x, b) for x, b in zip(inputs, before))


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError):
        fwht(np.ones(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31))
def test_fwht_parseval_property(log_n, seed):
    n = 2**log_n
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    out = fwht(v)
    lhs = np.sum(out**2)
    rhs = n * np.sum(v**2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_fwht_matrix_rows():
    rng = np.random.default_rng(11)
    block = rng.standard_normal((5, 16))
    out = fwht(block)
    for i in range(5):
        np.testing.assert_allclose(out[i], fwht(block[i]))


def test_threshold_signs():
    assert threshold_signs(4, 0).tolist() == [-1, -1, -1, -1]
    assert threshold_signs(4, 2).tolist() == [1, 1, -1, -1]
    with pytest.raises(ValueError):
        threshold_signs(4, 5)
    with pytest.raises(ValueError):
        threshold_signs(3, 1)


def test_threshold_expansion_examples():
    assert threshold_expansion(4, 0).coefficients.tolist() == [-1.0, 0.0, 0.0, 0.0]
    assert threshold_expansion(4, 4).coefficients.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert threshold_expansion(4, 2).coefficients.tolist() == [0.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("m", [2, 4, 16, 128])
def test_threshold_reconstruction_exact(m):
    for r in range(m + 1):
        exp = threshold_expansion(m, r)
        assert np.array_equal(exp.reconstruct(), threshold_signs(m, r))


@pytest.mark.parametrize("m", [2, 8, 64, 512])
def test_threshold_l1_mass_bound(m):
    assert threshold_l1_mass(m) <= threshold_l1_bound(m) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.data())
def test_threshold_reconstruction_property(log_m, data):
    m = 2**log_m
    r = data.draw(st.integers(0, m))
    exp = threshold_expansion(m, r)
    assert np.array_equal(exp.reconstruct(), threshold_signs(m, r))


def test_ortho_system():
    sys = OrthoSystem(8)
    assert sys.sign(1, 1) == -1
    assert np.array_equal(sys.row(3), walsh_row(3, 8))
    with pytest.raises(ValueError):
        OrthoSystem(12)
    with pytest.raises(ValueError):
        OrthoSystem(8, kind="fourier")


def test_is_power_of_two():
    assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
