"""Walsh/Hadamard systems: signs, transforms, prefix bounds, threshold expansions.

Conventions used throughout the package:

* Walsh indexing pairs least-significant bits: bit ``b`` of ``j`` multiplies
  bit ``b`` of ``s``, i.e. ``psi_j(s) = (-1)^<j,s>_2``.  Hadamard orderings
  vary between references, so this is fixed here once.
* Transform coefficients are unnormalized inner products ``sum_s A[s] psi_j(s)``
  (no ``1/n`` factor); callers apply whatever normalization their identity
  needs.
* Signs and prefix sums are integer arithmetic.  Threshold-expansion
  coefficients are dyadic rationals ``k/m`` with ``m`` a power of two, hence
  exactly representable as floats for every supported ``m``; the checks
  keep them as the integers ``k``.
* A block of Walsh rows of length n > 128 is built as a Kronecker product,
  ``psi_j(s) = psi_{j // 128}(s // 128) * psi_{j % 128}(s % 128)``: a small
  popcount block times rows of one cached, read-only 128 x 128 tile.
  Requests under 8,192 entries (a single row up to n = 4096) keep one
  popcount per entry, which is cheaper there.
* Packed Walsh rows (``walsh_rows_packed``) are (rows, ceil(n / 8)) uint8,
  ``np.packbits`` order: most significant bit first, 1 for +1 and 0 for -1,
  and the padding bits of a row shorter than a byte (n = 2, 4) are 0.  Byte
  k of row j is the byte pattern of ``psi_{j & 7}`` on 0..7, flipped where
  ``<j >> 3, k>_2`` is odd.  The identity suite's prefix scan walks them
  with ``_kernels.prefix_extent``.
* ``fwht`` picks its output dtype from the input dtype, never from the
  data: int8 and int16 inputs of length n <= 2^15 run in int32 (every
  partial sum is at most n * 2^15 <= 2^30), other integers in int64, and
  integer outputs are int64.  A bool (0/1) input comes back as float32,
  every coefficient an integer of magnitude at most n, exact to n = 2^24.
  Up to n = 2^14 it is two float32 matrix products with leading
  sub-blocks of the cached tile, the Kronecker split above:
  Y = H_{n/b} X H_b for X the (n/b, b) reshape of a row, b = min(n, 128).
  Every partial sum is an integer of magnitude at most n <= 2^14, so the
  products are exact whatever summation order BLAS picks.  A longer bool
  input runs the integer stages, as int8 does, and is cast; one longer
  than 2^24 is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import fwht_pingpong

# rows per block for row-blocked Walsh and threshold scans: memory
# O(128 n), never O(n^2), and faster than 256-row blocks for the prefix scans
BLOCK_ROWS = 128

# side of the cached Hadamard tile that longer Walsh rows are built from
TILE = 128


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _require_power_of_two(n: int, what: str = "length") -> None:
    if not isinstance(n, (int, np.integer)) or not is_power_of_two(int(n)):
        raise ValueError(f"{what} must be a positive power of two, got {n!r}")


def walsh_sign(j: int, s: int, n: int) -> int:
    """Sign psi_j(s) in {+1, -1} of the length-``n`` Walsh system."""
    _require_power_of_two(n)
    if not (0 <= j < n and 0 <= s < n):
        raise ValueError(f"indices must lie in [0, {n}), got j={j}, s={s}")
    return -1 if (int(j) & int(s)).bit_count() & 1 else 1


def walsh_row(j: int, n: int) -> np.ndarray:
    """Row psi_j(0..n-1) as an int8 array."""
    return walsh_rows(j, j + 1, n)[0]


def _popcount_rows(rows: np.ndarray, n: int) -> np.ndarray:
    parity = np.bitwise_count(rows[:, None] & np.arange(n, dtype=np.uint32)) & 1
    return 1 - 2 * parity.astype(np.int8)


_H_TILE = _popcount_rows(np.arange(TILE, dtype=np.uint32), TILE)
_H_TILE.flags.writeable = False
# the tile as the operand of the bool transform's float32 matrix products
_H_TILE_F32 = _H_TILE.astype(np.float32)
_H_TILE_F32.flags.writeable = False


def _row_range(lo: int, hi: int, n: int) -> np.ndarray:
    _require_power_of_two(n)
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"row range must satisfy 0 <= lo <= hi <= n, got lo={lo}, hi={hi}, n={n}")
    return np.arange(lo, hi, dtype=np.uint32)


def walsh_rows(lo: int, hi: int, n: int) -> np.ndarray:
    """Rows psi_lo .. psi_{hi-1} of the length-``n`` Walsh system, (hi - lo, n) int8."""
    rows = _row_range(lo, hi, n)
    # a popcount per entry is cheaper below about 8k entries (a single row
    # up to n = 4096); above, the tile product is 2-5x faster
    if n <= TILE or (hi - lo) * n < 1 << 13:
        return _popcount_rows(rows, n)
    # psi_j(s) = psi_{j // TILE}(s // TILE) * psi_{j % TILE}(s % TILE)
    high = _popcount_rows(rows // TILE, n // TILE)
    out = np.empty((hi - lo, n // TILE, TILE), dtype=np.int8)
    np.multiply(high[:, :, None], _H_TILE[rows % TILE][:, None, :], out=out)
    return out.reshape(hi - lo, n)


# packed psi_j(0..7) of j = 0..7, most significant bit first, 1 for +1
_BYTE_ROWS = np.packbits(_H_TILE[:8, :8] > 0, axis=1)[:, 0]


def walsh_rows_packed(lo: int, hi: int, n: int) -> np.ndarray:
    """Rows psi_lo .. psi_{hi-1} of the length-``n`` Walsh system as packed
    sign bytes, (hi - lo, ceil(n / 8)) uint8: ``packbits(walsh_rows(lo, hi, n) > 0)``."""
    rows = _row_range(lo, hi, n)
    if n < 8:
        # the one byte's padding bits stay 0, as packbits leaves them
        return (_BYTE_ROWS[rows] & np.uint8(0xFF << (8 - n) & 0xFF))[:, None]
    # psi_j(8k + i) = psi_{j >> 3}(k) * psi_{j & 7}(i): byte k of row j is the
    # pattern of j & 7, flipped where <j >> 3, k>_2 is odd; rows sharing j >> 3
    # share their flips
    high = np.arange(lo >> 3, (hi + 7) >> 3, dtype=np.uint32)
    flips = np.negative((np.bitwise_count(high[:, None] & np.arange(n // 8, dtype=np.uint32)) & 1).astype(np.uint8))
    return flips[(rows >> 3) - (lo >> 3)] ^ _BYTE_ROWS[rows & 7][:, None]


def walsh_matrix(n: int) -> np.ndarray:
    """Full n x n Walsh sign matrix (int8)."""
    return walsh_rows(0, n, n)


def trailing_zeros(j: int) -> int:
    if j <= 0:
        raise ValueError(f"trailing_zeros needs a positive integer, got {j}")
    return (j & -j).bit_length() - 1


def prefix_extremum(j: int, n: int) -> tuple[int, int]:
    """Trailing-zero count of ``j`` and max_{r<=n} |sum_{s<r} psi_j(s)|.

    The maximum is found by exhaustive prefix scan; it never exceeds
    ``2**tz(j)`` because psi_j cancels over every dyadic superblock of
    length ``2**(tz(j)+1)``.  ``j = 0`` is rejected: the constant row has
    linearly growing prefix sums and is outside the bound's scope.
    """
    _require_power_of_two(n)
    if not 1 <= j < n:
        raise ValueError(f"prefix bound applies to 1 <= j < n, got j={j}, n={n}")
    tz = trailing_zeros(j)
    prefix = np.cumsum(walsh_row(j, n), dtype=np.int64)
    return tz, int(np.abs(prefix).max())


def _fwht_bool(a: np.ndarray) -> np.ndarray:
    # psi_j(s) = psi_{j // b}(s // b) * psi_{j % b}(s % b), so a row reshaped
    # to X (n/b, b) transforms to H_{n/b} X H_b: every partial sum of either
    # product is an integer of magnitude at most n <= 2^14, exact in float32
    n = a.shape[-1]
    b = min(n, TILE)
    x = a.reshape(-1, n // b, b).astype(np.float32)
    if n > b:
        x = np.matmul(_H_TILE_F32[: n // b, : n // b], x)
    x = x.reshape(-1, b) @ _H_TILE_F32[:b, :b]
    return x.reshape(a.shape)


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis.

    Output ``j`` equals ``sum_s values[s] * psi_j(s)``.  Integer inputs
    stay exact and come back as int64; everything else but bool is
    transformed in float64.  A bool input comes back as float32, exact
    because no coefficient exceeds n <= 2^24 in magnitude: up to n = 2^14
    it is two float32 matrix products with the cached tile
    (Y = H_{n/b} X H_b), exact because no partial sum exceeds n either; a
    longer one runs the integer stages as int8 does and is cast, and one
    longer than 2^24 is refused.  An int8 or int16 input of length
    n <= 2^15 is transformed in int32, since every partial sum is at most
    n * 2^15 <= 2^30; any other integer input in int64.  Those take
    O(n log n) in log2 n constant-geometry stages between two work
    buffers.  ``values`` itself is never written.
    """
    a = np.asarray(values)
    n = a.shape[-1]
    _require_power_of_two(n)
    if a.dtype == np.bool_:
        if n <= TILE * TILE:
            return _fwht_bool(a)
        if n > 1 << 24:
            raise ValueError(f"a bool transform of length {n} > 2^24 is not exact in float32")
        # the integer stages: int32 up to n = 2^15, as for int8, then int64
        return fwht_pingpong(a.astype(np.int32 if n <= 1 << 15 else np.int64)).astype(np.float32)
    if a.dtype in (np.int8, np.int16) and n <= 1 << 15:
        return fwht_pingpong(a.astype(np.int32)).astype(np.int64)
    return fwht_pingpong(a.astype(np.int64 if np.issubdtype(a.dtype, np.integer) else np.float64, copy=False))


def threshold_signs(m: int, r: int) -> np.ndarray:
    """f_r on {0..m-1}: +1 for u <= r-1, -1 for u >= r (int64)."""
    _require_power_of_two(m, "grid size m")
    if not 0 <= r <= m:
        raise ValueError(f"threshold rank must satisfy 0 <= r <= m, got r={r}, m={m}")
    f = np.full(m, -1, dtype=np.int64)
    f[:r] = 1
    return f


@dataclass(frozen=True)
class ThresholdExpansion:
    """Walsh coefficients of the discrete threshold sign pattern f_r.

    ``coefficients[l] = (1/m) sum_u f_r(u) psi_l(u)``, dyadic rationals
    stored exactly in float64.  Reconstruction is exact on all of
    {0..m-1} and the family satisfies
    ``sum_l max_r |alpha_l(r)| <= 1 + log2(m)``.
    """

    m: int
    r: int
    coefficients: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Evaluate sum_l alpha_l psi_l(u) for all u, exactly.  The scalar
        reference the reconstruction tests hold to ``threshold_signs``; the
        identity suite checks every rank block at once."""
        scaled = np.rint(self.coefficients * self.m).astype(np.int64)
        return fwht(scaled) // self.m


def threshold_expansion(m: int, r: int) -> ThresholdExpansion:
    coeffs_scaled = fwht(threshold_signs(m, r))  # integer, = m * alpha
    return ThresholdExpansion(m=m, r=r, coefficients=coeffs_scaled / m)


def threshold_blocks(m: int):
    """Every rank r = 0..m, ``BLOCK_ROWS`` ranks at a time: yields the
    (rows, m) int8 sign block of f_r and its integer coefficients m * alpha_l(r)
    (int64, |m * alpha| <= m)."""
    _require_power_of_two(m, "grid size m")
    u = np.arange(m)
    for lo in range(0, m + 1, BLOCK_ROWS):
        ranks = np.arange(lo, min(lo + BLOCK_ROWS, m + 1))
        signs = np.where(u < ranks[:, None], np.int8(1), np.int8(-1))
        yield signs, fwht(signs)
