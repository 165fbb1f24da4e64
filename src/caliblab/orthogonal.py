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
  exactly representable as floats for every supported ``m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import fwht_pingpong


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
    _require_power_of_two(n)
    if not 0 <= j < n:
        raise ValueError(f"row index out of range: j={j}, n={n}")
    s = np.arange(n, dtype=np.uint64)
    parity = np.bitwise_count(np.uint64(j) & s) & 1
    return np.where(parity, -1, 1).astype(np.int8)


def walsh_rows(lo: int, hi: int, n: int) -> np.ndarray:
    """Rows psi_lo .. psi_{hi-1} of the length-``n`` Walsh system, (hi - lo, n) int8."""
    _require_power_of_two(n)
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"row range must satisfy 0 <= lo <= hi <= n, got lo={lo}, hi={hi}, n={n}")
    parity = np.bitwise_count(np.arange(lo, hi, dtype=np.uint32)[:, None] & np.arange(n, dtype=np.uint32)) & 1
    return 1 - 2 * parity.astype(np.int8)


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


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis.

    Output ``j`` equals ``sum_s values[s] * psi_j(s)``.  Integer inputs stay
    exact (int64 adds and subtracts); everything else is transformed in
    float64.  O(n log n) in log2 n constant-geometry stages between two
    work buffers; ``values`` itself is never written.
    """
    a = np.asarray(values)
    _require_power_of_two(a.shape[-1])
    return fwht_pingpong(a.astype(np.int64 if np.issubdtype(a.dtype, np.integer) else np.float64, copy=False))


@dataclass(frozen=True)
class OrthoSystem:
    """A +-1 orthogonal system of power-of-two length.

    Only the Walsh instantiation ships; anything satisfying exact
    orthogonality (H1) and +-1 values (H2) fits the same interface.
    """

    length: int
    kind: str = "walsh"

    def __post_init__(self):
        _require_power_of_two(self.length)
        if self.kind != "walsh":
            raise ValueError(f"unsupported system kind: {self.kind!r}")

    def sign(self, j: int, s: int) -> int:
        return walsh_sign(j, s, self.length)

    def row(self, j: int) -> np.ndarray:
        return walsh_row(j, self.length)

    def matrix(self) -> np.ndarray:
        return walsh_matrix(self.length)


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
        """Evaluate sum_l alpha_l psi_l(u) for all u, exactly."""
        scaled = np.rint(self.coefficients * self.m).astype(np.int64)
        return fwht(scaled) // self.m


def threshold_expansion(m: int, r: int) -> ThresholdExpansion:
    coeffs_scaled = fwht(threshold_signs(m, r))  # integer, = m * alpha
    return ThresholdExpansion(m=m, r=r, coefficients=coeffs_scaled / m)


def threshold_coefficient_table(m: int) -> np.ndarray:
    """All expansion coefficients, shape (m+1, m): row r holds alpha_.(r)."""
    _require_power_of_two(m, "grid size m")
    rows = np.stack([threshold_signs(m, r) for r in range(m + 1)])
    return fwht(rows) / m


def threshold_l1_mass(m: int) -> float:
    """sum_l max_r |alpha_l(r)|; bounded by 1 + log2(m)."""
    table = threshold_coefficient_table(m)
    return float(np.abs(table).max(axis=0).sum())


def threshold_l1_bound(m: int) -> float:
    return 1.0 + math.log2(m)
