"""Hot numeric kernels, all plain numpy.

One FWHT (``fwht_pingpong``, constant-geometry stages between two
buffers), one first-return test (``first_return_batch``) and one
loop-free bucketing routine (``bucketing_batch``).  Randomness is
always drawn outside the kernels (Philox streams, see
``environments.substream``) and passed in as arrays.

The probes built on them back acceptance criteria 05 (first-return law)
and 08 (bucketing floor); on a shared 2-core VM they take about 2 s and
8-8.5 s of a 26-29 s tier-1 run.
"""

from __future__ import annotations

import numpy as np

USE_NUMBA = False  # there is no numba backend; kept only for perfbench/run.py::environment_record


# ---------------------------------------------------------------------------
# Fast Walsh-Hadamard transform (unnormalized, constant geometry)
# ---------------------------------------------------------------------------

def fwht_pingpong(a):
    """Unnormalized Walsh-Hadamard transform of ``a`` along its last axis,
    returned in a new array; ``a`` is only read.

    Each of the log2 n stages (Pease's constant-geometry form) reads the
    even and odd columns of one buffer and writes their sums to the left
    half and their differences to the right half of the other buffer.
    Stage b pairs bit b of the input index and sends its frequency bit to
    the top, which reaches bit b after the remaining stages, so the output
    is in natural Walsh order.  Every output is the same sequence of adds
    and subtracts as in the textbook strided butterflies, so integer and
    float outputs equal theirs bit for bit.
    """
    n = a.shape[-1]
    if n == 1:
        return a.copy()
    half = n // 2
    buffers = (np.empty(a.shape, a.dtype), np.empty(a.shape, a.dtype) if n > 2 else None)
    src = a
    for stage in range(n.bit_length() - 1):
        dst = buffers[stage % 2]
        even, odd = src[..., 0::2], src[..., 1::2]
        np.add(even, odd, out=dst[..., :half])
        np.subtract(even, odd, out=dst[..., half:])
        src = dst
    return src


# there is one kernel; the old name stays only for perfbench/run.py::kernel_timings
fwht_inplace = fwht_pingpong


def _walk_dtype(steps: int):
    # a walk of `steps` +-1 steps stays within +-steps; int16 halves the
    # memory traffic of the cumsums that dominate these kernels
    return np.int16 if steps < 2**15 else np.int32


# ---------------------------------------------------------------------------
# First return time of a +-1 simple random walk, truncated at horizon L
# ---------------------------------------------------------------------------

def first_return_batch(signs, start=None):
    """Steps until each row's walk first hits 0, or the row width if it never does.

    ``start`` (int32, one per row, default all zero) is the position each
    walk starts from, so a walk can be continued chunk by chunk.
    """
    steps = signs.cumsum(axis=1, dtype=_walk_dtype(signs.shape[1]))
    hit = steps == 0 if start is None else steps == -start[:, None]
    first = hit.argmax(axis=1)
    tau = np.where(hit.any(axis=1), first + 1, signs.shape[1]).astype(np.int64)
    return tau


# ---------------------------------------------------------------------------
# Adaptive noise bucketing
#
# Strategy codes (predictable: the bucket for step t is chosen from the
# bucket sums BEFORE the step-t increment is revealed):
#   0 single_bucket           everything into bucket 0
#   1 round_robin             bucket t mod n_pool
#   2 fresh_bucket_on_return  open a new bucket whenever the current one
#                             returns to a zero sum
#   3 avoid_zero              most recently available bucket with nonzero
#                             sum; when every sum is zero, rotate through
#                             the pool (recycles buckets instead of
#                             parking on bucket 0)
#   4 zero_seeking            most recently available bucket with zero sum,
#                             bucket 0 if none has a zero sum
#
# Per replicate the kernel reports (sum_v |B_v|, sum_v sqrt(n_v), L_eps)
# with B_v kept in units of the increment h (exact integers), and
# sqrt(n_v) added sequentially in bucket order (cumsum, never the pairwise
# sum).  With +-1 steps the adaptive strategies never hold more than one
# bucket with a nonzero sum, which reduces each of them to one cumsum:
#   2, 3  the open bucket's sum is the global walk w; each zero of
#         w[:, :-1] closes an excursion, and excursion e goes to bucket e
#         (strategy 2) or e mod n_pool (strategy 3).
#   4     the first P = min(L, n_pool) steps each open a fresh bucket;
#         every later step lands on bucket 0, which carries sign[0].
# ---------------------------------------------------------------------------

def _bucketing_fixed(signs, n_pool):
    # Non-adaptive strategies: bucket b sees the sign subsequence at
    # positions b, b + P, ... (P = min(L, n_pool) buckets ever used).
    # Column b of the zero-padded (reps, rows, P) reshape is bucket b's
    # walk; padded rows repeat its final sum.
    reps, horizon = signs.shape
    pool = min(horizon, n_pool)
    rows = -(-horizon // pool)
    padded = np.pad(signs, ((0, 0), (0, rows * pool - horizon))) if horizon % pool else signs
    walk = padded.reshape(reps, rows, pool).cumsum(axis=1, dtype=_walk_dtype(rows))
    lengths = (horizon - np.arange(pool) + pool - 1) // pool
    sum_abs = np.abs(walk[:, -1, :]).sum(axis=1, dtype=np.int64)
    # steps taken from a zero bucket sum: the first step plus every step
    # following an interior return to zero, on rows below len_b - 1: every
    # row below rows - 2, and row rows - 2 of the buckets of full length;
    # the counts stay below L, and int32 sums take a third of int64's time
    zeros = (walk[:, : max(rows - 2, 0)] == 0).sum(axis=(1, 2), dtype=np.int32)
    if rows >= 2:
        zeros += (walk[:, rows - 2, : horizon - (rows - 1) * pool] == 0).sum(axis=1, dtype=np.int32)
    l_eps = pool + zeros.astype(np.int64)
    sum_sqrt = np.full(reps, np.sqrt(lengths).cumsum()[-1])
    return sum_abs, sum_sqrt, l_eps


def _bucketing_excursions(signs, n_pool):
    # Strategies 2 (n_pool = L, so never recycled) and 3: one bucket per
    # excursion of the global walk, recycled modulo n_pool.
    reps, horizon = signs.shape
    walk = signs.cumsum(axis=1, dtype=_walk_dtype(horizon))
    ends = walk == 0
    ends[:, -1] = True  # the last step closes the open excursion
    rows, cols = np.divmod(np.flatnonzero(ends), horizon)
    l_eps = np.bincount(rows, minlength=reps)
    offsets = np.cumsum(l_eps) - l_eps
    excursion = np.arange(rows.size) - offsets[rows]
    starts = np.empty_like(cols)
    starts[1:] = cols[:-1]
    starts[offsets] = -1
    width = min(n_pool, int(l_eps.max()))
    counts = np.bincount(rows * width + excursion % n_pool, weights=cols - starts, minlength=reps * width)
    sum_sqrt = np.sqrt(counts.reshape(reps, width)).cumsum(axis=1)[:, -1]
    return np.abs(walk[:, -1]).astype(np.int64), sum_sqrt, l_eps.astype(np.int64)


def _bucketing_zero_seeking(signs, n_pool):
    reps, horizon = signs.shape
    fresh = min(horizon, n_pool)
    first = signs[:, 0].astype(np.int64)
    # bucket 0's walk over the steps after the fresh ones, offset by sign[0]
    tail = signs[:, fresh:].cumsum(axis=1, dtype=_walk_dtype(horizon))
    final = first + (tail[:, -1] if horizon > fresh else 0)
    l_eps = fresh + (tail[:, :-1] == -first.astype(tail.dtype)[:, None]).sum(axis=1, dtype=np.int64)
    # bucket 0 holds sign[0] and every later step; buckets 1..P-1 one step
    counts = np.r_[horizon - fresh + 1, np.ones(fresh - 1)]
    sum_sqrt = np.full(reps, np.sqrt(counts).cumsum()[-1])
    return np.abs(final) + (fresh - 1), sum_sqrt, l_eps


def bucketing_batch(signs, strategy, n_pool):
    """(sum_abs, sum_sqrt, l_eps) per row of a +-1 sign batch (reps, L)."""
    # three reductions and no full-size temporaries: an elementwise
    # |sign| != 1 test costs about 15% of the kernel
    if signs.size == 0 or signs.min() < -1 or signs.max() > 1 or np.count_nonzero(signs) < signs.size:
        raise ValueError("bucketing needs a nonempty batch of +-1 signs")
    if n_pool < 1:
        raise ValueError(f"bucketing needs n_pool >= 1, got {n_pool}")
    if strategy in (0, 1):
        return _bucketing_fixed(signs, n_pool if strategy == 1 else 1)
    if strategy == 4:
        return _bucketing_zero_seeking(signs, n_pool)
    return _bucketing_excursions(signs, n_pool if strategy == 3 else signs.shape[1])


BUCKETING_STRATEGY_CODES = {
    "single_bucket": 0,
    "round_robin": 1,
    "fresh_bucket_on_return": 2,
    "avoid_zero": 3,
    "zero_seeking": 4,
}
