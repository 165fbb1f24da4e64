"""Hot numeric kernels, all plain numpy.

One FWHT (``fwht_pingpong``, constant-geometry stages between two
buffers), one first-return test (``first_return_batch``), and two walks
of packed sign bytes that share per-byte tables: the loop-free noise
bucketing kernel (``bucketing_packed``) for all five strategies, where
round robin, whose buckets stride across bytes, unpacks its rows inside
it, and the largest |prefix sum| of each row (``prefix_extent``), which
the identity suite's Walsh prefix scan runs on.  ``bucketing_batch`` is
the bucketing kernel's checked front door for int8 +-1 rows, and
``probes.bucketing_trace`` the scalar reference it is checked against.
Randomness is always drawn outside the kernels (Philox streams, see
``environments.substream``) and passed in as arrays.

The probes built on them back acceptance criteria 05 (first-return law)
and 08 (bucketing floor).
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
# bucket with a nonzero sum, which reduces each of them to one walk:
#   2, 3  the open bucket's sum is the global walk w; each zero of
#         w[:, :-1] closes an excursion, and excursion e goes to bucket e
#         (strategy 2) or e mod n_pool (strategy 3).
#   4     the first P = min(L, n_pool) steps each open a fresh bucket;
#         every later step lands on bucket 0, which carries sign[0], so
#         bucket 0 returns where w[t] = w[P - 1] - sign[0], P <= t < L - 1.
# ---------------------------------------------------------------------------

def _bucketing_round_robin(signs, n_pool):
    # Bucket b sees the sign subsequence at positions b, b + P, ...
    # (P = min(L, n_pool) buckets ever used).  Column b of the zero-padded
    # (reps, rows, P) reshape is bucket b's walk; padded rows repeat its
    # final sum.
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


def _excursion_roots(rows, cols, l_eps, n_pool):
    # sum_v sqrt(n_v) when excursion e of row r ends at step cols[i] (rows,
    # cols in row-major order, l_eps ends per row) and goes to bucket e mod n_pool
    reps = l_eps.size
    offsets = np.cumsum(l_eps) - l_eps
    excursion = np.arange(rows.size) - offsets[rows]
    starts = np.empty_like(cols)
    starts[1:] = cols[:-1]
    starts[offsets] = -1
    width = min(n_pool, int(l_eps.max()))
    counts = np.bincount(rows * width + excursion % n_pool, weights=cols - starts, minlength=reps * width)
    return np.sqrt(counts.reshape(reps, width)).cumsum(axis=1)[:, -1]


def _zero_seeking_roots(reps, horizon, fresh):
    # bucket 0 holds sign[0] and every later step; buckets 1..P-1 one step
    counts = np.r_[horizon - fresh + 1, np.ones(fresh - 1)]
    return np.full(reps, np.sqrt(counts).cumsum()[-1])


# ---------------------------------------------------------------------------
# Packed sign bytes
#
# A row holds L steps in ceil(L/8) bytes, most significant bit first
# (1 -> +1, 0 -> -1), and the walk is taken one byte at a time: _NET is a
# byte's net step, _PREFIX[b, k] the walk after its steps 0..k,
# _PREFIX_MAX[b] and _PREFIX_MIN[b] its extremes over k = 0..7, and
# _HIT[d + 8, b] the mask (first step in the top bit) of the steps k with
# _PREFIX[b, k] == d.  The walk can only sit on a level inside a byte that
# starts within +-8 of it, so only those bytes are looked at.  Round robin
# strides across bytes: it unpacks its rows to +-1 signs instead.
# ---------------------------------------------------------------------------

_PREFIX = np.cumsum(
    2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).view(np.int8) - 1, axis=1, dtype=np.int8
)
_NET = _PREFIX[:, -1].copy()
_HIT = np.packbits(_PREFIX == np.arange(-8, 9)[:, None, None], axis=2)[:, :, 0]
_PREFIX_MAX = _PREFIX.max(axis=1)
_PREFIX_MIN = _PREFIX.min(axis=1)


def _byte_starts(packed, horizon):
    # the walk before each byte, in the dtype of a walk of `horizon` steps
    starts = np.zeros(packed.shape, dtype=_walk_dtype(horizon))
    np.cumsum(_NET.take(packed[:, :-1]), axis=1, dtype=starts.dtype, out=starts[:, 1:])
    return starts


def _walk_at(packed, starts, t):
    # each row's walk after steps 0..t, as int64
    return starts[:, t // 8].astype(np.int64) + _PREFIX[packed[:, t // 8], t % 8]


def _level_hits(packed, starts, level, lo, hi):
    # (rows, steps) with lo <= step < hi at which a row's walk equals its
    # level (int64, one per row), in row-major order
    width = starts.shape[1]
    bound = np.iinfo(starts.dtype)
    near = (starts >= np.maximum(level - 8, bound.min).astype(starts.dtype)[:, None]) & (
        starts <= np.minimum(level + 8, bound.max).astype(starts.dtype)[:, None]
    )
    near[:, : lo // 8] = False
    near[:, -(-hi // 8) :] = False
    at = np.flatnonzero(near)
    # _HIT[d + 8, byte] through the flat table: a 2-D gather costs 1.6x more
    masks = _HIT.take((level[at // width] - starts.ravel()[at] + 8) * 256 + packed.ravel()[at])
    some = masks != 0
    # unpackbits gives 0/1 bytes; as bool, flatnonzero runs 3x faster
    bits = np.flatnonzero(np.unpackbits(masks[some]).view(bool))
    rows, cols = np.divmod(at[some][bits >> 3], width)
    steps = 8 * cols + (bits & 7)
    inside = (steps >= lo) & (steps < hi)
    return rows[inside], steps[inside]


def prefix_extent(packed, horizon):
    """max |walk| over the first ``horizon`` steps of each row of packed sign
    bytes (rows, ceil(horizon / 8)), in the walk dtype of ``horizon`` steps.

    The walk's extremes inside a byte are its start plus the byte's
    ``_PREFIX_MAX`` or ``_PREFIX_MIN``; a last byte holding fewer than 8
    steps takes its extremes over those steps alone, never its padding.
    """
    if packed.dtype != np.uint8 or horizon < 1 or packed.shape[1] != -(-horizon // 8):
        raise ValueError(f"a prefix scan needs uint8 rows of {-(-horizon // 8)} bytes")
    starts = _byte_starts(packed, horizon)
    top = starts + _PREFIX_MAX.take(packed)
    bottom = starts + _PREFIX_MIN.take(packed)
    if tail := horizon % 8:
        last = _PREFIX[packed[:, -1], :tail]
        top[:, -1] = starts[:, -1] + last.max(axis=1)
        bottom[:, -1] = starts[:, -1] + last.min(axis=1)
    return np.maximum(top.max(axis=1), -bottom.min(axis=1))


def bucketing_packed(packed, horizon, strategy, n_pool):
    """(sum_abs, sum_sqrt, l_eps) of the first ``horizon`` steps of each row
    of packed sign bytes (reps, ceil(horizon / 8)), for strategy codes 0-4.

    Round robin unpacks the rows and walks each bucket's strided signs.
    Every other strategy reduces to the steps at which the walk sits on a
    level: zeros of w over [0, L - 1) for 0 (the returns) and 2, 3 (the
    excursion ends, with L - 1 closing the open one), and
    w[P - 1] - sign[0] over [P, L - 1) for 4 (bucket 0's returns).
    """
    reps, width = packed.shape
    if packed.dtype != np.uint8 or reps == 0 or horizon < 1 or width != -(-horizon // 8):
        raise ValueError(f"bucketing needs a nonempty uint8 batch of {-(-horizon // 8)} bytes per row")
    if n_pool < 1:
        raise ValueError(f"bucketing needs n_pool >= 1, got {n_pool}")
    if strategy not in range(5):
        raise ValueError(f"bucketing runs strategy codes 0 to 4, not {strategy}")
    if strategy == 1:
        signs = np.unpackbits(packed, axis=1, count=horizon).view(np.int8)
        signs *= 2  # in place, as in probes._draw_signs: a fresh array costs more
        signs -= 1
        return _bucketing_round_robin(signs, n_pool)
    starts = _byte_starts(packed, horizon)
    final = _walk_at(packed, starts, horizon - 1)
    if strategy == 4:
        fresh = min(horizon, n_pool)
        first = 2 * (packed[:, 0] >> 7).astype(np.int64) - 1
        before = _walk_at(packed, starts, fresh - 1)
        rows, _ = _level_hits(packed, starts, before - first, fresh, horizon - 1)
        l_eps = fresh + np.bincount(rows, minlength=reps)
        return np.abs(first + final - before) + (fresh - 1), _zero_seeking_roots(reps, horizon, fresh), l_eps
    rows, steps = _level_hits(packed, starts, np.zeros(reps, np.int64), 0, horizon - 1)
    l_eps = np.bincount(rows, minlength=reps) + 1
    if strategy == 0:
        return np.abs(final), np.full(reps, np.sqrt(horizon, dtype=np.float64)), l_eps
    # the last step closes each row's open excursion: it ends the row's run of ends
    last = np.cumsum(l_eps) - 1
    ends = np.full(last[-1] + 1, horizon - 1)
    interior = np.ones(ends.size, dtype=bool)
    interior[last] = False
    ends[interior] = steps
    rows = np.repeat(np.arange(reps), l_eps)
    return np.abs(final), _excursion_roots(rows, ends, l_eps, n_pool if strategy == 3 else horizon), l_eps


def bucketing_batch(signs, strategy, n_pool):
    """``bucketing_packed`` of a batch of +-1 int8 rows (reps, L), checked and packed."""
    # three reductions and no full-size temporaries: an elementwise
    # |sign| != 1 test costs about 15% of the kernel
    if signs.size == 0 or signs.min() < -1 or signs.max() > 1 or np.count_nonzero(signs) < signs.size:
        raise ValueError("bucketing needs a nonempty batch of +-1 signs")
    return bucketing_packed(np.packbits(signs > 0, axis=1), signs.shape[1], strategy, n_pool)


BUCKETING_STRATEGY_CODES = {
    "single_bucket": 0,
    "round_robin": 1,
    "fresh_bucket_on_return": 2,
    "avoid_zero": 3,
    "zero_seeking": 4,
}
