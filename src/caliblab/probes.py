"""Monte Carlo probes of the probabilistic ingredients: first-return law,
truncated root-return bound, dense martingale transform deviation, and the
adaptive noise bucketing floor.

Predictability is structural throughout: bucketing strategies and
indicator strategies see only pre-increment state, never the increment
about to be revealed.  Walk sums are exact integers; the step size h
scales results only at report time.

The "pass" floors asserted by the bucketing and martingale probes are
regression constants calibrated once against the analytic single-bucket
value (E|walk_L| = sqrt(2 L / pi) (1 + o(1)), so rho = sqrt(2/pi)); the
universal constants of the underlying theory are never asserted
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from ._kernels import BUCKETING_STRATEGY_CODES, bucketing_batch, bucketing_packed, first_return_batch
from .environments import substream

# Calibrated floors (seed 2024, >= 1e4 replicates per point; the smallest
# observed values across shipped strategies and L in 2^6..2^16 sit well
# above these):
SINGLE_BUCKET_RHO = math.sqrt(2.0 / math.pi)
BUCKETING_FLOOR = 0.1  # min over strategies/L of rho * log2(L+1)
MARTINGALE_FLOOR = 0.05  # min over strategies of E|N| / (sigma sqrt(L))

MARTINGALE_STRATEGIES = ("all_ones", "thinned", "halt_on_zero")


@dataclass
class ProbeReport:
    probe: str
    estimate: float
    stderr: float
    replicates: int
    parameters: dict
    bound: float
    passed: bool
    extras: dict = field(default_factory=dict)


def first_return_pmf(n: int) -> Fraction:
    """P(tau_0 = 2n) = C(2n, n) 4^{-n} / (2n - 1) for the +-1 walk, exact."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Fraction(math.comb(2 * n, n), (2 * n - 1) * 4**n)


def truncated_root_return_expectation(L: int) -> float:
    """Analytic E[sqrt(min(tau_0, L))] from the pmf.

    Evaluated through the pmf's exact one-step ratio
    p_{n+1} / p_n = (2n - 1) / (2(n + 1)), which keeps the sum O(L) in
    float64 instead of manipulating 4^n-sized exact denominators.
    """
    if L < 2:
        raise ValueError(f"need L >= 2, got {L}")
    total = 0.0
    covered = 0.0
    p = 0.5  # P(tau_0 = 2)
    for j in range(1, (L - 1) // 2 + 1):
        total += math.sqrt(2 * j) * p
        covered += p
        p *= (2 * j - 1) / (2 * (j + 1))
    total += math.sqrt(L) * (1.0 - covered)
    return total


def _draw_signs(rng: np.random.Generator, shape) -> np.ndarray:
    """+-1 steps as C-contiguous int8: the bits of ``rng.bytes`` in
    ``np.unpackbits`` order (most significant bit first), 1 -> +1, 0 -> -1."""
    reps, horizon = shape
    n = reps * horizon
    raw = np.frombuffer(rng.bytes(-(-n // 8)), dtype=np.uint8)
    signs = np.unpackbits(raw, count=n).view(np.int8).reshape(reps, horizon)
    signs *= 2  # in place: a left shift or a fresh array costs 4x more here
    signs -= 1
    return signs


def _draw_packed(rng: np.random.Generator, shape) -> np.ndarray:
    """The bits ``_draw_signs`` unpacks from the same draw, as uint8 rows of
    ceil(horizon / 8) bytes: each walk starts on a byte, its pad bits are 0."""
    reps, horizon = shape
    raw = np.frombuffer(rng.bytes(-(-reps * horizon // 8)), dtype=np.uint8)
    if horizon % 8 == 0:
        return raw.reshape(reps, horizon // 8)
    return np.packbits(np.unpackbits(raw, count=reps * horizon).reshape(reps, horizon), axis=1)


# Largest sign batch drawn at once (4 MiB of int8 steps).
_BATCH_SIGNS = 1 << 22
# Width of the first first-return chunk; chunk k is _FIRST_CHUNK * 2^k wide.
_FIRST_CHUNK = 64


def _first_returns_chunked(L: int, replicates: int, source) -> np.ndarray:
    """min(tau_0, L) per walk, extending only the walks that have not returned.

    Chunk k covers steps [64 (2^k - 1), 64 (2^(k+1) - 1)), clipped to L.
    ``source(rows, lo, hi)`` gives the int8 signs of steps [lo, hi) of the
    walks ``rows``; a call covers at most ``_BATCH_SIGNS`` signs, or one
    walk if a chunk is wider than that.  Each walk's position is carried
    from chunk to chunk as int32, and the return test is
    ``first_return_batch`` from that position.
    """
    out = np.full(replicates, L, dtype=np.int64)
    alive = np.arange(replicates)
    pos = np.zeros(replicates, dtype=np.int32)
    lo, width = 0, _FIRST_CHUNK
    while lo < L and alive.size:
        hi = min(L, lo + width)
        rows_per_batch = max(1, _BATCH_SIGNS // (hi - lo))
        keep_rows, keep_pos = [], []
        for i in range(0, alive.size, rows_per_batch):
            rows, start = alive[i : i + rows_per_batch], pos[i : i + rows_per_batch]
            signs = source(rows, lo, hi)
            tau = first_return_batch(signs, start)
            end = start + signs.sum(axis=1, dtype=np.int32)
            done = (tau < hi - lo) | (end == 0)
            out[rows[done]] = lo + tau[done]
            keep_rows.append(rows[~done])
            keep_pos.append(end[~done])
        alive, pos = np.concatenate(keep_rows), np.concatenate(keep_pos)
        lo, width = hi, 2 * width
    return out


def simulate_first_returns(L: int, replicates: int, seed: int, stream: int = 0) -> np.ndarray:
    """min(tau_0, L) for `replicates` independent +-1 walks.

    Walks are drawn chunk by chunk (see ``_first_returns_chunked``), so a
    walk that has returned draws no further signs.
    """
    if L < 1:
        raise ValueError(f"first-return walks need L >= 1, got L={L}")
    if replicates < 1:
        raise ValueError(f"first-return walks need replicates >= 1, got replicates={replicates}")
    rng = substream(seed, stream)
    return _first_returns_chunked(L, replicates, lambda rows, lo, hi: _draw_signs(rng, (rows.size, hi - lo)))


def _check_sizes(L: int, replicates: int) -> None:
    # a probe's stderr needs two replicates; every probe needs one step
    if L < 1:
        raise ValueError(f"probe needs L >= 1, got L={L}")
    if replicates < 2:
        raise ValueError(f"probe needs replicates >= 2 for a standard error, got replicates={replicates}")


def truncated_root_return_probe(
    L: int, replicates: int = 100_000, seed: int = 0, stream: int = 0
) -> ProbeReport:
    """Monte Carlo E[sqrt(min(tau_0, L))] against the exact-pmf oracle.

    Passes when the simulation sits within 3 standard errors of the
    analytic value and the ratio estimate / log2(L+1) stays below 2x the
    analytic ratio (the log bound with a generous constant).
    """
    _check_sizes(L, replicates)
    analytic = truncated_root_return_expectation(L)
    taus = simulate_first_returns(L, replicates, seed, stream)
    roots = np.sqrt(taus.astype(np.float64))
    est = float(roots.mean())
    se = float(roots.std(ddof=1) / math.sqrt(replicates))
    log_ratio = est / math.log2(L + 1)
    passed = abs(est - analytic) <= 3 * se and log_ratio <= 2.0 * analytic / math.log2(L + 1)
    return ProbeReport(
        probe="root-return",
        estimate=est,
        stderr=se,
        replicates=replicates,
        parameters={"L": L, "seed": seed},
        bound=analytic,
        passed=passed,
        extras={"log_ratio": log_ratio},
    )


def _bernoulli_residual_increments(
    rng: np.random.Generator, shape, x: Fraction
) -> tuple[np.ndarray, int]:
    """Scaled residuals x - Bernoulli(x): integers over x.denominator."""
    num, den = x.numerator, x.denominator
    heads = rng.random(shape) < (num / den)
    return np.where(heads, num - den, num).astype(np.int64), den


def martingale_transform_probe(
    L: int,
    alpha: float = 1.0,
    indicator_strategy: str = "all_ones",
    replicates: int = 20_000,
    seed: int = 0,
    x: Fraction = Fraction(1, 2),
    stream: int = 0,
) -> ProbeReport:
    """E|sum_t I_t Z_t| for predictable indicator strategies.

    Z_t are Bernoulli residuals around the mean ``x`` (variance >= 3/16
    for x in [1/4, 3/4]).  Strategies:

    * ``all_ones``: every round selected; E|N| ~ sigma sqrt(2 L / pi).
    * ``thinned``: i.i.d. alpha-thinning, independent of the walk.
    * ``halt_on_zero``: adversarial; select until the first return to
      zero after round L/2, then stop (E[n] >= L/2 by construction).

    Passes when E|N| / (sigma sqrt(L)) >= the calibrated floor.
    """
    _check_sizes(L, replicates)
    if indicator_strategy not in MARTINGALE_STRATEGIES:
        raise ValueError(
            f"unknown indicator strategy {indicator_strategy!r}; "
            f"strategies must be predictable by construction"
        )
    if not 0 < alpha <= 1:
        raise ValueError(f"density must lie in (0, 1], got {alpha}")
    if not Fraction(1, 4) <= x <= Fraction(3, 4):
        raise ValueError("residual model needs x in [1/4, 3/4]")
    rng = substream(seed, stream)
    sigma = math.sqrt(float(x) * (1.0 - float(x)))
    batch = max(1, _BATCH_SIGNS // L)
    abs_n = np.empty(replicates, dtype=np.float64)
    n_sel = np.empty(replicates, dtype=np.float64)
    done = 0
    while done < replicates:
        b = min(batch, replicates - done)
        z, den = _bernoulli_residual_increments(rng, (b, L), x)
        if indicator_strategy == "all_ones":
            sel = np.ones((b, L), dtype=bool)
        elif indicator_strategy == "thinned":
            sel = rng.random((b, L)) < alpha
        else:
            # cumulative walk of the always-selected prefix; stop at the
            # first zero strictly after L/2 rounds
            walk = z.cumsum(axis=1)
            elig = (walk == 0) & (np.arange(1, L + 1)[None, :] > L // 2)
            stop = np.where(elig.any(axis=1), elig.argmax(axis=1) + 1, L)
            sel = np.arange(1, L + 1)[None, :] <= stop[:, None]
        n = (z * sel).sum(axis=1)
        abs_n[done : done + b] = np.abs(n) / den
        n_sel[done : done + b] = sel.sum(axis=1)
        done += b
    est = float(abs_n.mean())
    se = float(abs_n.std(ddof=1) / math.sqrt(replicates))
    scaled = est / (sigma * math.sqrt(L))
    bound = MARTINGALE_FLOOR * sigma * math.sqrt(L)
    return ProbeReport(
        probe="martingale",
        estimate=est,
        stderr=se,
        replicates=replicates,
        parameters={"L": L, "alpha": alpha, "strategy": indicator_strategy, "seed": seed},
        bound=bound,
        passed=est >= bound,
        extras={"scaled": scaled, "mean_selected": float(n_sel.mean()), "sigma": sigma},
    )


def default_pool(L: int) -> int:
    return max(2, math.isqrt(L))


def bucketing_probe(
    L: int,
    h: Fraction = Fraction(1, 4),
    strategy: str = "single_bucket",
    replicates: int = 10_000,
    seed: int = 0,
    n_pool: Optional[int] = None,
    stream: int = 0,
) -> ProbeReport:
    """Adaptive noise bucketing: rho = E[sum_v |B_v|] / (h E[sum_v sqrt(n_v)]).

    Reports rho and checks two floors: the returns-count inequality
    E[sum_v |B_v|] >= h E[L_eps] (within Monte Carlo error), and the
    calibrated regression floor rho * log2(L+1) >= BUCKETING_FLOOR.
    ``strategy`` is a name in ``BUCKETING_STRATEGY_CODES``.
    """
    _check_sizes(L, replicates)
    if strategy not in BUCKETING_STRATEGY_CODES:
        raise ValueError(f"unknown bucketing strategy {strategy!r}")
    if not 0 < h <= 1:
        raise ValueError(f"step size h must lie in (0, 1], got {h}")
    pool = n_pool if n_pool is not None else default_pool(L)
    code = BUCKETING_STRATEGY_CODES[strategy]
    rng = substream(seed, stream)
    batch = max(1, _BATCH_SIGNS // L)
    sum_abs = np.empty(replicates, dtype=np.float64)
    sum_sqrt = np.empty(replicates, dtype=np.float64)
    l_eps = np.empty(replicates, dtype=np.float64)
    done = 0
    while done < replicates:
        b = min(batch, replicates - done)
        sa, ss, le = bucketing_packed(_draw_packed(rng, (b, L)), L, code, pool)
        sum_abs[done : done + b] = sa
        sum_sqrt[done : done + b] = ss
        l_eps[done : done + b] = le
        done += b
    hf = float(h)
    noise = hf * float(sum_abs.mean())  # |B_v| kept in units of h
    noise_se = hf * float(sum_abs.std(ddof=1) / math.sqrt(replicates))
    diversity = float(sum_sqrt.mean())
    rho = noise / (hf * diversity)
    floor = BUCKETING_FLOOR / math.log2(L + 1)
    returns_lhs = noise
    returns_rhs = hf * float(l_eps.mean())
    returns_se = hf * float(l_eps.std(ddof=1) / math.sqrt(replicates))
    returns_ok = returns_lhs >= returns_rhs - 3 * (noise_se + returns_se)
    passed = rho >= floor and returns_ok
    return ProbeReport(
        probe="bucketing",
        estimate=rho,
        stderr=noise_se / (hf * diversity),
        replicates=replicates,
        parameters={"L": L, "h": str(h), "strategy": strategy, "n_pool": pool, "seed": seed},
        bound=floor,
        passed=passed,
        extras={
            "noise": noise,
            "diversity": diversity,
            "l_eps": float(l_eps.mean()),
            "rho_log": rho * math.log2(L + 1),
            "returns_ok": returns_ok,
        },
    )


def bucketing_trace(signs: np.ndarray, strategy: str, n_pool: int) -> dict:
    """Reference excursion bookkeeping for one sign sequence (exact).

    Returns per-bucket counts, final sums (units of the step), returns
    count, and excursion lengths; used to verify the subadditivity
    decomposition sqrt(n_v) <= sum_j sqrt(l_j^v) and L_eps = sum_v R_v.
    Asserts that the kernel the probe runs, ``bucketing_packed`` (through
    ``bucketing_batch``, which checks and packs the signs), agrees with it.
    """
    code = BUCKETING_STRATEGY_CODES[strategy]
    (sum_abs,), (sum_sqrt,), (l_eps,) = bucketing_batch(signs[None, :], code, n_pool)
    sums: dict = {}
    counts: dict = {}
    excursions: dict = {}
    open_len: dict = {}
    returns = 0
    current = 0
    rot = 0
    stack: list = []
    if code == 4:
        stack = list(range(n_pool - 1, -1, -1))
    for t, step in enumerate(signs.tolist()):
        if code == 0:
            v = 0
        elif code == 1:
            v = t % n_pool
        elif code == 2:
            v = current
        elif code == 3:
            while stack and sums.get(stack[-1], 0) == 0:
                stack.pop()
            if stack:
                v = stack[-1]
            else:
                v = rot
                rot = (rot + 1) % n_pool
        else:
            while stack and sums.get(stack[-1], 0) != 0:
                stack.pop()
            v = stack[-1] if stack else 0
        was_zero = sums.get(v, 0) == 0
        if was_zero:
            returns += 1
            open_len[v] = 0
        sums[v] = sums.get(v, 0) + step
        counts[v] = counts.get(v, 0) + 1
        open_len[v] = open_len.get(v, 0) + 1
        if sums[v] == 0:
            excursions.setdefault(v, []).append(open_len[v])
            open_len[v] = 0
            if code == 2:
                current += 1
        if code == 3 and was_zero and sums[v] != 0:
            stack.append(v)
        if code == 4 and not was_zero and sums[v] == 0:
            stack.append(v)
    for v, rem in open_len.items():
        if rem:
            excursions.setdefault(v, []).append(rem)
    root_sum = math.fsum(math.sqrt(c) for c in counts.values())
    assert returns == int(l_eps), "kernel and reference disagree on L_eps"
    assert sum(abs(s) for s in sums.values()) == int(sum_abs), "kernel and reference disagree on sum_abs"
    assert math.isclose(root_sum, float(sum_sqrt), rel_tol=1e-12), "kernel and reference disagree on sum_sqrt"
    return {
        "counts": counts,
        "sums": sums,
        "returns": returns,
        "excursions": excursions,
        "sum_sqrt": root_sum,
    }
