"""Acceptance suite: one test per criterion, one pass/fail line each.

Criteria pin the tolerances and scales; these tests are the exit bar for
the package and run in a few minutes on a desktop.  Constants mirror the
experiment defaults: identity caps (1024/4096/1024/256), the
honest-scaling exponent window [0.60, 0.78], the calibrated probe floors,
and the oracle bound value (1/8)(1 - m/N) T / N^2.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from caliblab.calibration import (
    Predictions,
    ScaledRun,
    block_decompose,
    check_block_parseval,
    deviation_stats,
)
from caliblab.cli import EXIT_OK, main
from caliblab.environments import (
    sample_rademacher_env,
    section3_grid_count,
    substream,
)
from caliblab.experiments import (
    EXPONENT_WINDOW,
    ExperimentConfig,
    fit_exponent,
    oracle_bound_value,
    run_identity_suite,
    run_oracle_bound,
    run_reduction_bound,
    run_scaling,
)
from caliblab.groups import build_block_layout, default_eta
from caliblab.orthogonal import fwht, walsh_matrix
from caliblab.probes import (
    BUCKETING_FLOOR,
    bucketing_probe,
    first_return_pmf,
    simulate_first_returns,
    truncated_root_return_expectation,
)

SEED = 20240808


def report(criterion: int, name: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion:02d} {name}: PASS {detail}".rstrip())


def test_criterion_01_exact_identities():
    start = time.monotonic()
    records = run_identity_suite(
        h1_max=1024, prefix_max=4096, expansion_max=1024, block_max=256, seed=SEED
    )
    elapsed = time.monotonic() - start
    for r in records:
        assert r.measured == 0.0, r.check_id
    assert elapsed < 60.0
    report(1, "exact identity suite", f"({len(records)} identities, {elapsed:.1f}s)")


def test_criterion_02_fwht_vs_brute_force():
    rng = substream(SEED, 2)
    worst = 0.0
    for _ in range(100):
        n = 2 ** int(rng.integers(1, 9))  # up to 256
        v = rng.standard_normal(n)
        brute = walsh_matrix(n).astype(np.float64) @ v
        worst = max(worst, float(np.abs(fwht(v) - brute).max()))
    assert worst <= 1e-9
    report(2, "fwht vs brute force", f"(max abs dev {worst:.2e})")


def test_criterion_03_block_parseval():
    # sum_j sum_v D^2 = L sum_t delta_t^2 per block, compared in integers: every block exactly equal
    rng = substream(SEED, 3)
    blocks = 0
    for run in range(50):
        k = int(rng.integers(1, 5))
        log_l = int(rng.integers(3, 13))  # L <= 2^12
        L = 2**log_l
        T = k * L + int(rng.integers(0, L))
        traj = sample_rademacher_env(T, SEED, m=4, stream=100 + run)
        layout = build_block_layout(T, k)
        den = 2 ** int(rng.integers(2, 6))
        pred = Predictions(num=rng.integers(0, den + 1, size=T), den=den)
        scaled = ScaledRun.build(traj, pred)
        summary = check_block_parseval(block_decompose(scaled, layout), deviation_stats(scaled, layout=layout))
        assert (summary.count, summary.failures, summary.min_slack) == (k, 0, 0)
        blocks += summary.count
    report(3, "block Parseval identity", f"(50 runs, all {blocks} blocks exact)")


def test_criterion_04_pathwise_suite_zero_violations():
    battery = [
        ExperimentConfig(
            env="rademacher", forecaster="rounded_honest", groups="full_walsh",
            T_list=(2048,), replicates=25, seed=SEED, Q=16,
        ),
        ExperimentConfig(
            env="rademacher", forecaster="constant", groups="full_walsh",
            T_list=(2048,), replicates=25, seed=SEED + 1, value="1/2",
        ),
        ExperimentConfig(
            env="rademacher", forecaster="uniform_random", groups="walsh",
            T_list=(2048,), replicates=25, seed=SEED + 2, Q=16,
        ),
        ExperimentConfig(
            env="bernoulli", forecaster="honest", groups="pred_threshold",
            T_list=(2048,), replicates=25, seed=SEED + 3,
        ),
        ExperimentConfig(
            env="bernoulli", forecaster="overshoot", groups="pred_threshold",
            T_list=(2048,), replicates=25, seed=SEED + 4, offset="2eta",
        ),
        ExperimentConfig(
            env="bernoulli", forecaster="uniform_random", groups="pred_threshold",
            T_list=(2048,), replicates=25, seed=SEED + 5, Q=16,
        ),
        ExperimentConfig(
            env="bits", forecaster="proper_reduction", groups="bits",
            T_list=(2048,), replicates=25, seed=SEED + 6, k=3, Q=7,
        ),
    ]
    total = 0
    checked = 0
    for cfg in battery:
        res = run_scaling(cfg)
        total += res.total_violations()
        checked += cfg.replicates
    assert total == 0
    report(4, "pathwise inequality suite", f"({checked} replicates across 7 experiments, 0 violations)")


def test_criterion_05_first_return_law():
    start = time.monotonic()
    reps = 1_000_000
    taus = simulate_first_returns(L=42, replicates=reps, seed=SEED, stream=5)
    for n in range(1, 21):
        p = float(first_return_pmf(n))
        emp = float((taus == 2 * n).mean())
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(emp - p) <= 3 * se, (n, emp, p)
    sim_reps = 300_000
    for e in range(4, 13):
        L = 2**e
        taus = simulate_first_returns(L=L, replicates=sim_reps, seed=SEED, stream=500 + e)
        roots = np.sqrt(taus.astype(np.float64))
        est = float(roots.mean())
        se = float(roots.std(ddof=1) / math.sqrt(sim_reps))
        analytic = truncated_root_return_expectation(L)
        assert abs(est - analytic) <= 3 * se, (L, est, analytic, se)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(5, "first-return pmf and truncated root-return", f"({elapsed:.1f}s)")


def test_criterion_06_theorem31_scaling():
    start = time.monotonic()
    cfg = ExperimentConfig(
        experiment_id="thm31",
        env="bernoulli",
        forecaster="honest",
        groups="pred_threshold",
        T_list=tuple(2**e for e in range(10, 19)),
        replicates=100,
        seed=SEED,
    )
    res = run_scaling(cfg)
    elapsed = time.monotonic() - start
    assert res.total_violations() == 0
    for row in res.rows:
        for gid, err in row.per_group_mean.items():
            if gid.startswith(("g1@", "g2@")):
                assert err == 0.0, (row.T, gid)
    lo, hi = EXPONENT_WINDOW
    assert lo <= res.exponent <= hi, res.exponent
    # the honest forecaster's noise statistic grows like sqrt(m0 T)
    nx_slope, _, _ = fit_exponent([(r.T, r.extras_mean["sum_abs_nx"]) for r in res.rows])
    assert 0.60 <= nx_slope <= 0.72, nx_slope
    assert elapsed < 1800.0
    report(
        6,
        "prediction-dependent scaling",
        f"(exponent {res.exponent:.4f} in [{lo}, {hi}], {elapsed:.0f}s)",
    )


def test_criterion_07_big_lies():
    T = 2**14
    cfg = ExperimentConfig(
        env="bernoulli",
        forecaster="overshoot",
        groups="pred_threshold",
        T_list=(T,),
        replicates=200,
        seed=SEED,
        offset="2eta",
    )
    res = run_scaling(cfg)
    assert res.total_violations() == 0
    eta = default_eta(section3_grid_count(T), T)
    floor = 0.95 * float(eta) / 2 * T
    assert res.rows[0].mean_mcerr >= floor
    report(
        7,
        "always-overshoot lower bound",
        f"(mean MCerr {res.rows[0].mean_mcerr:.1f} >= {floor:.1f})",
    )


def test_criterion_08_bucketing_floor():
    start = time.monotonic()
    strategies = (
        "single_bucket",
        "round_robin",
        "fresh_bucket_on_return",
        "avoid_zero",
        "zero_seeking",
    )
    worst = math.inf
    for strategy in strategies:
        for e in range(6, 15):
            rep = bucketing_probe(
                L=2**e,
                h=Fraction(1, 4),
                strategy=strategy,
                replicates=10_000,
                seed=SEED,
                stream=e,
            )
            assert rep.passed, (strategy, 2**e, rep.extras)
            worst = min(worst, rep.extras["rho_log"])
    elapsed = time.monotonic() - start
    assert worst >= BUCKETING_FLOOR
    report(
        8,
        "adaptive bucketing floor",
        f"(min rho*log2(L+1) = {worst:.3f} >= {BUCKETING_FLOOR}, {elapsed:.0f}s)",
    )


def test_criterion_09_oracle_bound():
    records, _ = run_oracle_bound(
        T=10_000, k=3, m_copies=1, oracle="uniform_random", replicates=100, seed=SEED
    )
    by_id = {r.check_id: r for r in records}
    bound = oracle_bound_value(10_000, 3, 1)
    assert bound == pytest.approx(17.08984375)
    assert by_id["oracle_mcerr_floor"].passed
    assert by_id["oracle_miss_rate"].passed
    assert by_id["oracle_correct_mass"].passed
    assert by_id["oracle_pathwise_violations"].measured == 0.0
    report(
        9,
        "proper-reduction oracle bound",
        f"(measured {by_id['oracle_mcerr_floor'].measured:.1f} >= bound {bound:.2f}, "
        f"miss rate {by_id['oracle_miss_rate'].measured:.3f})",
    )


def test_criterion_10_reduction_bound():
    records, details = run_reduction_bound(
        T_list=(2**10, 2**14), replicates=50, seed=SEED, pieces=3
    )
    for r in records:
        assert r.passed, (r.check_id, r.measured, r.bound)
    env = details["envelope"]
    report(
        10,
        "pattern-routing reduction bound",
        f"(envelope {env['c']:.3f} n^{env['beta']:.3f}, all {len(records)} records pass)",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "env.kind=bernoulli\nenv.T_list=1024,4096\nforecaster.id=rounded_honest\n"
        "forecaster.Q=32\ngroups.kind=pred_threshold\nrun.replicates=10\n"
        "run.seed=99\nrun.workers=1\nrun.id=det\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["scaling", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["scaling", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    for name in ("det_scaling.csv", "det_groups.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report(11, "byte-identical reruns", "(2 CSVs compared)")
