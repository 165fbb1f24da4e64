import math
from fractions import Fraction

import numpy as np
import pytest

from caliblab import experiments
from caliblab.calibration import check_diff_two
from caliblab.forecasters import PatternRouter
from caliblab.experiments import (
    ExperimentConfig,
    fit_exponent,
    l1_truthfulness_ratio,
    noise_floor_diagnostic,
    oracle_bound_value,
    run_identity_suite,
    run_oracle_bound,
    run_reduction_bound,
    run_scaling,
    walsh_prefix_violations,
    write_bounds_csv,
    write_per_group_csv,
    write_scaling_csv,
)


def test_fit_exponent_examples():
    slope, intercept, se = fit_exponent([(10, 10), (100, 100)])
    assert slope == pytest.approx(1.0)
    assert se == 0.0
    slope, _, _ = fit_exponent([(10, 5), (100, 5), (1000, 5)])
    assert slope == pytest.approx(0.0)
    pts = [(10**e, 3.0 * (10**e) ** (2 / 3)) for e in (2, 3, 4)]
    slope, intercept, se = fit_exponent(pts)
    assert abs(slope - 2 / 3) < 1e-12
    assert math.exp(intercept) == pytest.approx(3.0, rel=1e-9)


def test_fit_exponent_validation():
    with pytest.raises(ValueError):
        fit_exponent([(10, 5)])
    with pytest.raises(ValueError):
        fit_exponent([(10, 0.0), (100, 1.0)])
    with pytest.raises(ValueError):
        fit_exponent([(10, 1.0), (10, 2.0)])


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(T_list=(1024, 512))
    with pytest.raises(ValueError):
        ExperimentConfig(T_list=(1024, 1024))
    with pytest.raises(ValueError):
        ExperimentConfig(T_list=(2**21,))
    with pytest.raises(ValueError):
        ExperimentConfig(replicates=20_000)


def test_block_length_cap():
    cfg = ExperimentConfig(
        env="rademacher", groups="block_hadamard", T_list=(2**16,), replicates=1, K=1
    )
    with pytest.raises(ValueError, match="desk-scale cap"):
        run_scaling(cfg)


def test_scaling_smoke_and_violations():
    cfg = ExperimentConfig(
        env="bernoulli",
        forecaster="honest",
        groups="pred_threshold",
        T_list=(1024, 2048),
        replicates=5,
        seed=7,
    )
    res = run_scaling(cfg)
    assert res.total_violations() == 0
    assert [r.T for r in res.rows] == [1024, 2048]
    for row in res.rows:
        # honest forecaster: overshoot/undershoot groups have exactly zero error
        for gid, err in row.per_group_mean.items():
            if gid.startswith(("g1", "g2")):
                assert err == 0.0
        assert row.argmax_group.startswith("g3")


def test_scaling_workers_deterministic():
    base = dict(
        env="bernoulli",
        forecaster="rounded_honest",
        groups="pred_threshold",
        T_list=(1024,),
        replicates=8,
        seed=11,
        Q=16,
    )
    serial = run_scaling(ExperimentConfig(**base, workers=1))
    parallel = run_scaling(ExperimentConfig(**base, workers=2))
    assert serial.rows[0].mean_mcerr == parallel.rows[0].mean_mcerr
    assert serial.rows[0].per_group_mean == parallel.rows[0].per_group_mean


def test_cell_failure_names_the_cell(monkeypatch):
    sample = experiments._sample_env
    broken = experiments._cell_stream(64, 1)

    def sample_env(config, T, m_env, stream):
        if stream == broken:
            raise ValueError("sampler broke")
        return sample(config, T, m_env, stream)

    monkeypatch.setattr(experiments, "_sample_env", sample_env)
    cfg = ExperimentConfig(experiment_id="boom", T_list=(64,), replicates=3, seed=5)
    with pytest.raises(ValueError) as info:
        run_scaling(cfg)
    assert str(info.value) == f"boom: cell T=64 rep=1 stream={broken}: sampler broke"


@pytest.mark.parametrize("bad", [[(2, 3)], [(2, 3), (0, 7)]])
def test_corrupted_block_entries_are_named_and_counted(monkeypatch, bad):
    accumulate = experiments.accumulate_run
    ledgers = []

    def corrupted(run, family):
        ledger = accumulate(run, family)
        for a, j in bad:
            # 2 |c| now exceeds Err(had+) + Err(had-) by 1 or 2, over 2 scale
            ledger.block_coeff_abs[a, j] = (ledger.block_plus_abs[a, j] + ledger.block_minus_abs[a, j]) // 2 + 1
        ledgers.append(ledger)
        return ledger

    monkeypatch.setattr(experiments, "accumulate_run", corrupted)
    cfg = ExperimentConfig(
        env="rademacher", forecaster="rounded_honest", groups="full_walsh", T_list=(256,), replicates=2, seed=5, Q=4
    )
    out = experiments.run_replicate(cfg, 256, 0)
    ledger = ledgers[0]
    summary = check_diff_two(ledger)
    a, j = min(bad)  # the first failing pair in family order
    den = 2 * ledger.scale
    bound = int(ledger.block_plus_abs[a, j] + ledger.block_minus_abs[a, j])
    index = len(ledger.family.direct_pairs()) + a * ledger.family.layout.L + j
    assert (summary.count, summary.failures, summary.first) == (len(ledger.family.signed_pairs()), len(bad), index)
    assert (summary.lhs, summary.rhs) == (Fraction(2 * (bound // 2 + 1), den), Fraction(bound, den))
    assert out["violations"] == ["diff_two"] * len(bad)
    assert out["min_slack"]["diff_two"] == summary.min_slack < 0
    row = run_scaling(cfg).rows[0]
    assert row.violations == 2 * len(bad) and row.min_slack["diff_two"] < 0


def test_synthetic_exponent_injection():
    # wiring check: a synthetic mcerr = T^0.75 series fits at 0.75 exactly
    pts = [(T, T**0.75) for T in (2**10, 2**12, 2**14)]
    slope, _, se = fit_exponent(pts)
    assert abs(slope - 0.75) < 1e-12
    assert se < 1e-12


def test_full_walsh_pipeline_checks():
    cfg = ExperimentConfig(
        env="rademacher",
        forecaster="rounded_honest",
        groups="full_walsh",
        T_list=(512,),
        replicates=4,
        seed=13,
        Q=8,
    )
    res = run_scaling(cfg)
    assert res.total_violations() == 0
    ids = res.rows[0].per_group_mean.keys()
    assert "g_all" in ids
    assert any(g.startswith("wal+") for g in ids)
    assert any(g.startswith("had-") for g in ids)


def test_adversarial_bracket_checks_clean():
    # the pathwise suite must hold for consolidating and noisy forecasters too
    for forecaster, extra in [
        ("constant", {"value": "1/2"}),
        ("uniform_random", {"Q": 8}),
        ("overshoot", {"offset": "2eta"}),
    ]:
        cfg = ExperimentConfig(
            env="rademacher" if forecaster != "overshoot" else "bernoulli",
            forecaster=forecaster,
            groups="walsh" if forecaster != "overshoot" else "pred_threshold",
            T_list=(512,),
            replicates=3,
            seed=17,
            **extra,
        )
        res = run_scaling(cfg)
        assert res.total_violations() == 0, forecaster


def test_overshoot_linear_growth_at_fixed_eta():
    # with eta held fixed across the ladder the overshoot penalty is linear
    cfg = ExperimentConfig(
        env="bernoulli",
        forecaster="overshoot",
        groups="pred_threshold",
        T_list=(512, 1000, 1728),
        replicates=60,
        seed=5,
        eta="1/24",
        offset="1/12",
    )
    res = run_scaling(cfg)
    assert res.total_violations() == 0
    assert 0.9 <= res.exponent <= 1.1
    for row in res.rows:
        assert row.mean_mcerr >= 0.95 * (1 / 48) * row.T


def test_overshoot_big_lies_bound_small():
    T = 2048
    cfg = ExperimentConfig(
        env="bernoulli",
        forecaster="overshoot",
        groups="pred_threshold",
        T_list=(T,),
        replicates=20,
        seed=19,
        offset="2eta",
    )
    res = run_scaling(cfg)
    from caliblab.environments import section3_grid_count
    from caliblab.groups import default_eta

    eta = default_eta(section3_grid_count(T), T)
    assert res.rows[0].mean_mcerr >= 0.95 * float(eta) / 2 * T
    assert res.rows[0].argmax_group.startswith("g1")


def test_oracle_bound_value():
    assert oracle_bound_value(10_000, 3, 1) == pytest.approx((1 / 8) * (7 / 8) * 10_000 / 64)


def test_oracle_bound_small():
    records, details = run_oracle_bound(T=500, k=3, m_copies=1, replicates=8, seed=23)
    by_id = {r.check_id: r for r in records}
    assert by_id["oracle_mcerr_floor"].passed
    assert by_id["oracle_pathwise_violations"].measured == 0.0
    assert details["mean_sq_loss"] > 0


def test_oracle_bound_m_copies():
    records, _ = run_oracle_bound(T=300, k=2, m_copies=2, replicates=5, seed=29)
    assert all(r.passed for r in records)


def test_reduction_bound_small():
    records, details = run_reduction_bound(T_list=(512,), replicates=8, seed=31)
    by_id = {r.check_id: r for r in records}
    assert by_id["reduction_pathwise@T=512"].measured == 0.0
    assert by_id["reduction_mcerr_vs_cells@T=512"].passed
    c, beta = details["envelope"]["c"], details["envelope"]["beta"]
    assert 0 < beta <= 1.0 and c > 0


def test_reduction_pathwise_slack_and_named_violations(monkeypatch):
    records, details = run_reduction_bound(T_list=(256, 512), replicates=3, seed=31)
    for T in (256, 512):
        info = details["per_T"][T]
        # disjoint groups: each group is one cell, so the triangle bound is tight
        assert info["pathwise_min_slack"] == 0.0
        assert info["pathwise_violations"] == []
    # cells that claim zero error make every group with Err > 0 a violation
    monkeypatch.setattr(PatternRouter, "cell_err", lambda self, z: Fraction(0))
    records, details = run_reduction_bound(T_list=(256,), replicates=3, seed=31)
    info = details["per_T"][256]
    bad = info["pathwise_violations"]
    assert bad and {r.check_id: r.measured for r in records}["reduction_pathwise@T=256"] == len(bad)
    first = bad[0]
    assert first["T"] == 256 and first["rep"] == 0 and first["bound"] == 0
    assert first["group"].startswith("range/") and first["err"] > 0
    assert info["pathwise_min_slack"] == -max(float(v["err"]) for v in bad)


def test_reduction_rejects_prediction_dependent_groups():
    with pytest.raises(ValueError, match="routing is invalid"):
        run_reduction_bound(T_list=(512,), replicates=2, seed=1, groups_kind="pred_threshold")


def test_identity_suite_small():
    records = run_identity_suite(h1_max=64, prefix_max=128, expansion_max=64, block_max=32)
    assert all(r.passed for r in records)
    assert len(records) == 5


def test_walsh_prefix_check_flags_a_bound_one_too_small():
    n = 64
    bounds = np.array([1 << ((j & -j).bit_length() - 1) for j in range(1, n)])
    # the dyadic bound 2^tz(j) is attained, so every row is tight
    assert walsh_prefix_violations(n, bounds, block_rows=5) == 0
    for j in (1, 4, 5, 32, 63):  # inside and at the edges of 5-row blocks
        tight = bounds.copy()
        tight[j - 1] -= 1
        assert walsh_prefix_violations(n, tight, block_rows=5) == 1
        assert walsh_prefix_violations(n, tight) == 1


def test_csv_writers(tmp_path):
    cfg = ExperimentConfig(T_list=(1024, 2048), replicates=3, seed=37)
    res = run_scaling(cfg)
    s, g, b = tmp_path / "s.csv", tmp_path / "g.csv", tmp_path / "b.csv"
    write_scaling_csv(s, res)
    write_per_group_csv(g, res)
    lines = s.read_text().splitlines()
    assert lines[0] == "experiment_id,T,replicate_count,mean_mcerr,stderr,argmax_group"
    assert len(lines) == 3
    glines = g.read_text().splitlines()
    # every configured group appears exactly once per T
    assert len(glines) == 1 + 2 * 3
    records, _ = run_oracle_bound(T=200, k=2, m_copies=1, replicates=4, seed=3)
    write_bounds_csv(b, records)
    assert b.read_text().splitlines()[0] == "check_id,measured,bound,margin,pass"


def test_l1_truthfulness_ratio_finite():
    ratio = l1_truthfulness_ratio(T=512, replicates=4, seed=41)
    assert np.isfinite(ratio) and ratio >= 0


def test_l1_truthfulness_ratio_stable_across_T():
    ratios = [l1_truthfulness_ratio(T=T, replicates=15, seed=47) for T in (512, 2048, 8192)]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 3.0


def test_noise_floor_diagnostic_small():
    out = noise_floor_diagnostic(T=256, K=2, replicates=30, seed=43)
    assert out["min_ratio"] > 0
    assert out["ratios"].shape == (out["layout"].K, out["layout"].L)


def test_noise_floor_pinned_across_layouts():
    from caliblab.experiments import NOISE_FLOOR_DIAG

    for T, K in ((256, 2), (1024, 4), (4096, 8)):
        out = noise_floor_diagnostic(T=T, K=K, replicates=60, seed=103)
        assert out["min_ratio"] >= NOISE_FLOOR_DIAG, (T, K, out["min_ratio"])
