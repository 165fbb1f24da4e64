import dataclasses
import math
import re
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from caliblab import calibration, experiments
from caliblab.calibration import (
    DeviationStats,
    Predictions,
    RunSkeleton,
    ScaledRun,
    SkeletonRun,
    check_diff_two,
)
from caliblab.cli import EXIT_CONFIG, experiment_config_from, load_config, main
from caliblab.environments import sample_rademacher_env, section4_grid_count
from caliblab.forecasters import HonestForecaster, PatternRouter, make_forecaster_factory, run_forecaster
from caliblab.groups import build_block_layout
from caliblab.experiments import (
    CHUNK_LINES,
    ExperimentConfig,
    fit_exponent,
    oracle_bound_value,
    run_identity_suite,
    run_oracle_bound,
    run_reduction_bound,
    run_scaling,
    walsh_prefix_violations,
    write_bounds_csv,
    write_csv,
    write_family_csv,
    write_per_group_csv,
    write_scaling_csv,
)

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ExperimentConfig(T_list=(1024, 512)), "env.T_list=1024,512 must be strictly increasing"),
        (lambda: ExperimentConfig(replicates=20_000), "run.replicates=20000 must lie in 1..10000, the desk-scale cap"),
        (lambda: ExperimentConfig(seed=-1), "run.seed=-1 must lie in 0..18446744073709551615, the 64-bit seed range"),
        (lambda: ExperimentConfig(groups="grid_ranges", pieces=0), "groups.pieces=0 must be at least 1"),
        (lambda: run_oracle_bound(T=64, replicates=1), "run.replicates=1 must lie in 2..10000, the desk-scale cap"),
        (lambda: run_oracle_bound(T=0), "oracle.T=0 must lie in 1..1048576, the desk-scale cap"),
        (lambda: run_reduction_bound(replicates=1), "run.replicates=1 must lie in 2..10000, the desk-scale cap"),
        (lambda: run_reduction_bound(T_list=[]), "reduction.T_list is empty; give at least one T"),
        (lambda: run_reduction_bound(T_list=[1024, 512]), "reduction.T_list=1024,512 must be strictly increasing"),
        (lambda: run_reduction_bound(pieces=0), "reduction.pieces=0 must be at least 1"),
    ],
    ids=[
        "T-order", "replicates-cap", "seed", "pieces", "oracle-replicates", "oracle-T", "reduction-replicates",
        "reduction-T-empty", "reduction-T-order", "reduction-pieces",
    ],
)
def test_limit_errors_name_their_own_commands_key(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_block_length_cap():
    with pytest.raises(ValueError, match="desk-scale cap"):
        ExperimentConfig(env="rademacher", groups="block_hadamard", T_list=(2**16,), replicates=1, K=1)


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


@pytest.mark.parametrize(
    "base",
    [
        dict(env="bernoulli", forecaster="honest", groups="pred_threshold", T_list=(256, 512)),
        dict(env="rademacher", forecaster="rounded_honest", groups="full_walsh", T_list=(256, 512), Q=8),
    ],
    ids=["thm31", "full_walsh"],
)
def test_scaling_runs_each_cell_once_in_order(monkeypatch, base):
    # one plan per T at construction; then per T its skeleton and its cells, in (T, rep) order
    plan, build, replicate = experiments._plan, experiments.CellSkeleton.build, experiments.run_replicate
    events = []
    monkeypatch.setattr(experiments, "_plan", lambda config, T: events.append(("plan", T)) or plan(config, T))
    monkeypatch.setattr(
        experiments.CellSkeleton, "build", staticmethod(lambda p: events.append(("skeleton", p.T)) or build(p))
    )

    def cell(config, T, rep):
        out = replicate(config, T, rep)  # the first cell at a T builds its skeleton
        events.append(("cell", T, rep))
        return out

    monkeypatch.setattr(experiments, "run_replicate", cell)
    cfg = ExperimentConfig(**base, replicates=3, seed=11)
    rows = run_scaling(cfg).rows
    assert events == [("plan", 256), ("plan", 512)] + [
        event for T in (256, 512) for event in [("skeleton", T), *(("cell", T, rep) for rep in range(3))]
    ]
    assert [row.replicates for row in rows] == [3, 3]


def test_cell_failure_names_the_cell(monkeypatch):
    sample, substream = experiments.sample_bernoulli_env, experiments.substream
    broken = experiments._cell_stream(64, 1)

    def sample_env(T, m, seed, stream):
        if stream == broken:
            raise ValueError("sampler broke")
        return sample(T, m, seed, stream=stream)

    def outcome_stream(seed, stream=0):
        if stream == broken:
            raise ValueError("sampler broke")
        return substream(seed, stream)

    # the general path samples a trajectory, the skeleton path draws only the
    # outcomes; each looks its function up by the module-global name at call time
    for forecaster, name, broken_fn in (
        ("uniform_random", "sample_bernoulli_env", sample_env),
        ("honest", "substream", outcome_stream),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(experiments, name, broken_fn)
            cfg = ExperimentConfig(experiment_id="boom", forecaster=forecaster, T_list=(64,), replicates=3, seed=5)
            with pytest.raises(ValueError) as info:
                run_scaling(cfg)
        assert str(info.value) == f"boom: cell T=64 rep=1 stream={broken}: sampler broke"


def test_bound_runner_failures_name_the_cell(monkeypatch):
    # the second cell's difference-of-two check raises: the error keeps its type and names the
    # runner, T, replicate and environment stream (rep for the oracle, the cell stream for the reduction)
    check_diff_two = experiments.check_diff_two
    for runner, kwargs, name, T, stream in (
        (run_oracle_bound, dict(T=64, k=2, replicates=3, seed=5), "oracle bound", 64, 1),
        (run_reduction_bound, dict(T_list=(256,), replicates=3, seed=5), "reduction bound", 256,
         experiments._cell_stream(256, 1)),
    ):
        calls = []

        def second_check_raises(ledger):
            calls.append(ledger)
            if len(calls) == 2:
                raise ArithmeticError("check broke")
            return check_diff_two(ledger)

        with monkeypatch.context() as patch:
            patch.setattr(experiments, "check_diff_two", second_check_raises)
            with pytest.raises(ArithmeticError) as info:
                runner(**kwargs)
        assert str(info.value) == f"{name}: cell T={T} rep=1 stream={stream}: check broke"


OBLIVIOUS = ("honest", "rounded_honest", "overshoot", "constant")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_skeleton_cells_equal_the_general_path(data):
    env = data.draw(st.sampled_from(("bernoulli", "rademacher")))
    groups = data.draw(st.sampled_from(sorted(g for g, kind in experiments.FAMILIES.items() if env in kind.envs)))
    forecaster = data.draw(st.sampled_from(OBLIVIOUS))
    params = {
        "honest": {},
        "rounded_honest": {"Q": data.draw(st.integers(1, 24))},
        "overshoot": {"offset": data.draw(st.sampled_from(("2eta", "1/16", "-1/8", "0")))},
        "constant": {"value": data.draw(st.sampled_from(("0", "1/2", "3/7", "1")))},
    }[forecaster]
    low = 16 if groups in ("block_hadamard", "full_walsh") else 2
    T = data.draw(st.one_of(st.integers(low, 64), st.integers(low, 4096)))
    seed = data.draw(st.integers(0, 2**16))
    try:
        cfg = ExperimentConfig(env=env, forecaster=forecaster, groups=groups, T_list=(T,), replicates=2, seed=seed, **params)
    except ValueError:  # too few grid points for the range pieces
        assume(False)
    try:
        want = [experiments.general_replicate(cfg, T, rep) for rep in range(cfg.replicates)]
    except ValueError as exc:  # an overshoot past 1: both paths refuse the cell alike
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            experiments.run_replicate(cfg, T, 0)
        return
    plan = cfg.plans[T]
    skeleton = plan.skeleton
    assert skeleton is not None
    if skeleton.run.rows is not None:
        # a layout cell draws the general path's own per-round heads
        assert [experiments.run_replicate(cfg, T, rep) for rep in range(cfg.replicates)] == want
        return
    # a layout-free cell reads only column counts: feed it those of the
    # general path's own heads, with no per-round heads kept
    got = []
    for rep in range(cfg.replicates):
        heads = skeleton.env.draw(experiments.substream(seed, experiments._cell_stream(T, rep)))
        counts = SkeletonRun.from_heads(skeleton.run, heads).column_heads
        got.append(experiments._skeleton_cell(plan, SkeletonRun(skeleton.run, counts)))
    assert got == want


@pytest.mark.parametrize(
    "env, groups", [("bernoulli", "pred_threshold"), ("bernoulli", "grid_ranges"), ("rademacher", "walsh")]
)
def test_layout_free_cells_draw_one_binomial_per_column(env, groups):
    # T = 1000 is no multiple of the grid size, so the last round robin is partial
    cfg = ExperimentConfig(env=env, groups=groups, T_list=(1000,), replicates=3, seed=9)
    plan = cfg.plans[1000]
    skeleton = plan.skeleton
    assert skeleton.run.rows is None
    for rep in range(cfg.replicates):
        counts = skeleton.env.draw_counts(experiments.substream(9, experiments._cell_stream(1000, rep)))
        assert experiments.run_replicate(cfg, 1000, rep) == experiments._skeleton_cell(
            plan, SkeletonRun(skeleton.run, counts)
        )


OBLIVIOUS_PARAMS = {"honest": {}, "rounded_honest": {"Q": 7}, "overshoot": {"offset": "1/16"}, "constant": {"value": "3/7"}}
LAYOUT_FREE = [
    (env, groups)
    for env in ("bernoulli", "rademacher")
    for groups, kind in sorted(experiments.FAMILIES.items())
    if env in kind.envs and groups not in ("block_hadamard", "full_walsh")
]


def _per_round_skeleton(plan):
    """The run at heads = 0 over all T rounds and its per-round ``RunSkeleton``, as layout plans build them."""
    env = experiments.ENVS[plan.env].contexts(plan.T, plan.m)
    traj = env.trajectory(np.zeros(plan.T, dtype=bool))
    run = ScaledRun.build(traj, run_forecaster(traj, plan.forecaster()), *plan.family.required_denominators())
    return run, RunSkeleton.build(run, plan.family, len(env.grid), env.step)


def _assert_fields_equal(got, want, cls):
    for f in dataclasses.fields(cls):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a is b if f.name == "family" else a == b, f.name


# T < n (20 rounds of a 33- or 64-point grid), T no multiple of n (1001 rounds of 5 or 8), and T = 2^18
@pytest.mark.parametrize("T, m", [(20, 64), (1001, None), (2**18, None)], ids=["short", "ragged", "2^18"])
@pytest.mark.parametrize("forecaster", OBLIVIOUS)
@pytest.mark.parametrize("env, groups", LAYOUT_FREE)
def test_column_skeletons_equal_the_per_round_reference(env, groups, forecaster, T, m):
    cfg = ExperimentConfig(
        env=env, groups=groups, forecaster=forecaster, T_list=(T,), m=m, replicates=1, seed=1,
        **OBLIVIOUS_PARAMS[forecaster],
    )
    plan = cfg.plans[T]
    n = len(experiments.ENVS[env].grid(cfg, plan.m))
    if T == 20:
        assert T < n
    elif T == 1001:
        assert T % n
    skeleton = plan.skeleton
    run, want = _per_round_skeleton(plan)
    assert skeleton.run.rows is None
    _assert_fields_equal(skeleton.run, want, RunSkeleton)
    # the statistics and the outcome-free checks and extras the per-round run gives
    checks, extras, stats = experiments._outcome_free(plan, run)
    assert skeleton.checks == checks and skeleton.extras == extras
    assert (skeleton.stats is None) == (stats is None) == (groups != "pred_threshold")
    if stats is not None:
        _assert_fields_equal(skeleton.stats, stats, DeviationStats)


class _Drifting(HonestForecaster):
    """Declares itself oblivious, yet predicts one step higher from the middle round on."""

    def predict_all(self, traj, rng):
        return Predictions(num=traj.x_num + (np.arange(traj.T) >= traj.T // 2), den=traj.den)


@pytest.mark.parametrize(
    "env, groups", [("bernoulli", "pred_threshold"), ("rademacher", "walsh"), ("rademacher", "full_walsh")]
)
def test_skeletons_refuse_predictions_that_do_not_repeat(env, groups):
    cfg = ExperimentConfig(env=env, groups=groups, T_list=(1000,), replicates=1, seed=2)
    plan = dataclasses.replace(cfg.plans[1000], forecaster=_Drifting)
    with pytest.raises(ValueError, match="predictions do not repeat with the context period"):
        experiments.CellSkeleton.build(plan)


def test_walsh_pipeline_family_csv_equals_the_per_object_rows(tmp_path):
    # the reference: one row per group object, from iterating the family
    config = experiment_config_from(load_config(ROOT / "configs" / "walsh_pipeline.cfg", {}))
    write_family_csv(tmp_path / "family.csv", config)
    rows = ((T, g.id, type(g).__name__, g.describe()) for T, plan in config.plans.items() for g in plan.family)
    write_csv(tmp_path / "objects.csv", ("T", "group_id", "kind", "params"), rows)
    assert (tmp_path / "family.csv").read_bytes() == (tmp_path / "objects.csv").read_bytes()


def test_layout_skeleton_runs_need_per_round_heads():
    cfg = ExperimentConfig(env="rademacher", groups="full_walsh", T_list=(256,), replicates=2, seed=4)
    skeleton = cfg.plans[256].skeleton.run
    heads = cfg.plans[256].skeleton.env.draw(experiments.substream(4, 0))
    counts_only = SkeletonRun(skeleton, SkeletonRun.from_heads(skeleton, heads).column_heads)
    with pytest.raises(ValueError, match="per-round heads"):
        counts_only.resid_coefficients(skeleton.family.layout)
    with pytest.raises(ValueError, match="per-round heads"):
        calibration.accumulate_run(counts_only, skeleton.family)


@pytest.mark.parametrize("entries, n_chunks", ((1, 11), (1200, 6), (1 << 22, 1)))
def test_chunked_block_transforms_equal_the_general_path(monkeypatch, entries, n_chunks):
    # T = 1024 has K = 11 blocks of L = 64 rounds and 8 buckets each (512
    # entries): one block per transform, pairs of blocks, and all in one
    monkeypatch.setattr(calibration, "STACK_ENTRIES", entries)
    cfg = ExperimentConfig(env="rademacher", groups="full_walsh", T_list=(1024,), replicates=2, seed=11)
    assert len(cfg.plans[1024].skeleton.run.rows.chunks) == n_chunks
    assert [experiments.run_replicate(cfg, 1024, rep) for rep in range(2)] == [
        experiments.general_replicate(cfg, 1024, rep) for rep in range(2)
    ]


# T = 8192 and 32768 have blocks of L = 512 and 2048 rounds: the heads'
# transform is two float32 matrix products there, above the range the
# hypothesis test above draws T from
@pytest.mark.parametrize("T", [8192, 32768])
@pytest.mark.parametrize("forecaster", ["honest", "rounded_honest"])
@pytest.mark.parametrize("env, groups", [("rademacher", "full_walsh"), ("bernoulli", "block_hadamard")])
def test_layout_skeleton_cells_equal_the_general_path_at_long_blocks(env, groups, forecaster, T):
    params = {"Q": 16} if forecaster == "rounded_honest" else {}
    cfg = ExperimentConfig(env=env, groups=groups, forecaster=forecaster, T_list=(T,), replicates=2, seed=T, **params)
    plan = cfg.plans[T]
    assert plan.family.layout.L == {8192: 512, 32768: 2048}[T] and plan.skeleton.run.coeff0 is not None
    assert [experiments.run_replicate(cfg, T, rep) for rep in range(2)] == [
        experiments.general_replicate(cfg, T, rep) for rep in range(2)
    ]


# the block coefficients' dtype comes from the ceiling 2 L scale alone: with
# the float limits lowered, the same cells run in float64 and in int64
@pytest.mark.parametrize(
    "limits, dtype", [((0, 2**53), np.float64), ((0, 0), np.int64)], ids=["float64", "int64"]
)
@pytest.mark.parametrize("T", [1024, 8192])
@pytest.mark.parametrize("env, groups", [("rademacher", "full_walsh"), ("bernoulli", "block_hadamard")])
def test_layout_skeleton_cells_equal_the_general_path_in_wider_dtypes(monkeypatch, env, groups, T, limits, dtype):
    floats = tuple(zip(limits, (np.dtype(np.float32), np.dtype(np.float64))))
    monkeypatch.setattr(calibration, "EXACT_FLOATS", floats)
    cfg = ExperimentConfig(env=env, groups=groups, T_list=(T,), replicates=2, seed=T)
    assert cfg.plans[T].skeleton.run.coeff0.dtype == dtype
    assert [experiments.run_replicate(cfg, T, rep) for rep in range(2)] == [
        experiments.general_replicate(cfg, T, rep) for rep in range(2)
    ]


def test_only_round_robin_oblivious_plans_have_a_skeleton():
    for env, forecaster, groups in (
        ("bernoulli", "uniform_random", "pred_threshold"),
        ("rademacher", "empirical_mean_bucket", "walsh"),
        ("bernoulli", "proper_reduction", "grid_ranges"),
        ("bits", "honest", "bits"),
    ):
        cfg = ExperimentConfig(env=env, forecaster=forecaster, groups=groups, T_list=(256,), replicates=2, seed=3)
        assert cfg.plans[256].skeleton is None
        assert experiments.run_replicate(cfg, 256, 1) == experiments.general_replicate(cfg, 256, 1)


def test_scaling_argmax_breaks_ties_on_the_smallest_id(monkeypatch):
    cfg = ExperimentConfig(env="rademacher", groups="full_walsh", T_list=(64,), replicates=2, K=12)
    family = cfg.plans[64].family
    for tied, best in (
        # family order puts wal+/1 first; the smallest id is had+/1/0
        (("wal+/1", "had-/1/0", "had+/1/0"), "had+/1/0"),
        # ids sort as strings: had-/10/0 < had-/2/0
        (("wal-/3", "had-/2/0", "had-/10/0"), "had-/10/0"),
    ):
        vector = np.full(len(family), 0.25)
        vector[[family.index[gid] for gid in tied]] = 0.75
        err = calibration.CalibrationReport(family.index, vector)
        cell = {"err": err, "checks": [], "extras": {}, "violations": []}
        monkeypatch.setattr(experiments, "run_replicate", lambda config, T, rep: cell)
        row = run_scaling(cfg).rows[0]
        assert row.argmax_group == best
        assert row.per_group_mean == dict(err)
        assert list(row.per_group_mean) == family.ids()


def _cell_ledgers(monkeypatch) -> list:
    """The ledgers of the cells run after this call, in order."""
    accumulate, ledgers = experiments.accumulate_run, []

    def kept(run, family):
        ledgers.append(accumulate(run, family))
        return ledgers[-1]

    monkeypatch.setattr(experiments, "accumulate_run", kept)
    return ledgers


@pytest.mark.parametrize(
    "env, forecaster, groups",
    [("bernoulli", "honest", "pred_threshold"), ("rademacher", "rounded_honest", "full_walsh")],
)
def test_cell_err_is_a_mapping_in_family_order(monkeypatch, env, forecaster, groups):
    # the cell result a benchmark reads: result["err"].items() in family order
    cfg = ExperimentConfig(env=env, forecaster=forecaster, groups=groups, T_list=(512,), replicates=2, seed=5)
    family = cfg.plans[512].family
    ledgers = _cell_ledgers(monkeypatch)
    for rep in range(2):
        err = experiments.run_replicate(cfg, 512, rep)["err"]
        assert isinstance(err, Mapping)
        items = list(err.items())
        assert [gid for gid, _ in items] == family.ids()
        assert all(type(e) is float and e == float(ledgers[-1].err_exact(gid)) for gid, e in items)
        if groups == "pred_threshold":  # honest: Err(g1) = Err(g2) = 0 exactly
            assert [e for gid, e in items if gid[:3] in ("g1@", "g2@")] == [0.0, 0.0]


@pytest.mark.parametrize("replicates", [3, 17])
@pytest.mark.parametrize(
    "env, forecaster, groups",
    [
        ("rademacher", "rounded_honest", "full_walsh"),
        ("bernoulli", "uniform_random", "block_hadamard"),  # no direct groups
        ("bits", "uniform_random", "bits"),
    ],
)
def test_scaling_aggregation_matches_per_id_reference(env, forecaster, groups, replicates):
    cfg = ExperimentConfig(
        env=env, forecaster=forecaster, groups=groups, T_list=(256, 512), replicates=replicates, seed=9, Q=8
    )
    rows = run_scaling(cfg).rows
    for T, row in zip(cfg.T_list, rows):
        results = [experiments.run_replicate(cfg, T, rep) for rep in range(cfg.replicates)]
        # the per-id aggregation over dicts that the vector path replaced
        group_ids = sorted(results[0]["err"])
        means = np.array([[r["err"][gid] for r in results] for gid in group_ids]).mean(axis=-1)
        assert row.per_group_mean == dict(zip(group_ids, means.tolist()))
        assert list(row.per_group_mean) == cfg.plans[T].family.ids()
        assert row.argmax_group == group_ids[int(np.argmax(means))]
        assert row.mean_mcerr == float(np.array([r["err"].mcerr for r in results]).mean())


def test_per_group_mean_is_a_read_only_report_in_family_order():
    cfg = ExperimentConfig(env="rademacher", forecaster="rounded_honest", groups="full_walsh", T_list=(256,), seed=9)
    family = cfg.plans[256].family
    means = run_scaling(cfg).rows[0].per_group_mean
    # the cells' own mapping, over the family's cached index: no second id table
    assert isinstance(means, calibration.CalibrationReport) and means.index is family.index
    # the dict of Python floats the mapping replaced, from the same cells
    results = [experiments.run_replicate(cfg, 256, rep) for rep in range(cfg.replicates)]
    vector = np.stack([r["err"].vector for r in results], axis=-1).mean(axis=-1)
    old = dict(zip(family.ids(), vector.tolist()))
    assert means == old
    assert list(means.items()) == list(old.items())
    assert all(type(v) is float for v in means.values())
    ids = sorted(means)
    assert not hasattr(means, "__setitem__")
    with pytest.raises(TypeError):
        means[ids[0]] = 0.0
    between = ids[5] + "\0"
    assert ids[5] < between < ids[6]
    for unknown in ("", "~", "g_all/0", between):
        assert unknown not in means and means.get(unknown) is None
        with pytest.raises(KeyError):
            means[unknown]


# the Walsh halves index the signed-noise grid, and bit groups read a bit context
UNBUILDABLE = {
    ("bernoulli", "walsh"),
    ("bernoulli", "full_walsh"),
    ("bits", "walsh"),
    ("bits", "full_walsh"),
    ("bernoulli", "bits"),
    ("rademacher", "bits"),
}


@pytest.mark.parametrize("groups", sorted(experiments.FAMILIES))
@pytest.mark.parametrize("env", sorted(experiments.ENVS))
def test_family_manifest_matches_the_cells_groups(env, groups):
    kwargs = dict(env=env, groups=groups, T_list=(256, 512), replicates=1, seed=3)
    if (env, groups) in UNBUILDABLE:
        with pytest.raises(ValueError, match=f"groups.kind={groups} does not run on env.kind={env}"):
            ExperimentConfig(**kwargs)
        return
    cfg = ExperimentConfig(**kwargs)
    errs = {T: sorted(experiments.run_replicate(cfg, T, 0)["err"]) for T in cfg.T_list}
    rows = {T: plan.family.manifest_rows() for T, plan in cfg.plans.items()}
    assert {T: sorted(gid for gid, _, _ in rows[T]) for T in cfg.T_list} == errs
    # write_csv quotes nothing, so no id, kind or params may hold a delimiter, a quote or a line break
    assert [field for T in rows for row in rows[T] for field in row if set(field) & set(',"\r\n')] == []


@pytest.mark.parametrize(
    "field, value, error, key",
    [
        ("env", "mars", KeyError, "env.kind"),
        ("groups", "cliques", KeyError, "groups.kind"),
        ("forecaster", "wizard", KeyError, "forecaster.id"),
        ("oracle", "wizard", KeyError, "forecaster.oracle"),
        ("update", "sideways", ValueError, "forecaster.update"),
        ("offset", "one", ValueError, "forecaster.offset"),
        ("eta", "small", ValueError, "groups.eta"),
        ("replicates", 0, ValueError, "run.replicates"),
        ("T_list", (), ValueError, "env.T_list"),
        ("workers", 0, ValueError, "run.workers"),
        ("workers", 65, ValueError, "run.workers"),
        ("k", experiments.MAX_K + 1, ValueError, "env.k"),
    ],
)
def test_config_names_the_bad_key(field, value, error, key):
    base = {"forecaster": "proper_reduction"} if field in ("oracle", "update") else {}
    with pytest.raises(error, match=key):
        if field == "workers":  # a key the CLI reads, not a config field: only 1 builds a config
            experiment_config_from({key: str(value)})
        else:
            ExperimentConfig(**base, **{field: value})


def test_run_workers_one_builds_the_same_config_as_unset():
    assert experiment_config_from({"run.workers": "1"}) == experiment_config_from({})


def test_run_scaling_builds_each_family_once_per_T(monkeypatch):
    build = experiments.build_full_walsh_family
    calls = {"cells": 0, "all": 0}
    in_cell = []

    def counted(*args, **kwargs):
        calls["all"] += 1
        calls["cells"] += bool(in_cell)
        return build(*args, **kwargs)

    replicate = experiments.run_replicate

    def cell(config, T, rep):
        in_cell.append(T)
        try:
            return replicate(config, T, rep)
        finally:
            in_cell.pop()

    monkeypatch.setattr(experiments, "build_full_walsh_family", counted)
    monkeypatch.setattr(experiments, "run_replicate", cell)
    cfg = ExperimentConfig(
        env="rademacher", forecaster="rounded_honest", groups="full_walsh", T_list=(256, 512), replicates=3, seed=5
    )
    assert calls == {"cells": 0, "all": 2}
    run_scaling(cfg)
    assert calls == {"cells": 0, "all": 2}


def _half_pair_err(ledger, a: int, j: int) -> int:
    """Err(had+/a+1/j) + Err(had-/a+1/j), over 2 scale: the diff_two bound of block pair (a, j)."""
    index = ledger.family.index
    return int(ledger.err[index[f"had+/{a + 1}/{j}"]] + ledger.err[index[f"had-/{a + 1}/{j}"]])


@pytest.mark.parametrize("bad", [[(2, 3)], [(2, 3), (0, 7)]])
def test_corrupted_block_entries_are_named_and_counted(monkeypatch, bad):
    accumulate = experiments.accumulate_run
    ledgers = []

    def corrupted(run, family):
        ledger = accumulate(run, family)
        for a, j in bad:
            # 2 |c| now exceeds Err(had+) + Err(had-) by 1 or 2, over 2 scale
            ledger.signed[a, j] = _half_pair_err(ledger, a, j) // 2 + 1
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
    bound = _half_pair_err(ledger, a, j)
    index = ledger.family.direct_pair_rows.shape[1] + a * ledger.family.layout.L + j
    assert (summary.count, summary.failures, summary.first) == (len(ledger.family.signed_pairs()), len(bad), index)
    assert (summary.lhs, summary.rhs) == (Fraction(2 * (bound // 2 + 1), den), Fraction(bound, den))
    assert out["violations"] == ["diff_two"] * len(bad)
    assert {c.name: c.min_slack for c in out["checks"]}["diff_two"] == summary.min_slack < 0
    row = run_scaling(cfg).rows[0]
    assert row.violations == 2 * len(bad) and row.min_slack["diff_two"] < 0


def _recorded_folds(monkeypatch) -> list:
    """(fold, cell results) of every ``_run_cells`` call after this one, in call order."""
    run_cells, folds = experiments._run_cells, []

    def recorded(name, T, replicates, cell, stream=experiments._cell_stream):
        results = []

        def kept(rep, key):
            results.append(cell(rep, key))
            return results[-1]

        folds.append((run_cells(name, T, replicates, kept, stream), results))
        return folds[-1][0]

    monkeypatch.setattr(experiments, "_run_cells", recorded)
    return folds


def _assert_fold_is_the_cells(fold, results):
    """The fold against each cell's own checks and err, recomputed cell by cell."""
    failed, slack = [], {}
    for rep, r in enumerate(results):
        for c in r["checks"]:
            if c.failures:
                failed.append((rep, c))
            if c.count and (c.name not in slack or c.min_slack < slack[c.name]):
                slack[c.name] = c.min_slack
    assert [(rep, id(c)) for rep, c in fold.failed] == [(rep, id(c)) for rep, c in failed]
    assert fold.violations == sum(len(r["violations"]) for r in results) == sum(c.failures for _, c in failed)
    assert fold.min_slack == slack and list(fold.min_slack) == list(slack)
    assert fold.err.dtype == np.float64 and fold.err.flags.c_contiguous
    assert fold.err.shape == (len(results[0]["err"]), len(results))
    for rep, r in enumerate(results):
        assert fold.err[:, rep].tolist() == list(r["err"].values())
        assert fold.mcerr[rep] == max(r["err"].values())
    for key in results[0]["extras"]:
        assert fold.extras[key].tolist() == [r["extras"][key] for r in results]


def test_fold_matches_the_cells_of_a_corrupted_scaling_run(monkeypatch):
    # rep 0 fails diff_two once, rep 1 passes, rep 2 fails telescoping and then diff_two twice
    accumulate, reps = experiments.accumulate_run, []

    def corrupted(run, family):
        ledger = accumulate(run, family)
        rep = len(reps)
        reps.append(rep)
        for a, j in ([(2, 3)], [], [(2, 3), (0, 7)])[rep]:
            ledger.signed[a, j] = _half_pair_err(ledger, a, j) // 2 + 1
        if rep == 2:
            ledger.bias = ledger.bias.copy()
            ledger.bias[family.index["g_all"], 0] += 1
        return ledger

    monkeypatch.setattr(experiments, "accumulate_run", corrupted)
    folds = _recorded_folds(monkeypatch)
    cfg = ExperimentConfig(
        env="rademacher", forecaster="rounded_honest", groups="full_walsh", T_list=(256,), replicates=3, seed=5, Q=4
    )
    row = run_scaling(cfg).rows[0]
    (fold, results), = folds
    _assert_fold_is_the_cells(fold, results)
    assert [(rep, c.name) for rep, c in fold.failed] == [(0, "diff_two"), (2, "telescoping"), (2, "diff_two")]
    assert fold.violations == 4
    assert (row.failed, row.violations, row.min_slack) == (fold.failed, fold.violations, fold.min_slack)
    assert row.min_slack["diff_two"] < 0 and row.min_slack["telescoping"] < 0
    assert row.mean_mcerr == float(fold.mcerr.mean())


def test_fold_matches_the_cells_of_a_corrupted_reduction_run(monkeypatch):
    # routed rep 0 doubles group 2's Err, rep 2 those of groups 0 and 1: each fails the cell triangle bound
    accumulate, reps = experiments.accumulate_run, []

    def corrupted(run, family):
        ledger = accumulate(run, family)
        rep = len(reps)
        reps.append(rep)
        ledger.err[([2], [], [0, 1])[rep]] *= 2
        return ledger

    monkeypatch.setattr(experiments, "accumulate_run", corrupted)
    folds = _recorded_folds(monkeypatch)
    records, details = run_reduction_bound(T_list=(256,), replicates=3, seed=31)
    assert len(folds) == 4  # three standalone cells, then the routed ones
    for fold, results in folds:
        _assert_fold_is_the_cells(fold, results)
    fold, results = folds[-1]
    assert [(rep, c.name) for rep, c in fold.failed] == [(0, "cell_triangle"), (2, "cell_triangle")]
    assert [c.failures for _, c in fold.failed] == [1, 2]
    info = details["per_T"][256]
    assert (info["failed"], info["min_slack"]) == (fold.failed, fold.min_slack)
    assert info["min_slack"]["cell_triangle"] < 0
    assert {r.check_id: r.measured for r in records}["reduction_pathwise@T=256"] == fold.violations == 3
    # the standalone cells check nothing and carry one error each, their marginal Err
    assert all(f.failed == [] and f.min_slack == {} and f.err.shape == (1, 3) for f, _ in folds[:3])


def test_failing_standalone_cell_names_itself(monkeypatch):
    # the standalone cells run through the one replicate loop: an error keeps its type and names
    # the runner, the cell z and its seed, T, the replicate and its stream
    from caliblab import environments

    sample, marginal = environments.sample_bernoulli_on_grid, experiments.marginal_err
    calls = []

    def second_draw_raises(grid, T, seed, stream=0):
        if stream == 1:
            raise ArithmeticError("sampler broke")
        return sample(grid, T, seed, stream=stream)

    def second_err_raises(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ArithmeticError("marginal_err broke")
        return marginal(*args)

    for owner, name, broken, what in (
        (environments, "sample_bernoulli_on_grid", second_draw_raises, "sampler broke"),
        (experiments, "marginal_err", second_err_raises, "marginal_err broke"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, broken)
            with pytest.raises(ArithmeticError) as info:
                run_reduction_bound(T_list=(256,), replicates=3, seed=5)
        assert str(info.value) == f"reduction bound standalone z=0 seed=1005: cell T=256 rep=1 stream=1: {what}"


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


def test_oracle_bound_m_copies():
    records, _ = run_oracle_bound(T=300, k=2, m_copies=2, replicates=5, seed=29)
    assert all(r.passed for r in records)


def test_oracle_bound_runs_the_cells_pathwise_suite(monkeypatch):
    # each oracle replicate is a scaling cell, so telescoping is checked there too
    def failing(ledger):
        return calibration.CheckSummary("telescoping", count=1, failures=1, min_slack=Fraction(-1))

    monkeypatch.setattr(experiments, "check_telescoping", failing)
    records, _ = run_oracle_bound(T=200, k=2, replicates=3, seed=29)
    assert {r.check_id: r.measured for r in records}["oracle_pathwise_violations"] == 3.0


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
        assert info["min_slack"]["cell_triangle"] == 0
        assert info["failed"] == []
    # cells that claim zero error make every group with Err > 0 a violation
    monkeypatch.setattr(PatternRouter, "cell_err", lambda self, z: Fraction(0))
    records, details = run_reduction_bound(T_list=(256,), replicates=3, seed=31)
    info = details["per_T"][256]
    bad = info["failed"]
    assert bad and all(isinstance(s, calibration.CheckSummary) for _, s in bad)
    assert {r.check_id: r.measured for r in records}["reduction_pathwise@T=256"] == sum(s.failures for _, s in bad)
    rep, first = bad[0]
    assert rep == 0 and first.name == "cell_triangle" and first.first in range(3)
    assert first.lhs > 0 and first.rhs == 0
    # every group's Err, recomputed cell by cell: the tightest slack is -max Err
    config = ExperimentConfig(env="bernoulli", groups="grid_ranges", T_list=(256,), seed=31)
    plan = config.plans[256]
    factory = make_forecaster_factory("empirical_mean_bucket", Q=4)
    errs = [
        experiments._cell(config, plan, experiments._cell_stream(256, rep), PatternRouter(factory, plan.family))["err"]
        for rep in range(3)
    ]
    assert float(info["min_slack"]["cell_triangle"]) == -max(e.vector.max() for e in errs)


def test_reduction_cells_run_the_pathwise_suite(monkeypatch):
    # each routed cell is a general-path cell, so telescoping is checked there too
    def failing(ledger):
        return calibration.CheckSummary("telescoping", count=1, failures=1, min_slack=Fraction(-1))

    monkeypatch.setattr(experiments, "check_telescoping", failing)
    records, details = run_reduction_bound(T_list=(256,), replicates=3, seed=31)
    assert {r.check_id: r.measured for r in records}["reduction_pathwise@T=256"] == 3.0
    assert [(rep, s.name) for rep, s in details["per_T"][256]["failed"]] == [
        (0, "telescoping"), (1, "telescoping"), (2, "telescoping")
    ]
    # the triangle bound still holds with equality on the disjoint cells
    assert details["per_T"][256]["min_slack"]["cell_triangle"] == 0


def test_reduction_rejects_prediction_dependent_groups(tmp_path, capsys):
    # the reduction bound routes grid_ranges cells only; a groups key is refused as unknown
    out = tmp_path / "out"
    cfg = tmp_path / "r.cfg"
    cfg.write_text("reduction.T_list=512\nreduction.groups=pred_threshold\nrun.replicates=2\n")
    assert main(["bounds", "reduction", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "unknown config key reduction.groups" in capsys.readouterr().err
    assert not out.exists()


def test_identity_suite_small():
    records = run_identity_suite(h1_max=64, prefix_max=128, expansion_max=64, block_max=32)
    assert all(r.passed for r in records)
    assert len(records) == 5


@pytest.mark.parametrize("n", [2, 4, 8, 64, 4096])
def test_walsh_prefix_check_flags_a_bound_one_too_small(n):
    # n = 2 and 4 fill part of one packed byte, n = 8 exactly one, and
    # n = 4096 is the largest system the identity suite scans
    bounds = np.array([1 << ((j & -j).bit_length() - 1) for j in range(1, n)])
    # the dyadic bound 2^tz(j) is attained, so every row is tight
    assert walsh_prefix_violations(n, bounds, block_rows=5) == 0
    # inside and at the edges of 5-row blocks, and the last row
    for j in sorted({1, 2, 3, 4, 5, 32, 63, 2048, n - 1} & set(range(1, n))):
        tight = bounds.copy()
        tight[j - 1] -= 1
        assert walsh_prefix_violations(n, tight, block_rows=5) == 1
        assert walsh_prefix_violations(n, tight) == 1


def test_walsh_prefix_check_flags_a_bound_one_too_small_across_tiles():
    # n = 512 builds its rows from 128 x 128 tiles; the default blocks hold
    # rows 1..128, 129..256, ..., so 127 and 128 sit at a block's end and 129 at
    # the next block's start, and 511 is the last row
    n = 512
    j = np.arange(1, n)
    bounds = j & -j
    assert walsh_prefix_violations(n, bounds) == 0
    for row in (127, 128, 129, 511):
        tight = bounds.copy()
        tight[row - 1] -= 1
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


def _reversed_report(values) -> calibration.CalibrationReport:
    """The report of ``values[i]`` for id ``g{i:05d}``, its family order the reverse of the id order."""
    n = len(values)
    index = {f"g{i:05d}": n - 1 - i for i in reversed(range(n))}
    return calibration.CalibrationReport(index, np.asarray(values, float)[::-1])


def _groups_result(tables: dict):
    """A scaling result that holds only what the groups CSV reads: one report per T, whose ids the writer sorts."""
    rows = [SimpleNamespace(T=T, per_group_mean=_reversed_report(v)) for T, v in tables.items()]
    return SimpleNamespace(config=SimpleNamespace(experiment_id="diff"), rows=rows)


def _groups_csv_per_row(path, result) -> None:
    """The groups CSV as ``write_csv`` writes its (eid, T, id, mean) rows: the reference of the column-wise writer."""
    eid = result.config.experiment_id
    rows = ((eid, row.T, gid, v) for row in result.rows for gid, v in sorted(row.per_group_mean.items()))
    experiments.write_csv(path, ("experiment_id", "T", "group_id", "mean_err"), rows)


_SUBNORMALS = [5e-324, -5e-324, 1e-310, np.nextafter(2.0**-1022, 0.0), 2.0**-1074 * 3]
_NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0]
GROUP_TABLES = {
    "signed_zeros": {8: [0.0, -0.0, 0.0, 0.5, -0.0]},
    "non_finite_and_subnormal": {8: [np.nan, np.inf, -np.inf, _NAN_PAYLOAD, -np.nan, *_SUBNORMALS, 0.0, -0.0]},
    "heavy_duplication": {16: [0.25, 1 / 3, -0.0, 0.25] * 2500},
    "beyond_one_chunk": {32: np.random.default_rng(3).random(CHUNK_LINES + 7), 64: [0.1] * (CHUNK_LINES - 1)},
    "empty_family": {2: [0.5, -0.0], 4: [], 8: [7.0]},
    "only_empty": {4: []},
}


@pytest.mark.parametrize("name", sorted(GROUP_TABLES))
def test_groups_csv_matches_the_per_row_writer(name, tmp_path):
    result = _groups_result(GROUP_TABLES[name])
    write_per_group_csv(tmp_path / "columns.csv", result)
    _groups_csv_per_row(tmp_path / "rows.csv", result)
    written = (tmp_path / "columns.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    if name == "signed_zeros":
        assert written.decode().splitlines()[1:3] == ["diff,8,g00000,0", "diff,8,g00001,-0"]


# Section 4 diagnostics, computed from the library's public pieces


def l1_truthfulness_ratio(T: int, replicates: int, seed: int) -> float:
    """E[A] / (log2(m+1) E[MCerr]) for rounded-honest on the full family."""
    m_env = section4_grid_count(T)
    config = ExperimentConfig(
        experiment_id="l1-diag",
        env="rademacher",
        forecaster="rounded_honest",
        groups="full_walsh",
        T_list=(T,),
        replicates=replicates,
        seed=seed,
        Q=m_env,
    )
    row = run_scaling(config).rows[0]
    assert not row.violations, f"pathwise violations in diagnostic run: {row.violations}"
    return row.extras_mean["A"] / (math.log2(m_env + 1) * row.mean_mcerr)


# Diagnostic floor for E[sum_v |Nz|] log2(L+1) / E[N_a] per Hadamard index,
# calibrated on honest runs (observed minima ~2.2 across L in 2^5..2^11)
NOISE_FLOOR_DIAG = 0.2


def noise_floor_diagnostic(T: int, K: int, replicates: int, seed: int) -> dict:
    """min over (a, j) of E[sum_v |Nz|] log2(L+1) / E[N_a], honest forecaster."""
    m_env = section4_grid_count(T)
    layout = build_block_layout(T, K)
    noise_sums = np.zeros((layout.K, layout.L))
    n_a_sum = np.zeros(layout.K)
    for rep in range(replicates):
        traj = sample_rademacher_env(T, seed, m=m_env, stream=rep)
        run = ScaledRun.build(traj, Predictions(num=traj.x_num.copy(), den=traj.den))
        rows = run.block_rows(layout)
        noise = run.resid_coefficients(layout) - calibration.block_decompose(run, layout)
        n_a_sum += rows.per_block(np.sqrt(rows.counts))
        noise_sums += rows.per_block(np.abs(noise / run.scale))
    mean_noise = noise_sums / replicates
    mean_n_a = n_a_sum / replicates
    ratios = mean_noise * math.log2(layout.L + 1) / mean_n_a[:, None]
    return {"min_ratio": float(ratios.min()), "layout": layout, "ratios": ratios}


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
    for T, K in ((256, 2), (1024, 4), (4096, 8)):
        out = noise_floor_diagnostic(T=T, K=K, replicates=60, seed=103)
        assert out["min_ratio"] >= NOISE_FLOOR_DIAG, (T, K, out["min_ratio"])
