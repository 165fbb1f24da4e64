from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblab.calibration import Predictions, ScaledRun
from caliblab import groups as groups_module
from caliblab.environments import (
    ContextRecord,
    grid_section4,
    rademacher_contexts,
    sample_bernoulli_env,
    sample_bit_env,
    sample_rademacher_env,
)
from caliblab.groups import (
    BitGroup,
    BlockHadamardHalfGroup,
    GroupFunction,
    build_bit_family,
    build_block_hadamard_family,
    build_block_layout,
    build_full_walsh_family,
    build_grid_range_family,
    build_pred_threshold_family,
    build_walsh_family,
    default_block_count,
    default_eta,
    ThresholdGroup,
)


def ctx_mean(x) -> ContextRecord:
    return ContextRecord(mean=Fraction(x))


def ctx_timed(x, t) -> ContextRecord:
    return ContextRecord(mean=Fraction(x), time=t)


def zero_run(traj) -> ScaledRun:
    return ScaledRun.build(traj, Predictions(num=np.zeros(traj.T, dtype=np.int64), den=1))


def test_threshold_examples():
    eta = Fraction(1, 10)
    g1, g2, g3 = (ThresholdGroup(w, eta) for w in (1, 2, 3))
    c = ctx_mean(Fraction(1, 2))
    assert g1.evaluate(c, Fraction(13, 20)) == 1  # overshoot by 3/20
    assert g3.evaluate(c, Fraction(1, 2)) == 1
    assert g1.evaluate(c, Fraction(1, 2)) == 0
    assert g2.evaluate(c, Fraction(1, 2)) == 0
    # closed inequality at the boundary
    assert g1.evaluate(c, Fraction(3, 5)) == 1
    assert g3.evaluate(c, Fraction(3, 5)) == 0


def test_threshold_partition():
    eta = Fraction(1, 16)
    trio = [ThresholdGroup(w, eta) for w in (1, 2, 3)]
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = Fraction(int(rng.integers(0, 65)), 64)
        v = Fraction(int(rng.integers(0, 129)), 128)
        vals = [g.evaluate(ctx_mean(x), v) for g in trio]
        assert sum(vals) == 1


def test_threshold_rejects_bad_eta():
    with pytest.raises(ValueError):
        ThresholdGroup(1, Fraction(0))
    with pytest.raises(ValueError):
        ThresholdGroup(1, Fraction(-1, 4))


def test_eval_threshold_group_function():
    eta, x = Fraction(1, 10), Fraction(1, 2)
    c = ctx_mean(x)
    assert ThresholdGroup(1, eta).evaluate(c, Fraction(13, 20)) == 1
    assert ThresholdGroup(3, eta).evaluate(c, x) == 1
    assert ThresholdGroup(2, eta).evaluate(c, Fraction(2, 5)) == 1
    with pytest.raises(ValueError):
        ThresholdGroup(4, eta)


def test_default_eta():
    m, T = 10, 2**10
    eta = default_eta(m, T)
    assert 0 < eta <= Fraction(1, 2 * m)
    # targets sqrt(m/T)/2 from below
    assert float(eta) <= 0.5 * np.sqrt(m / T) + 1e-12
    assert float(eta) >= 0.4 * np.sqrt(m / T)
    # the disjointness cap binds when the grid is coarse relative to T
    assert default_eta(4, 10**6) < Fraction(1, 8)


def test_pred_threshold_family_guard():
    build_pred_threshold_family(8, Fraction(1, 16))
    with pytest.raises(ValueError):
        build_pred_threshold_family(8, Fraction(1, 15))


def test_walsh_family_size_and_ids():
    fam = build_walsh_family(2)
    assert len(fam) == 3
    assert fam.ids()[0] == "g_all"
    fam4 = build_walsh_family(4)
    assert len(fam4) == 2 * 3 + 1
    assert "wal+/3" in fam4.ids() and "wal-/1" in fam4.ids()


def test_walsh_half_complementarity_and_idx():
    m = 4
    fam = build_walsh_family(m)
    grid = grid_section4(m)
    for l in (1, 2, 3):
        plus = fam.groups[fam.index[f"wal+/{l}"]]
        minus = fam.groups[fam.index[f"wal-/{l}"]]
        for x in grid:
            for t in (1, 5):
                c = ctx_timed(x, t)
                assert plus.evaluate(c, None) + minus.evaluate(c, None) == 1
    # idx example: 7/12 is grid point 3 of the m=4 grid
    plus1 = fam.groups[fam.index["wal+/1"]]
    assert plus1._grid_to_idx[Fraction(7, 12)] == 3
    # off-grid falls back to idx = 1, whose Walsh signs are all +1
    off = ctx_mean(Fraction(3, 10))
    for l in (1, 2, 3):
        assert fam.groups[fam.index[f"wal+/{l}"]].feature_sign(off) == 1


def test_walsh_prediction_independence():
    fam = build_walsh_family(8)
    g = fam.groups[fam.index["wal+/5"]]
    c = ctx_timed(Fraction(1, 4), 3)
    rng = np.random.default_rng(0)
    vals = {g.evaluate(c, Fraction(int(rng.integers(0, 101)), 100)) for _ in range(100)}
    assert len(vals) == 1


def test_block_layout_example():
    fam = build_block_hadamard_family(T=20, K=2)
    layout = fam.layout
    assert layout.L == 8
    assert layout.T_prime == 16
    assert len(fam) == 32
    assert layout.block_of(8) == 1 and layout.block_of(9) == 2
    assert layout.block_of(17) is None
    with pytest.raises(ValueError):
        build_block_layout(T=20, K=11)


def test_block_layout_t_prime_range():
    for T in (16, 100, 1000):
        for K in (1, 2, 5, T // 2):
            layout = build_block_layout(T, K)
            assert T // 2 <= layout.T_prime <= T
            assert layout.L & (layout.L - 1) == 0


def test_block_half_groups():
    fam = build_block_hadamard_family(T=20, K=2)
    layout = fam.layout
    groups = list(fam)
    plus = groups[fam.index["had+/1/3"]]
    minus = groups[fam.index["had-/1/3"]]
    for t in range(1, 21):
        c = ctx_timed(Fraction(1, 2), t)
        s = plus.evaluate(c, None) + minus.evaluate(c, None)
        assert s == (1 if layout.block_of(t) == 1 else 0)
    # each pair splits its block in half: support of g+ plus support of g- is L
    for a in (1, 2):
        for j in range(layout.L):
            tp = sum(
                groups[fam.index[f"had+/{a}/{j}"]].evaluate(ctx_timed(Fraction(1, 2), t), None)
                for t in range(1, layout.T_prime + 1)
            )
            tm = sum(
                groups[fam.index[f"had-/{a}/{j}"]].evaluate(ctx_timed(Fraction(1, 2), t), None)
                for t in range(1, layout.T_prime + 1)
            )
            assert tp + tm == layout.L
            assert max(tp, tm) >= layout.L // 2


def test_complementarity_exhaustive_vectorized():
    # exhaustive over L <= 256 through the vectorized path
    for T, K in ((256, 1), (512, 2), (1024, 4)):
        traj = sample_rademacher_env(T=T, seed=1)
        fam = build_block_hadamard_family(T=T, K=K)
        layout = fam.layout
        assert layout.L <= 256
        run = zero_run(traj)
        total = np.zeros(T, dtype=np.int64)
        for plus, minus in fam.signed_pairs():
            w = plus.weights(run) + minus.weights(run)
            block = np.zeros(T, dtype=np.int64)
            lo = (plus.a - 1) * layout.L
            block[lo : plus.a * layout.L] = 1
            assert np.array_equal(w.astype(np.int64), block)
            total += w
        assert np.array_equal(total[: layout.T_prime], np.full(layout.T_prime, layout.L))


@pytest.mark.parametrize("T, K", [(4, 2), (37, 2), (100, 3)])
def test_block_half_group_weights_match_evaluate(T, K):
    layout = build_block_layout(T, K)
    run = zero_run(sample_rademacher_env(T=T, seed=2))
    for a in range(1, K + 1):
        for j in range(layout.L):
            for sign in (1, -1):
                g = BlockHadamardHalfGroup(a, j, sign, layout)
                expected = [g.evaluate(ctx_timed(Fraction(1, 2), t), None) for t in range(1, T + 1)]
                w = g.weights(run)
                assert w.dtype == np.int8 and w.tolist() == expected, g.id
                # the row a pair shares is never aliased into an output: writing
                # into one result leaves the next call, and the other sign's, intact
                w[:] = 7
                assert g.weights(run).tolist() == expected, g.id


def test_bit_family():
    fam = build_bit_family(2)
    assert len(fam) == 3
    c = ContextRecord(bits=(1, 0))
    assert [g.evaluate(c, None) for g in fam] == [1, 1, 0]
    traj = sample_bit_env(T=50, k=2, seed=4)
    w = fam.groups[fam.index["bit/2"]].weights(zero_run(traj))
    assert np.array_equal(w, traj.bits[:, 1])


def test_full_family_and_manifest():
    fam = build_full_walsh_family(T=64, m=4, K=2)
    layout = fam.layout
    assert len(fam) == 1 + 2 * 3 + 2 * layout.K * layout.L
    rows = fam.manifest_rows()
    assert len(rows) == len(fam)
    assert rows[0][:2] == ("g_all", "ConstantGroup")


def _eager_family(T, K, m=None):
    """Reference list with one object per group, in family order."""
    layout = build_block_layout(T, K)
    groups = list(build_walsh_family(m).groups) if m is not None else []
    for a in range(1, layout.K + 1):
        for j in range(layout.L):
            groups += [BlockHadamardHalfGroup(a, j, s, layout) for s in (1, -1)]
    return groups


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_family_matches_eager_reference(data):
    T = data.draw(st.integers(4, 96))
    K = data.draw(st.integers(1, T // 4))
    m = data.draw(st.sampled_from([None, 2, 4, 8]))
    fam = build_block_hadamard_family(T, K) if m is None else build_full_walsh_family(T, m, K)
    layout = fam.layout
    ref = _eager_family(T, K, m)
    assert len(fam) == len(ref)
    assert fam.ids() == [g.id for g in ref]
    assert fam.manifest_rows() == [(g.id, type(g).__name__, g.describe()) for g in ref]
    assert fam.required_denominators() == []
    plus = {g.id: g for g in ref if g.id[3] == "+"}
    pairs = [(plus[g.id.replace("-", "+", 1)].id, g.id) for g in ref if g.id[3] == "-"]
    assert [(p.id, q.id) for p, q in fam.signed_pairs()] == pairs
    grid = grid_section4(m) if m is not None else [Fraction(1, 2)]
    groups = list(fam)
    for _ in range(8):
        g = data.draw(st.sampled_from(ref))
        ctx = ctx_timed(data.draw(st.sampled_from(grid)), data.draw(st.integers(1, T)))
        assert groups[fam.index[g.id]].evaluate(ctx, None) == g.evaluate(ctx, None), g.id
    for bad in (f"had+/{layout.K + 1}/0", f"had-/1/{layout.L}", "had+/01/0", "had+/0/0", "wal+/0"):
        with pytest.raises(KeyError):
            fam.index[bad]


def test_block_count_defaults():
    assert default_block_count(2**14) == 15
    assert default_block_count(2) == 2


def test_grid_range_family():
    traj = sample_bernoulli_env(T=100, m=12, seed=0)
    fam = build_grid_range_family(list(traj.grid), pieces=3)
    assert len(fam) == 3
    run = zero_run(traj)
    total = sum(g.weights(run).astype(int) for g in fam)
    assert np.array_equal(total, np.ones(100, dtype=int))


def test_threshold_vector_weights_match_scalar():
    traj = sample_bernoulli_env(T=64, m=8, seed=6)
    eta = default_eta(8, 64)
    fam = build_pred_threshold_family(8, eta)
    rng = np.random.default_rng(1)
    p_den = 16
    p_num16 = rng.integers(0, p_den + 1, size=64)
    run = ScaledRun.build(traj, Predictions(num=p_num16, den=p_den), eta.denominator)
    for g in fam:
        w = g.weights(run)
        for t in range(64):
            wanted = g.evaluate(traj.context(t), Fraction(int(p_num16[t]), p_den))
            assert int(w[t]) == wanted


@pytest.mark.parametrize("T", [5, 1001])
def test_direct_weights_on_a_round_robin_tile_their_column_weights(T):
    # a skeleton evaluates direct groups on one round robin of columns: on every round
    # of a run whose predictions repeat per column, each weight is its column's weight
    m, eta = 8, Fraction(1, 16)
    env = rademacher_contexts(T, m)
    walsh = build_walsh_family(m).groups
    ranges = build_grid_range_family(grid_section4(m), pieces=3).groups
    groups = [*walsh, *ranges, *build_pred_threshold_family(m, eta).groups, BitGroup(0)]
    classes = {c for c in vars(groups_module).values() if isinstance(c, type) and issubclass(c, GroupFunction)}
    assert {type(g) for g in groups} == classes - {GroupFunction, BlockHadamardHalfGroup}
    column_pred = np.random.default_rng(T).integers(0, 17, size=m)
    cols, reps = min(m, T), -(-T // m)
    full = ScaledRun.build(env.sample(3), Predictions(np.tile(column_pred, reps)[:T], 16), eta.denominator)
    period = ScaledRun.build(
        env.trajectory(np.zeros(cols, dtype=bool)),
        Predictions(column_pred[:cols], 16),
        eta.denominator,
        mult=env.rounds_per_column()[:cols],
    )
    for g in groups:
        assert np.array_equal(g.weights(full), np.tile(g.weights(period), reps)[:T]), g.id
