"""The package names the benchmark in ``perfbench/`` reads.

The benchmark wraps package attributes by name (``spans.SPANS``,
``spans.CellClock``), checks the bucketing kernel against its scalar
reference (``workloads.bucketing_differential``) and times a few kernels
directly (``run.kernel_timings``).  Its ``--trace 1`` counters read fields
of what the wrapped calls return (a ledger's ``T``, ``scale`` and
``bucket_scaled``, a trajectory's rounds, a family's size).  A name missing
from the package fails here instead of failing every benchmark run.
Nothing in ``perfbench/`` is changed.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_benchmark_finds_every_name_it_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    from caliblab import _kernels, probes

    # every attribute the tracer and the cell clock wrap must resolve
    with spans.Patches() as patches:
        spans.Tracer(()).install(patches)
        spans.CellClock().install(patches)
    outcome = workloads.bucketing_differential(20240808, rows_per_shape=1)
    assert outcome.ops > 0 and outcome.failed == 0, outcome.failures
    assert _kernels.USE_NUMBA is False
    for name in ("fwht_inplace", "first_return_batch", "bucketing_batch"):
        assert callable(getattr(_kernels, name)), name
    for name in ("bucketing_batch", "bucketing_trace", "default_pool"):
        assert callable(getattr(probes, name)), name
    assert probes.BUCKETING_STRATEGY_CODES is _kernels.BUCKETING_STRATEGY_CODES
    assert sorted(_kernels.BUCKETING_STRATEGY_CODES) == sorted(workloads.BUCKETING_STRATEGIES)


def test_the_cell_clock_books_each_bound_replicate_once(monkeypatch, tmp_path):
    # spans.CellClock starts a bound runner's cell at each routed or oracle draw, so every
    # standalone draw of the reduction must come before its first routed draw
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from caliblab import cli, environments, experiments

    calls = []

    def logged(name):
        def make(fn):
            def draw(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return draw

        return make

    (tmp_path / "r.cfg").write_text("reduction.T_list=256,512\nrun.replicates=3\nrun.seed=5\n")
    (tmp_path / "o.cfg").write_text("oracle.T=64\noracle.k=2\nrun.replicates=4\nrun.seed=5\n")
    clock = spans.CellClock()
    with spans.Patches() as patches:
        clock.install(patches)
        for owner, name in ((environments, "sample_bernoulli_on_grid"), (experiments, "sample_bernoulli_env")):
            patches.wrap(owner, name, logged(name))
        for which in ("reduction", "oracle"):
            args = ["bounds", which, "--config", str(tmp_path / f"{which[0]}.cfg"), "--out", str(tmp_path)]
            assert cli.main(args) == cli.EXIT_OK
    booked = {key: len(seconds) for key, seconds in clock.latencies.items()}
    assert booked == {("reduction", 256): 3, ("reduction", 512): 3, ("oracle", 64): 4}
    assert clock.cells == 10
    routed = calls.index("sample_bernoulli_env")
    assert calls[:routed] == ["sample_bernoulli_on_grid"] * (2 * 3 * 3)  # two T, three pieces, three replicates
    assert calls[routed:] == ["sample_bernoulli_env"] * (2 * 3)


def test_the_traced_counters_read_every_layer(monkeypatch, tmp_path):
    # a --trace 1 run: each counter reads the output of the call it wraps (a ledger's
    # T, scale and buckets, a family's size, a trajectory's rounds), so a renamed field fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from caliblab import cli

    data = Path(__file__).parent / "data"
    calls = [
        ["scaling", "--config", str(data / "golden_walsh.cfg")],
        ["scaling", "--config", str(data / "golden_thm31.cfg")],
        ["bounds", "oracle", "--config", str(data / "golden_oracle.cfg")],
        ["bounds", "reduction", "--config", str(data / "golden_reduction_looped.cfg")],
        ["probe", "bucketing", "--L=64", "--reps=4"],
        ["probe", "root-return", "--L=64", "--reps=4"],
    ]
    tracer = spans.Tracer(())
    with spans.Patches() as patches:
        tracer.install(patches)
        for args in calls:
            assert cli.main([*args, "--out", str(tmp_path)]) == cli.EXIT_OK, args
    counters = tracer.acc
    for name in (
        "calibration.buckets",
        "orthogonal.fwht_calls",
        "environments.rounds",
        "groups.members",
        "kernels.steps",
        "probes.calls",
    ):
        assert counters[name] > 0, name
    assert "calibration.headroom_bits" in counters.gauges


def test_the_tracer_books_each_heads_transform_to_fwht(monkeypatch, tmp_path):
    # golden_walsh.cfg has two T, each with coeff0 and block_decompose once and
    # one heads transform in each of its 3 cells; a cell whose heads product
    # bypassed fwht would leave the count at 4
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from caliblab import cli

    config = Path(__file__).parent / "data" / "golden_walsh.cfg"
    tracer = spans.Tracer(())
    with spans.Patches() as patches:
        tracer.install(patches)
        assert cli.main(["scaling", "--config", str(config), "--out", str(tmp_path)]) == cli.EXIT_OK
    assert tracer.acc["orthogonal.fwht_calls"] == 10
