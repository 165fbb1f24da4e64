"""The package names the benchmark in ``perfbench/`` reads.

The benchmark wraps package attributes by name (``spans.SPANS``,
``spans.CellClock``), checks the bucketing kernel against its scalar
reference (``workloads.bucketing_differential``) and times a few kernels
directly (``run.kernel_timings``).  A name missing from the package fails
here instead of failing every benchmark run.  Nothing in ``perfbench/`` is
changed.
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
