"""Byte-for-byte regression of ``caliblab scaling``, ``caliblab bounds
reduction``, ``caliblab bounds oracle`` (each bound on its whole-run and
its looped path) and four Monte Carlo probes against committed CSVs.

The files in tests/data were written by the CLI on the configs beside
them, or on the probe arguments below.  Sampling, forecasting, pattern
routing, the proper reduction, the exact ledger, the per-group
aggregation and the CSV formatting all feed these bytes, so a refactor
that changes any result fails here.  The probe files pin the probe
random streams: packed-bit sign draws, first-return walks drawn in
chunks of 64 * 2^k, and the martingale probe's residuals and thinning.
Manifests are not pinned: they carry a timestamp.
"""

from pathlib import Path

import pytest

from caliblab.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["golden_walsh", "golden_thm31"])
def test_scaling_csvs_match_golden_bytes(name, tmp_path):
    assert main(["scaling", "--config", str(DATA / f"{name}.cfg"), "--out", str(tmp_path)]) == EXIT_OK
    for kind in ("scaling", "groups", "family"):
        path = f"{name}_{kind}.csv"
        assert (tmp_path / path).read_bytes() == (DATA / path).read_bytes(), path


def test_reduction_csvs_match_golden_bytes(tmp_path):
    cfg = DATA / "golden_reduction.cfg"
    assert main(["bounds", "reduction", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    for kind in ("bounds", "cells"):
        written = tmp_path / ("bounds_reduction.csv" if kind == "bounds" else "bounds_reduction_cells.csv")
        assert written.read_bytes() == (DATA / f"golden_reduction_{kind}.csv").read_bytes(), kind


def test_oracle_csv_matches_golden_bytes(tmp_path):
    cfg = DATA / "golden_oracle.cfg"
    assert main(["bounds", "oracle", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "bounds_oracle.csv").read_bytes() == (DATA / "golden_oracle_bounds.csv").read_bytes()


# the looped paths: a 2-copy reduction whose copies all observe, and a
# router whose randomized oracle has no whole-run path
@pytest.mark.parametrize(
    "which, kinds", [("oracle", ("bounds",)), ("reduction", ("bounds", "cells"))], ids=["oracle", "reduction"]
)
def test_looped_bound_csvs_match_golden_bytes(which, kinds, tmp_path):
    cfg = DATA / f"golden_{which}_looped.cfg"
    assert main(["bounds", which, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    for kind in kinds:
        written = tmp_path / ("bounds_reduction_cells.csv" if kind == "cells" else f"bounds_{which}.csv")
        assert written.read_bytes() == (DATA / f"golden_{which}_looped_{kind}.csv").read_bytes(), kind


PROBES = {
    "bucketing": ["--L", "512", "--strategy", "avoid_zero", "--reps", "400"],
    "martingale": ["--L", "512", "--strategy", "thinned", "--alpha", "0.5", "--reps", "400"],
    "root-return": ["--L", "512", "--reps", "4000"],
    "return-pmf": ["--n", "6", "--reps", "5000"],
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_csvs_match_golden_bytes(name, tmp_path):
    assert main(["probe", name, *PROBES[name], "--seed", "7", "--out", str(tmp_path)]) == EXIT_OK
    written = tmp_path / f"probe_{name}.csv"
    assert written.read_bytes() == (DATA / f"golden_probe_{name}.csv").read_bytes(), name
