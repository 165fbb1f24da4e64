"""Byte-for-byte regression of ``caliblab scaling`` and ``caliblab bounds
reduction`` against committed CSVs.

The files in tests/data were written by the CLI on the configs beside
them.  Sampling, forecasting, pattern routing, the exact ledger, the
per-group aggregation and the CSV formatting all feed these bytes, so a
refactor that changes any result fails here.  Manifests are not pinned:
they carry a timestamp.
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
