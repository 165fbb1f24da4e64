"""Byte-for-byte regression of ``caliblab scaling``, ``caliblab bounds
reduction``, ``caliblab bounds oracle`` (each bound on its whole-run and
its looped path), four Monte Carlo probes and the exact identity suite
against committed CSVs.

The files in tests/data were written by the CLI on the configs beside
them, or on the probe arguments below.  Sampling, forecasting, pattern
routing, the proper reduction, the exact ledger, the per-group
aggregation and the CSV formatting all feed these bytes, so a refactor
that changes any result fails here.  The probe files pin the probe
random streams: packed-bit sign draws, first-return walks drawn in
chunks of 64 * 2^k, and the martingale probe's residuals and thinning.
Manifests are not pinned: they carry a timestamp.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

from caliblab import cli, experiments
from caliblab.calibration import format_float
from caliblab.cli import EXIT_OK, main
from caliblab.experiments import write_csv, write_per_group_csv

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
    "identities": [],
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_csvs_match_golden_bytes(name, tmp_path):
    assert main(["probe", name, *PROBES[name], "--seed", "7", "--out", str(tmp_path)]) == EXIT_OK
    written = tmp_path / f"probe_{name}.csv"
    assert written.read_bytes() == (DATA / f"golden_probe_{name}.csv").read_bytes(), name


# every bucketing strategy beside the avoid_zero case above: L = 100 leaves a
# batch that is not byte-aligned (401 rows of 100 steps end mid-byte), and
# L = 2^15 + 8 walks beyond int16 over two sign batches (127 + 3 rows)
BUCKETING = [
    ("single_bucket", 512, 400),
    ("round_robin", 512, 400),
    ("fresh_bucket_on_return", 512, 400),
    ("zero_seeking", 512, 400),
    ("avoid_zero", 100, 401),
    ("zero_seeking", 100, 401),
    ("single_bucket", 2**15 + 8, 130),
]


@pytest.mark.parametrize("strategy, L, reps", BUCKETING, ids=[f"{s}-{L}" for s, L, _ in BUCKETING])
def test_bucketing_probe_csvs_match_golden_bytes(strategy, L, reps, tmp_path):
    argv = ["probe", "bucketing", "--L", str(L), "--strategy", strategy, "--reps", str(reps), "--seed", "7"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    golden = DATA / f"golden_probe_bucketing_{strategy}_L{L}.csv"
    assert (tmp_path / "probe_bucketing.csv").read_bytes() == golden.read_bytes(), golden.name


def _formatted_as_before(value):
    """A field as the csv.writer blocks that write_csv replaced formatted it."""
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
    return format_float(value) if isinstance(value, float) else value


def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path, monkeypatch):
    # every table the CLI writes, from one small run each, against csv.writer, which would quote a comma or a quote
    tables = []

    def record(path, header, rows):
        rows = list(rows)
        tables.append((Path(path).name, header, rows))
        write_csv(path, header, rows)

    def record_groups(path, result):
        # the groups table is rendered a column at a time, not through write_csv: rebuild its rows from the mapping
        eid = result.config.experiment_id
        rows = [(eid, row.T, gid, v) for row in result.rows for gid, v in sorted(row.per_group_mean.items())]
        tables.append((Path(path).name, ("experiment_id", "T", "group_id", "mean_err"), rows))
        write_per_group_csv(path, result)

    monkeypatch.setattr(experiments, "write_csv", record)
    monkeypatch.setattr(cli, "write_csv", record)
    monkeypatch.setattr(cli, "write_per_group_csv", record_groups)
    for argv in (
        ["scaling", "--config", str(DATA / "golden_walsh.cfg")],
        ["bounds", "reduction", "--config", str(DATA / "golden_reduction.cfg")],
        ["probe", "return-pmf", *PROBES["return-pmf"]],
    ):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    assert sorted(name for name, _, _ in tables) == [
        "bounds_reduction.csv",
        "bounds_reduction_cells.csv",
        "golden_walsh_family.csv",
        "golden_walsh_groups.csv",
        "golden_walsh_scaling.csv",
        "probe_return-pmf.csv",
    ]
    for name, header, rows in tables:
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_formatted_as_before(v) for v in row] for row in rows)
        assert (tmp_path / name).read_bytes() == expected.getvalue().encode("utf-8"), name
