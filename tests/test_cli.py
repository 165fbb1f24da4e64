import os
import subprocess
import sys
from pathlib import Path

import pytest

from caliblab.cli import (
    EXIT_ASSERT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNRESOLVED,
    ConfigError,
    config_digest,
    main,
    parse_config_text,
    parse_overrides,
)

MINIMAL = """\
# comment lines and blanks are skipped
env.kind=bernoulli
env.T=1024
forecaster.id=honest
groups.kind=pred_threshold
run.replicates=5
run.seed=42
run.workers=1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    return path


def test_parse_config_text():
    cfg = parse_config_text(MINIMAL)
    assert cfg["env.kind"] == "bernoulli"
    assert cfg["run.seed"] == "42"
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign here")


def test_config_digest_order_insensitive():
    a = config_digest({"b": "2", "a": "1"})
    b = config_digest({"a": "1", "b": "2"})
    assert a == b
    assert a != config_digest({"a": "1", "b": "3"})


def test_parse_overrides():
    assert parse_overrides(["--env.T=2048", "--run.seed=7"]) == {
        "env.T": "2048",
        "run.seed": "7",
    }
    with pytest.raises(ConfigError):
        parse_overrides(["positional"])


def test_scaling_minimal_outputs(config_path, tmp_path):
    out = tmp_path / "out"
    rc = main(["scaling", "--config", str(config_path), "--out", str(out)])
    assert rc == EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == ["scaling_groups.csv", "scaling_manifest.txt", "scaling_scaling.csv"]
    manifest = (out / "scaling_manifest.txt").read_text()
    assert "tool_version=" in manifest and "config_digest=" in manifest
    assert "master_seed=42" in manifest


def test_scaling_family_manifest_opt_in(config_path, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["scaling", "--config", str(config_path), "--out", str(out), "--output.family=true"]
    )
    assert rc == EXIT_OK
    family = (out / "scaling_family.csv").read_text().splitlines()
    assert family[0] == "T,group_id,kind,params"
    assert len(family) == 4  # the three threshold groups at one T


def test_scaling_manifest_records_min_slack(config_path, tmp_path):
    assert main(["scaling", "--config", str(config_path), "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "scaling_manifest.txt").read_text().splitlines()
    slack = dict(line.rpartition("=")[::2] for line in lines if line.startswith("pathwise_min_slack@"))
    # the threshold trio has no signed pairs, so diff_two has nothing to report
    assert list(slack) == ["pathwise_min_slack@T=1024/telescoping", "pathwise_min_slack@T=1024/g4_context_decomp"]
    assert slack["pathwise_min_slack@T=1024/telescoping"] == "0"
    assert float(slack["pathwise_min_slack@T=1024/g4_context_decomp"]) >= 0


def test_scaling_deterministic_bytes(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["scaling", "--config", str(config_path), "--out", str(out1)]) == EXIT_OK
    assert main(["scaling", "--config", str(config_path), "--out", str(out2)]) == EXIT_OK
    for name in ("scaling_scaling.csv", "scaling_groups.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_override_precedence(config_path, tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(
        [
            "scaling",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--env.T=512",
            "--run.replicates=3",
        ]
    )
    assert rc == EXIT_OK
    text = (out / "scaling_scaling.csv").read_text()
    assert ",512,3," in text


def test_seed_env_override(config_path, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["scaling", "--config", str(config_path), "--out", str(out1)])
    monkeypatch.setenv("CALIBLAB_SEED", "777")
    main(["scaling", "--config", str(config_path), "--out", str(out2)])
    assert (out1 / "scaling_scaling.csv").read_text() != (out2 / "scaling_scaling.csv").read_text()
    assert "master_seed=777" in (out2 / "scaling_manifest.txt").read_text()


def test_bad_forecaster_id(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("forecaster.id=wizard\nenv.T=64\n")
    assert main(["scaling", "--config", str(cfg)]) == EXIT_UNRESOLVED


def test_parse_error(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("not a key value pair\n")
    assert main(["scaling", "--config", str(cfg)]) == EXIT_CONFIG
    assert main(["scaling", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG


def test_assert_failure_sets_exit_code(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "env.kind=bernoulli\nenv.T_list=1024,2048\nforecaster.id=honest\n"
        "groups.kind=pred_threshold\nrun.replicates=4\nrun.seed=1\nrun.workers=1\n"
        "assert.exponent_min=0.99\nassert.exponent_max=1.0\n"
    )
    out = tmp_path / "o"
    assert main(["scaling", "--config", str(cfg), "--out", str(out), "--assert"]) == EXIT_ASSERT
    # CSV content identical regardless of --assert
    out2 = tmp_path / "o2"
    assert main(["scaling", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out / "scaling_scaling.csv").read_bytes() == (out2 / "scaling_scaling.csv").read_bytes()


def test_probe_identities(tmp_path):
    rc = main(
        ["probe", "identities", "--seed", "3", "--out", str(tmp_path), "--assert"]
    )
    assert rc == EXIT_OK
    text = (tmp_path / "probe_identities.csv").read_text()
    assert text.splitlines()[0] == "check_id,measured,bound,margin,pass"
    assert text.count("true") == 5


def test_probe_unknown(tmp_path):
    assert main(["probe", "nonsense"]) == EXIT_CONFIG


def test_probe_bad_size_names_it(tmp_path, capsys):
    assert main(["probe", "root-return", "--L=0", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "L=0" in capsys.readouterr().err
    assert main(["probe", "bucketing", "--reps=1", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "replicates=1" in capsys.readouterr().err


def test_probe_bucketing(tmp_path):
    rc = main(
        [
            "probe",
            "bucketing",
            "--L",
            "256",
            "--strategy",
            "avoid_zero",
            "--reps",
            "500",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_OK
    lines = (tmp_path / "probe_bucketing.csv").read_text().splitlines()
    assert len(lines) == 2
    assert "avoid_zero" in lines[1]


def test_probe_return_pmf(tmp_path):
    rc = main(
        ["probe", "return-pmf", "--n", "4", "--reps", "30000", "--out", str(tmp_path), "--assert"]
    )
    assert rc == EXIT_OK
    lines = (tmp_path / "probe_return-pmf.csv").read_text().splitlines()
    assert len(lines) == 5


def test_bounds_oracle(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("oracle.T=400\noracle.k=2\nrun.replicates=5\nrun.seed=9\n")
    rc = main(["bounds", "oracle", "--config", str(cfg), "--out", str(tmp_path), "--assert"])
    assert rc == EXIT_OK
    text = (tmp_path / "bounds_oracle.csv").read_text()
    assert "oracle_mcerr_floor" in text


def test_bounds_reduction_and_guard(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("reduction.T_list=512\nrun.replicates=4\nrun.seed=5\n")
    rc = main(["bounds", "reduction", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert "reduction_pathwise@T=512" in (tmp_path / "bounds_reduction.csv").read_text()
    cells = (tmp_path / "bounds_reduction_cells.csv").read_text().splitlines()
    assert cells[0] == "T,pattern,T_z,cell_err"
    assert len(cells) == 4  # three disjoint cells at one T
    # prediction-dependent family: hard error, exit 3
    cfg2 = tmp_path / "r2.cfg"
    cfg2.write_text("reduction.T_list=512\nreduction.groups=pred_threshold\nrun.replicates=2\n")
    assert main(["bounds", "reduction", "--config", str(cfg2)]) == EXIT_UNRESOLVED


def test_bounds_reduction_manifest_records_min_slack(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("reduction.T_list=256,512\nrun.replicates=3\nrun.seed=5\n")
    assert main(["bounds", "reduction", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "bounds_reduction_manifest.txt").read_text().splitlines()
    assert "pathwise_min_slack@T=256=0" in lines
    assert "pathwise_min_slack@T=512=0" in lines
    assert not any(line.startswith("pathwise_violation@") for line in lines)


def test_module_entry_point_help():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "caliblab", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: caliblab")
    assert "bounds" in out.stdout
