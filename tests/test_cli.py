import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from caliblab import cli, experiments
from caliblab.cli import (
    EXIT_ASSERT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNRESOLVED,
    ConfigError,
    config_digest,
    experiment_config_from,
    load_config,
    main,
    parse_config_text,
    parse_overrides,
)
from caliblab.experiments import ENVS, FAMILIES
from caliblab.forecasters import make_forecaster_factory

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
    assert not any(line.startswith("pathwise_violation@") for line in lines)  # a passing run names no cell
    # m = floor(1024^(1/3)) = 10 and eta = min(isqrt(10^3 1024) / (2 10 1024), 1/20) = 1011/20480
    assert [line for line in lines if line.startswith("resolved@")] == ["resolved@T=1024=m=10;eta=1011/20480"]
    # the wall time of each stage, summed over the T ladder
    stages = dict(line.partition("=")[::2] for line in lines if line.startswith("stage_s@"))
    assert list(stages) == ["stage_s@cells", "stage_s@aggregate", "stage_s@write"]
    assert all(float(seconds) >= 0 for seconds in stages.values())
    config_path.write_text(MINIMAL.replace("env.T=1024", "env.T_list=256,512"))  # a config sets env.T or env.T_list
    walsh = ["--env.kind=rademacher", "--groups.kind=full_walsh", "--forecaster.id=rounded_honest"]
    assert main(["scaling", "--config", str(config_path), "--out", str(tmp_path), *walsh]) == EXIT_OK
    lines = (tmp_path / "scaling_manifest.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("resolved@")] == [
        "resolved@T=256=m=4;K=9;L=16",
        "resolved@T=512=m=8;K=10;L=32",
    ]


def test_scaling_violation_fails_the_assert_and_is_named(config_path, tmp_path, monkeypatch, capsys):
    # failing telescoping summaries in the second and fourth cells only
    telescoping = experiments.check_telescoping
    calls = []

    def twice(ledger):
        calls.append(ledger)
        if len(calls) not in (2, 4):
            return telescoping(ledger)
        return replace(telescoping(ledger), failures=1, min_slack=Fraction(-1, 2), first=0, lhs=Fraction(1, 2), rhs=0)

    monkeypatch.setattr(experiments, "check_telescoping", twice)
    assert main(["scaling", "--config", str(config_path), "--out", str(tmp_path), "--assert"]) == EXIT_ASSERT
    assert capsys.readouterr().err == (
        "assert failed: T=1024: 2 violations, first rep=1 check=telescoping index=0 lhs=1/2 rhs=0\n"
    )
    lines = (tmp_path / "scaling_manifest.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("pathwise_violation@")] == [
        f"pathwise_violation@T=1024=rep={rep};check=telescoping;index=0;lhs=1/2;rhs=0" for rep in (1, 3)
    ]
    assert "pathwise_min_slack@T=1024/telescoping=-0.5" in lines


def test_scaling_assert_names_the_first_cell_of_a_corrupted_ledger(config_path, tmp_path, monkeypatch, capsys):
    # one signed block coefficient of replicates 2 and 4 raised past its
    # half-groups' bound: diff_two itself fails, and --assert names rep 2
    accumulate = experiments.accumulate_run
    calls = []

    def corrupted(run, family, route=None):
        ledger = accumulate(run, family, route)
        calls.append(ledger)
        if len(calls) in (3, 5):
            ledger.signed[1, 2] += 10**6
        return ledger

    monkeypatch.setattr(experiments, "accumulate_run", corrupted)
    walsh = ["--env.kind=rademacher", "--groups.kind=full_walsh", "--forecaster.id=rounded_honest"]
    assert main(["scaling", "--config", str(config_path), "--out", str(tmp_path), "--assert", *walsh]) == EXIT_ASSERT
    lines = (tmp_path / "scaling_manifest.txt").read_text().splitlines()
    named = [line.split("=", 2)[2] for line in lines if line.startswith("pathwise_violation@T=1024=")]
    assert [line.split(";")[:2] for line in named] == [["rep=2", "check=diff_two"], ["rep=4", "check=diff_two"]]
    first = dict(field.split("=") for field in named[0].split(";"))
    # the (a, j) = (2, 2) pair, after the direct pairs and block 1's L pairs
    family = calls[0].family
    assert int(first["index"]) == family.direct_pair_rows.shape[1] + family.layout.L + 2
    assert Fraction(first["lhs"]) > Fraction(first["rhs"])
    assert capsys.readouterr().err == f"assert failed: T=1024: 2 violations, first {named[0].replace(';', ' ')}\n"


def test_single_replicate_stderr_is_nan(config_path, tmp_path):
    # one replicate has no standard error: the row must not read as exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scaling", "--config", str(config_path), "--out", str(tmp_path), "--run.replicates=1"]) == EXIT_OK
    header, row = (tmp_path / "scaling_scaling.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["stderr"] == "nan"


def test_zero_error_run_writes_its_csvs_and_fails_only_the_exponent_assert(tmp_path, capsys):
    # honest forecasts of the bit midpoints are exactly calibrated: MCerr is 0 at every T, which has no logarithm
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(
        "run.id=zero\nenv.kind=bits\nenv.T_list=256,512\ngroups.kind=bits\nforecaster.id=honest\nrun.replicates=2\n"
    )
    assert main(["scaling", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert capsys.readouterr().out == "zero: exponent=nan ci95=(nan,nan) violations=0\n"
    header, *rows = (tmp_path / "a" / "zero_scaling.csv").read_text().splitlines()
    assert [dict(zip(header.split(","), row.split(",")))["mean_mcerr"] for row in rows] == ["0", "0"]
    assert (tmp_path / "a" / "zero_groups.csv").exists() and (tmp_path / "a" / "zero_manifest.txt").exists()
    assert main(["scaling", "--config", str(cfg), "--out", str(tmp_path / "b"), "--assert"]) == EXIT_ASSERT
    assert capsys.readouterr().err == "assert failed: exponent nan outside [0.6, 0.78]\n"
    assert (tmp_path / "b" / "zero_scaling.csv").read_bytes() == (tmp_path / "a" / "zero_scaling.csv").read_bytes()


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


@pytest.mark.parametrize(
    "lines, code, key",
    [
        ("forecaster.id=proper_reduction\nforecaster.oracle=wizard\n", EXIT_UNRESOLVED, "forecaster.oracle"),
        ("forecaster.id=proper_reduction\nforecaster.update=sideways\n", EXIT_CONFIG, "forecaster.update"),
        ("forecaster.id=overshoot\n", EXIT_CONFIG, "forecaster.offset"),
        ("forecaster.id=constant\nforecaster.value=2\n", EXIT_CONFIG, "forecaster.id=constant, forecaster.value=2: "),
        ("forecaster.id=rounded_honest\nforecaster.Q=0\n", EXIT_CONFIG, "forecaster.id=rounded_honest, forecaster.Q=0: "),
        ("forecaster.id=proper_reduction\nforecaster.m_copies=0\n", EXIT_CONFIG, "forecaster.m_copies=0"),
        ("env.kind=bernoulli\ngroups.kind=walsh\n", EXIT_CONFIG, "groups.kind=walsh does not run on env.kind=bernoulli"),
        ("run.replicates=-3\n", EXIT_CONFIG, "run.replicates=-3"),
        ("env.T_list=\n", EXIT_CONFIG, "env.T_list"),
        ("forecaster.id=uniform_random\nforecaster.Q=1000000000000001\n", EXIT_CONFIG, "forecaster.Q=1000000000000001"),
        ("forecaster.id=rounded_honest\nforecaster.Q=1000000000000000000\n", EXIT_CONFIG, "forecaster.Q=1000000000000000000"),
        ("env.kind=bits\ngroups.kind=bits\nenv.k=13\n", EXIT_CONFIG, "env.k=13"),
        ("forecaster.id=proper_reduction\nforecaster.oracle=honest\n", EXIT_CONFIG, "forecaster.oracle=honest"),
        ("run.replicate=3\n", EXIT_CONFIG, "config error: unknown config key run.replicate;"),
        ("assert.exponent_min=abc\n", EXIT_CONFIG, "bad value for assert.exponent_min: 'abc'"),
        ("assert.exponent_min=nan\n", EXIT_CONFIG, "config error: assert.exponent_min=nan and assert.exponent_max="),
        ("assert.exponent_max=NaN\n", EXIT_CONFIG, "and assert.exponent_max=nan admit no exponent"),
        (
            "assert.exponent_min=0.9\nassert.exponent_max=0.5\n",
            EXIT_CONFIG,
            "config error: assert.exponent_min=0.9 and assert.exponent_max=0.5 admit no exponent",
        ),
        ("output.family=yes\n", EXIT_CONFIG, "bad value for output.family: 'yes'"),
        ("run.replicates=1\nrun.workers=0\n", EXIT_CONFIG, "config error: run.workers=0 must be 1"),
        ("run.replicates=1\nrun.workers=2\n", EXIT_CONFIG, "config error: run.workers=2 must be 1"),
        ("env.T=0\n", EXIT_CONFIG, "config error: env.T=0 must lie in 1..1048576, the desk-scale cap"),
        ("env.T_list=1024,2048\n", EXIT_CONFIG, "config error: env.T and env.T_list are both set; give one of them"),
    ],
    ids=[
        "unknown-oracle",
        "bad-update",
        "overshoot-without-offset",
        "constant-outside-unit-interval",
        "zero-rounding-denominator",
        "zero-copies",
        "walsh-on-bernoulli",
        "negative-replicates",
        "empty-T-list",
        "huge-uniform-Q",
        "huge-rounding-Q",
        "huge-bit-k",
        "oracle-reads-its-context",
        "misspelled-key",
        "bad-assert-value",
        "nan-exponent-min",
        "nan-exponent-max",
        "exponent-min-above-max",
        "bad-output-flag",
        "no-workers",
        "too-many-workers",
        "zero-T",
        "T-and-T-list",
    ],
)
def test_bad_forecaster_parameters_fail_before_any_cell(tmp_path, capsys, monkeypatch, lines, code, key):
    monkeypatch.setattr(experiments, "run_replicate", lambda config, T, rep: pytest.fail("a cell ran"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("env.T=64\nrun.replicates=2\nrun.workers=1\n" + lines)
    out = tmp_path / "out"
    assert main(["scaling", "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


def test_infinite_exponent_bounds_are_accepted(tmp_path):
    # an open window passes any finite exponent: two T, so --assert fits one
    cfg = tmp_path / "open.cfg"
    cfg.write_text(MINIMAL.replace("env.T=1024\n", "env.T_list=256,1024\n"))
    run = ["scaling", "--config", str(cfg), "--out", str(tmp_path), "--assert"]
    assert main([*run, "--assert.exponent_min=-inf", "--assert.exponent_max=inf"]) == EXIT_OK
    # and one infinite end still leaves the other a bound
    assert main([*run, "--assert.exponent_min=2", "--assert.exponent_max=inf"]) == EXIT_ASSERT


def test_scaling_output_is_the_same_with_run_workers_one_or_unset(tmp_path, config_path):
    unset = tmp_path / "unset.cfg"
    unset.write_text(MINIMAL.replace("run.workers=1\n", ""))
    for cfg, out in ((config_path, tmp_path / "one"), (unset, tmp_path / "unset")):
        assert main(["scaling", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    for name in ("scaling_scaling.csv", "scaling_groups.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "unset" / name).read_bytes()


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "path", sorted([*ROOT.glob("configs/*.cfg"), *ROOT.glob("tests/data/*.cfg")]), ids=lambda p: p.name
)
def test_shipped_configs_resolve(path):
    # every kind a shipped config names is in its table, without running a cell
    cfg = load_config(path, {})
    config = experiment_config_from(cfg)
    assert config.env in ENVS and config.groups in FAMILIES
    # and its command reads every key it sets
    which = next((w for w in ("oracle", "reduction") if any(key.startswith(f"{w}.") for key in cfg)), "scaling")
    own = cli.SCALING_OWN_KEYS if which == "scaling" else cli.BOUND_OWN_KEYS
    assert set(cfg) <= {*experiments.KEYS[which], *own}
    for key in ("reduction.oracle", "oracle.oracle"):
        if key in cfg:
            assert make_forecaster_factory(cfg[key])().context_blind


def test_parse_error(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("not a key value pair\n")
    assert main(["scaling", "--config", str(cfg)]) == EXIT_CONFIG
    assert main(["scaling", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG


def test_assert_failure_sets_exit_code(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "env.kind=bernoulli\nenv.T_list=1024,2048\nforecaster.id=honest\n"
        "groups.kind=pred_threshold\nrun.replicates=4\nrun.seed=1\nrun.workers=1\n"
        "assert.exponent_min=0.99\nassert.exponent_max=1.0\n"
    )
    out = tmp_path / "o"
    assert main(["scaling", "--config", str(cfg), "--out", str(out), "--assert"]) == EXIT_ASSERT
    printed = capsys.readouterr()
    exponent = re.search(r"exponent=(\S+) ", printed.out).group(1)
    assert printed.err == f"assert failed: exponent {exponent} outside [0.99, 1.0]\n"
    # CSV content identical regardless of --assert
    out2 = tmp_path / "o2"
    assert main(["scaling", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out / "scaling_scaling.csv").read_bytes() == (out2 / "scaling_scaling.csv").read_bytes()
    # inside the window, violations name their T and count
    run_scaling = cli.run_scaling

    def with_violations(config):
        result = run_scaling(config)
        result.rows[1] = replace(result.rows[1], violations=3)
        return result

    monkeypatch.setattr(cli, "run_scaling", with_violations)
    cfg.write_text(cfg.read_text().replace("exponent_min=0.99", "exponent_min=0"))
    capsys.readouterr()
    assert main(["scaling", "--config", str(cfg), "--out", str(out), "--assert"]) == EXIT_ASSERT
    assert capsys.readouterr().err == "assert failed: T=2048: 3 violations\n"


def test_probe_identities(tmp_path):
    rc = main(
        ["probe", "identities", "--seed", "3", "--out", str(tmp_path), "--assert"]
    )
    assert rc == EXIT_OK
    text = (tmp_path / "probe_identities.csv").read_text()
    assert text.splitlines()[0] == "check_id,measured,bound,margin,pass"
    assert text.count("true") == 5


def test_probe_identities_honours_the_seed_variable(tmp_path, monkeypatch, capsys):
    seeds = []

    def suite(seed):
        seeds.append(seed)
        return experiments.run_identity_suite(h1_max=8, prefix_max=8, expansion_max=8, block_max=4, seed=seed)

    monkeypatch.setattr(cli, "run_identity_suite", suite)
    monkeypatch.setenv("CALIBLAB_SEED", "11")
    assert main(["probe", "identities", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
    assert seeds == [11]
    out = tmp_path / "out"
    for name in ("identities", "return-pmf"):
        monkeypatch.setenv("CALIBLAB_SEED", "abc")
        capsys.readouterr()
        assert main(["probe", name, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "probe error: bad value for CALIBLAB_SEED: 'abc'\n"
        assert not out.exists()
    assert seeds == [11]


def test_probe_unknown(tmp_path):
    assert main(["probe", "nonsense"]) == EXIT_CONFIG


def test_probe_bad_size_names_it(tmp_path, capsys):
    out = tmp_path / "out"
    for argv, message in (
        (["root-return", "--L=0"], "L=0"),
        (["bucketing", "--reps=1"], "replicates=1"),
        (["bucketing", "--h=1/0"], "bad value for h: '1/0'"),
        (["return-pmf", "--n=0"], "n=0 must lie in 1..1000, the probe cap"),
        # one past each cap, the other sizes small
        (["root-return", "--L=1048577", "--reps=2"], "L=1048577 must lie in 1..1048576, the desk-scale cap"),
        (["bucketing", "--L=2", "--reps=1000001"], "reps=1000001 must lie in 1..1000000, the probe cap"),
        (["return-pmf", "--n=1001", "--reps=2"], "n=1001 must lie in 1..1000, the probe cap"),
    ):
        assert main(["probe", *argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["identities", "--L=4", "--reps=3"], "--L, --reps"),
        (["return-pmf", "--L=64", "--reps=100"], "--L"),
        (["root-return", "--strategy=avoid_zero", "--L=16", "--reps=10"], "--strategy"),
        (["martingale", "--h=1/2", "--L=16", "--reps=10"], "--h"),
        (["bucketing", "--n=3", "--alpha=2", "--L=16", "--reps=10"], "--n, --alpha"),
    ],
    ids=["identities", "return-pmf", "root-return", "martingale", "bucketing"],
)
def test_probe_refuses_arguments_it_does_not_read(tmp_path, capsys, monkeypatch, argv, unread):
    def no_draw(*args, **kwargs):
        raise AssertionError("the probe ran")

    for name in ("run_identity_suite", "simulate_first_returns", "truncated_root_return_probe",
                 "martingale_transform_probe", "bucketing_probe"):
        monkeypatch.setattr(cli, name, no_draw)
    out = tmp_path / "out"
    assert main(["probe", *argv, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"probe {argv[0]} does not read {unread};" in err and "Traceback" not in err
    assert not out.exists()


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


def test_main_calls_share_no_parser_state(tmp_path):
    # main reuses one parser; an option given to one call must not reach the next
    argv = ["probe", "bucketing", "--L=64", "--reps=200"]
    assert main([*argv, "--strategy=zero_seeking", "--out", str(tmp_path / "first")]) == EXIT_OK
    assert main([*argv, "--out", str(tmp_path / "second")]) == EXIT_OK
    cli.build_parser.cache_clear()
    assert main([*argv, "--out", str(tmp_path / "fresh")]) == EXIT_OK
    second, fresh = ((tmp_path / d / "probe_bucketing.csv").read_text() for d in ("second", "fresh"))
    assert "strategy=single_bucket" in second and second == fresh


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
    # the groups are always grid ranges: a groups key is refused before any output
    out = tmp_path / "out"
    cfg2 = tmp_path / "r2.cfg"
    cfg2.write_text("reduction.T_list=512\nreduction.groups=pred_threshold\nrun.replicates=2\n")
    assert main(["bounds", "reduction", "--config", str(cfg2), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "line, code, message",
    [
        ("reduction.groups=cliques", EXIT_CONFIG, "config error: unknown config key reduction.groups;"),
        ("reduction.oracle=wizard", EXIT_UNRESOLVED, "unknown reduction.oracle: 'wizard'"),
    ],
    ids=["groups", "oracle"],
)
def test_bounds_reduction_names_the_unknown_key(tmp_path, capsys, line, code, message):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"reduction.T_list=512\nrun.replicates=2\n{line}\n")
    assert main(["bounds", "reduction", "--config", str(cfg), "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize(
    "line, message",
    [
        ("reduction.pieces=0", "reduction.pieces=0 must be at least 1"),
        ("reduction.pieces=40", "reduction.pieces=40 must lie in 1..5, the grid points at T=1024"),
        ("reduction.T_list=4194304", "reduction.T_list=4194304 must lie in 1..1048576, the desk-scale cap"),
        ("reduction.T_list=1024,512", "reduction.T_list=1024,512 must be strictly increasing"),
        ("reduction.T_list=0", "reduction.T_list=0 must lie in 1..1048576, the desk-scale cap"),
        ("reduction.T_list=2", "reduction.T_list: T=2 leaves one of the reduction.pieces=3 cells without rounds"),
    ],
    ids=["no-pieces", "too-many-pieces", "T-cap", "T-order", "T-zero", "T-below-the-cells"],
)
def test_bounds_reduction_bad_value_names_the_reduction_key(tmp_path, capsys, line, message):
    out = tmp_path / "out"
    argv = ["bounds", "reduction", "--config", str(ROOT / "configs" / "reduction_bound.cfg"), f"--{line}"]
    assert main([*argv, "--run.replicates=2", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "config, override, message",
    [
        ("walsh_pipeline.cfg", "groups.K=0", "groups.K=0 must be at least 1"),
        ("walsh_pipeline.cfg", "groups.K=-2", "groups.K=-2 must be at least 1"),
        ("thm31_scaling.cfg", "env.T_list=0", "env.T_list=0 must lie in 1..1048576, the desk-scale cap"),
        ("thm31_scaling.cfg", "env.T_list=-8,16", "env.T_list=-8,16 must lie in 1..1048576, the desk-scale cap"),
        ("thm31_scaling.cfg", "env.T_list=2097152", "env.T_list=2097152 must lie in 1..1048576, the desk-scale cap"),
        ("thm31_scaling.cfg", "env.m=0", "env.m=0 must be at least 1"),
        ("walsh_pipeline.cfg", "env.m=-4", "env.m=-4 must be at least 1"),
    ],
    ids=["K-zero", "K-negative", "T-zero", "T-negative", "T-cap", "m-zero", "m-negative"],
)
def test_scaling_bad_value_names_its_key(tmp_path, capsys, config, override, message):
    out = tmp_path / "out"
    argv = ["scaling", "--config", str(ROOT / "configs" / config), f"--{override}", "--run.replicates=1"]
    assert main([*argv, "--run.workers=1", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("run_id", ["x/y", "../esc", "a,b", ""], ids=["slash", "parent", "comma", "empty"])
def test_scaling_run_id_must_be_a_file_name_prefix(tmp_path, capsys, monkeypatch, run_id):
    monkeypatch.setattr(cli, "run_scaling", lambda config: pytest.fail("a cell ran"))
    out = tmp_path / "out"
    argv = ["scaling", "--config", str(ROOT / "configs" / "thm31_scaling.cfg"), f"--run.id={run_id}"]
    assert main([*argv, "--env.T_list=1024,2048", "--run.replicates=2", "--out", str(out)]) == EXIT_CONFIG
    message = f"run.id={run_id!r} must match [A-Za-z0-9_.-]+, a file name prefix in --out"
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("T", [0, -5, 2097152])
def test_bounds_oracle_T_names_its_range(tmp_path, capsys, T):
    out = tmp_path / "out"
    argv = ["bounds", "oracle", "--config", str(ROOT / "configs" / "oracle_bound.cfg"), f"--oracle.T={T}"]
    assert main([*argv, "--run.replicates=2", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: oracle.T={T} must lie in 1..1048576, the desk-scale cap\n")
    assert not out.exists()


# a small config per command; an override of the key under test replaces its line
LIMIT_CONFIGS = {
    "scaling": ["scaling", "--config", str(ROOT / "tests" / "data" / "golden_thm31.cfg"), "--run.workers=1"],
    "oracle": ["bounds", "oracle", "--config", str(ROOT / "tests" / "data" / "golden_oracle.cfg")],
    "reduction": ["bounds", "reduction", "--config", str(ROOT / "tests" / "data" / "golden_reduction.cfg")],
}
LIMIT_CASES = [
    (command, key, value)
    for command, keys in experiments.KEYS.items()
    for key, spec in keys.items()
    if spec.lo is not None
    for value in (spec.lo - 1, *(() if spec.hi is None else (spec.hi + 1,)))
] + [("scaling", "run.workers", v) for v in (0, 2, 65)]  # a key of the CLI's own, accepted only as 1


@pytest.mark.parametrize("command, key, value", LIMIT_CASES, ids=[f"{c}-{k}={v}" for c, k, v in LIMIT_CASES])
def test_every_limited_key_names_itself_outside_its_limits(tmp_path, capsys, command, key, value):
    out = tmp_path / "out"
    assert main([*LIMIT_CONFIGS[command], f"--{key}={value}", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {key}={value} must ")
    assert not out.exists()


@pytest.mark.parametrize("command", LIMIT_CONFIGS)
def test_bad_seed_variable_names_itself(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out"
    for raw, message in (
        ("abc", "bad value for CALIBLAB_SEED: 'abc'"),
        ("-1", "CALIBLAB_SEED=-1 must lie in 0..18446744073709551615, the 64-bit seed range"),
        ("18446744073709551616", "CALIBLAB_SEED=18446744073709551616 must lie in 0..18446744073709551615"),
    ):
        monkeypatch.setenv("CALIBLAB_SEED", raw)
        assert main([*LIMIT_CONFIGS[command], "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()


@pytest.mark.parametrize("source", ["run.seed", "CALIBLAB_SEED", "seed"])
def test_seeds_a_multiple_of_two_to_the_64_apart_are_refused(tmp_path, capsys, monkeypatch, source):
    # substream keeps a seed's low 64 bits, so these would share every stream with 2^64 - 1
    out = tmp_path / "out"
    for seed in (-1, 36893488147419103231):
        if source == "run.seed":
            argv = [*LIMIT_CONFIGS["scaling"], f"--run.seed={seed}"]
        elif source == "CALIBLAB_SEED":
            monkeypatch.setenv("CALIBLAB_SEED", str(seed))
            argv = LIMIT_CONFIGS["scaling"]
        else:
            argv = ["probe", "root-return", "--L=16", "--reps=100", f"--seed={seed}"]
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert f"{source}={seed} must lie in 0..18446744073709551615" in capsys.readouterr().err
        assert not out.exists()


def test_bounds_hand_the_runner_only_the_keys_the_config_sets(tmp_path, monkeypatch):
    # an unset key keeps the default of the runner's signature, and the
    # manifest's seed is the one the runner reports
    seen = []

    def runner(**params):
        seen.append(params)
        return experiments.run_reduction_bound(**{**params, "replicates": 2, "seed": 7})

    monkeypatch.setattr(cli, "run_reduction_bound", runner)
    cfg = tmp_path / "r.cfg"
    cfg.write_text("reduction.T_list=512\nreduction.pieces=3\n")
    assert main(["bounds", "reduction", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert seen == [{"T_list": (512,), "pieces": 3}]
    assert "master_seed=7" in (tmp_path / "bounds_reduction_manifest.txt").read_text().splitlines()


@pytest.mark.parametrize(
    "which, lines, T, record",
    [
        ("oracle", "oracle.T=400\noracle.k=2\n", 400, "oracle_pathwise_violations,1,0,-1,false"),
        ("reduction", "reduction.T_list=512\n", 512, "reduction_pathwise@T=512,1,0,-1,false"),
    ],
)
def test_bounds_violation_fails_the_assert_and_is_named(tmp_path, monkeypatch, which, lines, T, record):
    # one failing telescoping summary, in the first (routed) cell only
    telescoping = experiments.check_telescoping
    calls = []

    def once(ledger):
        calls.append(ledger)
        if len(calls) > 1:
            return telescoping(ledger)
        return replace(telescoping(ledger), failures=1, min_slack=Fraction(-1, 2), first=0, lhs=Fraction(1, 2), rhs=0)

    monkeypatch.setattr(experiments, "check_telescoping", once)
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"{lines}run.replicates=2\nrun.seed=5\n")
    assert main(["bounds", which, "--config", str(cfg), "--out", str(tmp_path), "--assert"]) == EXIT_ASSERT
    lines = (tmp_path / f"bounds_{which}_manifest.txt").read_text().splitlines()
    named = [line for line in lines if line.startswith("pathwise_violation@")]
    assert named == [f"pathwise_violation@T={T}=rep=0;check=telescoping;index=0;lhs=1/2;rhs=0"]
    # the fold's tightest slack of each check, the failing one too
    assert f"pathwise_min_slack@T={T}/telescoping=-0.5" in lines
    if which == "reduction":
        assert "pathwise_min_slack@T=512/cell_triangle=0" in lines
    assert record in (tmp_path / f"bounds_{which}.csv").read_text().splitlines()


def test_bounds_bad_value_fails_before_any_output(tmp_path, capsys):
    # the desk caps are refused at once, before a (T, k) bit array per
    # replicate or a (Q + 1)-point oracle support is built
    cfg = tmp_path / "r.cfg"
    out = tmp_path / "out"
    for which, lines, key in (
        ("reduction", "reduction.T_list=512\nrun.seed=abc\n", "run.seed"),
        ("reduction", "reduction.T_list=\n", "reduction.T_list"),
        ("reduction", "reduction.T_list=512\nrun.replicates=10001\n", "run.replicates=10001"),
        (
            "reduction",
            "reduction.T_list=512\nreduction.oracle=uniform_random\nreduction.Q=1000000000000001\nrun.replicates=2\n",
            "reduction.Q=1000000000000001",
        ),
        ("oracle", "oracle.T=2097152\nrun.replicates=2\n", "oracle.T=2097152"),
        ("oracle", "oracle.T=400\nrun.replicates=10001\n", "run.replicates=10001"),
        ("oracle", "oracle.T=400\noracle.Q=1000000000000001\nrun.replicates=2\n", "oracle.Q=1000000000000001"),
        ("reduction", "reduction.T_list=512\nreduction.Q=1000000000000001\nrun.replicates=2\n", "reduction.Q=1000000000000001"),
        (
            "oracle",
            "oracle.T=400\noracle.oracle=empirical_mean_bucket\noracle.Q=4097\nrun.replicates=2\n",
            "oracle.Q=4097",
        ),
        ("oracle", "oracle.T=400\noracle.k=13\nrun.replicates=2\n", "oracle.k=13"),
        ("oracle", "oracle.T=400\noracle.k=0\nrun.replicates=2\n", "oracle.k=0"),
        ("oracle", "oracle.T=400\noracle.m_copies=0\nrun.replicates=2\n", "oracle.m_copies=0"),
        # bound oracles are context-blind, as forecaster.oracle is
        ("oracle", "oracle.T=400\noracle.oracle=honest\nrun.replicates=2\n", "oracle.oracle=honest"),
        ("oracle", "oracle.T=400\noracle.oracle=constant\nrun.replicates=2\n", "oracle.oracle=constant"),
        ("reduction", "reduction.T_list=512\nreduction.oracle=honest\nrun.replicates=2\n", "reduction.oracle=honest"),
        (
            "reduction",
            "reduction.T_list=512\nreduction.oracle=proper_reduction\nrun.replicates=2\n",
            "reduction.oracle=proper_reduction",
        ),
        # each command refuses a key it does not read
        ("oracle", "oracle.T=400\noracle.m_copy=2\nrun.replicates=2\n", "unknown config key oracle.m_copy;"),
        ("oracle", "oracle.T=400\nrun.workers=2\nrun.replicates=2\n", "unknown config key run.workers;"),
        ("reduction", "reduction.T_list=512\nreduction.piece=5\nrun.replicates=2\n", "unknown config key reduction.piece;"),
    ):
        cfg.write_text(lines)
        assert main(["bounds", which, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("replicates", [0, 1])
@pytest.mark.parametrize("which, lines", [("oracle", "oracle.T=400\noracle.k=2\n"), ("reduction", "reduction.T_list=512\n")])
def test_bounds_need_two_replicates(tmp_path, capsys, which, lines, replicates):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"{lines}run.replicates={replicates}\n")
    out = tmp_path / "out"
    assert main(["bounds", which, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"replicates={replicates}" in capsys.readouterr().err
    assert not out.exists()


def test_scaling_int64_headroom_is_a_config_error(tmp_path, capsys):
    # 2 T scale >= 2^63 at the first cell: exit 2 with the cell named, not an OverflowError
    cfg = ROOT / "configs" / "overshoot_biglies.cfg"
    overrides = ["--forecaster.offset=1/999999999989", "--groups.eta=1/128", "--env.T_list=131072"]
    out = tmp_path / "out"
    argv = ["scaling", "--config", str(cfg), *overrides, "--run.replicates=1", "--run.workers=1", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cell T=131072 rep=0" in err and "2 * T=131072 * scale=" in err and ">= 2^63" in err
    assert not out.exists()


def test_bounds_reduction_manifest_records_min_slack(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("reduction.T_list=256,512\nrun.replicates=3\nrun.seed=5\n")
    assert main(["bounds", "reduction", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "bounds_reduction_manifest.txt").read_text().splitlines()
    # one line per check of each T's fold; the grid ranges have no signed pairs, so diff_two reports nothing,
    # and each disjoint range is one cell, so the triangle bound holds with equality
    assert [line for line in lines if line.startswith("pathwise_min_slack@")] == [
        f"pathwise_min_slack@T={T}/{check}=0" for T in (256, 512) for check in ("telescoping", "cell_triangle")
    ]
    assert not any(line.startswith("pathwise_violation@") for line in lines)


def test_bounds_oracle_manifest_records_min_slack(tmp_path):
    cfg = tmp_path / "o.cfg"
    cfg.write_text("oracle.T=400\noracle.k=2\nrun.replicates=5\nrun.seed=9\n")
    assert main(["bounds", "oracle", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "bounds_oracle_manifest.txt").read_text().splitlines()
    slack = dict(line.rpartition("=")[::2] for line in lines if line.startswith("pathwise_min_slack@"))
    checks = ("telescoping", "bits_miss_penalty", "bits_mse_vs_mcerr")
    assert list(slack) == [f"pathwise_min_slack@T=400/{check}" for check in checks]
    assert slack["pathwise_min_slack@T=400/telescoping"] == "0"
    assert all(float(value) >= 0 for value in slack.values())
    assert not any(line.startswith("pathwise_violation@") for line in lines)


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's ``src`` on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_cli_import_loads_no_process_machinery():
    code = "import sys, caliblab.cli; print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_module_entry_point_help():
    out = _python("-m", "caliblab", "--help")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: caliblab")
    assert "bounds" in out.stdout


def test_walsh_pipeline_manifest_reads_exact_slacks(tmp_path):
    # the block checks read no outcome, so two replicates give each T's slacks; the block mass upper
    # bound sits on its Cauchy-Schwarz equality case and Parseval is an identity, both exactly 0
    config = ROOT / "configs" / "walsh_pipeline.cfg"
    assert main(["scaling", "--config", str(config), "--out", str(tmp_path), "--run.replicates=2"]) == EXIT_OK
    lines = (tmp_path / "walsh_manifest.txt").read_text().splitlines()
    for T in (2048, 8192):
        for check in ("block_mass_upper", "block_parseval"):
            assert f"pathwise_min_slack@T={T}/{check}=0" in lines
    slacks = [float(line.rpartition("=")[2]) for line in lines if line.startswith("pathwise_min_slack@")]
    assert len(slacks) == 16 and min(slacks) >= 0


def test_readme_names_every_config_key():
    # a key added to a command's table, or to a command's own keys, must be documented
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    keys = [*(key for table in experiments.KEYS.values() for key in table), *cli.SCALING_OWN_KEYS, *cli.BOUND_OWN_KEYS]
    assert [key for key in keys if f"`{key}`" not in readme] == []
