"""Configuration-driven command line entry point.

Configs are flat ``key=value`` text with dotted namespaces::

    env.T_list=1024,4096,16384
    forecaster.Q=16
    run.replicates=100
    run.seed=42

Any key can be overridden on the command line as ``--key=value``.  The
environment variable ``CALIBLAB_SEED`` overrides ``run.seed`` and every
probe's ``--seed``, within the same limits.

The kinds and ids a config names are the keys of ``experiments.ENVS``
and ``experiments.FAMILIES`` and the ids of ``make_forecaster_factory``.
``scaling`` and ``bounds`` read and cast every key they use through
``experiments.KEYS`` before the first cell, refuse a key they do not
read, and exit 2 naming a key whose value lies outside the table's
limits (the desk caps, ``run.seed`` in 0..2^64 - 1, pieces at least 1)
or an exponent window no exponent can pass (a NaN end, or
``assert.exponent_min`` above ``assert.exponent_max``; an infinite end
is accepted).
``scaling`` runs its cells in one process and accepts ``run.workers``
only as 1.  ``run.id`` must match ``[A-Za-z0-9_.-]+``: it prefixes the
file names written in the output directory, and the CSVs hold it
unquoted.  Probe sizes are capped alike (``PROBE_SIZES``), and a probe
refuses an argument it does not read (``PROBE_READS``), before any draw.
Exit codes: 0 success, 1 failure under ``--assert``, 2 config parse
error, unknown config key, missing or bad value, unbuildable run,
unknown probe or unread probe argument, 3 unknown kind or id
(``unknown <config key>: <value>``).
CSV content is identical whether or not ``--assert`` is set.  The
manifests of ``scaling``, ``bounds oracle`` and ``bounds reduction`` are
written from each T's fold of its cells by one formatter: one
``pathwise_min_slack@T=<T>/<check>=`` line per pathwise check, then one
``pathwise_violation@`` line per failing summary; ``scaling --assert``
names each T's first failing cell on stderr from the same fold.  A
scaling run whose mean MCerr is 0 at some T has no log-log fit: its
exponent is nan, and ``--assert`` fails on it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import __version__
from .calibration import format_float
from .experiments import (
    EXPONENT_WINDOW,
    KEYS,
    MAX_T,
    ExperimentConfig,
    Key,
    cast_value,
    run_identity_suite,
    run_oracle_bound,
    run_reduction_bound,
    run_scaling,
    write_bounds_csv,
    write_csv,
    write_family_csv,
    write_per_group_csv,
    write_scaling_csv,
)
from .probes import (
    bucketing_probe,
    first_return_pmf,
    martingale_transform_probe,
    simulate_first_returns,
    truncated_root_return_probe,
)

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2
EXIT_UNRESOLVED = 3

_OVERRIDE_RE = re.compile(r"^--([A-Za-z0-9_.]+)=(.*)$")


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def load_config(path, overrides) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = parse_config_text(text)
    cfg.update(overrides)
    if "CALIBLAB_SEED" in os.environ:
        _seed("CALIBLAB_SEED", os.environ["CALIBLAB_SEED"])  # checked; the config and its digest keep the text
        cfg["run.seed"] = os.environ["CALIBLAB_SEED"]
    return cfg


def config_digest(cfg: dict) -> str:
    canonical = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_overrides(tokens) -> dict:
    out = {}
    for tok in tokens:
        m = _OVERRIDE_RE.match(tok)
        if not m:
            raise ConfigError(f"unrecognized argument {tok!r}; overrides look like --key=value")
        out[m.group(1)] = m.group(2)
    return out


def _get(cfg: dict, key: str, default=None, cast=str):
    return cast_value(key, cfg[key], cast) if key in cfg else default


def _flag(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise ValueError(raw)
    return raw.lower() == "true"


# the keys a command reads that no runner does; it refuses a key in neither these nor experiments.KEYS
SCALING_OWN_KEYS = ("env.T", "run.workers", "output.dir", "output.family", "assert.exponent_min", "assert.exponent_max")
BOUND_OWN_KEYS = ("output.dir",)


def _read(cfg: dict, command: str) -> dict:
    """The runner keywords of the keys of ``command`` that ``cfg`` sets, cast."""
    return {spec.field: _get(cfg, key, cast=spec.cast) for key, spec in KEYS[command].items() if key in cfg}


def _seed(name: str, raw) -> int:
    """A seed given as ``name``, cast and checked against the limits of ``run.seed``."""
    seed = cast_value(name, raw, int)
    KEYS["scaling"]["run.seed"].check(name, seed)
    return seed


def _refuse_unknown(cfg: dict, known) -> None:
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(unknown)}; accepted: {', '.join(sorted(known))}")


def experiment_config_from(cfg: dict) -> ExperimentConfig:
    if _get(cfg, "run.workers", 1, int) != 1:
        raise ConfigError(f"run.workers={cfg['run.workers']} must be 1: scaling runs its cells in one process")
    params = _read(cfg, "scaling")
    if "env.T" in cfg:
        if "T_list" in params:
            raise ConfigError("env.T and env.T_list are both set; give one of them")
        params["T_list"] = (_get(cfg, "env.T", cast=int),)
        KEYS["scaling"]["env.T_list"].check("env.T", params["T_list"])
    return ExperimentConfig(**params)


@dataclass
class Manifest:
    version: str
    digest: str
    seed: int
    started: float
    outputs: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # extra key=value lines

    def write(self, path) -> None:
        lines = [
            f"tool_version={self.version}",
            f"config_digest={self.digest}",
            f"master_seed={self.seed}",
            f"started={time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime(self.started))}",
            f"finished={time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime(time.time()))}",
            "outputs=" + ",".join(str(p) for p in self.outputs),
            *self.notes,
        ]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _named(rep: int, s, sep: str) -> str:
    """A failing (rep, CheckSummary) as its replicate, check, first failing index and that comparison's sides."""
    fields = (("rep", rep), ("check", s.name), ("index", s.first), ("lhs", s.lhs), ("rhs", s.rhs))
    return sep.join(f"{key}={value}" for key, value in fields)


def _pathwise_lines(T: int, min_slack: dict, failed) -> list:
    """The manifest lines of one T's fold: each check's tightest slack, then each failing (rep, CheckSummary)."""
    slack = [f"pathwise_min_slack@T={T}/{name}={format_float(float(v))}" for name, v in min_slack.items()]
    return slack + [f"pathwise_violation@T={T}={_named(rep, s, ';')}" for rep, s in failed]


def _violations(row) -> str:
    """A T's violation count under ``--assert``, with its first failing cell when the fold kept one."""
    line = f"T={row.T}: {row.violations} violations"
    return f"{line}, first {_named(*row.failed[0], ' ')}" if row.failed else line


def cmd_scaling(args, overrides) -> int:
    try:
        cfg = load_config(args.config, overrides)
        _refuse_unknown(cfg, [*KEYS["scaling"], *SCALING_OWN_KEYS])
        config = experiment_config_from(cfg)
        lo = _get(cfg, "assert.exponent_min", EXPONENT_WINDOW[0], float)
        hi = _get(cfg, "assert.exponent_max", EXPONENT_WINDOW[1], float)
        if not lo <= hi:  # a NaN end, or min above max, passes no exponent
            raise ConfigError(f"assert.exponent_min={lo} and assert.exponent_max={hi} admit no exponent")
        family = _get(cfg, "output.family", False, _flag)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_UNRESOLVED

    manifest = Manifest(__version__, config_digest(cfg), config.seed, time.time())
    try:
        result = run_scaling(config)
    except (ValueError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out or cfg.get("output.dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    scaling_path = out_dir / f"{config.experiment_id}_scaling.csv"
    groups_path = out_dir / f"{config.experiment_id}_groups.csv"
    start = time.perf_counter()
    write_scaling_csv(scaling_path, result)
    write_per_group_csv(groups_path, result)
    manifest.outputs = [scaling_path.name, groups_path.name]
    if family:
        family_path = out_dir / f"{config.experiment_id}_family.csv"
        write_family_csv(family_path, config)
        manifest.outputs.append(family_path.name)
    stages = {**result.stage_s, "write": time.perf_counter() - start}
    manifest.notes += [f"stage_s@{stage}={seconds:.6f}" for stage, seconds in stages.items()]
    for row in result.rows:
        resolved = ";".join(f"{key}={value}" for key, value in config.plans[row.T].resolved().items())
        manifest.notes.append(f"resolved@T={row.T}={resolved}")
        manifest.notes += _pathwise_lines(row.T, row.min_slack, row.failed)
    manifest.write(out_dir / f"{config.experiment_id}_manifest.txt")

    print(
        f"{config.experiment_id}: exponent={result.exponent:.4f} "
        f"ci95=({result.exponent_ci95[0]:.4f},{result.exponent_ci95[1]:.4f}) "
        f"violations={result.total_violations()}"
    )
    if args.do_assert:
        failures = [_violations(row) for row in result.rows if row.violations]
        if len(result.rows) >= 2 and not lo <= result.exponent <= hi:
            failures.insert(0, f"exponent {result.exponent:.4f} outside [{lo}, {hi}]")
        if failures:
            print("assert failed: " + "; ".join(failures), file=sys.stderr)
            return EXIT_ASSERT
    return EXIT_OK


# probe sizes: L up to a scaling run's T, reps up to the largest example in the README, and n up to
# 1000, where P(tau_0 = 2n) ~ 9e-6 leaves about 9 expected returns at the reps cap: a larger n tests nothing
PROBE_SIZES = {
    "L": Key("L", int, 1, MAX_T),
    "reps": Key("replicates", int, 1, 10**6, "the probe cap"),
    "n": Key("n", int, 1, 1000, "the probe cap"),
}


# the arguments each probe reads, out of PROBE_OPTIONS; a probe refuses any other it is given
PROBE_OPTIONS = ("L", "n", "reps", "strategy", "alpha", "h")
PROBE_READS = {
    "return-pmf": ("n", "reps"),
    "root-return": ("L", "reps"),
    "martingale": ("L", "reps", "strategy", "alpha"),
    "bucketing": ("L", "reps", "strategy", "h"),
    "identities": (),
}


def _size(given: dict, name: str, default: int) -> int:
    spec = PROBE_SIZES[name]
    value = _get(given, name, default, spec.cast)
    spec.check(name, value)
    return value


def _probe_rows(args, seed: int) -> list:
    given = {name: value for name, value in vars(args).items() if value is not None}
    if args.name == "return-pmf":
        reps = _size(given, "reps", 100_000)
        n_max = _size(given, "n", 20)
        horizon = 2 * n_max + 2
        taus = simulate_first_returns(horizon, reps, seed)
        rows = []
        for n in range(1, n_max + 1):
            exact = float(first_return_pmf(n))
            emp = float((taus == 2 * n).mean())
            se = (exact * (1 - exact) / reps) ** 0.5
            rows.append(
                ("return-pmf", f"n={n};reps={reps}", emp, se, exact, abs(emp - exact) <= 3 * se)
            )
        return rows
    if args.name == "root-return":
        rep = truncated_root_return_probe(_size(given, "L", 1024), _size(given, "reps", 100_000), seed)
    elif args.name == "martingale":
        rep = martingale_transform_probe(
            _size(given, "L", 4096),
            alpha=_get(given, "alpha", 1.0, float),
            indicator_strategy=args.strategy or "all_ones",
            replicates=_size(given, "reps", 20_000),
            seed=seed,
        )
    else:
        rep = bucketing_probe(
            _size(given, "L", 4096),
            h=_get(given, "h", Fraction(1, 4), Fraction),
            strategy=args.strategy or "single_bucket",
            replicates=_size(given, "reps", 10_000),
            seed=seed,
        )
    params = ";".join(f"{k}={v}" for k, v in sorted(rep.parameters.items()))
    return [(rep.probe, params, rep.estimate, rep.stderr, rep.bound, rep.passed)]


def cmd_probe(args) -> int:
    if args.name not in PROBE_READS:
        print(f"unknown probe {args.name!r}; choose from {', '.join(PROBE_READS)}", file=sys.stderr)
        return EXIT_CONFIG
    reads = PROBE_READS[args.name]
    unread = [f"--{name}" for name in PROBE_OPTIONS if getattr(args, name) is not None and name not in reads]
    if unread:
        accepted = ", ".join(f"--{name}" for name in reads) or "none of " + ", ".join(f"--{n}" for n in PROBE_OPTIONS)
        print(f"probe error: probe {args.name} does not read {', '.join(unread)}; it reads {accepted}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        name = "CALIBLAB_SEED" if "CALIBLAB_SEED" in os.environ else "seed"
        seed = _seed(name, os.environ.get("CALIBLAB_SEED", args.seed))
        if args.name != "identities":
            rows = _probe_rows(args, seed)
    except ValueError as exc:
        print(f"probe error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"probe_{args.name}.csv"
    if args.name == "identities":
        records = run_identity_suite(seed=seed)
        write_bounds_csv(path, records)
        ok = all(r.passed for r in records)
        for r in records:
            print(f"{r.check_id}: {'pass' if r.passed else 'FAIL'}")
    else:
        write_csv(path, ("probe", "parameters", "estimate", "stderr", "bound", "pass"), rows)
        ok = all(row[5] for row in rows)
        for row in rows:
            print(f"{row[0]}[{row[1]}]: {'pass' if row[5] else 'FAIL'}")
    if args.do_assert and not ok:
        return EXIT_ASSERT
    return EXIT_OK


def cmd_bounds(args, overrides) -> int:
    try:
        cfg = load_config(args.config, overrides)
        _refuse_unknown(cfg, [*KEYS[args.which], *BOUND_OWN_KEYS])
        started = time.time()
        runner = run_oracle_bound if args.which == "oracle" else run_reduction_bound
        records, details = runner(**_read(cfg, args.which))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_UNRESOLVED
    except (ValueError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    manifest = Manifest(__version__, config_digest(cfg), details["seed"], started)
    out_dir = Path(args.out or cfg.get("output.dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"bounds_{args.which}.csv"
    write_bounds_csv(path, records)
    manifest.outputs = [path.name]
    if args.which == "reduction":
        cells_path = out_dir / "bounds_reduction_cells.csv"
        rows = ((T, *cell) for T, info in details["per_T"].items() for cell in info["cells"])
        write_csv(cells_path, ("T", "pattern", "T_z", "cell_err"), rows)
        manifest.outputs.append(cells_path.name)
    for T, info in details["per_T"].items():  # the T ladder rises strictly
        manifest.notes += _pathwise_lines(T, info["min_slack"], info["failed"])
    manifest.write(out_dir / f"bounds_{args.which}_manifest.txt")
    for r in records:
        print(f"{r.check_id}: measured={r.measured:.6g} bound={r.bound:.6g} {'pass' if r.passed else 'FAIL'}")
    if args.do_assert and not all(r.passed for r in records):
        return EXIT_ASSERT
    return EXIT_OK


@cache  # built once per process: every main call parses with the one parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="caliblab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sc = sub.add_parser("scaling", help="replicated scaling study with exponent fit")
    p_sc.add_argument("--config", required=True)
    p_sc.add_argument("--out", default=None)
    p_sc.add_argument("--assert", dest="do_assert", action="store_true")

    p_pr = sub.add_parser("probe", help="stochastic probes and the exact identity suite")
    p_pr.add_argument("name")
    for name in PROBE_OPTIONS:
        p_pr.add_argument(f"--{name}", default=None)
    p_pr.add_argument("--seed", type=int, default=42)
    p_pr.add_argument("--out", default=None)
    p_pr.add_argument("--assert", dest="do_assert", action="store_true")

    p_bd = sub.add_parser("bounds", help="oracle/reduction bound checks")
    p_bd.add_argument("which", choices=["oracle", "reduction"])
    p_bd.add_argument("--config", required=True)
    p_bd.add_argument("--out", default=None)
    p_bd.add_argument("--assert", dest="do_assert", action="store_true")

    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    try:
        overrides = parse_overrides(extra)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "scaling":
        return cmd_scaling(args, overrides)
    if args.command == "probe":
        if overrides:
            print(f"probe does not take config overrides: {overrides}", file=sys.stderr)
            return EXIT_CONFIG
        return cmd_probe(args)
    return cmd_bounds(args, overrides)


if __name__ == "__main__":
    sys.exit(main())
