"""Configuration-driven command line entry point.

Configs are flat ``key=value`` text with dotted namespaces::

    env.kind=bernoulli
    env.T_list=1024,4096,16384
    forecaster.id=honest
    groups.kind=pred_threshold
    run.replicates=100
    run.seed=42

Any key can be overridden on the command line as ``--key=value``.  The
environment variable ``CALIBLAB_SEED`` overrides ``run.seed``.  Exit
codes: 0 success, 1 acceptance-window failure under ``--assert``,
2 config parse error or unknown probe, 3 unresolved id.  CSV content is
identical whether or not ``--assert`` is set.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .calibration import format_float
from .experiments import (
    EXPONENT_WINDOW,
    ExperimentConfig,
    run_identity_suite,
    run_oracle_bound,
    run_reduction_bound,
    run_scaling,
    write_bounds_csv,
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

PROBE_NAMES = ("return-pmf", "root-return", "martingale", "bucketing", "identities")

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
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {cfg[key]!r}") from exc


def _int_list(raw: str) -> tuple:
    return tuple(int(s) for s in raw.split(",") if s.strip())


def experiment_config_from(cfg: dict) -> ExperimentConfig:
    t_list = _get(cfg, "env.T_list", None, _int_list)
    if t_list is None:
        t_list = (_get(cfg, "env.T", 1024, int),)
    try:
        return ExperimentConfig(
            experiment_id=_get(cfg, "run.id", "scaling"),
            env=_get(cfg, "env.kind", "bernoulli"),
            forecaster=_get(cfg, "forecaster.id", "honest"),
            groups=_get(cfg, "groups.kind", "pred_threshold"),
            T_list=t_list,
            replicates=_get(cfg, "run.replicates", 10, int),
            seed=_get(cfg, "run.seed", 42, int),
            m=_get(cfg, "env.m", None, int),
            k=_get(cfg, "env.k", 3, int),
            Q=_get(cfg, "forecaster.Q", None, int),
            offset=_get(cfg, "forecaster.offset", None),
            value=_get(cfg, "forecaster.value", None),
            eta=_get(cfg, "groups.eta", None),
            K=_get(cfg, "groups.K", None, int),
            pieces=_get(cfg, "groups.pieces", 3, int),
            oracle=_get(cfg, "forecaster.oracle", "uniform_random"),
            m_copies=_get(cfg, "forecaster.m_copies", 1, int),
            update=_get(cfg, "forecaster.update", "largest"),
            workers=_get(cfg, "run.workers", os.cpu_count() or 1, int),
            checks=_get(cfg, "run.checks", "true").lower() != "false",
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


def _known_ids_ok(config: ExperimentConfig) -> str | None:
    from .forecasters import make_forecaster_factory

    known_groups = {"pred_threshold", "walsh", "block_hadamard", "full_walsh", "bits", "grid_ranges"}
    if config.groups not in known_groups:
        return f"unknown groups kind: {config.groups!r}"
    if config.env not in {"bernoulli", "rademacher", "bits"}:
        return f"unknown environment kind: {config.env!r}"
    try:
        params = {"Q": 4}
        if config.forecaster == "overshoot":
            params["offset"] = "1/100"
        make_forecaster_factory(config.forecaster, **params)
    except KeyError:
        return f"unknown forecaster id: {config.forecaster!r}"
    return None


def cmd_scaling(args, overrides) -> int:
    try:
        cfg = load_config(args.config, overrides)
        config = experiment_config_from(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    problem = _known_ids_ok(config)
    if problem:
        print(problem, file=sys.stderr)
        return EXIT_UNRESOLVED

    manifest = Manifest(__version__, config_digest(cfg), config.seed, time.time())
    out_dir = Path(args.out or cfg.get("output.dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_scaling(config)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    scaling_path = out_dir / f"{config.experiment_id}_scaling.csv"
    groups_path = out_dir / f"{config.experiment_id}_groups.csv"
    write_scaling_csv(scaling_path, result)
    write_per_group_csv(groups_path, result)
    manifest.outputs = [scaling_path.name, groups_path.name]
    if cfg.get("output.family", "false").lower() == "true":
        family_path = out_dir / f"{config.experiment_id}_family.csv"
        write_family_csv(family_path, config)
        manifest.outputs.append(family_path.name)
    for row in result.rows:
        manifest.notes += [
            f"pathwise_min_slack@T={row.T}/{name}={format_float(float(slack))}" for name, slack in row.min_slack.items()
        ]
    manifest.write(out_dir / f"{config.experiment_id}_manifest.txt")

    lo = float(cfg.get("assert.exponent_min", EXPONENT_WINDOW[0]))
    hi = float(cfg.get("assert.exponent_max", EXPONENT_WINDOW[1]))
    print(
        f"{config.experiment_id}: exponent={result.exponent:.4f} "
        f"ci95=({result.exponent_ci95[0]:.4f},{result.exponent_ci95[1]:.4f}) "
        f"violations={result.total_violations()}"
    )
    if args.do_assert:
        window_ok = len(result.rows) < 2 or lo <= result.exponent <= hi
        if not window_ok or result.total_violations() > 0:
            print(f"assert failed: exponent outside [{lo}, {hi}] or violations > 0", file=sys.stderr)
            return EXIT_ASSERT
    return EXIT_OK


def _probe_rows(args) -> list:
    seed = args.seed
    if "CALIBLAB_SEED" in os.environ:
        seed = int(os.environ["CALIBLAB_SEED"])
    if args.name == "return-pmf":
        reps = int(args.reps or 100_000)
        n_max = int(args.n or 20)
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
        rep = truncated_root_return_probe(int(args.L or 1024), int(args.reps or 100_000), seed)
    elif args.name == "martingale":
        rep = martingale_transform_probe(
            int(args.L or 4096),
            alpha=float(args.alpha or 1.0),
            indicator_strategy=args.strategy or "all_ones",
            replicates=int(args.reps or 20_000),
            seed=seed,
        )
    else:
        rep = bucketing_probe(
            int(args.L or 4096),
            h=Fraction(args.h or "1/4"),
            strategy=args.strategy or "single_bucket",
            replicates=int(args.reps or 10_000),
            seed=seed,
        )
    params = ";".join(f"{k}={v}" for k, v in sorted(rep.parameters.items()))
    return [(rep.probe, params, rep.estimate, rep.stderr, rep.bound, rep.passed)]


def cmd_probe(args) -> int:
    if args.name not in PROBE_NAMES:
        print(f"unknown probe {args.name!r}; choose from {', '.join(PROBE_NAMES)}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"probe_{args.name}.csv"
    if args.name == "identities":
        records = run_identity_suite(seed=args.seed)
        write_bounds_csv(path, records)
        ok = all(r.passed for r in records)
        for r in records:
            print(f"{r.check_id}: {'pass' if r.passed else 'FAIL'}")
    else:
        try:
            rows = _probe_rows(args)
        except ValueError as exc:
            print(f"probe error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["probe", "parameters", "estimate", "stderr", "bound", "pass"])
            for probe, params, est, se, bound, passed in rows:
                w.writerow(
                    [probe, params, format_float(est), format_float(se), format_float(bound), str(passed).lower()]
                )
        ok = all(row[5] for row in rows)
        for row in rows:
            print(f"{row[0]}[{row[1]}]: {'pass' if row[5] else 'FAIL'}")
    if args.do_assert and not ok:
        return EXIT_ASSERT
    return EXIT_OK


def cmd_bounds(args, overrides) -> int:
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = _get(cfg, "run.seed", 42, int)
    replicates = _get(cfg, "run.replicates", 100, int)
    out_dir = Path(args.out or cfg.get("output.dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(__version__, config_digest(cfg), seed, time.time())

    details: dict = {}
    try:
        if args.which == "oracle":
            records, details = run_oracle_bound(
                T=_get(cfg, "oracle.T", 10_000, int),
                k=_get(cfg, "oracle.k", 3, int),
                m_copies=_get(cfg, "oracle.m_copies", 1, int),
                oracle=_get(cfg, "oracle.oracle", "uniform_random"),
                q=_get(cfg, "oracle.Q", None, int),
                update=_get(cfg, "oracle.update", "largest"),
                replicates=replicates,
                seed=seed,
            )
        else:
            records, details = run_reduction_bound(
                T_list=_get(cfg, "reduction.T_list", (1024,), _int_list),
                replicates=replicates,
                seed=seed,
                pieces=_get(cfg, "reduction.pieces", 3, int),
                oracle=_get(cfg, "reduction.oracle", "empirical_mean_bucket"),
                q=_get(cfg, "reduction.Q", 4, int),
                groups_kind=_get(cfg, "reduction.groups", "grid_ranges"),
            )
    except KeyError as exc:
        print(f"unknown id: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except ValueError as exc:
        if "routing is invalid" in str(exc):
            print(f"invalid groups for reduction: {exc}", file=sys.stderr)
            return EXIT_UNRESOLVED
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    path = out_dir / f"bounds_{args.which}.csv"
    write_bounds_csv(path, records)
    manifest.outputs = [path.name]
    if args.which == "reduction":
        cells_path = out_dir / "bounds_reduction_cells.csv"
        with open(cells_path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["T", "pattern", "T_z", "cell_err"])
            for T, info in sorted(details["per_T"].items()):
                for pattern, t_z, err in info.get("cells", []):
                    w.writerow([T, pattern, t_z, format_float(err)])
        manifest.outputs.append(cells_path.name)
        for T, info in sorted(details["per_T"].items()):
            manifest.notes.append(f"pathwise_min_slack@T={T}={format_float(info['pathwise_min_slack'])}")
            manifest.notes += [
                f"pathwise_violation@T={T}=rep={v['rep']};group={v['group']};err={v['err']};bound={v['bound']}"
                for v in info["pathwise_violations"]
            ]
    manifest.write(out_dir / f"bounds_{args.which}_manifest.txt")
    for r in records:
        print(f"{r.check_id}: measured={r.measured:.6g} bound={r.bound:.6g} {'pass' if r.passed else 'FAIL'}")
    if args.do_assert and not all(r.passed for r in records):
        return EXIT_ASSERT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="caliblab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sc = sub.add_parser("scaling", help="replicated scaling study with exponent fit")
    p_sc.add_argument("--config", required=True)
    p_sc.add_argument("--out", default=None)
    p_sc.add_argument("--assert", dest="do_assert", action="store_true")

    p_pr = sub.add_parser("probe", help="stochastic probes and the exact identity suite")
    p_pr.add_argument("name")
    p_pr.add_argument("--L", default=None)
    p_pr.add_argument("--n", default=None)
    p_pr.add_argument("--reps", default=None)
    p_pr.add_argument("--strategy", default=None)
    p_pr.add_argument("--alpha", default=None)
    p_pr.add_argument("--h", default=None)
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
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
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
