"""The four workloads of the benchmark of record, and how their outputs are judged.

Each workload is a fixed list of ``caliblab`` command lines at reduced
replicates, built from the workload seed and run single-process
(``run.workers=1``).  Each was chosen so that one layer dominates it and
another layer is nearly absent from it:

* ``thm31_ladder``: the Theorem 3.1 ladder (``configs/thm31_scaling.cfg``,
  T = 2^10..2^18) at 10 replicates.  Large T, three groups: environment
  sampling and the vectorised ledger dominate; group-family work is
  negligible.
* ``walsh_blocks``: the signed-noise Walsh pipeline
  (``configs/walsh_pipeline.cfg``, T = 2048, 8192) at 10 replicates.
  Small T, ~14k groups per cell: family build, block FWHT, per-group
  checks and aggregation dominate.
* ``noise_probes``: the shapes of acceptance criteria 05 and 08 at
  reduced replicates: every bucketing strategy at L = 2^6..2^14 plus
  first-return and root-return simulation.  No ledger at all: sign
  generation and the sequential kernels are the whole cost.
* ``exact_bounds``: ``configs/reduction_bound.cfg`` at 20 replicates,
  ``configs/oracle_bound.cfg`` at its shipped 100, and the exact
  identity suite.  The same exact-accumulation job as the vectorised
  ledger, but in scalar ``Fraction`` form per round and per routed cell.

Outputs are judged in two classes.  Exact checks (pathwise violations,
Err(g1) = Err(g2) = 0 on the honest ladder, identity records, kernel vs
scalar reference) must never fail; a failure makes the run incorrect.
Statistical verdicts (the exponent window, probe floors, bound records)
are reported with their margins and never tuned.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 20240808  # the shipped run.seed

BUCKETING_STRATEGIES = (
    "single_bucket",
    "round_robin",
    "fresh_bucket_on_return",
    "avoid_zero",
    "zero_seeking",
)
ADAPTIVE_STRATEGIES = BUCKETING_STRATEGIES[2:]  # the per-step loops; the others vectorise
BUCKETING_L = tuple(2**e for e in range(6, 15))
BUCKETING_REPS = 20
ROOT_RETURN_L = tuple(2**e for e in range(4, 13))
ROOT_RETURN_REPS = 1_000
RETURN_PMF_REPS = 20_000
SCALING_REPS = 10
REDUCTION_REPS = 20

# exact bound records: pathwise violation counts that must be zero
PATHWISE_RECORDS = ("oracle_pathwise_violations", "reduction_pathwise@")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: Callable[[int], list]  # seed -> CLI argument lists (without --out)
    cells: tuple  # the cell kinds timed, keyed as in spans.CellClock
    tail_pct: int  # the cell tail percentile reported
    min_reps: int  # repetitions needed for >= 10 cells beyond tail_pct
    differential: bool = False  # also check bucketing_batch against bucketing_trace


def _scaling(config: str, seed: int) -> list:
    return [
        [
            "scaling",
            "--config",
            config,
            f"--run.replicates={SCALING_REPS}",
            "--run.workers=1",
            f"--run.seed={seed}",
        ]
    ]


def _noise_calls(seed: int) -> list:
    calls = [
        ["probe", "bucketing", f"--L={L}", f"--strategy={s}", f"--reps={BUCKETING_REPS}",
         f"--seed={seed}"]
        for s in BUCKETING_STRATEGIES
        for L in BUCKETING_L
    ]
    calls.append(["probe", "return-pmf", "--n=20", f"--reps={RETURN_PMF_REPS}", f"--seed={seed}"])
    calls += [
        ["probe", "root-return", f"--L={L}", f"--reps={ROOT_RETURN_REPS}", f"--seed={seed}"]
        for L in ROOT_RETURN_L
    ]
    return calls


def _exact_calls(seed: int) -> list:
    return [
        ["bounds", "reduction", "--config", "configs/reduction_bound.cfg",
         f"--run.replicates={REDUCTION_REPS}", f"--run.seed={seed}"],
        ["bounds", "oracle", "--config", "configs/oracle_bound.cfg", f"--run.seed={seed}"],
        ["probe", "identities", f"--seed={seed}"],
    ]


def check_cell(config, result: dict) -> list:
    """Names of the exact checks one ``run_replicate`` cell fails."""
    bad = list(result["violations"])
    if config.experiment_id == "thm31":  # the honest forecaster never errs on g1 and g2
        bad += [f"Err({g})={e!r}" for g, e in result["err"].items() if g[:3] in ("g1@", "g2@") and e != 0.0]
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "thm31_ladder",
            "large T with 3 groups: sampling and the vectorised ledger dominate, group-family work is absent",
            lambda seed: _scaling("configs/thm31_scaling.cfg", seed),
            cells=(("thm31", 2**18),),
            tail_pct=90,
            min_reps=10,
        ),
        Workload(
            "walsh_blocks",
            "small T with ~14k groups per cell: family build, block FWHT, per-group checks and aggregation dominate",
            lambda seed: _scaling("configs/walsh_pipeline.cfg", seed),
            cells=(("walsh", 8192),),
            tail_pct=90,
            min_reps=10,
        ),
        Workload(
            "noise_probes",
            "bucketing and first-return probes: sign generation and sequential kernels only, no ledger",
            _noise_calls,
            cells=tuple((s, BUCKETING_L[-1]) for s in ADAPTIVE_STRATEGIES),
            tail_pct=80,
            min_reps=20,
            differential=True,
        ),
        Workload(
            "exact_bounds",
            "reduction and oracle bounds plus identities: scalar Fraction ledgers per round and per routed cell",
            _exact_calls,
            cells=(("reduction", 16384),),
            tail_pct=80,
            min_reps=3,
        ),
    )
}


def resolve(name: str, seed: int) -> None:
    """Parse the workload's command lines and resolve its configs, as ``cli.main`` does."""
    from caliblab import cli

    parser = cli.build_parser()
    for argv in WORKLOADS[name].calls(seed):
        args, extra = parser.parse_known_args(argv)
        overrides = cli.parse_overrides(extra)
        if args.command == "scaling":
            cli.experiment_config_from(cli.load_config(args.config, overrides))
        elif args.command == "bounds":
            cli.load_config(args.config, overrides)


# ---------------------------------------------------------------------------
# Reading the CLI's outputs
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    """One statistical verdict: passed when the CLI (or the fit) says so."""

    check_id: str
    passed: bool
    margin: float
    replicates: int
    detail: str


@dataclass
class Outcome:
    """What one repetition's outputs say: operations, exact failures, verdicts."""

    ops: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _flag(value: str) -> bool:
    return value == "true"


def judge(argv: list, out_dir: Path, outcome: Outcome) -> None:
    """Add the operations, exact failures and verdicts of one CLI call's outputs."""
    from caliblab import cli
    from caliblab.experiments import EXPONENT_WINDOW, fit_exponent

    args, extra = cli.build_parser().parse_known_args(argv)
    if args.command == "scaling":
        cfg = cli.load_config(args.config, cli.parse_overrides(extra))
        config = cli.experiment_config_from(cfg)
        rows = _rows(out_dir / f"{config.experiment_id}_scaling.csv")
        points = [(int(r["T"]), float(r["mean_mcerr"])) for r in rows]
        exponent = fit_exponent(points)[0]
        lo = float(cfg.get("assert.exponent_min", EXPONENT_WINDOW[0]))
        hi = float(cfg.get("assert.exponent_max", EXPONENT_WINDOW[1]))
        outcome.verdicts.append(
            Verdict(
                f"{config.experiment_id}_exponent_window",
                lo <= exponent <= hi,
                min(exponent - lo, hi - exponent),
                config.replicates,
                f"exponent {exponent:.4f} in [{lo}, {hi}]",
            )
        )
    elif args.command == "bounds":
        cfg = cli.load_config(args.config, cli.parse_overrides(extra))
        replicates = int(cfg.get("run.replicates", 100))
        for r in _rows(out_dir / f"bounds_{args.which}.csv"):
            if r["check_id"].startswith(PATHWISE_RECORDS):
                # pathwise violations are counted against the runner's cells
                bad = int(float(r["measured"]))
                if bad:
                    outcome.failed += min(bad, replicates)
                    outcome.failures.append(f"{r['check_id']}: {bad} pathwise violations")
                continue
            outcome.verdicts.append(
                Verdict(
                    r["check_id"],
                    _flag(r["pass"]),
                    float(r["margin"]),
                    replicates,
                    f"measured {float(r['measured']):.6g} bound {float(r['bound']):.6g}",
                )
            )
    elif args.name == "identities":
        for r in _rows(out_dir / "probe_identities.csv"):
            outcome.ops += 1
            if float(r["measured"]) != 0.0:
                outcome.failed += 1
                outcome.failures.append(f"{r['check_id']}: measured {r['measured']}, expected exactly 0")
    else:
        outcome.ops += 1
        for r in _rows(out_dir / f"probe_{args.name}.csv"):
            est, se, bound = float(r["estimate"]), float(r["stderr"]), float(r["bound"])
            if args.name == "bucketing":
                margin = est - bound  # rho against the calibrated floor
            else:
                margin = 3 * se - abs(est - bound)  # within 3 standard errors
            reps = dict(kv.split("=", 1) for kv in r["parameters"].split(";")).get("reps", args.reps)
            outcome.verdicts.append(
                Verdict(
                    f"{r['probe']}[{r['parameters']}]",
                    _flag(r["pass"]),
                    margin,
                    int(reps),
                    f"estimate {est:.6g} stderr {se:.3g} bound {bound:.6g}",
                )
            )


def bucketing_differential(seed: int, rows_per_shape: int = 4) -> Outcome:
    """Kernel ``bucketing_batch`` against the scalar ``bucketing_trace``, row by row.

    The rows are sampled from the first sign batch each bucketing probe of
    the workload draws (``bucketing_probe`` with stream 0 and the default
    pool), at the smallest, a middle and the largest L.
    """
    import numpy as np

    from caliblab import probes
    from caliblab.environments import substream

    outcome = Outcome()
    pick = np.random.default_rng(seed)
    for L in (BUCKETING_L[0], BUCKETING_L[len(BUCKETING_L) // 2], BUCKETING_L[-1]):
        pool = probes.default_pool(L)
        signs = np.where(substream(seed, 0).random((BUCKETING_REPS, L)) < 0.5, -1, 1).astype(np.int8)
        rows = pick.choice(BUCKETING_REPS, size=rows_per_shape, replace=False)
        for strategy in BUCKETING_STRATEGIES:
            code = probes.BUCKETING_STRATEGY_CODES[strategy]
            sum_abs, sum_sqrt, l_eps = probes.bucketing_batch(signs[rows], code, pool)
            for i, r in enumerate(rows):
                outcome.ops += 1
                where = f"bucketing[{strategy}] L={L} row={r}"
                try:
                    ref = probes.bucketing_trace(signs[r], strategy, pool)
                except AssertionError as exc:
                    outcome.failed += 1
                    outcome.failures.append(f"{where}: {exc}")
                    continue
                ref_abs = sum(abs(s) for s in ref["sums"].values())
                ref_sqrt = math.fsum(math.sqrt(c) for c in ref["counts"].values())
                if (
                    int(sum_abs[i]) != ref_abs
                    or int(l_eps[i]) != ref["returns"]
                    or not math.isclose(float(sum_sqrt[i]), ref_sqrt, rel_tol=1e-12)
                ):
                    outcome.failed += 1
                    outcome.failures.append(
                        f"{where}: kernel ({int(sum_abs[i])}, {float(sum_sqrt[i])!r}, "
                        f"{int(l_eps[i])}) != reference ({ref_abs}, {ref_sqrt!r}, {ref['returns']})"
                    )
    return outcome
