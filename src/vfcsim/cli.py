"""Command line front end: train, eval, compare, sweep.

All commands echo the fully resolved configuration into the output
directory so results can be reproduced from the artifacts alone, with two
exceptions: the sweep echo holds the base config, not the swept
sim.arrival_prob values, and a multi-scenario compare echoes only the
first scenario's scenario.* lines, so rerunning those also needs the same
--probs or --scenarios. Runs are deterministic for a given (config,
scheduler, seed), and output files are written in a fixed order so
identical invocations produce identical bytes.

--arrival-prob and --episodes set config keys (sim.arrival_prob, and
agent.episodes for train or sim.eval_episodes otherwise) over --set, so
the echo holds them too.

Exit codes: 0 on success, 1 when one or more runs failed (failures are
recorded and the remaining runs still execute), 2 on configuration or
usage errors.
"""

from __future__ import annotations

import argparse
import csv
import os
import random
import sys
from pathlib import Path

from .agent import load_tables
from .config import dump_config, load_config
from .engine import SCHEDULER_NAMES, CheckpointError, run_evaluation, run_training
from .errors import ConfigError, ValidationError
from .eventlog import write_event_log
from .metrics import RUN_CSV_COLUMNS, mean_std, run_csv_row
from .traffic import load_trace_csv


# Reference result levels reported for the system this simulator models
# (averages across the four traffic scenarios). They are NOT produced by
# this code and appear in comparison tables only as rows whose source
# column says "paper-reported"; absolute levels depend on assumptions and
# hardware scales that differ from this simulator's defaults, so compare
# orderings, not magnitudes.
PAPER_REPORTED = (
    ("qlearn", {"asr": 0.78, "cr": 235.0, "aap": 51.0}),
    ("fcfs", {"asr": 0.62, "cr": 190.0, "aap": 42.0}),
    ("lagrange-ref", {"asr": 0.68, "cr": 212.0, "aap": 23.0}),
    ("rr", {"asr": 0.63, "cr": 191.0, "aap": 20.0}),
    ("wfq", {"asr": 0.72, "cr": 225.0, "aap": 46.0}),
)

# (column index in a run row, name) of the metrics compare and sweep average
METRIC_COLUMNS = tuple((RUN_CSV_COLUMNS.index(name), name) for name in ("apt", "ast", "asr", "cr", "aap"))

AGGREGATE_COLUMNS = (
    "scheduler",
    "scenario",
    "n",
    "apt_mean", "apt_std",
    "ast_mean", "ast_std",
    "asr_mean", "asr_std",
    "cr_mean", "cr_std",
    "aap_mean", "aap_std",
    "source",
)


def _check_unique(values: list, flag: str) -> None:
    """A repeated entry would run twice and count twice in every mean."""
    seen = set()
    for v in values:
        if v in seen:
            raise ConfigError(f"{flag} lists {v!r} more than once")
        seen.add(v)


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --seed list {text!r}") from exc
    if not seeds:
        raise ConfigError("empty --seed list")
    for seed in seeds:
        if seed < 0:
            # random.Random seeds with the absolute value: -1 replays 1
            raise ConfigError(f"--seed {seed!r} is negative")
    _check_unique(seeds, "--seed")
    return seeds


def _parse_probs(text: str) -> list[float]:
    try:
        probs = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --probs list {text!r}") from exc
    if not probs or any(not (0.0 <= p <= 1.0) for p in probs):
        raise ConfigError(f"--probs values must lie in [0, 1], got {text!r}")
    _check_unique(probs, "--probs")
    return probs


def _parse_schedulers(text: str) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    for name in names:
        if name not in SCHEDULER_NAMES:
            raise ConfigError(f"unknown scheduler {name!r} (choices: {', '.join(SCHEDULER_NAMES)})")
    if not names:
        raise ConfigError("empty --schedulers list")
    _check_unique(names, "--schedulers")
    return names


def _parse_scenarios(text: str) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise ConfigError("empty --scenarios list")
    _check_unique(names, "--scenarios")
    return names


def _parse_sets(pairs: list[str] | None) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("VFCSIM_OUT")
    if not out:
        raise ConfigError("no output directory: pass --out or set VFCSIM_OUT")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args, scenario: str | None = None, arrival_prob: float | None = None):
    """The config of a run: file, --scenario, --set, then the flags."""
    overrides = _parse_sets(args.set)
    if arrival_prob is None:
        arrival_prob = getattr(args, "arrival_prob", None)
    if arrival_prob is not None:
        overrides["sim.arrival_prob"] = repr(arrival_prob)
    if args.episodes is not None:
        key = "agent.episodes" if args.command == "train" else "sim.eval_episodes"
        overrides[key] = str(args.episodes)
    return load_config(args.config, overrides, scenario or args.scenario)


def _write_csv(path: Path, columns, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _write_echo(cfg, out: Path) -> None:
    (out / "config_echo.cfg").write_text(dump_config(cfg))


def _load_checkpoint(args, cfg):
    if not args.checkpoint:
        raise ConfigError("qlearn evaluation needs --checkpoint DIR with trained q-tables")
    return load_tables(args.checkpoint, cfg.sim.fog_nodes)


def cmd_train(args) -> int:
    seeds = _parse_seeds(args.seed)
    if len(seeds) > 1:
        raise ConfigError(f"train takes one --seed, got {args.seed!r}")
    seed = seeds[0]
    cfg = _load(args)
    out = _out_dir(args)
    _write_echo(cfg, out)
    checkpoint_dir = out / "checkpoint"
    curve_path = out / "learning_curve.csv"
    try:
        result = run_training(cfg, seed, checkpoint_dir=checkpoint_dir)
        curve = result.curve
        failed = False
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        curve = exc.curve
        failed = True
    _write_csv(
        curve_path,
        ("episode", "epsilon", "tasks", "serviced", "reward_sum"),
        [
            (row["episode"], repr(row["epsilon"]), row["tasks"], row["serviced"], repr(row["reward_sum"]))
            for row in curve
        ],
    )
    if not failed:
        print(
            f"trained {cfg.agent.episodes} episodes on {cfg.scenario.name} "
            f"(final episode reward {curve[-1]['reward_sum']:.2f}); checkpoint in {checkpoint_dir}"
        )
    return 1 if failed else 0


def _evaluate(runs, seeds, out=None, vehicles=None):
    """Evaluate each (config, scheduler, tables) of `runs` on every seed, in
    order; returns (rows, reports, failures). With `out`, each evaluation
    writes its event log there."""
    rows = []
    reports = []
    failures = []
    for cfg, scheduler, tables in runs:
        for seed in seeds:
            try:
                result = run_evaluation(
                    cfg, scheduler, seed, tables=tables,
                    collect_events=out is not None, vehicles=vehicles,
                )
            except (ValidationError, RuntimeError) as exc:
                failures.append((scheduler, cfg.scenario.name, seed, str(exc)))
                continue
            rows.append(run_csv_row(result.report, scheduler, cfg.scenario.name, seed,
                                    cfg.sim.arrival_prob))
            reports.append((seed, result.report))
            if out is not None:
                write_event_log(result.events, out / f"events_{scheduler}_seed{seed}.ndjson")
    return rows, reports, failures


def cmd_eval(args) -> int:
    seeds = _parse_seeds(args.seed)
    cfg = _load(args)
    out = _out_dir(args)
    _write_echo(cfg, out)
    tables = _load_checkpoint(args, cfg) if args.scheduler == "qlearn" else None
    vehicles = None
    if args.trace:
        # recorded traces replace synthetic traffic in every seed and episode
        vehicles = load_trace_csv(
            args.trace, random.Random(seeds[0]), cfg.sim.vehicle_cpu_min_hz, cfg.sim.vehicle_cpu_max_hz
        )
    rows, reports, failures = _evaluate([(cfg, args.scheduler, tables)], seeds, out, vehicles)
    _write_csv(out / "metrics.csv", RUN_CSV_COLUMNS, rows)
    _report_failures(failures, out)
    for seed, report in reports:
        print(
            f"eval {args.scheduler} {cfg.scenario.name} seed {seed}: "
            f"asr={report.asr:.4f} apt={report.apt:.3f} ast={report.ast:.3f} "
            f"cr={report.cr:.3f} aap={report.aap:.3f} "
            f"({report.k_serviced}/{report.k_total} serviced)"
        )
    return 1 if failures else 0


def _aggregate_rows(all_rows: list[list[str]]):
    """Group per-run rows by (scheduler, scenario) preserving first-seen order."""
    groups: dict[tuple[str, str], list[list[str]]] = {}
    for row in all_rows:
        groups.setdefault((row[0], row[1]), []).append(row)
    out_rows = []
    for (scheduler, scenario), rows in groups.items():
        stats = [mean_std([float(r[idx]) for r in rows]) for idx, _ in METRIC_COLUMNS]
        out_rows.append(
            [scheduler, scenario, str(len(rows))]
            + [repr(v) for mean_and_std in stats for v in mean_and_std]
            + ["simulated"]
        )
    return out_rows


def _paper_rows():
    rows = []
    for scheduler, metrics in PAPER_REPORTED:
        rows.append(
            [
                scheduler,
                "reported-average",
                "0",
                "", "",
                "", "",
                repr(metrics["asr"]), "",
                repr(metrics["cr"]), "",
                repr(metrics["aap"]), "",
                "paper-reported",
            ]
        )
    return rows


def _report_failures(failures, out: Path) -> None:
    if not failures:
        return
    _write_csv(out / "failures.csv", ("scheduler", "scenario", "seed", "error"), failures)
    for scheduler, scenario, seed, message in failures:
        print(f"run failed: {scheduler} {scenario} seed {seed}: {message}", file=sys.stderr)


def cmd_compare(args) -> int:
    schedulers = _parse_schedulers(args.schedulers)
    scenarios = _parse_scenarios(args.scenarios)
    seeds = _parse_seeds(args.seed)
    out = _out_dir(args)
    runs = []
    for scenario in scenarios:
        cfg = _load(args, scenario)
        if scenario == scenarios[0]:
            _write_echo(cfg, out)
        tables = _load_checkpoint(args, cfg) if "qlearn" in schedulers else None
        runs += [(cfg, s, tables if s == "qlearn" else None) for s in schedulers]
    all_rows, _reports, failures = _evaluate(runs, seeds)
    _write_csv(out / "runs.csv", RUN_CSV_COLUMNS, all_rows)
    aggregate = _aggregate_rows(all_rows) + _paper_rows()
    _write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS, aggregate)
    _report_failures(failures, out)
    print(f"compare: {len(all_rows)} runs over {len(scenarios)} scenario(s) -> {out}")
    return 1 if failures else 0


def cmd_sweep(args) -> int:
    schedulers = _parse_schedulers(args.schedulers)
    probs = _parse_probs(args.probs)
    seeds = _parse_seeds(args.seed)
    cfg = _load(args)
    out = _out_dir(args)
    _write_echo(cfg, out)
    tables = _load_checkpoint(args, cfg) if "qlearn" in schedulers else None
    runs = []
    for prob in probs:
        prob_cfg = _load(args, arrival_prob=prob)
        runs += [(prob_cfg, s, tables if s == "qlearn" else None) for s in schedulers]
    all_rows, _reports, failures = _evaluate(runs, seeds)
    series: dict[tuple[str, str], list[list[str]]] = {}
    for row in all_rows:  # keyed by (scheduler, arrival_prob) as written
        series.setdefault((row[0], row[3]), []).append(row)
    _write_csv(out / "sweep.csv", RUN_CSV_COLUMNS, all_rows)

    series_rows = []
    asr_series: dict[str, list[tuple[float, float]]] = {}
    for scheduler in schedulers:
        for prob in probs:
            rows = series.get((scheduler, repr(prob)), [])
            if not rows:
                continue
            means = {
                name: mean_std([float(r[idx]) for r in rows])[0]
                for idx, name in METRIC_COLUMNS
            }
            series_rows.append(
                [scheduler, cfg.scenario.name, repr(prob), str(len(rows))]
                + [repr(means[name]) for _, name in METRIC_COLUMNS]
            )
            asr_series.setdefault(scheduler, []).append((prob, means["asr"]))
    _write_csv(
        out / "sweep_series.csv",
        ("scheduler", "scenario", "arrival_prob", "n", "apt_mean", "ast_mean", "asr_mean", "cr_mean", "aap_mean"),
        series_rows,
    )

    # monotonicity is reported, never asserted: load growth should not
    # raise the service ratio
    mono_rows = []
    for scheduler, points in asr_series.items():
        points.sort(key=lambda pv: pv[0])
        violations = [
            f"{points[i][0]!r}->{points[i + 1][0]!r}"
            for i in range(len(points) - 1)
            if points[i + 1][1] > points[i][1] + 1e-12
        ]
        mono_rows.append(
            [scheduler, "asr", "yes" if not violations else "no", ";".join(violations)]
        )
    _write_csv(out / "monotonicity.csv", ("scheduler", "metric", "non_increasing", "violations"), mono_rows)
    _report_failures(failures, out)
    print(f"sweep: {len(all_rows)} runs over probs {', '.join(repr(p) for p in probs)} -> {out}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfcsim",
        description="Three-tier vehicular fog computing simulator with learned and baseline schedulers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, arrival_prob: bool = True) -> None:
        p.add_argument("--config", default=None, help="config file (flat key = value)")
        p.add_argument("--scenario", default=None, help="traffic scenario name (default NO.1)")
        p.add_argument("--seed", default="1", help="comma-separated seed list")
        p.add_argument("--out", default=None, help="output directory (or $VFCSIM_OUT)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
        if arrival_prob:  # sweep takes its probabilities from --probs
            p.add_argument("--arrival-prob", type=float, default=None, dest="arrival_prob",
                           help="per-vehicle per-interval task probability (sim.arrival_prob)")

    p_train = sub.add_parser("train", help="train the q-learning scheduler")
    common(p_train)
    p_train.add_argument("--episodes", type=int, default=None, help="override training episodes")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate one scheduler")
    common(p_eval)
    p_eval.add_argument("--scheduler", required=True, choices=SCHEDULER_NAMES)
    p_eval.add_argument("--checkpoint", default=None, help="trained q-table directory (qlearn)")
    p_eval.add_argument("--episodes", type=int, default=None, help="evaluation episodes per seed")
    p_eval.add_argument("--trace", default=None, help="vehicle trace CSV replacing synthetic traffic")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="run a scheduler x scenario x seed grid")
    common(p_cmp)
    p_cmp.add_argument("--schedulers", default="qlearn,fcfs,rr,wfq")
    p_cmp.add_argument("--scenarios", default="NO.1,NO.2,NO.3,NO.4")
    p_cmp.add_argument("--checkpoint", default=None)
    p_cmp.add_argument("--episodes", type=int, default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="sweep the task arrival probability")
    common(p_sweep, arrival_prob=False)
    p_sweep.add_argument("--schedulers", default="qlearn,fcfs,rr,wfq")
    p_sweep.add_argument("--probs", default="0.3,0.4,0.5,0.6,0.7")
    p_sweep.add_argument("--checkpoint", default=None)
    p_sweep.add_argument("--episodes", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
