"""Command line front end: train, eval, compare, sweep.

All commands echo the fully resolved configuration into the output
directory so results can be reproduced from the artifacts alone; compare
and sweep echo their first run's config, so rerunning the others also
needs the same --scenario list or --probs. Runs are deterministic for a given
(config, scheduler, seed), and output files are written in a fixed order
so identical invocations produce identical bytes.

A run's config is resolved in one order, in _load; per key, lowest first:
the defaults, the --config file, --scenario, --set, then the key a grid
varies: compare sets scenario.name from each entry of its --scenario list
(else all four built-in scenarios), sweep sets sim.arrival_prob from each
--probs value.

Every command reads all its inputs (configs, checkpoint, trace) before it
creates the output directory, so a configuration or usage error writes
nothing.

Exit codes: 0 on success, 1 when one or more runs failed (failures are
recorded and the remaining runs still execute), 2 on configuration or
usage errors.
"""

from __future__ import annotations

import argparse
import csv
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

AGGREGATE_COLUMNS = ("scheduler", "scenario", "n",
                     *(f"{name}_{stat}" for _, name in METRIC_COLUMNS for stat in ("mean", "std")),
                     "source")
SERIES_COLUMNS = ("scheduler", "scenario", "arrival_prob", "n",
                  *(f"{name}_mean" for _, name in METRIC_COLUMNS))


def _parse_list(text: str, flag: str, parse=str, check=None) -> list:
    """The entries of a comma-separated `flag` list, each made by `parse`
    and then passed to `check`, which raises on a bad one. A repeated
    entry would run twice and count twice in every mean."""
    values = []
    for tok in text.split(","):
        if not tok.strip():
            continue
        try:
            value = parse(tok.strip())
        except ValueError as exc:
            raise ConfigError(f"bad {flag} list {text!r}") from exc
        if check is not None:
            check(value)
        if value in values:
            raise ConfigError(f"{flag} lists {value!r} more than once")
        values.append(value)
    if not values:
        raise ConfigError(f"empty {flag} list")
    return values


def _check_seed(seed: int) -> None:
    if seed < 0:
        # random.Random seeds with the absolute value: -1 replays 1
        raise ConfigError(f"--seed {seed!r} is negative")


def _check_scheduler(name: str) -> None:
    if name not in SCHEDULER_NAMES:
        raise ConfigError(f"unknown scheduler {name!r} (choices: {', '.join(SCHEDULER_NAMES)})")


def _parse_probs(text: str) -> list[float]:
    def check(prob: float) -> None:
        if not 0.0 <= prob <= 1.0:
            raise ConfigError(f"--probs values must lie in [0, 1], got {text!r}")

    return _parse_list(text, "--probs", float, check)


def _parse_sets(pairs: list[str] | None) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _out_dir(args, cfg) -> Path:
    """Create the output directory and echo `cfg` into it: the first write
    of every command, made once all its inputs are read."""
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    (path / "config_echo.cfg").write_text(dump_config(cfg))
    return path


def _load(args, grid: dict[str, str] | None = None):
    """The config of a run, in the module docstring's order; `grid` holds
    the key a compare or sweep varies."""
    overrides = {} if args.scenario is None else {"scenario.name": args.scenario}
    overrides.update(_parse_sets(args.set))
    overrides.update(grid or {})
    return load_config(args.config, overrides)


def _write_csv(path: Path, columns, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _grid(args, cfgs, schedulers):
    """The (config, scheduler, tables) runs of every scheduler on each
    config, config-major. The configs differ only in scenario.* or
    sim.arrival_prob, so one checkpoint load serves every qlearn run."""
    tables = None
    if "qlearn" in schedulers:
        if not args.checkpoint:
            raise ConfigError("qlearn evaluation needs --checkpoint DIR with trained q-tables")
        tables = load_tables(args.checkpoint, cfgs[0].sim.fog_nodes)
    return [(cfg, s, tables if s == "qlearn" else None) for cfg in cfgs for s in schedulers]


def cmd_train(args) -> int:
    seeds = _parse_list(args.seed, "--seed", int, _check_seed)
    if len(seeds) > 1:
        raise ConfigError(f"train takes one --seed, got {args.seed!r}")
    cfg = _load(args)
    out = _out_dir(args, cfg)
    checkpoint_dir = out / "checkpoint"
    curve_path = out / "learning_curve.csv"
    try:
        result = run_training(cfg, seeds[0], checkpoint_dir=checkpoint_dir)
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
    writes its event log there, and a log that cannot be written fails its
    run."""
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
            if out is not None:
                path = out / f"events_{scheduler}_seed{seed}.ndjson"
                try:
                    write_event_log(result.events, path)
                except OSError as exc:
                    failures.append((scheduler, cfg.scenario.name, seed,
                                     f"cannot write event log {path}: {exc}"))
                    continue
            rows.append(run_csv_row(result.report, scheduler, cfg.scenario.name, seed,
                                    cfg.sim.arrival_prob))
            reports.append((seed, result.report))
    return rows, reports, failures


def cmd_eval(args) -> int:
    seeds = _parse_list(args.seed, "--seed", int, _check_seed)
    cfg = _load(args)
    runs = _grid(args, [cfg], [args.scheduler])
    vehicles = None
    if args.trace:
        # recorded traces replace synthetic traffic in every seed and episode
        vehicles = load_trace_csv(
            args.trace, random.Random(seeds[0]), cfg.sim.vehicle_cpu_min_hz, cfg.sim.vehicle_cpu_max_hz
        )
    out = _out_dir(args, cfg)
    rows, reports, failures = _evaluate(runs, seeds, out, vehicles)
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


def _group_means(rows, key: str) -> dict:
    """Group run rows by (scheduler, column `key`) in first-seen order;
    maps each group to (run count, {metric: (mean, std)})."""
    column = RUN_CSV_COLUMNS.index(key)
    groups: dict[tuple[str, str], list[list[str]]] = {}
    for row in rows:
        groups.setdefault((row[0], row[column]), []).append(row)
    return {
        group: (len(members), {name: mean_std([float(r[idx]) for r in members])
                               for idx, name in METRIC_COLUMNS})
        for group, members in groups.items()
    }


def _paper_rows():
    rows = []
    for scheduler, metrics in PAPER_REPORTED:
        cells = []
        for _, name in METRIC_COLUMNS:  # a mean, then no std
            cells += [repr(metrics[name]) if name in metrics else "", ""]
        rows.append([scheduler, "reported-average", "0", *cells, "paper-reported"])
    return rows


def _report_failures(failures, out: Path) -> None:
    if not failures:
        return
    _write_csv(out / "failures.csv", ("scheduler", "scenario", "seed", "error"), failures)
    for scheduler, scenario, seed, message in failures:
        print(f"run failed: {scheduler} {scenario} seed {seed}: {message}", file=sys.stderr)


def cmd_compare(args) -> int:
    schedulers = _parse_list(args.schedulers, "--schedulers", check=_check_scheduler)
    scenarios = _parse_list(args.scenario or "NO.1,NO.2,NO.3,NO.4", "--scenario")
    seeds = _parse_list(args.seed, "--seed", int, _check_seed)
    cfgs = [_load(args, {"scenario.name": scenario}) for scenario in scenarios]
    runs = _grid(args, cfgs, schedulers)
    out = _out_dir(args, cfgs[0])
    all_rows, _reports, failures = _evaluate(runs, seeds)
    _write_csv(out / "runs.csv", RUN_CSV_COLUMNS, all_rows)
    aggregate = [
        [scheduler, scenario, str(n)] + [repr(v) for pair in stats.values() for v in pair] + ["simulated"]
        for (scheduler, scenario), (n, stats) in _group_means(all_rows, "scenario").items()
    ]
    _write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS, aggregate + _paper_rows())
    _report_failures(failures, out)
    print(f"compare: {len(all_rows)} runs over {len(scenarios)} scenario(s) -> {out}")
    return 1 if failures else 0


def cmd_sweep(args) -> int:
    schedulers = _parse_list(args.schedulers, "--schedulers", check=_check_scheduler)
    probs = _parse_probs(args.probs)
    seeds = _parse_list(args.seed, "--seed", int, _check_seed)
    cfgs = [_load(args, {"sim.arrival_prob": repr(prob)}) for prob in probs]
    runs = _grid(args, cfgs, schedulers)
    out = _out_dir(args, cfgs[0])
    all_rows, _reports, failures = _evaluate(runs, seeds)
    _write_csv(out / "sweep.csv", RUN_CSV_COLUMNS, all_rows)

    groups = _group_means(all_rows, "arrival_prob")
    series_rows = []
    mono_rows = []
    for scheduler in schedulers:
        points = []  # (arrival_prob, mean asr)
        for prob in probs:
            if (scheduler, repr(prob)) not in groups:
                continue
            n, stats = groups[scheduler, repr(prob)]
            series_rows.append([scheduler, cfgs[0].scenario.name, repr(prob), str(n)]
                               + [repr(mean) for mean, _ in stats.values()])
            points.append((prob, stats["asr"][0]))
        if not points:
            continue
        # monotonicity is reported, never asserted: load growth should not
        # raise the service ratio
        points.sort()
        violations = [
            f"{points[i][0]!r}->{points[i + 1][0]!r}"
            for i in range(len(points) - 1)
            if points[i + 1][1] > points[i][1] + 1e-12
        ]
        mono_rows.append([scheduler, "asr", "yes" if not violations else "no", ";".join(violations)])
    _write_csv(out / "sweep_series.csv", SERIES_COLUMNS, series_rows)
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

    def common(p: argparse.ArgumentParser, scenario_help="traffic scenario name (default NO.1)") -> None:
        p.add_argument("--config", default=None, help="config file (flat key = value)")
        p.add_argument("--scenario", default=None, help=scenario_help)
        p.add_argument("--seed", default="1", help="comma-separated seed list")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")

    p_train = sub.add_parser("train", help="train the q-learning scheduler")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate one scheduler")
    common(p_eval)
    p_eval.add_argument("--scheduler", required=True, choices=SCHEDULER_NAMES)
    p_eval.add_argument("--checkpoint", default=None, help="trained q-table directory (qlearn)")
    p_eval.add_argument("--trace", default=None, help="vehicle trace CSV replacing synthetic traffic")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="run a scheduler x scenario x seed grid")
    common(p_cmp, "comma-separated scenarios (default NO.1-NO.4)")
    p_cmp.add_argument("--schedulers", default="qlearn,fcfs,rr,wfq")
    p_cmp.add_argument("--checkpoint", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="sweep the task arrival probability")
    common(p_sweep)
    p_sweep.add_argument("--schedulers", default="qlearn,fcfs,rr,wfq")
    p_sweep.add_argument("--probs", default="0.3,0.4,0.5,0.6,0.7")
    p_sweep.add_argument("--checkpoint", default=None)
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
