"""CLI surface: artifacts, determinism, exit codes."""

import argparse
import csv
import json
import random
import re
import shlex
from pathlib import Path

import pytest

from vfcsim import cli
from vfcsim.agent import load_tables
from vfcsim.cli import main
from vfcsim.config import known_keys, load_config, parse_config_text
from vfcsim.engine import run_evaluation
from vfcsim.eventlog import write_event_log
from vfcsim.traffic import load_trace_csv

SHORT = ["--set", "scenario.duration=20"]
TINY = ["--scenario", "NO.4", *SHORT]


def read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def run(args, out):
    return main(args + ["--out", str(out)])


def empty_checkpoint(directory, nodes=9):
    """A checkpoint of all-zero tables qtable_node0..nodes-1.tsv."""
    directory.mkdir()
    for node_id in range(nodes):
        (directory / f"qtable_node{node_id}.tsv").write_text(
            "# vfcsim qtable v1 num_states=354294 num_actions=9\n"
        )
    return directory


# -- train ------------------------------------------------------------------


def test_train_writes_checkpoint_curve_and_echo(tmp_path, capsys):
    code = run(["train", *TINY, "--set", "agent.episodes=2", "--seed", "5"], tmp_path)
    assert code == 0
    tables = sorted(p.name for p in (tmp_path / "checkpoint").iterdir())
    assert tables == [f"qtable_node{i}.tsv" for i in range(9)]

    rows = read_csv(tmp_path / "learning_curve.csv")
    assert rows[0] == ["episode", "epsilon", "tasks", "serviced", "reward_sum"]
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    assert float(rows[1][1]) == 0.1
    assert float(rows[2][1]) == pytest.approx(0.01)

    echo = (tmp_path / "config_echo.cfg").read_text()
    parsed = parse_config_text(echo, "config_echo.cfg")
    assert parsed["scenario.name"] == "NO.4"
    assert parsed["scenario.duration"] == "20.0"
    assert "trained 2 episodes on NO.4" in capsys.readouterr().out


def test_train_checkpoint_write_failure_exits_1_with_the_curve(tmp_path, capsys):
    (tmp_path / "checkpoint").write_text("")  # a file where the tables go
    assert run(["train", *TINY, "--set", "agent.episodes=1"], tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: checkpoint write failed: ")
    assert captured.out == ""  # no "trained ..." line
    assert [r[0] for r in read_csv(tmp_path / "learning_curve.csv")[1:]] == ["0"]


# -- eval -------------------------------------------------------------------


def test_eval_fcfs_reports_metrics(tmp_path, capsys):
    code = run(["eval", *TINY, "--scheduler", "fcfs", "--seed", "3,4"], tmp_path)
    assert code == 0
    rows = read_csv(tmp_path / "metrics.csv")
    assert rows[0][:4] == ["scheduler", "scenario", "seed", "arrival_prob"]
    assert len(rows) == 3
    assert [r[2] for r in rows[1:]] == ["3", "4"]
    for r in rows[1:]:
        assert r[0] == "fcfs" and r[1] == "NO.4"
        assert 0.0 <= float(r[6]) <= 1.0  # asr
        assert int(r[10]) + int(r[12]) == int(r[9])  # serviced + dropped = total
    for seed in (3, 4):
        log = tmp_path / f"events_fcfs_seed{seed}.ndjson"
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert events and all("kind" in e for e in events)
    out = capsys.readouterr().out
    assert "eval fcfs NO.4 seed 3" in out and "seed 4" in out


def test_eval_qlearn_needs_checkpoint(tmp_path, capsys):
    code = run(["eval", *TINY, "--scheduler", "qlearn"], tmp_path)
    assert code == 2
    assert "needs --checkpoint" in capsys.readouterr().err


def test_trained_checkpoint_feeds_eval(tmp_path):
    train_dir = tmp_path / "t"
    assert run(["train", *TINY, "--set", "agent.episodes=2"], train_dir) == 0
    eval_dir = tmp_path / "e"
    code = run(
        ["eval", *TINY, "--scheduler", "qlearn",
         "--checkpoint", str(train_dir / "checkpoint")],
        eval_dir,
    )
    assert code == 0
    rows = read_csv(eval_dir / "metrics.csv")
    assert rows[1][0] == "qlearn"


@pytest.mark.parametrize("node0, named", [
    ("# vfcsim qtable v1 num_states=354294 num_actions=9\n0\t1\tabc\n",
     "qtable_node0.tsv:2: q value must be a number"),
    ("# vfcsim qtable v1 num_states=354294 num_actions=2\n0\t1\t0.5\n",
     "qtable_node0.tsv: q-table is 354294 x 2"),
    ("# vfcsim qtable v1 num_states=10 num_actions=9\n",
     "qtable_node0.tsv: q-table is 10 x 9"),
    ("# vfcsim qtable v1 num_states=354294 num_actions=9\n5\t1\t0.5\n5\t1\t0.25\n",
     "qtable_node0.tsv:3: state 5, action 1 already written on line 2"),
    ("# vfcsim qtable v7 num_states=354294 num_actions=9\n",
     "qtable_node0.tsv:1: not a vfcsim qtable v1 header"),
])
def test_eval_rejects_bad_checkpoint_file(tmp_path, capsys, node0, named):
    checkpoint = empty_checkpoint(tmp_path / "checkpoint")
    (checkpoint / "qtable_node0.tsv").write_text(node0)
    code = run(["eval", *TINY, "--scheduler", "qlearn", "--checkpoint", str(checkpoint)],
               tmp_path / "out")
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_rejects_checkpoint_of_a_larger_grid(tmp_path, capsys):
    checkpoint = empty_checkpoint(tmp_path / "checkpoint", nodes=12)
    code = run(["eval", *TINY, "--scheduler", "qlearn", "--checkpoint", str(checkpoint)],
               tmp_path / "out")
    assert code == 2
    assert "qtable_node10.tsv: not a table of this 9-node grid" in capsys.readouterr().err


def test_eval_accepts_recorded_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    with trace.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["vehicle_id", "entry_time", "dwell", "speed", "x", "y"])
        for vid in range(8):
            w.writerow([vid, 0.0, 50.0, 0.0, 1500.0, 1500.0])
    out = tmp_path / "out"
    code = run(
        ["eval", *TINY, "--scheduler", "rr", "--trace", str(trace),
         "--set", "sim.arrival_prob=0.5"],
        out,
    )
    assert code == 0
    rows = read_csv(out / "metrics.csv")
    assert int(rows[1][9]) > 0


@pytest.mark.parametrize("row, message", [
    ([1, 0.0, 50.0, 0.0, "nan", 1500.0], "trace.csv:3: x must be finite"),
    ([1, 0.0, "inf", 0.0, 1500.0, 1500.0], "trace.csv:3: dwell must be finite"),
    ([0, 0.0, 50.0, 0.0, 1500.0, 1500.0], "trace.csv:3: vehicle_id 0 already used on line 2"),
])
def test_eval_rejects_bad_trace(tmp_path, capsys, row, message):
    trace = tmp_path / "trace.csv"
    with trace.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["vehicle_id", "entry_time", "dwell", "speed", "x", "y"])
        w.writerow([0, 0.0, 50.0, 0.0, 1500.0, 1500.0])
        w.writerow(row)
    code = run(["eval", *TINY, "--scheduler", "fcfs", "--trace", str(trace)], tmp_path / "out")
    assert code == 2
    assert message in capsys.readouterr().err


def test_eval_trace_runs_every_episode_on_derived_seeds(tmp_path):
    trace = tmp_path / "trace.csv"
    with trace.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["vehicle_id", "entry_time", "dwell", "speed", "x", "y"])
        for vid in range(8):
            w.writerow([vid, 0.0, 50.0, 0.0, 1500.0, 1500.0])
    out = tmp_path / "out"
    code = run(
        ["eval", *TINY, "--scheduler", "rr", "--trace", str(trace), "--seed", "3",
         "--set", "sim.eval_episodes=2", "--set", "sim.arrival_prob=0.5"],
        out,
    )
    assert code == 0
    log = out / "events_rr_seed3.ndjson"
    events = [json.loads(line) for line in log.read_text().splitlines()]
    assert {e["detail"]["episode"] for e in events} == {0, 1}

    # the same bytes as evaluating the trace directly: episode e runs on
    # derive_seed(3, e), and the trace's CPU draws come from the first seed
    cfg = load_config(None, {"scenario.name": "NO.4", "scenario.duration": "20",
                             "sim.arrival_prob": "0.5", "sim.eval_episodes": "2"})
    vehicles = load_trace_csv(
        trace, random.Random(3), cfg.sim.vehicle_cpu_min_hz, cfg.sim.vehicle_cpu_max_hz
    )
    expected = run_evaluation(cfg, "rr", 3, collect_events=True, vehicles=vehicles)
    write_event_log(expected.events, tmp_path / "expected.ndjson")
    assert log.read_bytes() == (tmp_path / "expected.ndjson").read_bytes()
    rows = read_csv(out / "metrics.csv")
    assert int(rows[1][9]) == expected.report.k_total > 0


def test_eval_event_log_write_failure_fails_that_run_only(tmp_path, capsys):
    out = tmp_path / "out"
    blocked = out / "events_fcfs_seed1.ndjson"
    blocked.mkdir(parents=True)  # a directory where seed 1's log goes
    assert run(["eval", *TINY, "--scheduler", "fcfs", "--seed", "1,2"], out) == 1
    failures = read_csv(out / "failures.csv")
    assert failures[0] == ["scheduler", "scenario", "seed", "error"]
    assert [r[:3] for r in failures[1:]] == [["fcfs", "NO.4", "1"]]
    assert failures[1][3].startswith(f"cannot write event log {blocked}: ")
    rows = read_csv(out / "metrics.csv")
    assert [r[rows[0].index("seed")] for r in rows[1:]] == ["2"]
    assert (out / "events_fcfs_seed2.ndjson").stat().st_size > 0
    captured = capsys.readouterr()
    assert f"run failed: fcfs NO.4 seed 1: cannot write event log {blocked}: " in captured.err
    assert "seed 1:" not in captured.out and "eval fcfs NO.4 seed 2:" in captured.out


# -- compare ------------------------------------------------------------------


def test_compare_grid_and_reported_rows(tmp_path):
    code = run(
        ["compare", *TINY, "--schedulers", "fcfs,rr", "--seed", "1,2"],
        tmp_path,
    )
    assert code == 0
    runs = read_csv(tmp_path / "runs.csv")
    assert len(runs) == 5  # header + 2 schedulers x 2 seeds
    agg = read_csv(tmp_path / "aggregate.csv")
    assert agg[0][-1] == "source"
    simulated = [r for r in agg[1:] if r[-1] == "simulated"]
    reported = [r for r in agg[1:] if r[-1] == "paper-reported"]
    assert [r[0] for r in simulated] == ["fcfs", "rr"]
    assert all(r[2] == "2" for r in simulated)
    assert [r[0] for r in reported] == ["qlearn", "fcfs", "lagrange-ref", "rr", "wfq"]
    assert [float(r[7]) for r in reported] == [0.78, 0.62, 0.68, 0.63, 0.72]
    assert all(r[1] == "reported-average" for r in reported)


@pytest.mark.parametrize("args, scenarios", [
    (["--scenario", "NO.3"], ["NO.3"]),
    (["--scenario", "NO.2,NO.1"], ["NO.2", "NO.1"]),
    ([], ["NO.1", "NO.2", "NO.3", "NO.4"]),
], ids=["one-scenario", "scenario-list", "default-all-four"])
def test_compare_runs_the_scenarios_it_names(tmp_path, capsys, args, scenarios):
    assert run(["compare", *SHORT, "--schedulers", "fcfs", "--seed", "1", *args], tmp_path) == 0
    rows = read_csv(tmp_path / "runs.csv")[1:]
    assert [(r[0], r[1], r[2]) for r in rows] == [("fcfs", s, "1") for s in scenarios]
    assert f"{len(scenarios)} runs over {len(scenarios)} scenario(s)" in capsys.readouterr().out


def test_compare_loads_the_checkpoint_once(tmp_path, monkeypatch):
    checkpoint = empty_checkpoint(tmp_path / "checkpoint")
    calls = []
    monkeypatch.setattr(cli, "load_tables", lambda *a: calls.append(a) or load_tables(*a))
    code = run(["compare", *SHORT, "--schedulers", "qlearn,fcfs", "--scenario", "NO.3,NO.4",
                "--checkpoint", str(checkpoint)], tmp_path / "out")
    assert code == 0
    assert calls == [(str(checkpoint), 9)]


# -- sweep ------------------------------------------------------------------


def test_sweep_series_and_monotonicity(tmp_path):
    code = run(
        ["sweep", *TINY, "--schedulers", "fcfs", "--probs", "0.1,0.6",
         "--seed", "1,2"],
        tmp_path,
    )
    assert code == 0
    sweep = read_csv(tmp_path / "sweep.csv")
    assert len(sweep) == 5  # header + 2 probs x 2 seeds
    series = read_csv(tmp_path / "sweep_series.csv")
    assert series[0] == ["scheduler", "scenario", "arrival_prob", "n",
                         "apt_mean", "ast_mean", "asr_mean", "cr_mean", "aap_mean"]
    assert [r[2] for r in series[1:]] == ["0.1", "0.6"]
    assert all(r[3] == "2" for r in series[1:])
    mono = read_csv(tmp_path / "monotonicity.csv")
    assert mono[0] == ["scheduler", "metric", "non_increasing", "violations"]
    assert mono[1][0] == "fcfs" and mono[1][2] in ("yes", "no")


def test_sweep_echo_reproduces_its_first_run(tmp_path):
    # the echo holds the first --probs value, not the --set one no run used
    args = ["--schedulers", "fcfs", "--probs", "0.3,0.6", "--set", "sim.arrival_prob=0.9",
            "--seed", "1"]
    assert run(["sweep", *TINY, *args], tmp_path / "sweep") == 0
    echo = tmp_path / "sweep" / "config_echo.cfg"
    assert parse_config_text(echo.read_text(), "echo")["sim.arrival_prob"] == "0.3"
    assert run(["eval", "--config", str(echo), "--scheduler", "fcfs", "--seed", "1"],
               tmp_path / "eval") == 0
    first = read_csv(tmp_path / "sweep" / "sweep.csv")[1]
    assert read_csv(tmp_path / "eval" / "metrics.csv")[1:] == [first]


@pytest.mark.parametrize("probs, named", [
    ("0.5,1.4", "--probs values must lie in [0, 1], got '0.5,1.4'"),
    ("0.5,1.4,x", "--probs values must lie in [0, 1], got '0.5,1.4,x'"),
    (" , ", "empty --probs list"),
], ids=["out-of-range", "first-bad-entry-named", "empty"])
def test_sweep_rejects_bad_probs(tmp_path, capsys, probs, named):
    assert run(["sweep", *TINY, "--probs", probs], tmp_path) == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# -- determinism ----------------------------------------------------------------


def test_identical_invocations_identical_bytes(tmp_path):
    args = ["eval", *TINY, "--scheduler", "wfq", "--seed", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args, a) == 0
    assert run(args, b) == 0
    for name in ("metrics.csv", "config_echo.cfg", "events_wfq_seed2.ndjson"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_set_overrides_reach_echo_and_run(tmp_path):
    code = run(
        ["eval", *TINY, "--scheduler", "fcfs", "--set", "sim.arrival_prob=0.0"],
        tmp_path,
    )
    assert code == 0
    parsed = parse_config_text((tmp_path / "config_echo.cfg").read_text(), "echo")
    assert parsed["sim.arrival_prob"] == "0.0"
    rows = read_csv(tmp_path / "metrics.csv")
    assert rows[1][9] == "0"  # no arrivals, no tasks


# -- error paths ----------------------------------------------------------------


@pytest.mark.parametrize("args, named", [
    (["compare", "--schedulers", "fcfs", "--scenario", "NO.4,bogus"], "scenario 'bogus' is not built in"),
    (["eval", "--scheduler", "qlearn"], "needs --checkpoint"),
    (["eval", "--scheduler", "qlearn", "--checkpoint", "{tmp}/none"], "checkpoint incomplete"),
    (["eval", "--scheduler", "fcfs", "--trace", "{tmp}/trace.csv"], "trace.csv:2: bad trace row"),
    (["sweep", "--schedulers", "qlearn,fcfs", "--probs", "0.3"], "needs --checkpoint"),
], ids=["compare-scenario", "eval-no-checkpoint", "eval-missing-checkpoint", "eval-bad-trace",
        "sweep-no-checkpoint"])
def test_late_usage_error_writes_nothing(tmp_path, capsys, args, named):
    # each is found only once the configs, checkpoint or trace are read
    (tmp_path / "trace.csv").write_text("vehicle_id,entry_time,dwell,speed,x,y\n0,0.0,x,0.0,1.0,1.0\n")
    out = tmp_path / "out"
    assert run([*(a.format(tmp=tmp_path) for a in args), *SHORT], out) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trace, out, named", [
    ("missing.csv", "out", "cannot read trace {tmp}/missing.csv"),
    ("dir", "out", "cannot read trace {tmp}/dir"),
    (None, "file", "cannot create output directory {tmp}/file"),
], ids=["missing-trace", "trace-is-a-directory", "out-is-a-file"])
def test_unusable_path_exits_2(tmp_path, capsys, trace, out, named):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    args = ["eval", *TINY, "--scheduler", "fcfs"]
    if trace:
        args += ["--trace", str(tmp_path / trace)]
    assert run(args, tmp_path / out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named.format(tmp=tmp_path)}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert (tmp_path / "file").read_text() == ""


def test_bad_config_value_exits_2(tmp_path, capsys):
    code = run(["eval", *TINY, "--scheduler", "fcfs", "--set", "agent.alpha=1.5"], tmp_path)
    assert code == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "scenario.adt=0", "scenario.adt=-5",
    "link.path_loss_exp=3000", "link.path_loss_exp=100",
    "link.noise_power_dbm=-114000", "link.noise_power_dbm=3100",
])
def test_config_that_cannot_run_exits_2(tmp_path, capsys, setting):
    # each once crashed with a traceback, in build_config or in the episode
    out = tmp_path / "out"
    assert run(["eval", *TINY, "--scheduler", "fcfs", "--set", setting], out) == 2
    name = setting.partition("=")[0].partition(".")[2]
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_malformed_set_pair_exits_2(tmp_path, capsys):
    code = run(["eval", *TINY, "--scheduler", "fcfs", "--set", "agent.alpha"], tmp_path)
    assert code == 2
    assert "--set expects key=value" in capsys.readouterr().err


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["replay"])
    assert exc.value.code == 2


def test_unknown_scheduler_choice_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["eval", *TINY, "--scheduler", "sjf"], tmp_path)
    assert exc.value.code == 2


def test_bad_seed_list_exits_2(tmp_path, capsys):
    code = run(["eval", *TINY, "--scheduler", "fcfs", "--seed", "one"], tmp_path)
    assert code == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("seeds, named", [
    ("1,-1,1", "--seed -1 is negative"),
    ("1,2,1", "--seed lists 1 more than once"),
    ("3,03", "--seed lists 3 more than once"),
    ("1,1,-2", "--seed lists 1 more than once"),
], ids=["negative", "repeated", "same-int", "first-bad-entry-named"])
def test_negative_or_repeated_seed_exits_2(tmp_path, capsys, seeds, named):
    code = run(["eval", *TINY, "--scheduler", "fcfs", "--seed", seeds], tmp_path)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_train_takes_one_seed(tmp_path, capsys):
    code = run(["train", *TINY, "--set", "agent.episodes=1", "--seed", "1,2"], tmp_path)
    assert code == 2
    assert "one --seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, named", [
    (["sweep", "--schedulers", "fcfs", "--probs", "0.5,0.5"], "--probs lists 0.5 more than once"),
    (["sweep", "--schedulers", "fcfs", "--probs", "0.5,0.50"], "--probs lists 0.5 more than once"),
    (["sweep", "--schedulers", "fcfs,rr,fcfs", "--probs", "0.5"], "--schedulers lists 'fcfs' more than once"),
    (["compare", "--schedulers", "rr,rr", "--scenario", "NO.4"], "--schedulers lists 'rr' more than once"),
    (["compare", "--schedulers", "fcfs", "--scenario", "NO.4,NO.4"], "--scenario lists 'NO.4' more than once"),
    (["compare", "--schedulers", "rr,rr,sjf", "--scenario", "NO.4"], "--schedulers lists 'rr' more than once"),
], ids=["sweep-probs", "sweep-probs-same-float", "sweep-schedulers", "compare-schedulers",
        "compare-scenario", "first-bad-entry-named"])
def test_repeated_list_entry_exits_2(tmp_path, capsys, args, named):
    code = run([*args, *SHORT, "--seed", "1"], tmp_path)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# -- one spelling per input ----------------------------------------------------------


COMMON_OPTIONS = {"-h", "--help", "--config", "--scenario", "--seed", "--out", "--set"}
OPTIONS = {
    "train": COMMON_OPTIONS,
    "eval": COMMON_OPTIONS | {"--scheduler", "--checkpoint", "--trace"},
    "compare": COMMON_OPTIONS | {"--schedulers", "--checkpoint"},
    "sweep": COMMON_OPTIONS | {"--schedulers", "--probs", "--checkpoint"},
}


def test_each_command_takes_only_its_options():
    # a config key is set with --set, --config or --scenario, never with a
    # flag of its own that could shadow them
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OPTIONS)
    for command, parser in sub.choices.items():
        assert {o for a in parser._actions for o in a.option_strings} == OPTIONS[command], command


@pytest.mark.parametrize("args", [
    ["train", "--arrival-prob", "0.5"],
    ["eval", "--scheduler", "fcfs", "--arrival-prob", "0.7"],
    ["compare", "--schedulers", "fcfs", "--arrival-prob", "0.7"],
    ["sweep", "--schedulers", "fcfs", "--probs", "0.3", "--arrival-prob", "0.9"],
    ["train", "--episodes", "2"],
    ["eval", "--scheduler", "fcfs", "--episodes", "2"],
    ["compare", "--schedulers", "fcfs", "--episodes", "2"],
    ["sweep", "--schedulers", "fcfs", "--probs", "0.3", "--episodes", "2"],
    ["compare", "--schedulers", "fcfs", "--scenarios", "NO.1,NO.4"],
], ids=["train-arrival-prob", "eval-arrival-prob", "compare-arrival-prob", "sweep-arrival-prob",
        "train-episodes", "eval-episodes", "compare-episodes", "sweep-episodes", "compare-scenarios"])
def test_deleted_option_is_a_usage_error(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        run([*args, *SHORT], tmp_path / "out")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {args[-2]} {args[-1]}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_out_is_required_whatever_the_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VFCSIM_OUT", str(tmp_path / "env_out"))
    with pytest.raises(SystemExit) as exc:
        main(["eval", *TINY, "--scheduler", "fcfs"])
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, episodes_key, output", [
    (["eval", "--scheduler", "fcfs", "--seed", "3"], "sim.eval_episodes", "metrics.csv"),
    (["compare", "--schedulers", "fcfs,rr"], "sim.eval_episodes", "runs.csv"),
    (["train"], "agent.episodes", "learning_curve.csv"),
], ids=["eval", "compare", "train"])
def test_echo_reproduces_a_run(tmp_path, args, episodes_key, output):
    first, again = tmp_path / "first", tmp_path / "again"
    sets = ["--set", "sim.arrival_prob=0.7", "--set", f"{episodes_key}=2"]
    assert run([*args, *TINY, *sets], first) == 0
    echo = parse_config_text((first / "config_echo.cfg").read_text(), "echo")
    assert (echo["sim.arrival_prob"], echo[episodes_key]) == ("0.7", "2")
    # the same command from the echo alone; compare still names its scenario
    rerun = [*args, "--scenario", "NO.4", "--config", str(first / "config_echo.cfg")]
    assert run(rerun, again) == 0
    assert (again / output).read_bytes() == (first / output).read_bytes()
    assert (again / "config_echo.cfg").read_bytes() == (first / "config_echo.cfg").read_bytes()


@pytest.mark.parametrize("args, named", [
    (["eval", "--scheduler", "fcfs", "--set", "sim.eval_episodes=0"], "eval_episodes=0 must be >= 1"),
    (["compare", "--schedulers", "fcfs", "--set", "sim.eval_episodes=0"],
     "eval_episodes=0 must be >= 1"),
    (["sweep", "--schedulers", "fcfs", "--probs", "0.3", "--set", "sim.eval_episodes=0"],
     "eval_episodes=0 must be >= 1"),
    (["train", "--set", "agent.episodes=0"], "episodes=0 must be >= 1"),
    (["eval", "--scheduler", "fcfs", "--set", "sim.arrival_prob=1.5"], "arrival_prob=1.5 outside [0, 1]"),
    (["compare", "--schedulers", "fcfs", "--set", "sim.arrival_prob=-0.1"],
     "arrival_prob=-0.1 outside [0, 1]"),
    (["train", "--set", "sim.arrival_prob=nan"], "sim.arrival_prob must be finite"),
], ids=["eval-episodes", "compare-episodes", "sweep-episodes", "train-episodes",
        "eval-prob", "compare-prob", "train-prob"])
def test_bad_set_value_exits_2(tmp_path, capsys, args, named):
    code = run([*args, *TINY], tmp_path)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# -- one config order ----------------------------------------------------------------


@pytest.mark.parametrize("grid, direct", [
    (["compare", "--scenario", "NO.1,NO.2", "--set", "scenario.name=NO.4"],
     [["--scenario", "NO.1"], ["--scenario", "NO.2"]]),
    (["sweep", "--scenario", "NO.4", "--probs", "0.3", "--set", "sim.arrival_prob=0.9"],
     [["--scenario", "NO.4", "--set", "sim.arrival_prob=0.3"]]),
], ids=["compare-scenario-over-set", "sweep-probs-over-set"])
def test_grid_key_wins_over_set(tmp_path, grid, direct):
    # each grid row must come from a run on the scenario or probability it
    # names, as a direct eval of it does
    assert run([grid[0], *SHORT, "--schedulers", "fcfs", *grid[1:], "--seed", "1,2"],
               tmp_path / "grid") == 0
    rows = read_csv(tmp_path / "grid" / ("runs.csv" if grid[0] == "compare" else "sweep.csv"))
    expected = []
    for i, args in enumerate(direct):
        assert run(["eval", *SHORT, "--scheduler", "fcfs", *args, "--seed", "1,2"],
                   tmp_path / str(i)) == 0
        expected += read_csv(tmp_path / str(i) / "metrics.csv")[1:]
    assert len(rows) == 1 + 2 * len(direct) and rows[1:] == expected


def test_set_wins_over_scenario(tmp_path, capsys):
    args = ["train", *SHORT, "--scenario", "NO.3", "--set", "scenario.name=NO.4",
            "--set", "agent.episodes=1"]
    assert run(args, tmp_path) == 0
    echo = parse_config_text((tmp_path / "config_echo.cfg").read_text(), "echo")
    assert echo["scenario.name"] == "NO.4"
    assert "trained 1 episodes on NO.4" in capsys.readouterr().out


def test_readme_commands_parse():
    # the documented commands, flags and --set keys cannot drift from the
    # parser; test_config checks the README's config file example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```\w*\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.split()[:1] == ["vfcsim"]:
                commands.append(shlex.split(line)[1:])
    assert {words[0] for words in commands} == {"train", "eval", "compare", "sweep"}
    parser = cli.build_parser()
    for words in commands:
        try:
            args = parser.parse_args(words)
        except SystemExit:
            pytest.fail(f"README command does not parse: vfcsim {shlex.join(words)}")
        assert set(cli._parse_sets(args.set)) <= set(known_keys()), words
