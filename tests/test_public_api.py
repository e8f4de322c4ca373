"""The public names and the module attributes that outside tooling wraps.

The benchmark's tracer (bench/tracing.py) replaces these attributes by
name and only notes a name it cannot find, so a rename or deletion here
would silently stop a per-layer metric. The names are listed by hand on
purpose: the tests do not import bench/.
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import vfcsim
from vfcsim import config, engine, metrics, rewards, schedulers, state_space

# attributes the tracer patches on each module, and the engine entry
# points the benchmark calls
ENGINE_NAMES = (
    "run_episode",
    "run_training",
    "run_evaluation",
    "load_tables",
    "write_event_log",
    "build_report",
    "sample_vehicles",
    "snapshot_ordinal",
    "update_q_value",
    # link functions the engine calls per reachable node
    "shannon_rate",
    "snr_at_distance",
    # reward functions the engine calls per resolved task
    "resource_wastage",
    "resource_utilization",
    "response_time_reward",
    "qos_reward",
    "total_reward",
)
CONFIG_NAMES = ("build_config", "dump_config", "ValidationError")
TOP_LEVEL_NAMES = ("run_training", "build_config", "dump_config", "ValidationError")


def test_every_exported_name_resolves():
    missing = [name for name in vfcsim.__all__ if not hasattr(vfcsim, name)]
    assert missing == []
    assert len(set(vfcsim.__all__)) == len(vfcsim.__all__)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_engine_keeps_patched_name(name):
    assert callable(getattr(engine, name))


def test_other_patched_names_exist():
    assert callable(schedulers.select_action)
    assert callable(rewards.quality)
    assert callable(metrics.TaskLedger.append)
    for name in CONFIG_NAMES:
        assert hasattr(config, name), name
    for name in TOP_LEVEL_NAMES:
        assert hasattr(vfcsim, name), name


@pytest.mark.parametrize("name", [
    "FcfsScheduler", "RoundRobinScheduler", "WfqScheduler", "QLearningScheduler",
])
def test_every_scheduler_defines_select(name):
    cls = getattr(schedulers, name)
    assert issubclass(cls, schedulers.Scheduler)
    assert "select" in vars(cls)


def test_test_only_helpers_not_exported():
    # greedy_policy, action_from_ordinal, QTable.row, QTable.max_value,
    # TelemetrySnapshot, discretize and state_index live in tests/oracles.py
    for name in ("greedy_policy", "action_from_ordinal"):
        assert name not in vfcsim.__all__
        assert not hasattr(vfcsim.agent, name)
    for name in ("row", "max_value"):
        assert not hasattr(vfcsim.QTable, name), name
    for name in ("TelemetrySnapshot", "discretize", "state_index"):
        assert name not in vfcsim.__all__
        assert not hasattr(state_space, name)
    # the one encoder and its inverse stay public
    assert callable(vfcsim.snapshot_ordinal) and callable(vfcsim.state_from_index)
    # one nodes-in-range scan, and one learning rate: params.alpha
    assert not hasattr(engine.CellIndex, "count")
    assert "alpha" not in inspect.signature(vfcsim.agent.update_q_value).parameters


def counter(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_training_calls_the_patched_q_functions(monkeypatch):
    # the benchmark's agent.update_q_value and agent.select_action metrics
    # count calls to these two module attributes; training that bypassed
    # them would report zero calls without failing
    counts = {"update": 0, "select": 0, "decisions": 0}
    monkeypatch.setattr(engine, "update_q_value",
                        counter(counts, "update", engine.update_q_value))
    monkeypatch.setattr(schedulers, "select_action",
                        counter(counts, "select", schedulers.select_action))
    monkeypatch.setattr(schedulers.QLearningScheduler, "select",
                        counter(counts, "decisions", schedulers.QLearningScheduler.select))
    cfg = config.build_config({"scenario.name": "NO.1", "scenario.duration": "60",
                               "agent.episodes": "1"})
    result = engine.run_training(cfg, 1)
    tasks = result.curve[0]["tasks"]
    assert tasks > 0
    assert counts["update"] == tasks
    assert counts["select"] == counts["decisions"] == tasks


REWARD_NAMES = ("resource_wastage", "resource_utilization", "response_time_reward",
                "qos_reward", "total_reward")


def test_training_calls_the_patched_reward_functions(monkeypatch):
    # the benchmark's rewards.calls and rewards.self_s count calls to the
    # five reward names on engine and to rewards.quality, which qos_reward
    # must look up as a module global for the wrapper to see it
    counts = dict.fromkeys(REWARD_NAMES + ("quality",), 0)
    for name in REWARD_NAMES:
        monkeypatch.setattr(engine, name, counter(counts, name, getattr(engine, name)))
    monkeypatch.setattr(rewards, "quality", counter(counts, "quality", rewards.quality))
    ledgers = []
    run_episode = engine.run_episode

    def recorded(*args, **kwargs):
        result = run_episode(*args, **kwargs)
        ledgers.append(result.ledger)
        return result

    monkeypatch.setattr(engine, "run_episode", recorded)
    cfg = config.build_config({"scenario.name": "NO.1", "scenario.duration": "60",
                               "agent.episodes": "1"})
    engine.run_training(cfg, 1)
    serviced = [r for ledger in ledgers for r in ledger.records if r.serviced]
    offloaded = [r for r in serviced if r.tier != vfcsim.Tier.LOCAL]
    # exploration services tasks on the vehicle too, which score no wastage
    assert 0 < len(offloaded) < len(serviced)
    assert counts == {
        "resource_wastage": len(offloaded),
        "resource_utilization": len(serviced),
        "response_time_reward": len(serviced),
        "qos_reward": len(serviced),
        "total_reward": len(serviced),
        "quality": len(serviced),
    }


def test_arrivals_call_the_patched_link_functions_per_reachable_node(monkeypatch):
    # link.calls counts these two engine attributes: one call of each per
    # node within V2I range of each arriving task (800 m, so ranges overlap)
    counts = {"snr_at_distance": 0, "shannon_rate": 0, "scans": 0, "reachable": 0}
    for name in ("snr_at_distance", "shannon_rate"):
        monkeypatch.setattr(engine, name, counter(counts, name, getattr(engine, name)))
    scan = engine.CellIndex.scan

    def counted_scan(self, x, y):
        nearest, reachable = scan(self, x, y)
        counts["scans"] += 1
        counts["reachable"] += len(reachable)
        return nearest, reachable

    monkeypatch.setattr(engine.CellIndex, "scan", counted_scan)
    cfg = config.build_config({"scenario.name": "NO.1", "scenario.duration": "60",
                               "link.v2i_range_m": "800"})
    tasks = len(engine.run_evaluation(cfg, "fcfs", 1).ledger.records)
    assert counts["scans"] == tasks > 0
    assert counts["reachable"] > tasks
    assert counts["snr_at_distance"] == counts["shannon_rate"] == counts["reachable"]


@pytest.mark.parametrize("scheduler", ["fcfs", "qlearn"])
def test_engine_times_come_from_the_link_functions(monkeypatch, scheduler):
    # every upload and processing time the ledger holds is computed by
    # link.upload_time and link.processing_time: one V2I upload per
    # reachable node, one wired leg per cloud task and one processing time
    # per placed task (a local one too, whether or not it fits its bound)
    names = ("snr_at_distance", "upload_time", "processing_time")
    counts = dict.fromkeys(names, 0)
    for name in names:
        monkeypatch.setattr(engine, name, counter(counts, name, getattr(engine, name)))
    records = []
    run_episode = engine.run_episode

    def recorded(*args, **kwargs):
        result = run_episode(*args, **kwargs)
        records.extend(result.ledger.records)
        return result

    monkeypatch.setattr(engine, "run_episode", recorded)
    cfg = config.build_config({"scenario.name": "NO.1", "scenario.duration": "60",
                               "agent.episodes": "1"})
    if scheduler == "qlearn":
        engine.run_training(cfg, 1)  # exploration places on every tier
    else:
        engine.run_evaluation(cfg, scheduler, 1)
    tiers = [r.tier for r in records]
    assert tiers.count(vfcsim.Tier.CLOUD) > 0 and tiers.count(vfcsim.Tier.FOG) > 0
    if scheduler == "qlearn":
        assert tiers.count(vfcsim.Tier.LOCAL) > 0
    assert counts["upload_time"] == counts["snr_at_distance"] + tiers.count(vfcsim.Tier.CLOUD)
    assert counts["processing_time"] == sum(1 for tier in tiers if tier >= 0)


def test_every_task_is_appended_through_the_patched_ledger_method(monkeypatch):
    # metrics.ledger_append.calls counts TaskLedger.append: once per task
    counts = {"append": 0}
    monkeypatch.setattr(metrics.TaskLedger, "append",
                        counter(counts, "append", metrics.TaskLedger.append))
    cfg = config.build_config({"scenario.name": "NO.4", "scenario.duration": "60",
                               "sim.arrival_prob": "0.7", "sim.eval_episodes": "2"})
    tasks = len(engine.run_evaluation(cfg, "fcfs", 1).ledger.records)
    assert counts["append"] == tasks > 0


def test_every_episode_samples_vehicles_through_the_patched_name(monkeypatch):
    # traffic.sample_vehicles.calls counts this engine attribute: once per
    # episode that is not given a recorded trace
    counts = {"sample_vehicles": 0}
    monkeypatch.setattr(engine, "sample_vehicles",
                        counter(counts, "sample_vehicles", engine.sample_vehicles))
    cfg = config.build_config({"scenario.name": "NO.4", "scenario.duration": "20",
                               "sim.eval_episodes": "3", "agent.episodes": "2"})
    engine.run_evaluation(cfg, "fcfs", 1)
    assert counts["sample_vehicles"] == 3
    engine.run_training(cfg, 1)
    assert counts["sample_vehicles"] == 5
    engine.run_evaluation(cfg, "fcfs", 1, vehicles=[])
    assert counts["sample_vehicles"] == 5


def count_node_readings(monkeypatch):
    # NodeState.record_arrival and record_response keep the rate, EMA and
    # response windows that only the state encoder reads
    counts = {"record_arrival": 0, "record_response": 0}
    for name in counts:
        monkeypatch.setattr(engine.NodeState, name,
                            counter(counts, name, getattr(engine.NodeState, name)))
    return counts


@pytest.mark.parametrize("scheduler", ["fcfs", "rr", "wfq"])
def test_baselines_keep_no_state_only_node_readings(monkeypatch, scheduler):
    counts = count_node_readings(monkeypatch)
    cfg = config.build_config({"scenario.name": "NO.1", "scenario.duration": "60",
                               "link.v2i_range_m": "800"})
    result = engine.run_evaluation(cfg, scheduler, 1)
    assert result.report.k_serviced > 0
    assert counts == {"record_arrival": 0, "record_response": 0}


def test_qlearn_keeps_node_readings_per_task_and_serviced_task(monkeypatch):
    counts = count_node_readings(monkeypatch)
    cfg = config.build_config({"scenario.name": "NO.1", "scenario.duration": "60",
                               "agent.episodes": "1"})
    training = engine.run_training(cfg, 1)
    row = training.curve[0]
    assert 0 < row["serviced"] < row["tasks"]
    assert counts == {"record_arrival": row["tasks"], "record_response": row["serviced"]}
    counts.update(dict.fromkeys(counts, 0))
    report = engine.run_evaluation(cfg, "qlearn", 2, tables=training.tables).report
    assert 0 < report.k_serviced < report.k_total
    assert counts == {"record_arrival": report.k_total, "record_response": report.k_serviced}


def test_entry_points_take_run_settings_from_the_config():
    # sim.arrival_prob and sim.eval_episodes are read from the config only,
    # and a learned scheduler's epsilon is set on the scheduler
    for name in ("run_episode", "run_training", "run_evaluation"):
        params = inspect.signature(getattr(engine, name)).parameters
        assert not {"arrival_prob", "episodes"} & set(params), name
    assert "epsilon" not in inspect.signature(engine.build_scheduler).parameters


def test_reward_components_take_plain_numbers():
    # components take floats; the QoS floor and target live in RewardWeights only
    for name in ("WastageSample", "UtilizationSample", "ResponseSample", "QualitySample",
                 "DEFAULT_LATENCY_FLOOR", "DEFAULT_QUALITY_DESIRED"):
        assert not hasattr(rewards, name), name
    assert not [name for name in vfcsim.__all__ if name.endswith("Sample")]
    for fn in (rewards.quality, rewards.qos_reward):
        params = inspect.signature(fn).parameters
        assert not {"latency_floor", "quality_desired"} & set(params), fn.__name__


def test_collected_events_count_the_written_lines(tmp_path):
    # the benchmark reports len(result.events) as engine.events_logged next
    # to the size of the file write_event_log(result.events, path) writes
    cfg = config.build_config({"scenario.name": "NO.4", "scenario.duration": "40",
                               "sim.eval_episodes": "2"})
    result = engine.run_evaluation(cfg, "fcfs", 3, collect_events=True)
    count = len(result.events)
    assert count > 0
    path = tmp_path / "events.ndjson"
    engine.write_event_log(result.events, path)
    assert len(path.read_bytes().splitlines()) == count


@pytest.mark.parametrize("module", [config, vfcsim.agent, vfcsim.eventlog],
                         ids=lambda m: m.__name__)
def test_engine_sits_above_config_agent_and_eventlog(module):
    # engine imports these three; none of them may reach back into it
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}".lstrip(".") for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any(name == "engine" or name.endswith(".engine") or ".engine." in name
                   for name in imported), sorted(imported)


def test_engine_keeps_only_the_looked_up_reexports():
    # the checkpoint and event-log functions live in agent and eventlog;
    # engine holds the two that tooling looks up on it, and no others
    assert engine.load_tables is vfcsim.agent.load_tables
    assert engine.write_event_log is vfcsim.eventlog.write_event_log
    for name in ("_format_event", "_JSON_BOOL", "_check_table_shape"):
        assert not hasattr(engine, name), name


def test_package_imports_only_the_standard_library():
    # vfcsim has no runtime dependencies: every absolute import in the
    # package names a standard-library module (relative imports stay inside)
    sources = sorted(Path(vfcsim.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
