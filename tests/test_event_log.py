"""The event log's bytes: each line equals json.dumps of the nested event
dict with sorted keys and compact separators, and the files of a few fixed
runs keep the SHA-256 they had when the log was written through json.dumps."""

import hashlib
import json
import math
from dataclasses import fields, replace

import pytest

from oracles import event_dict
from vfcsim.config import build_config
from vfcsim.engine import run_evaluation, run_training
from vfcsim.eventlog import _format_event, write_event_log
from vfcsim.metrics import TaskRecord


def json_line(record) -> str:
    return json.dumps(event_dict(record), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.fixture(scope="module")
def trained_tables():
    """Short training per scenario, so greedy qlearn places on every tier."""
    tables = {}
    for scenario in ("NO.1", "NO.4"):
        cfg = build_config({"scenario.name": scenario, "scenario.duration": "60",
                            "agent.episodes": "2"})
        tables[scenario] = run_training(cfg, 1).tables
    return tables


@pytest.mark.parametrize("scheduler", ["fcfs", "rr", "wfq", "qlearn"])
@pytest.mark.parametrize("scenario", ["NO.1", "NO.4"])
def test_every_line_equals_json_dumps(scenario, scheduler, trained_tables):
    cfg = build_config({"scenario.name": scenario, "sim.eval_episodes": "2"})
    tables = trained_tables[scenario] if scheduler == "qlearn" else None
    result = run_evaluation(cfg, scheduler, 5, tables=tables, collect_events=True)
    kinds = {e[0] for e in result.events}
    assert {"VehicleEnter", "VehicleExit", "TaskArrival", "TaskDropped"} <= kinds
    assert {e[4] for e in result.events} == {0, 1}
    for record in result.events:
        assert _format_event(record) == json_line(record)
    if (scenario, scheduler) == ("NO.1", "qlearn"):
        # this run places on every tier, so the check above sees the local
        # flag both ways and both UploadDone tiers
        finishes = [e[5] for e in result.events if e[0] in ("ExecutionDone", "TaskDropped")]
        assert {r.tier for r in finishes} == {-1, 0, 1, 2}
        assert {e[5] for e in result.events if e[0] == "UploadDone"} == {"fog", "cloud"}


# SHA-256 of write_event_log output, recorded when every line was written by
# json.dumps(event, sort_keys=True, separators=(",", ":"))
PINNED_LOGS = [
    ("NO.4", "fcfs", 4, 0.7, 1, 87261,
     "2adf4fa922731ee5c04ad7f431093a2fc6c4337a4325ed970ce0e9c92642b845"),
    ("NO.1", "rr", 3, None, 2, 30462,
     "5b620bc0126abdbc54ee5fdf32a89598d5a41db32a289e1f63130322b3729f73"),
    ("NO.4", "wfq", 2, None, 1, 5793,
     "94031d035cc52850bf1f6ea57eafd9c4a46912a9126ff938fcd47ae8536975fa"),
]


@pytest.mark.parametrize("scenario,scheduler,seed,prob,episodes,count,digest", PINNED_LOGS)
def test_event_log_bytes_pinned(tmp_path, scenario, scheduler, seed, prob, episodes, count, digest):
    overrides = {"scenario.name": scenario, "sim.eval_episodes": str(episodes)}
    if prob is not None:
        overrides["sim.arrival_prob"] = repr(prob)
    result = run_evaluation(build_config(overrides), scheduler, seed, collect_events=True)
    path = tmp_path / "events.ndjson"
    write_event_log(result.events, path)
    assert len(result.events) == count
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# event count and SHA-256 of greedy qlearn's log on NO.4 at arrival_prob
# 0.7, seed 4, one episode, with the NO.4 tables of trained_tables
PINNED_QLEARN_LOG = (
    63148, "942f15594bff5d818fd0cbb35c926c6cadf2162cc5524cfd0b2ac3f3965fed2a",
)


def test_greedy_qlearn_event_log_bytes_pinned(tmp_path, trained_tables):
    cfg = build_config({"scenario.name": "NO.4", "sim.eval_episodes": "1",
                        "sim.arrival_prob": "0.7"})
    result = run_evaluation(cfg, "qlearn", 4, tables=trained_tables["NO.4"],
                            collect_events=True)
    path = tmp_path / "events.ndjson"
    write_event_log(result.events, path)
    assert (len(result.events),
            hashlib.sha256(path.read_bytes()).hexdigest()) == PINNED_QLEARN_LOG


SAMPLES = [
    ("VehicleEnter", 12.5, -1, -1, 0, 7),
    ("VehicleExit", 80.25, -1, -1, 1, 7),
    ("TaskArrival", 13.0, 42, 3, 0, 1.75, 812.3, 24000000.0, 7),
    ("UploadDone", 14.1, 42, 3, 0, "fog"),
    ("UploadDone", 14.1, 42, 3, 0, "cloud"),
    # TaskRecord(task_id, arrival, upload, wait, proc, completion, serviced,
    # tier, node_id, decision_node, reward, components)
    ("ExecutionDone", 16.9, 42, 3, 0,
     TaskRecord(42, 13.0, 1.1, 0.3, 2.5, 16.9, True, 1, 3, 3, 0.41, (0.1, 0.6, 0.8, 0.9))),
    ("ExecutionDone", 16.9, 44, -1, 1,
     TaskRecord(44, 13.0, 0.0, 0.25, 1.5, 16.9, True, 0, -1, 2, 0.63, (0.2, 0.5, 0.7, 1.0))),
    ("TaskDropped", 15.0, 43, -1, 0,
     TaskRecord(43, 13.0, 0.0, 0.0, 0.0, 15.0, False, -1, -1, 3, -1.0, (1.0, 0.0, 0.0, 0.0))),
]


def float_slots(record):
    """Paths of every float in an event: (index,) for a float in the tuple,
    (index, field) or (index, field, component index) for one in a
    finish event's TaskRecord."""
    for i, value in enumerate(record):
        if isinstance(value, float):
            yield (i,)
        elif isinstance(value, TaskRecord):
            for f in fields(value):
                inner = getattr(value, f.name)
                if isinstance(inner, float):
                    yield (i, f.name)
                elif isinstance(inner, tuple):
                    for j, component in enumerate(inner):
                        if isinstance(component, float):
                            yield (i, f.name, j)


def with_value(record, slot, value):
    items = list(record)
    if len(slot) == 1:
        items[slot[0]] = value
    else:
        rec = items[slot[0]]
        if len(slot) == 3:
            components = list(getattr(rec, slot[1]))
            components[slot[2]] = value
            value = tuple(components)
        items[slot[0]] = replace(rec, **{slot[1]: value})
    return tuple(items)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: r[0])
def test_non_finite_floats_spelled_as_json(record, value):
    assert _format_event(record) == json_line(record)
    slots = list(float_slots(record))
    assert slots
    for slot in slots:
        altered = with_value(record, slot, value)
        assert _format_event(altered) == json_line(altered), slot
    every = record
    for slot in slots:
        every = with_value(every, slot, value)
    assert _format_event(every) == json_line(every)
