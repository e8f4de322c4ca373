"""The event log's bytes: each line equals json.dumps of the nested event
dict with sorted keys and compact separators, and the files of a few fixed
runs keep the SHA-256 they had when the log was written through json.dumps."""

import gc
import hashlib
import json
import math
import tracemalloc
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
    events = [event_dict(e) for e in result.events]
    kinds = {e["kind"] for e in events}
    assert {"VehicleEnter", "VehicleExit", "TaskArrival", "TaskDropped"} <= kinds
    assert {e["detail"]["episode"] for e in events} == {0, 1}
    for record in result.events:
        assert _format_event(record) == json_line(record)
    if (scenario, scheduler) == ("NO.1", "qlearn"):
        # this run places on every tier, so the check above sees the local
        # flag both ways and both UploadDone tiers
        finishes = [e for e in result.events if isinstance(e, TaskRecord)]
        assert {r.tier for r in finishes} == {-1, 0, 1, 2}
        assert {e["detail"]["tier"] for e in events if e["kind"] == "UploadDone"} == {"fog", "cloud"}


def test_finish_events_are_the_ledger_records(tmp_path):
    # a finish event is the task's TaskRecord itself, not a second copy of
    # its fields, and the record carries the episode that ran the task
    cfg = build_config({"scenario.name": "NO.4", "scenario.duration": "40",
                        "sim.eval_episodes": "2"})
    result = run_evaluation(cfg, "fcfs", 3, collect_events=True)
    finishes = [e for e in result.events if isinstance(e, TaskRecord)]
    records = result.ledger.records
    assert len(finishes) == len(records) > 0
    assert all(event is record for event, record in zip(finishes, records))
    episode = None
    for e in result.events:
        if isinstance(e, TaskRecord):
            assert e.episode == episode
        else:
            episode = e[4]  # the flat tuple's episode slot
    assert {r.episode for r in records} == {0, 1}
    # one entry per event: every other event is one flat tuple
    others = [e for e in result.events if isinstance(e, tuple)]
    assert len(result.events) == len(others) + len(records)
    path = tmp_path / "events.ndjson"
    write_event_log(result.events, path)
    assert len(path.read_bytes().splitlines()) == len(result.events)


def test_retained_bytes_per_logged_event_bounded():
    # the memory a logged NO.4 evaluation at arrival_prob 0.7 keeps alive,
    # its ledger and events included, per event: 186-194 bytes on CPython
    # 3.11 with finish events that are the ledger's records, 221-228 when
    # each finish event was a 6-slot tuple around its record
    cfg = build_config({"scenario.name": "NO.4", "scenario.duration": "60",
                        "sim.arrival_prob": "0.7", "sim.eval_episodes": "1"})
    run_evaluation(cfg, "fcfs", 1, collect_events=True)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        result = run_evaluation(cfg, "fcfs", 1, collect_events=True)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.events) > 4000
    assert retained / len(result.events) < 207.0


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
    # finish events: TaskRecord(task_id, arrival, upload, wait, proc,
    # completion, serviced, tier, node_id, decision_node, reward,
    # components, episode)
    TaskRecord(42, 13.0, 1.1, 0.3, 2.5, 16.9, True, 1, 3, 3, 0.41, (0.1, 0.6, 0.8, 0.9), 0),
    TaskRecord(44, 13.0, 0.0, 0.25, 1.5, 16.9, True, 0, -1, 2, 0.63, (0.2, 0.5, 0.7, 1.0), 1),
    TaskRecord(43, 13.0, 0.0, 0.0, 0.0, 15.0, False, -1, -1, 3, -1.0, (1.0, 0.0, 0.0, 0.0), 0),
]


def float_slots(record):
    """Paths of every float in an event: (index,) for a float in a flat
    tuple, (field,) or (field, component index) for one in a TaskRecord."""
    if not isinstance(record, TaskRecord):
        yield from ((i,) for i, value in enumerate(record) if isinstance(value, float))
        return
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, float):
            yield (f.name,)
        elif isinstance(value, tuple):
            for j, component in enumerate(value):
                if isinstance(component, float):
                    yield (f.name, j)


def with_value(record, slot, value):
    if not isinstance(record, TaskRecord):
        items = list(record)
        items[slot[0]] = value
        return tuple(items)
    if len(slot) == 2:
        components = list(getattr(record, slot[0]))
        components[slot[1]] = value
        value = tuple(components)
    return replace(record, **{slot[0]: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: event_dict(r)["kind"])
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
