"""End-to-end engine behavior: worked examples, invariants, determinism."""

import dataclasses
import hashlib
import heapq
import json
import math
import re
import struct

import pytest

from oracles import (
    Level,
    ResponseLevel,
    SlaLevel,
    discretize,
    event_dict,
    snapshot_from_node,
    state_from_index,
    state_index,
)
from vfcsim.agent import NUM_ACTIONS, QTable, Tier, load_tables, save_tables
from vfcsim.engine import (
    NodeState,
    Task,
    VehicleState,
    _Episode,
    _reflect,
    build_nodes,
    build_scheduler,
    derive_seed,
    run_episode,
    run_evaluation,
    run_training,
)
from vfcsim.config import RunConfig, build_config
from vfcsim.errors import ValidationError
from vfcsim.eventlog import write_event_log
from vfcsim.schedulers import (
    FcfsScheduler,
    Placement,
    RoundRobinScheduler,
    Scheduler,
    WfqScheduler,
    _cloud_placement,
)
from vfcsim.state_space import NUM_STATES
from vfcsim.traffic import VehicleSpec


def vehicle(vid=0, entry=0.0, dwell=100.0, speed=0.0, heading=0.0,
            x=1500.0, y=1500.0, cpu=1.0e9):
    return VehicleSpec(vid, entry, dwell, speed, heading, x, y, cpu)


def pinned_cfg(**sets):
    base = {
        "scenario.name": "NO.4",
        "scenario.duration": "1",
        "sim.arrival_prob": "1.0",
        "sim.task_size_mb_min": "5",
        "sim.task_size_mb_max": "5",
        "sim.task_deadline_s_min": "25",
        "sim.task_deadline_s_max": "25",
    }
    base.update({k: str(v) for k, v in sets.items()})
    return build_config(base)


class CloudStub(Scheduler):
    """Forces the cloud tier through the decision node."""

    name = "stub-cloud"

    def select(self, ctx):
        return _cloud_placement(ctx)


# -- geometry ------------------------------------------------------------------

def test_reflect_folds_into_range():
    assert _reflect(3050.0, 3000.0) == 2950.0
    assert _reflect(-50.0, 3000.0) == 50.0
    assert _reflect(1234.0, 3000.0) == 1234.0
    assert _reflect(6000.0, 3000.0) == 0.0


def test_vehicle_position_reflects_at_walls():
    spec = vehicle(x=2900.0, speed=10.0, heading=0.0)
    veh = VehicleState(spec)
    x, y = veh.position_at(15.0, 3000.0)
    assert x == pytest.approx(2950.0)
    assert y == 1500.0
    # heading pi moves toward the low wall and bounces back
    spec = vehicle(x=50.0, speed=10.0, heading=math.pi)
    veh = VehicleState(spec)
    x, _ = veh.position_at(10.0, 3000.0)
    assert x == pytest.approx(50.0, abs=1e-9)


def test_nine_node_grid_centers():
    cfg = build_config({})
    nodes = build_nodes(cfg)
    assert len(nodes) == 9
    centers = {(n.x, n.y) for n in nodes}
    assert centers == {(x, y) for x in (500.0, 1500.0, 2500.0) for y in (500.0, 1500.0, 2500.0)}
    assert (nodes[0].x, nodes[0].y) == (500.0, 500.0)
    assert (nodes[4].x, nodes[4].y) == (1500.0, 1500.0)
    for n in nodes:
        assert 3.0e9 <= n.cpu_freq <= 1.0e10


def test_node_frequencies_stable_across_builds():
    cfg = build_config({})
    a = [n.cpu_freq for n in build_nodes(cfg)]
    b = [n.cpu_freq for n in build_nodes(cfg)]
    assert a == b


def test_node_capacity_guards():
    cfg = build_config({})
    node = NodeState(0, 0.0, 0.0, 5e9, cfg.sim)
    node.commit_cpu(0.8)
    assert node.cpu_commit == pytest.approx(1.0)
    with pytest.raises(RuntimeError, match="overflow"):
        node.commit_cpu(0.01)
    node.release_cpu(0.8)
    with pytest.raises(RuntimeError, match="underflow"):
        node.release_cpu(0.01)


def test_cpu_guards_reject_nan():
    node = NodeState(0, 0.0, 0.0, 5e9, build_config({}).sim)
    with pytest.raises(RuntimeError, match="cpu share overflow"):
        node.commit_cpu(math.nan)
    with pytest.raises(RuntimeError, match="cpu share underflow"):
        node.release_cpu(math.nan)
    assert node.cpu_commit == node.baseline


def test_request_window_lost_to_rounding_keeps_the_new_arrival():
    # 5.0 - 1e-17 == 5.0: the trim once popped the arrival just appended,
    # then indexed the empty deque
    node = NodeState(0, 0.0, 0.0, 5e9, build_config({}).sim)
    for now in (4.0, 5.0, 5.0):
        node.record_arrival(now, 1e-17, 0.2)
        assert list(node.arrivals) == [now]


@pytest.mark.parametrize("alpha", [0.2, 1.0])
def test_overflowed_request_rate_never_makes_the_demand_ema_nan(alpha):
    # 1 / 1e-310 overflows; at alpha 1 the general form added 0.0 * inf
    node = NodeState(0, 0.0, 0.0, 5e9, build_config({}).sim)
    for now in (1.0, 2.0, 3.0):
        node.record_arrival(now, 1e-310, alpha)
        assert node.demand_ema == math.inf


@pytest.mark.parametrize("amount", [0.01, math.nan, -math.inf])
@pytest.mark.parametrize("resource", ["mem", "disk", "bw"])
def test_release_guards(resource, amount):
    node = NodeState(0, 0.0, 0.0, 5e9, build_config({}).sim)
    release = {
        "mem": lambda a: node.release_resident(a, 0.0),
        "disk": lambda a: node.release_resident(0.0, a),
        "bw": node.release_bw,
    }[resource]
    start = getattr(node, f"{resource}_commit")
    release(-0.25)
    release(0.25 + 5e-10)  # rounding residue within 1e-9 is kept, not clamped
    after = getattr(node, f"{resource}_commit")
    assert after == (start + 0.25) - (0.25 + 5e-10) < start
    with pytest.raises(RuntimeError, match=f"node 0: {resource} commit underflow"):
        release(amount)


@pytest.mark.parametrize("fog_nodes", ["9", "2"])
def test_wfq_weighs_each_node_by_its_cpu_ghz(fog_nodes):
    cfg = build_config({"sim.fog_nodes": fog_nodes})
    ghz = [n.cpu_freq / 1e9 for n in build_nodes(cfg)]
    assert build_scheduler(cfg, "wfq").weights == ghz
    assert len(set(ghz)) == len(ghz)  # unequal weights, so the weighting shows


def test_build_scheduler_names():
    cfg = build_config({})
    assert type(build_scheduler(cfg, "fcfs")) is FcfsScheduler
    assert type(build_scheduler(cfg, "rr")) is RoundRobinScheduler
    assert type(build_scheduler(cfg, "wfq")) is WfqScheduler
    with pytest.raises(ValidationError, match="checkpoint"):
        build_scheduler(cfg, "qlearn")
    with pytest.raises(ValidationError, match="unknown scheduler"):
        build_scheduler(cfg, "sjf")


def test_derive_seed_spreads():
    seeds = {derive_seed(m, e) for m in range(3) for e in range(50)}
    assert len(seeds) == 150
    assert derive_seed(1, 2) == derive_seed(1, 2)


def test_negative_master_seed_rejected(tiny_cfg):
    # random.Random(-1) replays random.Random(1), so seed -1 would replay 1
    tiny_cfg.agent.episodes = 1
    with pytest.raises(ValidationError, match="seed=-1"):
        run_training(tiny_cfg, -1)
    with pytest.raises(ValidationError, match="seed=-1"):
        run_evaluation(tiny_cfg, "fcfs", -1)


# -- worked examples -----------------------------------------------------------------

def test_local_execution_worked_example():
    # 5 MB at 500 cycles/bit on the vehicle's own 1 GHz core: 20 s
    cfg = pinned_cfg()
    tables = {i: QTable(NUM_STATES, NUM_ACTIONS) for i in range(9)}
    sched = build_scheduler(cfg, "qlearn", tables)  # empty tables pick Local/Small
    result = run_episode(cfg, sched, 3, vehicles=[vehicle()])
    led = result.ledger
    assert led.k_total == 1
    rec = led.records[0]
    assert rec.serviced and rec.tier == Tier.LOCAL
    assert rec.upload == 0.0
    assert rec.wait == 0.0
    assert rec.proc == pytest.approx(20.0, rel=1e-12)
    assert rec.completion == pytest.approx(rec.arrival + 20.0, rel=1e-12)
    assert rec.components[0] == 0.0  # local runs waste nothing


def test_local_queue_serializes_on_vehicle_cpu():
    cfg = pinned_cfg(**{"scenario.duration": "2", "sim.task_deadline_s_min": "60",
                        "sim.task_deadline_s_max": "60"})
    tables = {i: QTable(NUM_STATES, NUM_ACTIONS) for i in range(9)}
    sched = build_scheduler(cfg, "qlearn", tables)
    result = run_episode(cfg, sched, 3, vehicles=[vehicle()])
    led = result.ledger
    assert led.k_total == 2
    first, second = sorted(led.records, key=lambda r: r.arrival)
    assert first.serviced and second.serviced
    assert second.wait == pytest.approx(first.completion - second.arrival, rel=1e-12)
    assert second.completion == pytest.approx(first.completion + 20.0, rel=1e-12)


def test_cloud_two_leg_upload_worked_example():
    # noise floor tuned so snr(100 m) = 3: the V2I leg carries 5 MB at
    # 40 Mb/s in 1.0 s, the backhaul adds 0.8 s, the 10 GHz cloud core 2.0 s
    noise_dbm = 10.0 * math.log10(1e-3 / 3.0)
    cfg = pinned_cfg(**{
        "link.noise_power_dbm": repr(noise_dbm),
        "sim.task_deadline_s_min": "10",
        "sim.task_deadline_s_max": "10",
    })
    result = run_episode(cfg, CloudStub(), 3, vehicles=[vehicle(x=1600.0, y=1500.0)],
                         collect_events=True)
    led = result.ledger
    assert led.k_total == 1
    rec = led.records[0]
    assert rec.serviced
    assert rec.tier == Tier.CLOUD
    assert rec.upload == pytest.approx(1.8, rel=1e-9)
    assert rec.wait == 0.0
    assert rec.proc == pytest.approx(2.0, rel=1e-12)
    assert rec.completion == pytest.approx(3.8, rel=1e-9)
    events = [event_dict(e) for e in result.events]
    kinds = [e["kind"] for e in events]
    assert kinds.count("UploadDone") == 1
    up = next(e for e in events if e["kind"] == "UploadDone")
    assert up["time"] == pytest.approx(1.8, rel=1e-9)


def test_fog_fifo_queue_waits_for_release():
    class FogStub(Scheduler):
        name = "stub-fog"

        def select(self, ctx):
            from vfcsim.schedulers import Placement
            assert any(v.node_id == 4 for v in ctx.nodes)
            return Placement(Tier.FOG, 4, 0.5, 1.0)

    cfg = pinned_cfg(**{"sim.task_deadline_s_min": "40", "sim.task_deadline_s_max": "40"})
    result = run_episode(
        cfg, FogStub(), 3,
        vehicles=[vehicle(0), vehicle(1)],
    )
    led = result.ledger
    assert led.k_total == 2
    first, second = sorted(led.records, key=lambda r: r.task_id)
    assert first.serviced and second.serviced
    # two 0.5 shares exceed the grantable 0.8: strict FIFO, head runs first
    assert first.completion < second.completion
    assert first.wait == 0.0
    assert second.wait == pytest.approx(first.proc, abs=1e-9)
    for rec in (first, second):
        assert rec.completion == pytest.approx(
            rec.arrival + rec.upload + rec.wait + rec.proc, rel=1e-12
        )


# -- conservation and structural invariants ----------------------------------------

def run_short(scheduler_name="fcfs", seed=7, collect=True, **sets):
    base = {"scenario.duration": "60"}
    base.update({k: str(v) for k, v in sets.items()})
    cfg = build_config({"scenario.name": "NO.4", **base})
    sched = build_scheduler(cfg, scheduler_name)
    return cfg, run_episode(cfg, sched, seed, collect_events=collect)


def test_every_task_resolves():
    _, result = run_short()
    led = result.ledger
    assert led.k_total > 100
    assert led.k_serviced + led.k_dropped == led.k_total
    events = [event_dict(e) for e in result.events]
    arrivals = [e for e in events if e["kind"] == "TaskArrival"]
    finishes = [e for e in events if e["kind"] in ("ExecutionDone", "TaskDropped")]
    assert len(arrivals) == led.k_total
    assert len(finishes) == led.k_total
    assert len({e["task_id"] for e in finishes}) == led.k_total


def test_scenario_duration_alone_sets_the_decision_ticks():
    # scenario.duration alone sets the tick count: a 400 s episode decides
    # tasks past 300 s
    cfg = build_config({"scenario.name": "NO.4", "scenario.duration": "400"})
    arrivals = [r.arrival for r in run_evaluation(cfg, "fcfs", 1).ledger.records]
    assert 300.0 <= max(arrivals) < 400.0


def test_records_carry_the_decision_node_of_their_arrival():
    _, result = run_short()
    arrivals = [e for e in map(event_dict, result.events) if e["kind"] == "TaskArrival"]
    decided = {e["task_id"]: e["node_id"] for e in arrivals}
    assert len(decided) == result.ledger.k_total
    assert len(set(decided.values())) > 1
    for r in result.ledger.records:
        assert r.decision_node == decided[r.task_id]
    # at 800 m several nodes are in range of a vehicle: a cloud task still
    # relays through the node that decided it, under every policy
    cfg = build_config({"scenario.name": "NO.1", "scenario.duration": "60",
                        "link.v2i_range_m": "800"})
    untrained = {i: QTable(NUM_STATES, NUM_ACTIONS) for i in range(cfg.sim.fog_nodes)}
    for name in ("fcfs", "rr", "wfq", "qlearn"):
        sched = build_scheduler(cfg, name, untrained if name == "qlearn" else None)
        if name == "qlearn":
            sched.epsilon = 1.0  # every action drawn at random
        cloud = [r for r in run_episode(cfg, sched, 7).ledger.records if r.tier == Tier.CLOUD]
        assert len({r.decision_node for r in cloud}) > 1, name
        assert all(r.node_id == r.decision_node for r in cloud), name


def test_event_times_never_decrease():
    _, result = run_short()
    times = [event_dict(e)["time"] for e in result.events]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_task_events_inside_vehicle_lifetime():
    _, result = run_short()
    entry = {}
    exits = {}
    owner = {}
    events = [event_dict(e) for e in result.events]
    for e in events:
        if e["kind"] == "VehicleEnter":
            entry[e["detail"]["vehicle"]] = e["time"]
        elif e["kind"] == "VehicleExit":
            exits[e["detail"]["vehicle"]] = e["time"]
        elif e["kind"] == "TaskArrival":
            owner[e["task_id"]] = e["detail"]["vehicle"]
    assert owner
    for e in events:
        if e["kind"] in ("UploadDone", "ExecutionDone", "TaskDropped"):
            vid = owner[e["task_id"]]
            assert entry[vid] - 1e-9 <= e["time"]
            assert e["time"] <= exits.get(vid, float("inf")) + 1e-9


def test_completion_identity_on_serviced_records():
    for name in ("fcfs", "rr", "wfq"):
        _, result = run_short(name)
        for rec in result.ledger.records:
            if rec.serviced:
                assert rec.completion == pytest.approx(
                    rec.arrival + rec.upload + rec.wait + rec.proc, rel=1e-9,
                )


@pytest.mark.parametrize("key, value, moved", [
    # a higher target lowers each QoS score below 1
    ("reward.quality_desired", "1.0", -1),
    # a higher floor raises the latency term, and so each score below 1
    ("reward.latency_floor", "0.002", 1),
])
def test_reward_floor_and_target_reach_the_engine(key, value, moved):
    _, base = run_short(collect=False)
    _, changed = run_short(collect=False, **{key: value})
    pairs = [(a, b) for a, b in zip(base.ledger.records, changed.ledger.records) if a.serviced]
    assert len(pairs) > 50
    # the reward does not steer fcfs, so only the QoS component moves
    assert [(a.task_id, a.tier, a.components[:3]) for a, _ in pairs] == [
        (b.task_id, b.tier, b.components[:3]) for _, b in pairs
    ]
    assert all((b.components[3] - a.components[3]) * moved > 0.0 for a, b in pairs)


def test_heavy_load_respects_capacity_guards():
    # the commit guards turn any overflow into a RuntimeError, so a clean
    # run is the assertion
    for name in ("fcfs", "rr", "wfq"):
        _, result = run_short(name, **{"sim.arrival_prob": "0.7"})
        assert result.ledger.k_total > 1000


def test_episode_end_guard_checks_every_resource(tiny_cfg):
    for leak in (1e-6, math.nan):
        for attr in ("cpu_commit", "mem_commit", "disk_commit", "bw_commit"):
            episode = _Episode(tiny_cfg, build_scheduler(tiny_cfg, "fcfs"), 1,
                               False, False, None, 0)
            episode.check_resources_released()
            node = episode.nodes[3]
            setattr(node, attr, getattr(node, attr) + leak)
            with pytest.raises(RuntimeError, match=f"node 3: {attr.split('_')[0]} commit"):
                episode.check_resources_released()


def test_leaked_commit_fails_the_episode(monkeypatch):
    original = _Episode.on_upload_done

    def leaky(self, now, task):
        original(self, now, task)
        self.nodes[task.exec_node].disk_commit += 1e-6

    monkeypatch.setattr(_Episode, "on_upload_done", leaky)
    with pytest.raises(RuntimeError, match="disk commit"):
        run_short()


def spy_on_pushes(monkeypatch):
    """Record every heap push as (time, sequence, handler name, task id or
    None), every task decided, and every fog task that queues at upload-done."""
    pushes, tasks, queued = [], [], []

    def recording(heap, entry):
        time, seq, handle, payload = entry
        if handle.__name__ == "on_tick_arrivals":
            tasks.extend(payload)
        task_id = payload.task_id if isinstance(payload, Task) else None
        pushes.append((time, seq, handle.__name__, task_id))
        heapq.heappush(heap, entry)

    original = _Episode.on_upload_done

    def on_upload_done(self, now, task):
        original(self, now, task)
        if task.queued:
            queued.append(task.task_id)

    monkeypatch.setattr("vfcsim.engine.heappush", recording)
    monkeypatch.setattr(_Episode, "on_upload_done", on_upload_done)
    return pushes, tasks, queued


def run_loaded(name, seed=7):
    # deadlines of 1-4 s, so that some uploads outlast their bound
    cfg = build_config({"scenario.name": "NO.4", "scenario.duration": "60",
                        "sim.arrival_prob": "0.7", "sim.task_deadline_s_min": "1",
                        "sim.task_deadline_s_max": "4"})
    tables = {i: QTable(NUM_STATES, NUM_ACTIONS) for i in range(cfg.sim.fog_nodes)}
    sched = build_scheduler(cfg, name, tables)
    sched.epsilon = 1.0
    return run_episode(cfg, sched, seed)


@pytest.mark.parametrize("name", ["fcfs", "qlearn"])
def test_expiry_pushed_only_where_it_acts(monkeypatch, name):
    pushes, tasks, queued = spy_on_pushes(monkeypatch)
    run_loaded(name)

    def pushed(handler):
        return sorted(task_id for _t, _s, name, task_id in pushes if name == handler)

    # an upload expiry for each fog or cloud upload that ends at or after
    # the bound, which has no upload-done entry, and a queue expiry for each
    # fog task that queued at upload-done
    late = sorted(t.task_id for t in tasks if t.tier in (Tier.FOG, Tier.CLOUD)
                  and t.arrival + t.upload_planned >= t.bound)
    assert late and queued
    assert pushed("on_upload_expire") == late
    assert pushed("on_queue_expire") == sorted(queued)
    assert set(pushed("on_upload_done")).isdisjoint(late)


def test_every_heap_entry_is_numbered_when_it_is_pushed(monkeypatch):
    pushes, _tasks, queued = spy_on_pushes(monkeypatch)
    run_loaded("fcfs")
    assert queued
    # queue expiries included: each takes the next number as it is pushed
    seqs = [seq for _t, seq, _name, _task_id in pushes]
    assert all(a < b for a, b in zip(seqs, seqs[1:]))


def test_queued_task_started_to_end_at_its_bound_is_serviced_once(monkeypatch, quiet_cfg):
    # Two fog tasks on node 0 finish uploading at 0.5 s, each asking for half
    # of the 0.8 grantable share. The first runs to 1.5 s; the second queues,
    # and drain starts it then, to complete at 3.5 s, exactly its bound. Its
    # queue expiry, pushed when it queued, pops first at 3.5 s and must leave
    # it alone.
    pushes, _tasks, _queued = spy_on_pushes(monkeypatch)
    episode = _Episode(quiet_cfg, build_scheduler(quiet_cfg, "fcfs"), 1,
                       False, False, [], 0)
    veh = VehicleState(vehicle())
    tasks = [
        Task(task_id=i, vehicle=veh, size_bits=4.0e7, demand_mips=100.0, deadline=bound,
             arrival=0.0, bound=bound, cycles=2.0e10, mem_frac=0.005, disk_frac=0.001,
             bw_frac=0.0, tier=int(Tier.FOG), exec_node=0, decision_node=0, cpu_share=0.5,
             mem_alloc=0.005, disk_alloc=0.001, eff_cpu=0.5, proc_planned=proc,
             upload_planned=0.5)
        for i, (bound, proc) in enumerate([(10.0, 1.0), (3.5, 2.0)])
    ]
    episode.task_counter = len(tasks)
    for task in tasks:
        episode.on_upload_done(0.5, task)

    led = episode.run().ledger
    at_bound = sorted((seq, name) for t, seq, name, task_id in pushes if t == 3.5 and task_id == 1)
    assert [name for _seq, name in at_bound] == ["on_queue_expire", "on_execution_done"]
    assert [(r.task_id, r.serviced, r.completion) for r in led.records] == [
        (0, True, 1.5),
        (1, True, 3.5),
    ]
    assert led.records[1].wait == 1.0


class TierStub(Scheduler):
    """Places every task on one tier: the vehicle, fog node 4, or the cloud."""

    name = "stub-tier"

    def __init__(self, tier):
        self.tier = tier

    def select(self, ctx):
        if self.tier == Tier.LOCAL:
            return Placement(Tier.LOCAL, -1, 0.0, 1.0)
        if self.tier == Tier.FOG:
            return Placement(Tier.FOG, 4, 0.5, 1.0)
        return _cloud_placement(ctx)


@pytest.mark.parametrize("tier", [Tier.LOCAL, Tier.FOG, Tier.CLOUD], ids=["local", "fog", "cloud"])
def test_execution_past_the_bound_raises(monkeypatch, tier):
    cfg = pinned_cfg(**{"sim.task_deadline_s_min": "40", "sim.task_deadline_s_max": "40"})
    led = run_episode(cfg, TierStub(tier), 3, vehicles=[vehicle()]).ledger
    assert [(r.serviced, r.tier) for r in led.records] == [(True, tier)]

    def overrun(heap, entry):
        _time, seq, handle, payload = entry
        if handle.__name__ == "on_execution_done":
            entry = (payload.bound + 1.0, seq, handle, payload)
        heapq.heappush(heap, entry)

    monkeypatch.setattr("vfcsim.engine.heappush", overrun)
    with pytest.raises(RuntimeError, match="task 0 executing past its bound"):
        run_episode(cfg, TierStub(tier), 3, vehicles=[vehicle()])


@pytest.mark.parametrize("samples, sla", [
    ([(7.0, 7.0)], SlaLevel.FULFILLED),
    ([(3.5, 3.0), (3.5, 4.0)], SlaLevel.FULFILLED),
    ([(math.nextafter(7.0, math.inf), 7.0)], SlaLevel.NOT_FULFILLED),
])
def test_state_sla_flag_at_the_deadline(tiny_cfg, samples, sla):
    # a response window whose sum equals its deadline sum fulfils the SLA
    episode = _Episode(tiny_cfg, build_scheduler(tiny_cfg, "fcfs"), 1,
                       False, False, None, 0)
    node = episode.nodes[0]
    for response, deadline in samples:
        node.record_response(response, deadline)
    task = Task(task_id=0, vehicle=VehicleState(vehicle()), size_bits=4.0e7,
                demand_mips=100.0, deadline=7.0, arrival=0.0, bound=7.0, cycles=2.0e10,
                mem_frac=0.005, disk_frac=0.001, bw_frac=0.1)
    assert state_from_index(episode.state_for(node, task, 1)).sla is sla


# Q-tables and learning curve of two training episodes on NO.1, master
# seed 1: entries packed as (node, state, action, value) in key order,
# curve rows as (episode, epsilon, tasks, serviced, reward_sum).
PINNED_TRAINING = (
    "dc97246882ae5807c9bac409bc436c23f3563b76ba8e37bc024375b56714b322",
    "3b28b664d5d75b393baa431f7d00515abb49f5dfc01c01dd8b06ae6406d81c6e",
)


def test_training_state_encoding_matches_snapshot_oracle(monkeypatch):
    cfg = build_config({"scenario.name": "NO.1", "agent.episodes": "2"})
    original = _Episode.state_for
    calls = []

    def checked(self, node, task, available):
        ordinal = original(self, node, task, available)
        snapshot = snapshot_from_node(node, task, available, self.sim,
                                      self.cfg.scenario.entry_rate)
        assert ordinal == state_index(discretize(snapshot, self.cfg.state))
        calls.append(ordinal)
        return ordinal

    monkeypatch.setattr(_Episode, "state_for", checked)
    result = run_training(cfg, 1)
    tasks = sum(row["tasks"] for row in result.curve)
    assert len(calls) == 2 * tasks  # the state at decision and the next state
    assert len(set(calls)) > 100

    tables = hashlib.sha256()
    for node_id in sorted(result.tables):
        for (state, action), value in result.tables[node_id].items():
            tables.update(struct.pack("<3qd", node_id, state, action, value))
    curve = hashlib.sha256()
    for row in result.curve:
        curve.update(struct.pack("<qd2qd", row["episode"], row["epsilon"], row["tasks"],
                                 row["serviced"], row["reward_sum"]))
    assert (tables.hexdigest(), curve.hexdigest()) == PINNED_TRAINING


def test_hand_built_config_trains_like_build_config():
    # RunConfig() once kept a rate scale of 1.0 where build_config tracked
    # NO.1's entry rate, so the two defaults trained different agents
    hand = RunConfig()
    hand.agent.episodes = 2
    built = build_config({"agent.episodes": "2"})
    hand_result = run_training(hand, 1)
    built_result = run_training(built, 1)
    assert hand_result.curve == built_result.curve
    assert sorted(hand_result.tables) == sorted(built_result.tables)
    for node_id, table in hand_result.tables.items():
        assert list(table.items()) == list(built_result.tables[node_id].items())
    assert hand == built


def test_which_readings_stay_constant_under_no1_defaults():
    # The readings each Q-table row was visited with, over three NO.1
    # training episodes: a 5-10 MB task never lifts a node's mem or disk
    # commit off Low, so free disk stays High; nodes 1 km apart with a
    # 500 m range give a vehicle one node at most (two only exactly
    # midway), and no response window averages response_slow. A
    # calibration change that wakes one of these readings fails here.
    cfg = build_config({"scenario.name": "NO.1", "agent.episodes": "3"})
    tables = run_training(cfg, 1).tables
    seen = {name: set() for name in ("mu", "dsu", "asd", "ncn", "rt")}
    for table in tables.values():
        for state in table.rows:
            decoded = state_from_index(state)
            for name, levels in seen.items():
                levels.add(getattr(decoded, name))
    assert seen == {
        "mu": {Level.LOW},
        "dsu": {Level.LOW},
        "asd": {Level.HIGH},
        "ncn": {Level.LOW, Level.MEDIUM},
        "rt": {ResponseLevel.FAST, ResponseLevel.MEDIUM},
    }


def test_same_seed_reproduces_bit_identical_events():
    _, a = run_short()
    _, b = run_short()
    # repr tells -0.0 from 0.0 and 1 from 1.0 or True, as the log's bytes do
    assert a.events and repr(a.events) == repr(b.events)
    assert repr(a.ledger.records) == repr(b.ledger.records)


# Ledger SHA-256 of NO.1 seed 1 under overlapping coverage (800 m range),
# a non-square grid (10 nodes, where some cells hold no node) and the
# 144-node grid over 12 km that the eval-grid144 benchmark runs (1 km
# cells against a 500 m range: an arrival reaches at most one node, two
# only exactly midway between neighbours, so the three baselines place
# alike), and a 5 Mb/s backhaul, slow enough that the QoS throughput cap
# at 1 binds. Each key lists config overrides as key, value pairs. The rows
# are packed as task_id, arrival, upload, wait, proc, completion,
# serviced, tier, node_id, reward and the four reward components.
PINNED_LEDGERS = {
    ("link.v2i_range_m", "800"): {
        "fcfs": "941be00679fe27dc22706bbaa46e12b0789b61b354d396062a23737564bfdc40",
        "rr": "bb9fe130427c2b9e4889718aaf500892a09b6edc604c305f42e98decec7ae5d1",
        "wfq": "978053415fa55b01a4d92bcd5b407e604422ec01ca0ddd1db0e349eda70aee97",
    },
    ("sim.fog_nodes", "10"): {
        "fcfs": "3dd1917037a5aab637457b511f5174f1fdfb25094078160e5401a8c4796b73ab",
        "rr": "9e009ff6d8b566b43283a034fc588c7ed7f8637c51336843475e53b10fde7c6f",
        "wfq": "60dd94199eeefa39c9714b05a35be235ae633fff03c9909bccee2338472d66df",
    },
    ("sim.fog_nodes", "144", "sim.area_m", "12000"): {
        "fcfs": "be833e3cd216ecd16b2f3a9aa6b5f3f1ff02b0650ced114d2edb47781073cb7e",
        "rr": "be833e3cd216ecd16b2f3a9aa6b5f3f1ff02b0650ced114d2edb47781073cb7e",
        "wfq": "be833e3cd216ecd16b2f3a9aa6b5f3f1ff02b0650ced114d2edb47781073cb7e",
    },
    ("link.wired_rate_bps", "5e6"): {
        "fcfs": "f72880eea00d939c6db673c4bae7d71de79000133e7f3178898f411d933750ed",
        "rr": "f72880eea00d939c6db673c4bae7d71de79000133e7f3178898f411d933750ed",
        "wfq": "f72880eea00d939c6db673c4bae7d71de79000133e7f3178898f411d933750ed",
    },
}


def ledger_sha256(ledger):
    row = struct.Struct("<q5d?2qd4d")
    h = hashlib.sha256()
    for r in ledger.records:
        h.update(row.pack(r.task_id, r.arrival, r.upload, r.wait, r.proc, r.completion,
                          r.serviced, r.tier, r.node_id, r.reward, *r.components))
    return h.hexdigest()


@pytest.mark.parametrize("override", sorted(PINNED_LEDGERS))
def test_baseline_ledgers_pinned(override):
    cfg = build_config({"scenario.name": "NO.1", **dict(zip(override[::2], override[1::2]))})
    digests = {name: ledger_sha256(run_evaluation(cfg, name, 1).ledger)
               for name in ("fcfs", "rr", "wfq")}
    assert digests == PINNED_LEDGERS[override]


# Ledger SHA-256 (ledger_sha256) of greedy qlearn on NO.1, seed 1, with the
# tables of PINNED_TRAINING's run: two episodes on NO.1 under master seed 1
PINNED_GREEDY_LEDGER = "dc7e203a83ac695106e27349eaeec3f97385ab90a14bd67c179e320b55be2cf7"


def test_greedy_qlearn_ledger_pinned():
    cfg = build_config({"scenario.name": "NO.1", "agent.episodes": "2"})
    tables = run_training(cfg, 1).tables
    result = run_evaluation(cfg, "qlearn", 1, tables=tables)
    assert ledger_sha256(result.ledger) == PINNED_GREEDY_LEDGER


# A recorded trace whose entries and exits all fall on decision ticks
# (interval 1 s), every active vehicle emitting a task at every tick. At
# t = 7 one vehicle exits, two enter, and the exiting vehicle's tasks
# finish or expire; at t = 12 two vehicles exit.
TICK_TRACE = [
    vehicle(0, entry=0.0, dwell=7.0, x=500.0, y=500.0, cpu=2.0e9),
    vehicle(1, entry=0.0, dwell=12.0, speed=12.0, heading=0.5, x=1400.0, y=1600.0, cpu=4.0e9),
    vehicle(2, entry=2.0, dwell=10.0, cpu=3.0e9),
    vehicle(3, entry=7.0, dwell=8.0, speed=20.0, heading=2.0, x=2600.0, y=400.0, cpu=5.0e9),
    vehicle(4, entry=7.0, dwell=13.0, x=520.0, y=2480.0, cpu=6.0e9),
]
# ledger (ledger_sha256) and event-log SHA-256 of fcfs on TICK_TRACE, NO.4
# for 20 s at arrival_prob 1.0, recorded when each task had an arrival
# event of its own on the heap
PINNED_TICK_TRACE = (
    156,
    "6c8a09ad774b0557c21643f76cd7fdecbfe261cebaec0d65dc4215ebb0859427",
    "9a8cd6e8c16e347b9e2093b8bc1bc35c8e4a72c63a09e2dca26543c738308148",
)


def test_events_at_a_tick_precede_its_arrivals(tmp_path):
    cfg = build_config({"scenario.name": "NO.4", "scenario.duration": "20",
                        "sim.arrival_prob": "1.0"})
    result = run_evaluation(cfg, "fcfs", 1, vehicles=TICK_TRACE, collect_events=True)
    path = tmp_path / "events.ndjson"
    write_event_log(result.events, path)
    assert (len(result.events), ledger_sha256(result.ledger),
            hashlib.sha256(path.read_bytes()).hexdigest()) == PINNED_TICK_TRACE

    for tick, exiting in ((7.0, {0}), (12.0, {1, 2})):
        # (kind, vehicle) for every event at the tick; finish events have
        # no vehicle
        kinds = [(e["kind"], e["detail"].get("vehicle")) for e in map(event_dict, result.events)
                 if e["time"] == tick]
        first_arrival = next(i for i, (kind, _) in enumerate(kinds) if kind == "TaskArrival")
        before, arrivals = kinds[:first_arrival], kinds[first_arrival:]
        # the exits and the tasks they end come first, then the tick's
        # arrivals, one per vehicle still active, in a single run
        assert {v for kind, v in before if kind == "VehicleExit"} == exiting
        assert "TaskDropped" in {kind for kind, _ in before}
        assert {kind for kind, _ in arrivals} == {"TaskArrival"}
        active = {v.vehicle_id for v in TICK_TRACE
                  if v.entry_time <= tick < v.entry_time + v.dwell}
        assert sorted(v for _, v in arrivals) == sorted(active)


@pytest.mark.parametrize("sets", [{}, {"link.v2i_range_m": "800"}], ids=["default-range", "800m"])
def test_every_scheduler_is_evaluated_on_the_same_tasks(sets):
    # a scheduler decides where a task runs, never which tasks arrive or
    # when, so a comparison of schedulers scores them on one traffic
    cfg = build_config({"scenario.name": "NO.1", "scenario.duration": "60",
                        "agent.episodes": "1", **sets})
    tables = run_training(cfg, 1).tables
    for seed in (100, 101):
        placed = {}
        for name in ("fcfs", "rr", "wfq", "qlearn"):
            records = run_evaluation(cfg, name, seed, tables if name == "qlearn" else None).ledger.records
            placed[name] = sorted((r.task_id, r.arrival, r.tier, r.node_id) for r in records)
        arrivals = {name: [p[:2] for p in rows] for name, rows in placed.items()}
        assert arrivals["fcfs"], seed
        for name in ("rr", "wfq", "qlearn"):
            assert arrivals[name] == arrivals["fcfs"], (name, seed)
        # the property is not vacuous: the greedy policy places differently
        assert placed["qlearn"] != placed["fcfs"], seed


def test_different_seeds_differ():
    _, a = run_short(seed=1)
    _, b = run_short(seed=2)
    assert a.ledger.k_total != b.ledger.k_total or repr(a.ledger.records) != repr(b.ledger.records)


def test_zero_traffic_yields_empty_report(quiet_cfg):
    sched = build_scheduler(quiet_cfg, "fcfs")
    result = run_episode(quiet_cfg, sched, 5)
    assert result.ledger.k_total == 0
    assert result.aggregate.tasks == 0
    assert result.aggregate.reward_sum == 0.0


def test_no_vehicles_at_all(tiny_cfg):
    sched = build_scheduler(tiny_cfg, "fcfs")
    result = run_episode(tiny_cfg, sched, 5, vehicles=[])
    assert result.ledger.k_total == 0


def test_certain_arrivals_generate_one_task_per_tick():
    cfg = pinned_cfg(**{"scenario.duration": "10"})
    vehicles = [vehicle(i) for i in range(3)]
    result = run_episode(cfg, build_scheduler(cfg, "fcfs"), 3, vehicles=vehicles)
    assert result.ledger.k_total == 30


def test_arrival_prob_validation(tiny_cfg):
    # a config changed after it was built is checked again by the episode
    sched = build_scheduler(tiny_cfg, "fcfs")
    for prob in (1.5, -0.1):
        cfg = dataclasses.replace(tiny_cfg, sim=dataclasses.replace(tiny_cfg.sim, arrival_prob=prob))
        with pytest.raises(ValidationError, match=re.escape(f"arrival_prob={prob!r} outside [0, 1]")):
            run_episode(cfg, sched, 1)


# -- training and evaluation drivers ---------------------------------------------------

def test_training_curve_shape(tiny_cfg):
    tiny_cfg.agent.episodes = 2
    result = run_training(tiny_cfg, 1)
    assert [r["episode"] for r in result.curve] == [0, 1]
    assert result.curve[0]["epsilon"] == 0.1
    assert result.curve[1]["epsilon"] == pytest.approx(0.01)
    assert set(result.tables) == set(range(9))
    for row in result.curve:
        assert row["tasks"] >= row["serviced"] >= 0


def test_training_writes_checkpoint(tiny_cfg, tmp_path):
    tiny_cfg.agent.episodes = 2
    run_training(tiny_cfg, 1, checkpoint_dir=tmp_path)
    files = sorted(p.name for p in tmp_path.glob("qtable_node*.tsv"))
    assert files == [f"qtable_node{i}.tsv" for i in range(9)]
    tables = load_tables(tmp_path, 9)
    assert set(tables) == set(range(9))


def test_table_round_trip_through_save_load(tmp_path):
    tables = {i: QTable(NUM_STATES, NUM_ACTIONS) for i in range(2)}
    tables[0].set(5, 3, 0.25)
    save_tables(tables, tmp_path)
    back = load_tables(tmp_path, 2)
    assert back[0].get(5, 3) == 0.25
    assert len(back[1]) == 0


@pytest.mark.parametrize("dims, expected", [
    ((NUM_STATES, 2), f"num_actions={NUM_ACTIONS}"),  # would act with ordinals 0-1 only
    ((10, NUM_ACTIONS), f"num_states={NUM_STATES}"),   # would fail at the first decision
])
def test_load_tables_rejects_other_dimensions(tmp_path, dims, expected):
    tables = {i: QTable(NUM_STATES, NUM_ACTIONS) for i in range(2)}
    tables[1] = QTable(*dims)
    tables[1].set(5, 1, 0.25)
    save_tables(tables, tmp_path)
    with pytest.raises(ValidationError, match=expected) as info:
        load_tables(tmp_path, 2)
    assert str(info.value).startswith(f"{tmp_path / 'qtable_node1.tsv'}: ")


def test_load_tables_rejects_a_table_of_another_node(tmp_path):
    # a 12-node checkpoint is not a 9-node one
    save_tables({i: QTable(NUM_STATES, NUM_ACTIONS) for i in range(12)}, tmp_path)
    with pytest.raises(ValidationError, match="9-node grid") as info:
        load_tables(tmp_path, 9)
    assert str(info.value).startswith(f"{tmp_path / 'qtable_node10.tsv'}: ")
    assert set(load_tables(tmp_path, 12)) == set(range(12))


def test_save_tables_replaces_a_checkpoint_of_another_grid(tmp_path):
    # training a 12-node grid, then the 9-node one, into the same directory
    save_tables({i: QTable(NUM_STATES, NUM_ACTIONS) for i in range(12)}, tmp_path)
    save_tables({i: QTable(NUM_STATES, NUM_ACTIONS) for i in range(9)}, tmp_path)
    files = sorted(p.name for p in tmp_path.glob("qtable_node*.tsv"))
    assert files == sorted(f"qtable_node{i}.tsv" for i in range(9))
    assert set(load_tables(tmp_path, 9)) == set(range(9))


def tables_for(node_ids, dims=(NUM_STATES, NUM_ACTIONS)):
    return {i: QTable(*dims) for i in node_ids}


@pytest.mark.parametrize("tables, named", [
    # nine 2-action tables used to evaluate NO.1 with every action local
    (tables_for(range(9), (NUM_STATES, 2)), "node 0: q-table is 354294 x 2"),
    (tables_for(range(9)) | tables_for([4], (10, NUM_ACTIONS)), "node 4: q-table is 10 x 9"),
    (tables_for(range(8)), "node 8: no q-table"),
    (tables_for(range(10)), "node 9: q-table given"),
    (tables_for(str(i) for i in range(9)), "node '0': q-table given"),
])
def test_build_scheduler_rejects_tables_not_of_the_grid(tables, named):
    cfg = build_config({})
    with pytest.raises(ValidationError, match=re.escape(named)):
        build_scheduler(cfg, "qlearn", tables)


def test_load_tables_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="checkpoint incomplete"):
        load_tables(tmp_path, 3)


def test_evaluation_merges_episodes(tiny_cfg):
    cfg = build_config({"scenario.name": "NO.4", "scenario.duration": "40",
                        "sim.eval_episodes": "2"})
    result = run_evaluation(cfg, "fcfs", 3)
    alone = [
        run_episode(cfg, build_scheduler(cfg, "fcfs"), derive_seed(3, e), episode_index=e)
        for e in (0, 1)
    ]
    assert result.ledger.k_total == result.report.k_total
    assert result.ledger.k_total == sum(r.ledger.k_total for r in alone)
    single = run_evaluation(tiny_cfg, "fcfs", 3)
    # one episode cannot rank itself: all four criteria are constant
    assert single.report.cr == 4.0


# SHA-256 of repr((apt, ast, asr, cr, aap, k_total, k_serviced, k_local,
# k_dropped)) of fcfs on NO.4, seed 11, over three episodes: the
# record-order sums of APT and AST show in the last bits, and AAP is an
# exact sum
PINNED_REPORT = "5b7cfe00f4f7183f4bb9008a20f20a2fac3dd3cee3a5a527e5f990a116d8a5e0"


def test_three_episode_report_pinned():
    cfg = build_config({"scenario.name": "NO.4", "sim.eval_episodes": "3"})
    r = run_evaluation(cfg, "fcfs", 11).report
    text = repr((r.apt, r.ast, r.asr, r.cr, r.aap, r.k_total, r.k_serviced, r.k_local, r.k_dropped))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT


def test_evaluation_of_given_vehicles_uses_derived_seed(tiny_cfg):
    vehicles = [vehicle(i, dwell=30.0, x=300.0 + 600.0 * i) for i in range(5)]
    result = run_evaluation(tiny_cfg, "fcfs", 4, vehicles=vehicles)
    direct = run_episode(tiny_cfg, build_scheduler(tiny_cfg, "fcfs"), derive_seed(4, 0),
                         vehicles=vehicles)
    assert result.ledger.k_total > 0
    assert result.ledger.records == direct.ledger.records


def test_evaluation_deterministic(tiny_cfg):
    a = run_evaluation(tiny_cfg, "wfq", 9)
    b = run_evaluation(tiny_cfg, "wfq", 9)
    assert repr(a.report) == repr(b.report)


def test_qlearn_training_learns_nonzero_entries(tiny_cfg):
    tiny_cfg.agent.episodes = 3
    result = run_training(tiny_cfg, 2)
    assert sum(len(t) for t in result.tables.values()) > 0


def test_write_event_log_round_trip(tmp_path):
    _, result = run_short()
    path = tmp_path / "events.ndjson"
    write_event_log(result.events, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(result.events)
    parsed = [json.loads(line) for line in lines]
    assert parsed == [event_dict(e) for e in result.events]
    # keys are sorted for byte-stable diffs
    assert lines[0].index('"detail"') < lines[0].index('"kind"')
