"""Ten gate checks: oracle equivalence, exact arithmetic, orderings, invariants.

Each test prints one PASS/FAIL line (run with -s to see them) and asserts
the same condition, so the suite doubles as a human-readable checklist.
"""

import json
import math
import random
import time

import pytest

from oracles import ToyMdp, q_learning_on_mdp, replay_metrics, value_iteration
from vfcsim.cli import main
from vfcsim.config import build_config
from vfcsim.engine import NodeState, build_scheduler, run_episode, run_evaluation, run_training, write_event_log
from vfcsim.link import processing_time, shannon_rate, upload_time
from vfcsim.metrics import mean_std
from vfcsim.rewards import (
    RewardWeights,
    qos_reward,
    resource_utilization,
    resource_wastage,
    response_time_reward,
    total_reward,
)
from vfcsim.schedulers import DecisionContext, NodeView, WfqScheduler
from vfcsim.traffic import SCENARIOS, sample_dwell, sample_speed

BITS_5MB = 5 * 8e6
BITS_10MB = 10 * 8e6


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def trained_no1():
    """Scenario NO.1 at defaults: 100 training episodes under master seed 1."""
    cfg = build_config({})
    start = time.perf_counter()
    result = run_training(cfg, 1)
    return cfg, result.tables, time.perf_counter() - start


def test_criterion_01_q_learning_matches_value_iteration():
    mdp = ToyMdp()
    start = time.perf_counter()
    q_star = value_iteration(mdp)
    learned = q_learning_on_mdp(mdp)
    elapsed = time.perf_counter() - start
    err = max(
        abs(learned.get(s, a) - q_star[s][a]) for s in range(mdp.n) for a in (0, 1)
    )
    ok = err < 1e-6 and elapsed < 1.0
    verdict(1, ok, f"toy MDP Q-values within {err:.2e} of value iteration in {elapsed:.2f}s")
    assert ok


def test_criterion_02_reward_worked_examples_exact():
    w = RewardWeights()
    best = total_reward(0.0, 1.0, 1.0, 1.0, w)
    drop = total_reward(1.0, 0.0, 0.0, 0.0, w)
    # quality lands at 0 a full unit below the target, so qos = e^-1
    ew = RewardWeights(w31=0.0, w32=0.5, w33=0.5, quality_desired=1.0)
    e_inv = qos_reward(5.0, 0.0, 0.0, ew)
    resp = response_time_reward(4.0, 10.0)
    util = resource_utilization(1.0, 0.0, 0.0, w)
    checks = [
        (best, 0.7),
        (drop, -0.3),
        (e_inv, math.exp(-1.0)),
        (resp, 0.6),
        (util, 0.4),
    ]
    worst = max(abs(got - want) for got, want in checks)
    ok = worst <= 1e-12
    verdict(2, ok, f"reward examples 0.7/-0.3/e^-1/0.6/0.4 off by at most {worst:.1e}")
    assert ok


def test_criterion_03_link_worked_examples_exact():
    rate = shannon_rate(2.0e7, 3.0)
    wired = upload_time(BITS_5MB, 5.0e7)
    proc = processing_time(BITS_10MB, 500.0, 5.0e9)
    ok = rate == 4.0e7 and wired == 0.8 and proc == 8.0
    verdict(3, ok, f"shannon {rate:.0f} b/s, wired 5MB {wired}s, 10MB@5GHz {proc}s")
    assert ok


def test_criterion_04_metrics_equal_event_log_replay(tmp_path):
    cfg = build_config({"scenario.name": "NO.4", "sim.eval_episodes": "2"})
    start = time.perf_counter()
    result = run_evaluation(cfg, "fcfs", 11, collect_events=True)
    path = tmp_path / "events.ndjson"
    write_event_log(result.events, path)
    events = [json.loads(line) for line in path.read_text().splitlines()]
    replayed = replay_metrics(events, cfg.sim.fog_nodes)
    elapsed = time.perf_counter() - start
    report = result.report
    exact = (
        replayed["apt"] == report.apt
        and replayed["ast"] == report.ast
        and replayed["asr"] == report.asr
        and replayed["cr"] == report.cr
        and replayed["aap"] == report.aap
        and replayed["tasks"] == report.k_total
    )
    ok = exact and report.k_total >= 1000 and elapsed < 10.0
    verdict(
        4,
        ok,
        f"{report.k_total} tasks replayed bit-exactly from the log in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_05_identical_invocations_identical_bytes(tmp_path):
    base = ["--scenario", "NO.4", "--set", "scenario.duration=40", "--seed", "1,2"]
    cmds = [
        ["compare", *base, "--schedulers", "fcfs,rr"],
        ["eval", *base, "--scheduler", "wfq"],
    ]
    mismatched = []
    for cmd in cmds:
        a, b = tmp_path / f"{cmd[0]}_a", tmp_path / f"{cmd[0]}_b"
        assert main(cmd + ["--out", str(a)]) == 0
        assert main(cmd + ["--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        mismatched += [
            f"{cmd[0]}/{name}"
            for name in names
            if (a / name).read_bytes() != (b / name).read_bytes()
        ]
    ok = not mismatched
    verdict(5, ok, "reruns byte-identical" if ok else f"differs: {', '.join(mismatched)}")
    assert ok


@pytest.mark.slow
def test_criterion_06_learned_policy_beats_baselines(trained_no1):
    cfg, tables, train_time = trained_no1
    start = time.perf_counter()
    means = {}
    for name in ("qlearn", "fcfs", "rr", "wfq"):
        asrs = [
            run_evaluation(cfg, name, seed, tables=tables if name == "qlearn" else None).report.asr
            for seed in range(10)
        ]
        means[name] = mean_std(asrs)[0]
    elapsed = train_time + (time.perf_counter() - start)
    ok = (
        means["qlearn"] >= means["fcfs"] + 0.03
        and means["qlearn"] >= means["rr"] + 0.03
        and means["qlearn"] >= means["wfq"] - 0.01
        and elapsed <= 600.0
    )
    verdict(
        6,
        ok,
        "NO.1 mean ASR "
        + " ".join(f"{k}={v:.4f}" for k, v in means.items())
        + f" (train+eval {elapsed:.0f}s)",
    )
    assert ok


@pytest.mark.slow
def test_criterion_07_training_reward_improves():
    cfg = build_config({"scenario.name": "NO.4"})
    wins = 0
    spans = []
    for master_seed in range(1, 6):
        curve = run_training(cfg, master_seed).curve
        first = mean_std([row["reward_sum"] for row in curve[:10]])[0]
        last = mean_std([row["reward_sum"] for row in curve[-10:]])[0]
        spans.append(f"{first:.0f}->{last:.0f}")
        wins += last > first
    ok = wins >= 4
    verdict(7, ok, f"episode reward rose for {wins}/5 master seeds ({', '.join(spans)})")
    assert ok


def test_criterion_08_traffic_sample_means_track_table():
    rng = random.Random(2024)
    n = 10_000
    worst = 0.0
    for name, scenario in SCENARIOS.items():
        dwell = mean_std([sample_dwell(scenario, rng) for _ in range(n)])[0]
        speed = mean_std([sample_speed(scenario, rng) for _ in range(n)])[0]
        worst = max(worst, abs(dwell - scenario.adt) / scenario.adt,
                    abs(speed - scenario.asv) / scenario.asv)
    ok = worst <= 0.05
    verdict(8, ok, f"dwell/speed means within {worst:.2%} of their table values")
    assert ok


@pytest.mark.slow
def test_criterion_09_service_ratio_degrades_with_load(trained_no1):
    _, tables, _ = trained_no1
    drops = {}
    violations = []
    for name in ("qlearn", "fcfs", "rr", "wfq"):
        t = tables if name == "qlearn" else None
        by_prob = {}
        for prob in (0.3, 0.7):
            cfg = build_config({"scenario.name": "NO.4", "sim.arrival_prob": repr(prob)})
            asrs = [
                run_evaluation(cfg, name, seed, tables=t).report.asr
                for seed in range(10)
            ]
            by_prob[prob] = mean_std(asrs)[0]
        drops[name] = f"{by_prob[0.3]:.3f}->{by_prob[0.7]:.3f}"
        if by_prob[0.7] > by_prob[0.3]:
            violations.append(name)
    ok = not violations
    verdict(
        9,
        ok,
        "ASR at arrival 0.3 vs 0.7: " + " ".join(f"{k} {v}" for k, v in drops.items()),
    )
    assert ok


def test_criterion_10_invariant_suites():
    failures = []

    # reward bounds over 1e5 random component mixes
    rng = random.Random(99)
    w = RewardWeights()
    lo, hi = math.inf, -math.inf
    for _ in range(100_000):
        r = total_reward(rng.random(), rng.random(), rng.random(), rng.random(), w)
        lo, hi = min(lo, r), max(hi, r)
    if not (-0.3 - 1e-12 <= lo and hi <= 0.7 + 1e-12):
        failures.append(f"reward bounds [{lo}, {hi}]")

    # WFQ long-run 2:1 service split within 2%
    sched = WfqScheduler([2.0, 1.0])
    counts = [0, 0]
    for task_id in range(300):
        views = [NodeView(i, 0.8, 0.8, 100.0, 0.1, 1.0) for i in (0, 1)]
        ctx = DecisionContext(100.0, views)
        counts[sched.select(ctx).node_id] += 1
    if abs(counts[0] / 300 - 2 / 3) > 0.02:
        failures.append(f"wfq split {counts}")

    # capacity stays <= 1.0 under heavy load, observed at every commit
    observed = []
    original = NodeState.commit_cpu

    def probe(self, share):
        original(self, share)
        observed.append(self.cpu_commit)

    NodeState.commit_cpu = probe
    try:
        cfg = build_config({"scenario.name": "NO.4", "scenario.duration": "120",
                            "sim.arrival_prob": "0.7"})
        for name in ("fcfs", "wfq"):
            run_episode(cfg, build_scheduler(cfg, name), 17)
    finally:
        NodeState.commit_cpu = original
    if not observed or max(observed) > 1.0 + 1e-9:
        failures.append(f"capacity peak {max(observed, default='none')!r}")

    # wastage rejects out-of-range fractions; conservation holds on a real run
    try:
        resource_wastage(1.2, 0.1, 0.1, 0.1, 0.1, 0.1)
        failures.append("wastage accepted actual_cpu=1.2")
    except Exception:
        pass
    report = run_evaluation(build_config({"scenario.name": "NO.4"}), "rr", 23).report
    if report.k_serviced + report.k_dropped != report.k_total:
        failures.append("task conservation")

    ok = not failures
    verdict(
        10,
        ok,
        "reward bounds, WFQ 2:1 split, capacity cap, conservation all hold"
        if ok
        else "; ".join(failures),
    )
    assert ok
