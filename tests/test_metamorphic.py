"""Metamorphic relations: more capacity or looser deadlines must not lower
the service ratio.

Each case evaluates one scheduler on NO.1 at defaults and again with one
input relaxed, on the same master seeds, and asserts that ASR does not
fall on any seed. Greedy qlearn evaluates the tables of a 5-episode NO.1
training under master seed 1. A (relation, scheduler) pair that the
model breaks today is a strict xfail whose reason names the ROADMAP item
that should repair it, so a repair surfaces as an XPASS.
"""

import functools

import pytest

from vfcsim.config import build_config
from vfcsim.engine import SCHEDULER_NAMES, run_evaluation, run_training

# 103 is the only one of these seeds on which qlearn's fog-CPU relation falls
SEEDS = (100, 101, 102, 103)

RELATIONS = {
    "cloud-cpu-x2": {"sim.cloud_cpu_hz": "2e10"},
    "wired-x2": {"link.wired_rate_bps": "1e8"},
    "fog-cpu-x2": {"sim.node_cpu_min_hz": "6e9", "sim.node_cpu_max_hz": "2e10"},
    "deadlines-x2": {"sim.task_deadline_s_min": "10", "sim.task_deadline_s_max": "20"},
    "idler-fog": {"sim.node_cpu_init": "0.05"},
}

# More capacity lets more tasks fit a fog node, where a grant that is not
# reserved and a queue that cannot finish drop them.
FOG_ADMISSION = "ROADMAP item 3: fog admission turns added capacity into drops"
# An unwritten row's argmax is action 0 (local, small bundle); a relaxed
# input leads the greedy policy onto more rows that training never wrote.
UNTRAINED_ROWS = "ROADMAP item 10: greedy qlearn goes local on rows it never trained"

FALLS = {
    **{(relation, name): FOG_ADMISSION
       for relation in ("fog-cpu-x2", "deadlines-x2", "idler-fog")
       for name in ("fcfs", "rr", "wfq")},
    **{(relation, "qlearn"): UNTRAINED_ROWS
       for relation in ("cloud-cpu-x2", "fog-cpu-x2", "idler-fog")},
}


@pytest.fixture(scope="module")
def asr():
    """ASR of one evaluation of a scheduler under a relation (None: the
    defaults) on a master seed, each computed once for the module."""
    tables = run_training(build_config({"agent.episodes": "5"}), 1).tables

    @functools.cache
    def evaluate(name, relation, seed):
        cfg = build_config(RELATIONS[relation] if relation else {})
        return run_evaluation(cfg, name, seed, tables if name == "qlearn" else None).report.asr

    return evaluate


@pytest.mark.parametrize("relation, name", [
    pytest.param(relation, name, id=f"{relation}-{name}",
                 marks=[pytest.mark.xfail(strict=True, reason=FALLS[relation, name])]
                 if (relation, name) in FALLS else [])
    for relation in RELATIONS
    for name in SCHEDULER_NAMES
])
def test_relaxed_input_does_not_lower_service(asr, relation, name):
    for seed in SEEDS:
        before = asr(name, None, seed)
        after = asr(name, relation, seed)
        assert after >= before, f"seed {seed}: ASR fell from {before!r} to {after!r}"
