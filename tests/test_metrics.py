"""Metric worked examples and report assembly tests."""

import random

import pytest

from vfcsim.errors import ValidationError
from vfcsim.metrics import (
    RUN_CSV_COLUMNS,
    EpisodeAggregate,
    TaskLedger,
    TaskRecord,
    build_report,
    cumulative_reward,
    episode_aggregate,
    mean_std,
    run_csv_row,
)


def record(task_id=0, proc=1.0, upload=0.0, wait=0.0, serviced=True, local=False,
           reward=0.1, arrival=0.0, decision_node=0, completion=None,
           components=(0.0, 0.5, 0.5, 0.5)):
    if completion is None:
        completion = arrival + upload + wait + proc if serviced else arrival
    return TaskRecord(
        task_id=task_id,
        arrival=arrival,
        upload=upload if serviced else 0.0,
        wait=wait if serviced else 0.0,
        proc=proc if serviced else 0.0,
        completion=completion,
        serviced=serviced,
        tier=0 if local else 1,
        node_id=-1 if local else 0,
        decision_node=decision_node,
        reward=reward,
        components=components,
    )


def ledger_of(*records):
    led = TaskLedger()
    for r in records:
        led.append(r)
    return led


def aggregate(wastage=0.1, utilization=0.5, response=0.5, qos=0.5, reward_sum=1.0,
              tasks=10, serviced=8):
    return EpisodeAggregate(wastage, utilization, response, qos, reward_sum, tasks, serviced)


# -- simple means ------------------------------------------------------------

def report_of(*records):
    """The report of a one-episode run over these records."""
    led = ledger_of(*records)
    return build_report(led, [episode_aggregate(led)], 9)


def test_apt_mean_of_serviced_processing():
    assert report_of(record(0, proc=2.0), record(1, proc=4.0)).apt == 3.0


def test_apt_ignores_dropped():
    assert report_of(record(0, proc=2.0), record(1, proc=99.0, serviced=False)).apt == 2.0


def test_apt_empty_is_zero():
    # no serviced task: both means fall back to 0, the ratio is a true 0
    report = report_of(record(0, serviced=False))
    assert (report.apt, report.ast, report.asr) == (0.0, 0.0, 0.0)
    assert (report.k_total, report.k_serviced, report.k_dropped) == (1, 0, 1)


def test_ast_adds_upload_leg():
    report = report_of(record(0, proc=2.0, upload=1.0), record(1, proc=4.0, upload=1.0))
    assert report.ast == 4.0


def test_ast_equals_apt_when_all_local():
    report = report_of(record(0, proc=2.0, local=True), record(1, proc=3.0, local=True))
    assert report.ast == report.apt == 2.5


def test_asr_worked_example():
    records = [record(i) for i in range(78)]
    records += [record(78 + i, serviced=False) for i in range(22)]
    report = report_of(*records)
    assert report.asr == pytest.approx(0.78, abs=1e-12)
    assert report.k_total == 100
    assert report.k_serviced == 78
    assert report.k_dropped == 22


def test_asr_empty_is_zero():
    assert build_report(TaskLedger(), [], 9).asr == 0.0


def test_metrics_permutation_invariant():
    rng = random.Random(13)
    records = [record(i, proc=rng.uniform(1, 5), upload=rng.uniform(0, 2),
                      serviced=rng.random() < 0.8, reward=rng.uniform(-1, 1),
                      decision_node=rng.randrange(9), completion=rng.uniform(0, 300))
               for i in range(200)]
    shuffled = records[:]
    rng.shuffle(shuffled)
    report, report2 = report_of(*records), report_of(*shuffled)
    assert report.apt == pytest.approx(report2.apt, rel=1e-12)
    assert report.ast == pytest.approx(report2.ast, rel=1e-12)
    assert report.asr == report2.asr
    assert report.aap == report2.aap


# -- cumulative reward ----------------------------------------------------------

def test_cr_empty_is_zero():
    assert cumulative_reward([]) == 0.0


def test_cr_single_episode_all_constant():
    assert cumulative_reward([aggregate()]) == 4.0


def test_cr_identical_episodes_double():
    one = cumulative_reward([aggregate()])
    two = cumulative_reward([aggregate(), aggregate()])
    assert two == 2.0 * one == 8.0


def test_cr_two_episode_split():
    # episode B dominates on every criterion (less wastage included)
    a = aggregate(wastage=0.4, utilization=0.2, response=0.3, qos=0.1)
    b = aggregate(wastage=0.1, utilization=0.9, response=0.8, qos=0.7)
    # each criterion normalizes to {0, 1} across the two episodes
    assert cumulative_reward([a, b]) == pytest.approx(4.0, abs=1e-12)


def test_cr_wastage_inverted():
    # only wastage varies: the thriftier episode scores 1
    a = aggregate(wastage=0.5)
    b = aggregate(wastage=0.1)
    # three constant criteria contribute 1.0 to both episodes
    assert cumulative_reward([a, b]) == pytest.approx(3.0 + 3.0 + 1.0, abs=1e-12)


def test_cr_interpolates_middle_episode():
    mid = aggregate(utilization=0.5, wastage=0.3, response=0.5, qos=0.5)
    lo = aggregate(utilization=0.0, wastage=0.3, response=0.5, qos=0.5)
    hi = aggregate(utilization=1.0, wastage=0.3, response=0.5, qos=0.5)
    # utilization contributes 0, 0.5, 1; constants contribute 3 each
    assert cumulative_reward([lo, mid, hi]) == pytest.approx(9.0 + 1.5, abs=1e-12)


# -- episode aggregates ---------------------------------------------------------------

def test_episode_aggregate_means_and_totals():
    led = ledger_of(record(0, reward=0.5, components=(0.0, 0.2, 0.4, 0.6)),
                    record(1, reward=-1.0, serviced=False, components=(1.0, 0.0, 0.0, 0.0)))
    assert episode_aggregate(led) == EpisodeAggregate(0.5, 0.1, 0.2, 0.3, -0.5, 2, 1)


def test_episode_aggregate_empty():
    assert episode_aggregate(TaskLedger()) == EpisodeAggregate(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)


# -- edge rewards -------------------------------------------------------------------

def report_aap(led, num_edges):
    return build_report(led, [episode_aggregate(led)], num_edges).aap


def test_build_report_aap_worked_example():
    led = ledger_of(record(0, reward=1.0, completion=0.5),
                    record(1, reward=2.0, completion=1.5),
                    record(2, reward=3.0, completion=2.5))
    assert report_aap(led, 1) == 6.0


def test_build_report_aap_mean_over_edges():
    led = ledger_of(record(0, reward=1.0, decision_node=0),
                    record(1, reward=1.0, decision_node=1))
    assert report_aap(led, 2) == 1.0


def test_build_report_aap_sums_exactly():
    # (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit; the
    # exact sum rounds once, whatever the order
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    for rewards in ([0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [0.2, 0.1, 0.3]):
        led = ledger_of(*[record(i, reward=r) for i, r in enumerate(rewards)])
        assert report_aap(led, 1) == 0.6


def test_build_report_aap_can_be_negative():
    led = ledger_of(record(0, reward=-0.3, serviced=False))
    assert report_aap(led, 3) == pytest.approx(-0.1, abs=1e-12)


def test_build_report_requires_edges():
    with pytest.raises(ValidationError, match="num_edges"):
        build_report(TaskLedger(), [], 0)


# -- report assembly ------------------------------------------------------------------

def test_build_report_counts():
    led = ledger_of(record(0, local=True), record(1, serviced=False))
    report = build_report(led, [episode_aggregate(led)], 9)
    assert report.k_total == 2
    assert report.k_serviced == 1
    assert report.k_local == 1
    assert report.k_dropped == 1
    assert report.asr == 0.5


def test_build_report_empty_run():
    report = build_report(TaskLedger(), [], 9)
    assert report.apt == 0.0
    assert report.ast == 0.0
    assert report.asr == 0.0
    assert report.cr == 0.0
    assert report.aap == 0.0


class IterationCountingList(list):
    def __init__(self, items):
        super().__init__(items)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_build_report_iterates_the_ledger_once():
    # the counts, the means and AAP's rewards come from one pass
    led = ledger_of(record(0, local=True), record(1, upload=1.0), record(2, serviced=False))
    episodes = [episode_aggregate(led)]
    led.records = IterationCountingList(led.records)
    report = build_report(led, episodes, 9)
    assert led.records.iterations == 1
    assert (report.k_total, report.k_serviced, report.k_local, report.k_dropped) == (3, 2, 1, 1)


def test_run_csv_row_shape():
    led = ledger_of(record(0, proc=2.0))
    report = build_report(led, [episode_aggregate(led)], 9)
    row = run_csv_row(report, "fcfs", "NO.1", 7, 0.05)
    assert len(row) == len(RUN_CSV_COLUMNS) == 13
    assert row[0] == "fcfs"
    assert row[2] == "7"
    assert row[3] == repr(0.05)
    assert row[4] == repr(report.apt)
    assert row[9] == "1"


def test_mean_std():
    m, s = mean_std([2.0, 4.0])
    assert m == 3.0
    assert s == pytest.approx(1.4142135623730951)
    m, s = mean_std([5.0])
    assert (m, s) == (5.0, 0.0)
