"""Evaluation metrics over completed runs.

Five quantities summarize a run: average processing time (APT) and average
service time (AST) over serviced tasks, service ratio (ASR), cumulative
reward (CR) over per-episode normalized criteria, and average accumulated
reward per edge node (AAP). Degenerate inputs (no tasks served, constant
criterion series) resolve to defined values.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import astuple, dataclass, field, fields

from .agent import Tier
from .errors import ValidationError


@dataclass(slots=True)
class TaskRecord:
    """Final accounting of one task's lifecycle: the one record of its
    outcome, from which the episode aggregates, AAP and the log's finish
    event are all derived."""

    task_id: int
    arrival: float
    upload: float
    wait: float
    proc: float
    completion: float
    serviced: bool
    tier: int                 # a Tier ordinal; -1 for a task dropped before placement
    node_id: int
    decision_node: int        # the node whose agent decided the task
    reward: float
    components: tuple[float, float, float, float]


@dataclass
class TaskLedger:
    """Append-only collection of task records for one evaluation."""

    records: list[TaskRecord] = field(default_factory=list)

    def append(self, record: TaskRecord) -> None:
        self.records.append(record)

    @property
    def k_total(self) -> int:
        return len(self.records)

    @property
    def k_serviced(self) -> int:
        return sum(1 for r in self.records if r.serviced)

    @property
    def k_dropped(self) -> int:
        return sum(1 for r in self.records if not r.serviced)


@dataclass(slots=True)
class EpisodeAggregate:
    """Per-episode means of the four reward criteria plus totals."""

    wastage: float
    utilization: float
    response: float
    qos: float
    reward_sum: float
    tasks: int
    serviced: int


@dataclass
class MetricsReport:
    apt: float
    ast: float
    asr: float
    cr: float
    aap: float
    k_total: int
    k_serviced: int
    k_local: int
    k_dropped: int


def episode_aggregate(ledger: TaskLedger) -> EpisodeAggregate:
    """Means of the four reward criteria and the reward total of one
    episode's ledger, each summed in record order."""
    wastage = utilization = response = qos = reward_sum = 0.0
    serviced = 0
    for r in ledger.records:
        c0, c1, c2, c3 = r.components
        wastage += c0
        utilization += c1
        response += c2
        qos += c3
        reward_sum += r.reward
        serviced += r.serviced
    tasks = len(ledger.records)
    if not tasks:
        return EpisodeAggregate(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
    return EpisodeAggregate(wastage / tasks, utilization / tasks, response / tasks,
                            qos / tasks, reward_sum, tasks, serviced)


def _normalize_series(values: list[float], invert: bool) -> list[float]:
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [1.0] * len(values)
    if invert:
        return [(hi - v) / (hi - lo) for v in values]
    return [(v - lo) / (hi - lo) for v in values]


def cumulative_reward(episodes: list[EpisodeAggregate]) -> float:
    """Sum of min-max normalized criteria accumulated over episodes.

    Wastage is inverted (lower is better) before normalization; the other
    criteria enter directly. Each episode then contributes the sum of its
    four normalized scores. Constant series normalize to 1.0; no episodes
    give 0.
    """
    if not episodes:
        return 0.0
    nw = _normalize_series([e.wastage for e in episodes], True)
    nu = _normalize_series([e.utilization for e in episodes], False)
    nr = _normalize_series([e.response for e in episodes], False)
    nq = _normalize_series([e.qos for e in episodes], False)
    cr = 0.0
    for i in range(len(episodes)):
        cr += nw[i] + nu[i] + nr[i] + nq[i]
    return cr


def build_report(
    ledger: TaskLedger,
    episodes: list[EpisodeAggregate],
    num_edges: int,
) -> MetricsReport:
    """The run's report. One pass over the ledger, in record order, counts
    serviced and local tasks, sums the serviced tasks' processing and
    service times and collects every reward. AAP, the mean accumulated
    reward per edge node, is the exact sum (math.fsum) of those rewards
    over num_edges, so record order does not change a bit of it. APT and
    AST are 0 when none was serviced, ASR when none was generated."""
    if num_edges < 1:
        raise ValidationError(f"num_edges={num_edges!r} must be >= 1")
    local = Tier.LOCAL
    serviced = k_local = 0
    proc_sum = service_sum = 0.0
    rewards = []
    for r in ledger.records:
        rewards.append(r.reward)
        if r.serviced:
            serviced += 1
            k_local += r.tier == local
            proc_sum += r.proc
            service_sum += r.proc + r.upload
    total = len(ledger.records)
    return MetricsReport(
        apt=proc_sum / serviced if serviced else 0.0,
        ast=service_sum / serviced if serviced else 0.0,
        asr=serviced / total if total else 0.0,
        cr=cumulative_reward(episodes),
        aap=math.fsum(rewards) / num_edges,
        k_total=total,
        k_serviced=serviced,
        k_local=k_local,
        k_dropped=total - serviced,
    )


RUN_CSV_COLUMNS = (
    "scheduler", "scenario", "seed", "arrival_prob", *(f.name for f in fields(MetricsReport))
)


def run_csv_row(
    report: MetricsReport,
    scheduler: str,
    scenario: str,
    seed: int,
    arrival_prob: float,
) -> list[str]:
    """One run's row of RUN_CSV_COLUMNS: the report's fields in order, each
    as its repr (a float's shortest round-trip digits, an int's digits)."""
    return [scheduler, scenario, str(seed), repr(float(arrival_prob)), *map(repr, astuple(report))]


def mean_std(values: list[float]) -> tuple[float, float]:
    """Sample mean and standard deviation (0.0 for fewer than two values)."""
    if not values:
        return 0.0, 0.0
    m = statistics.fmean(values)
    s = statistics.stdev(values) if len(values) > 1 else 0.0
    return m, s
