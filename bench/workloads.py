"""The benchmark's workloads and the per-episode recorder that checks them.

Every workload is a fixed unit of work made from the workload seed. The
closed loop in run.py repeats that unit, each repeat starting when the
previous one returns, so every repeat must produce the same ledger
digest. Why each workload exists:

train-no1
    run_training on NO.1 at the defaults (9 fog nodes, arrival_prob 0.05,
    epsilon-greedy, fixed alpha), 10 episodes per repeat. The only
    workload that writes Q-tables: it encodes state twice per task and
    calls update_q_value once per task, so the state_space and agent
    layers do most of their work here.
eval-grid144
    run_evaluation of fcfs, rr and wfq on NO.1 traffic with 144 fog nodes
    over 12 km (the default node density and 500 m V2I range). Each
    arrival scans every node and builds one NodeView per node, and each
    scheduler loops over all the views, so the engine arrival path and
    the schedulers dominate. state_space, agent and the event log are not
    used at all: a change to those layers should show no change here.
eval-no4-loaded
    the `vfcsim eval` path on NO.4 at arrival_prob 0.7 with 9 nodes, fcfs
    and greedy qlearn, with the event log collected and written through
    write_event_log. Fog queues saturate (fcfs services ~20% of ~30k
    tasks per episode), so queue draining runs constantly; the ledger,
    build_report and event-log building and serialisation are heaviest
    here and drive peak memory. The node scan is light (9 nodes) and the
    Q layer is used read-only, from a checkpoint the benchmark trains
    (untimed, under master seed 0) before its first run.

Each eval workload runs every scheduler on the same three seeds per repeat.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

# A ledger row as digested: task_id, arrival, upload, wait, proc,
# completion, serviced, tier, node_id, reward and the four reward
# components, packed exactly. TaskRecord.local is left out because it is
# derived from tier.
_ROW = struct.Struct("<q5d?2qd4d")
TIER_NAMES = ("local", "fog", "cloud")  # Tier ordinals 0, 1, 2

# The qlearn fixture is trained under master seed 0. Evaluation seed m
# replays the traffic of training episode 0 under master m
# (derive_seed(m, 0) = m * 1000003), so evaluation seeds start at 1.
FIXTURE_MASTER_SEED = 0
FIXTURE_EPISODES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict[str, str]
    schedulers: tuple[str, ...]   # empty for training
    event_log: bool = False
    fixture: bool = False
    # Evaluation seeds per scheduler in a repeat. Task counts differ by
    # about 12% between single seeds (quartile spread over ten), so a
    # repeat averages over several.
    seeds_per_repeat: int = 3

    def eval_seeds(self, seed: int) -> list[int]:
        k = self.seeds_per_repeat
        return [seed * k + i + 1 for i in range(k)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-no1", {"agent.episodes": "10"}, ()),
        Workload(
            "eval-grid144",
            {"sim.fog_nodes": "144", "sim.area_m": "12000"},
            ("fcfs", "rr", "wfq"),
        ),
        Workload(
            "eval-no4-loaded",
            {"scenario.name": "NO.4", "sim.arrival_prob": "0.7"},
            ("fcfs", "qlearn"), event_log=True, fixture=True,
        ),
    )
}


@dataclass
class RepeatCounts:
    tasks: int = 0
    serviced: int = 0
    dropped: int = 0
    tiers: dict[str, int] = field(default_factory=lambda: dict.fromkeys(TIER_NAMES, 0))
    events_logged: int = 0
    event_log_bytes: int = 0
    qtable_entries: int = 0

    def exact(self) -> dict[str, int]:
        out = {
            "engine.tasks": self.tasks,
            "engine.serviced": self.serviced,
            "engine.dropped": self.dropped,
        }
        out.update({f"engine.tier.{t}": n for t, n in self.tiers.items()})
        return out


class EpisodeRecorder:
    """Stands in for vfcsim.engine.run_episode: times each episode, then,
    outside the timed interval, checks and digests its ledger and runs the
    host-speed probe."""

    def __init__(self, inner, probe):
        self.inner = inner
        self.probe = probe
        self.tracer = None
        self.episode_s: list[float] = []
        self.probe_after: list[int] = []   # probe index taken after each episode
        self.episodes = 0
        self.overhead_s = 0.0
        self.errors: list[str] = []
        self._digest = hashlib.sha256()
        self.counts = RepeatCounts()

    def probe_now(self) -> int:
        """Run the host-speed probe, counting its time as overhead."""
        t0 = time.perf_counter()
        index = self.probe.probe()
        self.overhead_s += time.perf_counter() - t0
        return index

    def begin_repeat(self) -> None:
        self._digest = hashlib.sha256()
        self.counts = RepeatCounts()

    def digest(self) -> str:
        return self._digest.hexdigest()

    def __call__(self, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.episode = self.episodes
        self.episodes += 1
        t0 = time.perf_counter()
        result = self.inner(*args, **kwargs)
        t1 = time.perf_counter()
        self.episode_s.append(t1 - t0)
        self._account(result.ledger)
        self.probe_after.append(self.probe.probe())
        self.overhead_s += time.perf_counter() - t1
        return result

    def _account(self, ledger) -> None:
        total, serviced, dropped = ledger.k_total, ledger.k_serviced, ledger.k_dropped
        if serviced + dropped != total:
            self.errors.append(f"episode {self.episodes - 1}: {serviced}+{dropped} != {total} tasks")
        tiers = [0, 0, 0]
        pack = _ROW.pack
        rows = []
        for r in ledger.records:
            rows.append(pack(
                r.task_id, r.arrival, r.upload, r.wait, r.proc, r.completion,
                r.serviced, r.tier, r.node_id, r.reward, *r.components,
            ))
            if r.serviced and r.tier in (0, 1, 2):
                tiers[r.tier] += 1
        self._digest.update(b"".join(rows))
        if sum(tiers) != serviced:
            self.errors.append(
                f"episode {self.episodes - 1}: tier counts {tiers} do not sum to {serviced} serviced"
            )
        c = self.counts
        c.tasks += total
        c.serviced += serviced
        c.dropped += dropped
        for name, n in zip(TIER_NAMES, tiers):
            c.tiers[name] += n


@dataclass
class Run:
    """One invocation's state: the imported package, its config, the
    fixture tables and the counters the workload bodies update."""

    workload: Workload
    vf: object
    cfg: object
    tables: dict | None
    seed: int
    scratch: Path
    recorder: EpisodeRecorder
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # host seconds of each (scheduler, seed) evaluation in the current
    # repeat, event-log writing included, recorder overhead excluded, and
    # the index of the probe taken after it
    segment_s: list[float] = field(default_factory=list)
    segment_probe: list[int] = field(default_factory=list)

    def body(self) -> None:
        if self.workload.schedulers:
            self._evaluate_all()
        else:
            self._train()

    def _train(self) -> None:
        rec = self.recorder
        before = rec.episodes
        try:
            result = self.vf.engine.run_training(self.cfg, self.seed)
        except (self.vf.ValidationError, RuntimeError) as exc:
            self.failed += 1
            self.failures.append(f"run_training: {exc}")
            return
        finally:
            self.attempted += rec.episodes - before
        rec.counts.qtable_entries = sum(len(t) for t in result.tables.values())

    def _evaluate_all(self) -> None:
        eng = self.vf.engine
        counts = self.recorder.counts
        if self.tables is not None:
            counts.qtable_entries = sum(len(t) for t in self.tables.values())
        rec = self.recorder
        for scheduler in self.workload.schedulers:
            for seed in self.workload.eval_seeds(self.seed):
                self.attempted += 1
                path = self.scratch / f"events_{scheduler}_seed{seed}.ndjson"
                overhead = rec.overhead_s
                t0 = time.perf_counter()
                try:
                    result = eng.run_evaluation(
                        self.cfg, scheduler, seed,
                        tables=self.tables if scheduler == "qlearn" else None,
                        collect_events=self.workload.event_log,
                    )
                    if self.workload.event_log:
                        eng.write_event_log(result.events, path)
                except (self.vf.ValidationError, RuntimeError) as exc:
                    self.failed += 1
                    self.failures.append(f"{scheduler} seed {seed}: {exc}")
                    continue
                finally:
                    self.segment_s.append(time.perf_counter() - t0 - (rec.overhead_s - overhead))
                    self.segment_probe.append(rec.probe_now())
                if result.report.k_total != result.ledger.k_total:
                    rec.errors.append(
                        f"{scheduler} seed {seed}: report counts {result.report.k_total} "
                        f"tasks, ledger {result.ledger.k_total}"
                    )
                if self.workload.event_log:
                    counts.events_logged += len(result.events)
                    counts.event_log_bytes += path.stat().st_size
                    path.unlink()  # drop the dirty pages instead of writing them back later
                # release the event list before the next run allocates its own
                result = None


def fixture_checkpoint(vf, workload: Workload, cache: Path, scratch: Path) -> tuple[Path, str]:
    """The qlearn checkpoint the workload loads, and its digest.

    Training takes several seconds, so the checkpoint is kept under
    `cache`, keyed by the vfcsim sources and the training settings, and
    trained again only when either changes.
    """
    overrides = dict(workload.overrides, **{"agent.episodes": str(FIXTURE_EPISODES)})
    key = hashlib.sha256(repr((sorted(overrides.items()), FIXTURE_MASTER_SEED)).encode())
    for path in sorted(Path(vf.__file__).parent.glob("*.py")):
        key.update(path.name.encode() + b"\0" + path.read_bytes())
    directory = cache / f"fixture-{key.hexdigest()[:16]}"
    if not directory.is_dir():
        trained = scratch / "checkpoint"
        vf.run_training(vf.build_config(overrides), FIXTURE_MASTER_SEED, checkpoint_dir=trained)
        trained.rename(directory)
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return directory, digest.hexdigest()
