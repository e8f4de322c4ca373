"""Spans around the calls the benchmark makes into vfcsim's modules.

The wrappers are installed from outside the package: they replace the
names the engine and schedulers look up at call time (for example
``vfcsim.engine.update_q_value``), so no file under ``src/`` changes and
removing them restores the untraced program.

Per-call layers (scheduler select, Q update, state encoding, link, reward
and ledger calls) run tens of thousands of times per episode, so they are
kept as per-name count / total / self-time aggregates rather than as
individual spans; a full span list would grow the traced process by
hundreds of megabytes on the loaded NO.4 workload. Coarse layers (episode,
vehicle sampling, report, event log, set-up) are kept as full spans with a
name, start, end, parent and episode id. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import time

# names the engine imports from vfcsim.rewards, plus quality(), which
# qos_reward() looks up in its own module
REWARD_FUNCTIONS = (
    "resource_wastage",
    "resource_utilization",
    "response_time_reward",
    "qos_reward",
    "total_reward",
)
LINK_FUNCTIONS = ("shannon_rate", "snr_at_distance")

AGGREGATE_NOTE = (
    "per-call layers are kept as count/total/self aggregates, not as spans, "
    "so that tracing does not grow memory with the number of calls"
)


class Tracer:
    """In-memory span recorder with exact self-time accounting."""

    def __init__(self):
        self.stack: list[list] = []        # open frames: [child_seconds, span_index]
        self.aggregates: dict[str, list] = {}  # name -> [calls, total_s, self_s, non_none]
        self.spans: list[list] = []        # [name, start, end, parent_index, episode]
        self.episode = -1
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, keep_spans: bool):
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = -1
            if keep_spans:
                index = len(spans)
                spans.append([name, clock(), 0.0, self._open_span(), self.episode])
            frame = [0.0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if index >= 0:
                    spans[index][2] = t1
            if result is not None:
                agg[3] += 1
            return result

        return traced

    def _open_span(self) -> int:
        for frame in reversed(self.stack):
            if frame[1] >= 0:
                return frame[1]
        return -1

    def patch(self, owner, attr: str, name: str, keep_spans: bool = False) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, original, keep_spans))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_aggregates(self) -> dict[str, tuple]:
        """Aggregates since the last call; counters restart at zero."""
        out = {name: tuple(agg) for name, agg in self.aggregates.items()}
        for agg in self.aggregates.values():
            agg[:] = [0, 0.0, 0.0, 0]
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "episode": s[4]}
            for i, s in enumerate(self.spans)
        ]


def install(tracer: Tracer, vf, recorder) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    eng = vf.engine
    tracer.patch(vf.config, "build_config", "config.build_config", keep_spans=True)
    tracer.patch(eng, "load_tables", "engine.load_tables", keep_spans=True)
    tracer.patch(eng, "write_event_log", "engine.write_event_log", keep_spans=True)
    tracer.patch(eng, "build_report", "metrics.build_report", keep_spans=True)
    tracer.patch(eng, "sample_vehicles", "traffic.sample_vehicles", keep_spans=True)
    # the recorder times and digests each episode around this span
    tracer.patch(recorder, "inner", "engine.run_episode", keep_spans=True)
    tracer.patch(eng, "snapshot_ordinal", "state_space.snapshot_ordinal")
    tracer.patch(eng, "update_q_value", "agent.update_q_value")
    tracer.patch(vf.schedulers, "select_action", "agent.select_action")
    for fn in LINK_FUNCTIONS:
        tracer.patch(eng, fn, f"link.{fn}")
    for fn in REWARD_FUNCTIONS:
        tracer.patch(eng, fn, f"rewards.{fn}")
    tracer.patch(vf.rewards, "quality", "rewards.quality")
    for cls in _scheduler_classes(vf.schedulers.Scheduler):
        tracer.patch(cls, "select", "schedulers.select")
    tracer.patch(vf.metrics.TaskLedger, "append", "metrics.ledger_append")
    recorder.tracer = tracer


def _scheduler_classes(base) -> list[type]:
    found = []
    for cls in base.__subclasses__():
        if "select" in cls.__dict__:
            found.append(cls)
        found.extend(_scheduler_classes(cls))
    return found


def layer_metrics(agg: dict[str, tuple], tasks: int) -> dict[str, float]:
    """Per-layer metrics of one traced repeat of a workload."""

    def calls(*names: str) -> int:
        return sum(agg[n][0] for n in names if n in agg)

    def self_s(*names: str) -> float:
        return sum(agg[n][2] for n in names if n in agg)

    links = [f"link.{fn}" for fn in LINK_FUNCTIONS]
    rewards = [f"rewards.{fn}" for fn in REWARD_FUNCTIONS] + ["rewards.quality"]
    selects = calls("schedulers.select")
    placed = agg["schedulers.select"][3] if "schedulers.select" in agg else 0
    engine_self = self_s("engine.run_episode")
    return {
        "engine.self_s": engine_self,
        "engine.self_s_per_task": engine_self / tasks if tasks else 0.0,
        "schedulers.select.calls": selects,
        "schedulers.select.self_s": self_s("schedulers.select"),
        "schedulers.placed_ratio": placed / selects if selects else 0.0,
        "link.calls": calls(*links),
        "link.self_s": self_s(*links),
        "state_space.snapshot_ordinal.calls": calls("state_space.snapshot_ordinal"),
        "state_space.snapshot_ordinal.self_s": self_s("state_space.snapshot_ordinal"),
        "agent.update_q_value.calls": calls("agent.update_q_value"),
        "agent.update_q_value.self_s": self_s("agent.update_q_value"),
        "agent.select_action.calls": calls("agent.select_action"),
        "agent.select_action.self_s": self_s("agent.select_action"),
        "rewards.calls": calls(*rewards),
        "rewards.self_s": self_s(*rewards),
        "metrics.ledger_append.calls": calls("metrics.ledger_append"),
        "metrics.ledger_append.self_s": self_s("metrics.ledger_append"),
        "metrics.build_report.self_s": self_s("metrics.build_report"),
        "engine.write_event_log.self_s": self_s("engine.write_event_log"),
        "traffic.sample_vehicles.calls": calls("traffic.sample_vehicles"),
        "traffic.sample_vehicles.self_s": self_s("traffic.sample_vehicles"),
    }
