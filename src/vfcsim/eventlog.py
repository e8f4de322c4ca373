"""The event log: one newline-delimited JSON object per engine event.

An event record is either a flat tuple, (kind, time, task_id, node_id,
episode, *detail), with the detail values of its kind in the sorted order
of their keys in the log:
  VehicleEnter, VehicleExit     vehicle
  TaskArrival                   deadline, demand_mips, size_bits, vehicle
  UploadDone                    tier ("fog" or "cloud")
or, for an ExecutionDone or TaskDropped event, the task's TaskRecord
itself, the one record of its outcome, which the ledger holds too. The
log writes it with the kind ExecutionDone when serviced, else
TaskDropped, its completion as the time, its task_id, node_id and
episode, and the detail keys arrival, components, decision_node, local
(tier is Tier.LOCAL), proc, reward, serviced, tier, upload and wait.
"""

from __future__ import annotations

from pathlib import Path

from .metrics import TaskRecord

EventRecord = tuple | TaskRecord

_JSON_BOOL = ("false", "true")


def _format_event(e: EventRecord) -> str:
    """One event-log line, byte-identical to json.dumps of the nested event
    dict with sort_keys=True and separators (",", ":"): the outer keys are
    detail, kind, node_id, task_id, time, and episode sorts among the
    detail keys. Finite floats and ints print as their repr, as in json."""
    if e.__class__ is TaskRecord:
        c0, c1, c2, c3 = e.components
        kind = "ExecutionDone" if e.serviced else "TaskDropped"
        t, task_id, node_id = e.completion, e.task_id, e.node_id
        detail = (f'"arrival":{e.arrival!r},"components":[{c0!r},{c1!r},{c2!r},{c3!r}],'
                  f'"decision_node":{e.decision_node!r},"episode":{e.episode!r},'
                  f'"local":{_JSON_BOOL[e.tier == 0]},"proc":{e.proc!r},'
                  f'"reward":{e.reward!r},"serviced":{_JSON_BOOL[e.serviced]},'
                  f'"tier":{e.tier!r},"upload":{e.upload!r},"wait":{e.wait!r}')
    else:
        kind = e[0]
        if kind == "TaskArrival":
            _, t, task_id, node_id, ep, deadline, demand, size, vehicle = e
            detail = (f'"deadline":{deadline!r},"demand_mips":{demand!r},"episode":{ep!r},'
                      f'"size_bits":{size!r},"vehicle":{vehicle!r}')
        elif kind == "UploadDone":
            _, t, task_id, node_id, ep, tier = e
            detail = f'"episode":{ep!r},"tier":"{tier}"'
        else:  # VehicleEnter, VehicleExit
            _, t, task_id, node_id, ep, vehicle = e
            detail = f'"episode":{ep!r},"vehicle":{vehicle!r}'
    line = (f'{{"detail":{{{detail}}},"kind":"{kind}","node_id":{node_id!r},'
            f'"task_id":{task_id!r},"time":{t!r}}}\n')
    if "inf" in line or "nan" in line:
        # repr spells non-finite floats inf, -inf and nan where json writes
        # Infinity, -Infinity and NaN; no key, kind or tier contains either
        line = line.replace("inf", "Infinity").replace("nan", "NaN")
    return line


def write_event_log(events: list[EventRecord], path: str | Path) -> None:
    """Newline-delimited JSON, one event per line, stable key order."""
    path = Path(path)
    with path.open("w") as fh:
        fh.writelines(map(_format_event, events))
