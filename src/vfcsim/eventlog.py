"""The event log: one newline-delimited JSON object per engine event.

An event record is one flat tuple, (kind, time, task_id, node_id, episode,
*detail), with the detail values of its kind in the sorted order of their
keys in the log:
  VehicleEnter, VehicleExit     vehicle
  TaskArrival                   deadline, demand_mips, size_bits, vehicle
  UploadDone                    tier ("fog" or "cloud")
  ExecutionDone, TaskDropped    the task's TaskRecord, the one record of
                                its outcome; the log writes from it the
                                keys arrival, components, decision_node,
                                local (tier is Tier.LOCAL), proc, reward,
                                serviced, tier, upload and wait
"""

from __future__ import annotations

from pathlib import Path

EventRecord = tuple

_JSON_BOOL = ("false", "true")


def _format_event(e: EventRecord) -> str:
    """One event-log line, byte-identical to json.dumps of the nested event
    dict with sort_keys=True and separators (",", ":"): the outer keys are
    detail, kind, node_id, task_id, time, and episode sorts among the
    detail keys. Finite floats and ints print as their repr, as in json."""
    kind = e[0]
    if kind == "TaskArrival":
        _, t, task_id, node_id, ep, deadline, demand, size, vehicle = e
        detail = (f'"deadline":{deadline!r},"demand_mips":{demand!r},"episode":{ep!r},'
                  f'"size_bits":{size!r},"vehicle":{vehicle!r}')
    elif kind == "UploadDone":
        _, t, task_id, node_id, ep, tier = e
        detail = f'"episode":{ep!r},"tier":"{tier}"'
    elif kind == "ExecutionDone" or kind == "TaskDropped":
        _, t, task_id, node_id, ep, r = e
        c0, c1, c2, c3 = r.components
        detail = (f'"arrival":{r.arrival!r},"components":[{c0!r},{c1!r},{c2!r},{c3!r}],'
                  f'"decision_node":{r.decision_node!r},"episode":{ep!r},'
                  f'"local":{_JSON_BOOL[r.tier == 0]},"proc":{r.proc!r},'
                  f'"reward":{r.reward!r},"serviced":{_JSON_BOOL[r.serviced]},'
                  f'"tier":{r.tier!r},"upload":{r.upload!r},"wait":{r.wait!r}')
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
