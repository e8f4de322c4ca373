"""Brute-force reference implementations used by the unit and acceptance tests.

Nothing here imports from the scheduler or engine internals; the point is to
have independent arithmetic to compare against.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path

from vfcsim.agent import (
    HyperParams,
    QTable,
    Tier,
    select_action,
    update_q_value,
)
from vfcsim.errors import ValidationError
from vfcsim.state_space import (
    AppType,
    DiscreteState,
    Level,
    ResponseLevel,
    SlaLevel,
    StateSpaceConfig,
    snapshot_ordinal,
    state_from_index,
)


# (tier, bundle index) of every action ordinal, written out tier-major:
# three bundles per tier, small to large
ACTION_GRID = tuple((tier, bundle) for tier in Tier for bundle in (0, 1, 2))


def action_from_ordinal(ordinal: int) -> tuple[Tier, int]:
    if not (0 <= ordinal < len(ACTION_GRID)):
        raise ValidationError(f"action ordinal {ordinal!r} outside [0, {len(ACTION_GRID)})")
    return ACTION_GRID[ordinal]


def qtable_row(q: QTable, state: int) -> list[float]:
    """Every action value of one state, unwritten entries as 0.0."""
    return [q.get(state, a) for a in range(q.num_actions)]


def qtable_max_value(q: QTable, state: int) -> float:
    """The largest action value of one state, unwritten entries as 0.0."""
    return max(qtable_row(q, state))


def greedy_policy(q: QTable) -> dict[int, int]:
    """Greedy action ordinal for every state with at least one written entry.

    States absent from the map fall back to action ordinal 0, matching
    argmax over an all-zero row.
    """
    states = {s for (s, _a), _v in q.items()}
    return {s: q.argmax_action(s) for s in sorted(states)}


class DictQTable:
    """Reference Q-table: one dict entry per written (state, action) pair,
    unwritten entries reading as 0.0, the argmax scanning the row in
    ordinal order with a strict comparison so ties go to the lowest
    ordinal. Same validation and file format as vfcsim.agent.QTable."""

    def __init__(self, num_states: int, num_actions: int):
        self.num_states = num_states
        self.num_actions = num_actions
        self.values: dict[tuple[int, int], float] = {}

    def get(self, state: int, action: int) -> float:
        return self.values.get((state, action), 0.0)

    def set(self, state: int, action: int, value: float) -> None:
        if not (0 <= state < self.num_states and 0 <= action < self.num_actions):
            raise ValidationError(f"({state!r}, {action!r}) outside the table")
        if not math.isfinite(value):
            raise ValidationError(f"q value must be finite, got {value!r}")
        self.values[(state, action)] = value

    def argmax_action(self, state: int) -> int:
        best_a = 0
        best_v = self.get(state, 0)
        for a in range(1, self.num_actions):
            v = self.get(state, a)
            if v > best_v:
                best_v = v
                best_a = a
        return best_a

    def max_value(self, state: int) -> float:
        return self.get(state, self.argmax_action(state))

    def __len__(self) -> int:
        return len(self.values)

    def save(self, path: str | Path) -> None:
        lines = [f"# vfcsim qtable v1 num_states={self.num_states} num_actions={self.num_actions}\n"]
        for (s, a) in sorted(self.values):
            lines.append(f"{s}\t{a}\t{self.values[(s, a)]!r}\n")
        Path(path).write_text("".join(lines))


# detail keys of each event kind, in the order the engine's flat event
# record carries their values after (kind, time, task_id, node_id, episode);
# a finish event carries one TaskRecord instead, read as these values
_FINISH_KEYS = ("arrival", "components", "decision_node", "local", "proc", "reward",
                "serviced", "tier", "upload", "wait")
EVENT_DETAIL_KEYS = {
    "VehicleEnter": ("vehicle",),
    "VehicleExit": ("vehicle",),
    "TaskArrival": ("deadline", "demand_mips", "size_bits", "vehicle"),
    "UploadDone": ("tier",),
    "ExecutionDone": _FINISH_KEYS,
    "TaskDropped": _FINISH_KEYS,
}


def event_dict(record: tuple) -> dict:
    """The nested event dict of one engine event record: the outer keys
    time, kind, task_id, node_id and detail, with episode among the detail
    keys and components as a list, as the event log spells them."""
    kind, time, task_id, node_id, episode, *values = record
    if kind in ("ExecutionDone", "TaskDropped"):
        (r,) = values
        values = (r.arrival, r.components, r.decision_node, r.tier == 0, r.proc, r.reward,
                  r.serviced, r.tier, r.upload, r.wait)
    detail = dict(zip(EVENT_DETAIL_KEYS[kind], values, strict=True))
    detail["episode"] = episode
    if "components" in detail:
        detail["components"] = list(detail["components"])
    return {"time": time, "kind": kind, "task_id": task_id, "node_id": node_id, "detail": detail}


class ToyMdp:
    """Small deterministic MDP with known transitions and rewards.

    Action 0 advances around a ring of ``n`` states, action 1 steps back
    toward state 0. Rewards depend on the departing state so the two
    actions have distinct values everywhere.
    """

    def __init__(self, n: int = 5, gamma: float = 0.9):
        self.n = n
        self.gamma = gamma

    def step(self, state: int, action: int) -> tuple[int, float]:
        if action == 0:
            nxt = (state + 1) % self.n
            reward = 0.05 * (state + 1)
        else:
            nxt = max(state - 1, 0)
            reward = 0.02 * state + 0.01
        return nxt, reward


def value_iteration(mdp: ToyMdp, tol: float = 1e-13) -> list[list[float]]:
    """Dense Q* via repeated Bellman backups until the sup-norm change is tiny."""
    q = [[0.0, 0.0] for _ in range(mdp.n)]
    while True:
        delta = 0.0
        new = [[0.0, 0.0] for _ in range(mdp.n)]
        for s in range(mdp.n):
            for a in (0, 1):
                nxt, r = mdp.step(s, a)
                target = r + mdp.gamma * max(q[nxt])
                new[s][a] = target
                delta = max(delta, abs(target - q[s][a]))
        q = new
        if delta < tol:
            return q


def q_learning_on_mdp(
    mdp: ToyMdp,
    episodes: int = 800,
    horizon: int = 40,
    epsilon: float = 0.2,
    seed: int = 123,
) -> QTable:
    """Train a tabular agent on the toy MDP with a polynomially decaying step size.

    Transitions are deterministic, so targets are noiseless and a gentle
    decay keeps enough step mass for geometric convergence.
    """
    params = HyperParams(gamma=mdp.gamma, episodes=episodes)
    q = QTable(mdp.n, 2)
    rng = random.Random(seed)
    visits: dict[tuple[int, int], int] = {}
    for episode in range(episodes):
        state = episode % mdp.n  # exploring starts keep every state visited
        for _ in range(horizon):
            a = select_action(q, state, epsilon, rng)
            nxt, reward = mdp.step(state, a)
            n = visits.get((state, a), 0) + 1
            visits[(state, a)] = n
            params.alpha = (1.0 + n) ** -0.3
            update_q_value(q, state, a, nxt, reward, params)
            state = nxt
    return q


def _replay_normalize(values: list[float], invert: bool) -> list[float]:
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [1.0] * len(values)
    if invert:
        return [(hi - v) / (hi - lo) for v in values]
    return [(v - lo) / (hi - lo) for v in values]


def replay_metrics(events: list[dict], num_edges: int) -> dict:
    """Recompute APT, AST, ASR, CR, and AAP from a raw event stream.

    Mirrors the accumulation order of the live pipeline (task completion
    order within each episode) so the comparison can demand bit equality;
    AAP is an exact sum (math.fsum), which no order changes.
    """
    finished = [e for e in events if e["kind"] in ("ExecutionDone", "TaskDropped")]

    proc_sum = 0.0
    turn_sum = 0.0
    serviced = 0
    total = 0
    rewards: list[float] = []
    per_episode: dict[int, list[float]] = {}
    counts: dict[int, int] = {}
    for e in finished:
        d = e["detail"]
        total += 1
        if d["serviced"]:
            serviced += 1
            proc_sum += d["proc"]
            turn_sum += d["proc"] + d["upload"]
        ep = d["episode"]
        rewards.append(d["reward"])
        sums = per_episode.setdefault(ep, [0.0, 0.0, 0.0, 0.0])
        comps = d["components"]
        sums[0] += comps[0]
        sums[1] += comps[1]
        sums[2] += comps[2]
        sums[3] += comps[3]
        counts[ep] = counts.get(ep, 0) + 1

    apt_v = proc_sum / serviced if serviced else 0.0
    ast_v = turn_sum / serviced if serviced else 0.0
    asr_v = serviced / total if total else 0.0

    order = sorted(per_episode)
    means = {
        i: [per_episode[ep][i] / counts[ep] for ep in order]
        for i in range(4)
    }
    if order:
        nw = _replay_normalize(means[0], True)
        nu = _replay_normalize(means[1], False)
        nr = _replay_normalize(means[2], False)
        nq = _replay_normalize(means[3], False)
        cr_v = 0.0
        for i in range(len(order)):
            cr_v += nw[i] + nu[i] + nr[i] + nq[i]
    else:
        cr_v = 0.0

    aap_v = math.fsum(rewards) / num_edges
    return {"apt": apt_v, "ast": ast_v, "asr": asr_v, "cr": cr_v, "aap": aap_v, "tasks": total}


def nearest_and_reachable(
    centres: list[tuple[float, float]], x: float, y: float, range_m: float
) -> tuple[int, list[int]]:
    """Full scan over every node: the nearest node id (strict <, so ties go
    to the lowest id) and the ids within range, ascending."""
    range_sq = range_m * range_m
    nearest = -1
    nearest_d2 = float("inf")
    reachable = []
    for node_id, (cx, cy) in enumerate(centres):
        dx = cx - x
        dy = cy - y
        d2 = dx * dx + dy * dy
        if d2 < nearest_d2:
            nearest_d2 = d2
            nearest = node_id
        if d2 <= range_sq:
            reachable.append(node_id)
    return nearest, reachable


def round_robin_full_list(
    cursor: int, nodes: list[tuple[bool, float, float, float, float]]
) -> tuple[str | None, int, int]:
    """Round-robin over the full node list, unreachable nodes included.

    ``nodes[i]`` describes node i as (reachable, req_share, free_share,
    max_share, distance_m). Returns (tier, node_id, next cursor), with tier
    "fog", "cloud" or None for no placement (node_id -1).
    """
    n = len(nodes)
    if not any(r and req <= mx for r, req, _free, mx, _d in nodes):
        return (*_cloud_via_nearest(nodes), cursor)
    for share in (2, 3):  # free share first, then ever-grantable share
        for step in range(n):
            i = (cursor + step) % n
            if nodes[i][0] and nodes[i][1] <= nodes[i][share]:
                return "fog", i, (i + 1) % n
    return None, -1, cursor


def fcfs_full_list(
    nodes: list[tuple[bool, float, float, float, float]]
) -> tuple[str | None, int]:
    """First-come-first-served over the full node list, described as in
    round_robin_full_list: the first reachable node (by id) with the share
    free, else the first that could ever grant it. Returns (tier, node_id)."""
    if not any(r and req <= mx for r, req, _free, mx, _d in nodes):
        return _cloud_via_nearest(nodes)
    for share in (2, 3):
        for i, node in enumerate(nodes):
            if node[0] and node[1] <= node[share]:
                return "fog", i
    return None, -1


def wfq_full_list(
    vft: list[float],
    weights: list[float],
    cpu_mips: float,
    nodes: list[tuple[bool, float, float, float, float]],
) -> tuple[str | None, int]:
    """Weighted fair queuing over the full node list, described as in
    round_robin_full_list: the reachable node that could ever grant the
    share with the smallest virtual finish time, ties to the lowest id,
    whose entry of vft then grows by cpu_mips / its weight, in place.
    Returns (tier, node_id)."""
    eligible = [i for i, (r, req, _free, mx, _d) in enumerate(nodes) if r and req <= mx]
    if not eligible:
        return _cloud_via_nearest(nodes)
    best = min(eligible, key=lambda i: (vft[i], i))
    vft[best] += cpu_mips / weights[best]
    return "fog", best


def _cloud_via_nearest(nodes: list[tuple[bool, float, float, float, float]]) -> tuple[str | None, int]:
    """The shared fallback: the cloud, relayed through the nearest
    reachable node (ties to the lowest id), or no placement (node -1)
    when no node is reachable."""
    relay = -1
    for i, (r, _req, _free, _mx, d) in enumerate(nodes):
        if r and (relay < 0 or d < nodes[relay][4]):
            relay = i
    return ("cloud" if relay >= 0 else None), relay


@dataclass(slots=True)
class TelemetrySnapshot:
    """Raw observation of one fog node plus the task under decision, one
    field per DiscreteState field and in its order (the order in which
    snapshot_ordinal takes its readings).

    Fraction fields live in [0, 1]. Rates are in tasks/second, the
    response time in seconds, available_nodes is a count.
    """

    cpu_usage: float
    mem_usage: float
    disk_usage: float
    net_bw_usage: float
    request_rate: float
    app_type_weight: float
    expected_demand: float
    recent_response_time: float
    sla_met: bool
    op_requirement: float
    available_nodes: int
    storage_availability: float


def discretize(snapshot: TelemetrySnapshot, config: StateSpaceConfig) -> DiscreteState:
    """The discrete state of a snapshot: the decoded snapshot_ordinal, which
    raises ValidationError naming the offending field."""
    return state_from_index(
        snapshot_ordinal(
            snapshot.cpu_usage,
            snapshot.mem_usage,
            snapshot.disk_usage,
            snapshot.net_bw_usage,
            snapshot.request_rate,
            snapshot.app_type_weight,
            snapshot.expected_demand,
            snapshot.recent_response_time,
            snapshot.sla_met,
            snapshot.op_requirement,
            snapshot.available_nodes,
            snapshot.storage_availability,
            config,
        )
    )


def state_index(state: DiscreteState) -> int:
    """Mixed-radix encoding of a DiscreteState in field order, the SLA flag
    the single binary digit: the ordinal snapshot_ordinal computes."""
    idx = state.cu
    idx = idx * 3 + state.mu
    idx = idx * 3 + state.dsu
    idx = idx * 3 + state.nbu
    idx = idx * 3 + state.nr
    idx = idx * 3 + state.at
    idx = idx * 3 + state.ed
    idx = idx * 3 + state.rt
    idx = idx * 2 + state.sla
    idx = idx * 3 + state.or_
    idx = idx * 3 + state.ncn
    idx = idx * 3 + state.asd
    return int(idx)


def snapshot_from_node(node, task, available: int, sim) -> TelemetrySnapshot:
    """The telemetry snapshot of a decision node for a task, built field by
    field from the node's and task's public state and the sim parameters."""

    def clamp(v):
        return min(max(v, 0.0), 1.0)

    responses = list(node.resp_window)
    deadlines = list(node.dl_window)
    span = sim.task_deadline_s_max - sim.task_deadline_s_min
    op_req = clamp((sim.task_deadline_s_max - task.deadline) / span) if span > 0.0 else 0.0
    return TelemetrySnapshot(
        cpu_usage=clamp(node.cpu_commit),
        mem_usage=clamp(node.mem_commit),
        disk_usage=clamp(node.disk_commit),
        net_bw_usage=clamp(node.bw_commit),
        request_rate=len(node.arrivals) / sim.rate_window_s,
        app_type_weight=min(task.demand_mips / sim.app_type_mips_scale, 1.0),
        expected_demand=node.demand_ema,
        recent_response_time=node.resp_sum / len(responses) if responses else 0.0,
        sla_met=node.resp_sum <= node.dl_sum if deadlines else True,
        op_requirement=op_req,
        available_nodes=available,
        storage_availability=clamp(1.0 - node.disk_commit),
    )


def discretize_by_field(snapshot: TelemetrySnapshot, config: StateSpaceConfig) -> DiscreteState:
    """Level of each reading on its own (no validation): the value, or
    value / rate_scale for rates, against the two thresholds, with a value
    on a threshold taking the upper level."""

    def tri(value, low=config.low_threshold, high=config.high_threshold):
        return 0 if value < low else (1 if value < high else 2)

    return DiscreteState(
        cu=Level(tri(snapshot.cpu_usage)),
        mu=Level(tri(snapshot.mem_usage)),
        dsu=Level(tri(snapshot.disk_usage)),
        nbu=Level(tri(snapshot.net_bw_usage)),
        nr=Level(tri(snapshot.request_rate / config.rate_scale)),
        at=AppType(tri(snapshot.app_type_weight)),
        ed=Level(tri(snapshot.expected_demand / config.rate_scale)),
        rt=ResponseLevel(tri(snapshot.recent_response_time,
                             config.response_fast, config.response_slow)),
        sla=SlaLevel.FULFILLED if snapshot.sla_met else SlaLevel.NOT_FULFILLED,
        or_=Level(tri(snapshot.op_requirement)),
        ncn=Level(tri(snapshot.available_nodes, config.node_count_low, config.node_count_high)),
        asd=Level(tri(snapshot.storage_availability)),
    )
