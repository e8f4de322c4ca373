"""Discrete-event simulation of a three-tier vehicular fog system.

A pre-drawn vehicle population moves rectilinearly (reflecting at the area
boundary) across a grid of fog nodes. Every decision interval each active
vehicle may emit a task; the scheduler under test places it on the vehicle
itself, a fog node, or the cloud. Fog nodes grant CPU shares (the single
hard capacity constraint) and run FIFO queues; every task resolves to
serviced or dropped no later than min(arrival + deadline, vehicle exit),
so ledgers always conserve tasks. Every execution begins through one
start, and only if it can complete by that bound. The two waits that can
outlast it are cut short at the bound by an internal expiry pushed only
for them: an upload that ends at or after the bound gets an upload expiry
in place of its upload-done, and a fog task that queues at upload-done
gets a queue expiry, which does nothing once the task has left the queue.

Events dispatch in (time, sequence) order from a single heap, each entry
numbered by the episode's one push counter as it is pushed, and carrying
the bound method that handles it. A decision tick's new tasks travel as
one entry, pushed by the tick's snapshot, whose handler decides them one
by one in creation order. Nothing can come between them: everything due
at the tick that was pushed before the snapshot ran dispatches first
(lower sequence), and everything the decisions push is later in time or
sequence. Randomness flows through one seeded generator per episode,
which makes runs bit-reproducible for a given configuration, scheduler
and seed.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path

from .agent import (
    NUM_ACTIONS,
    QTable,
    Tier,
    check_tables,
    epsilon_at,
    save_tables,
    update_q_value,
)
from .config import RunConfig, SimParams
from .errors import ValidationError
from .eventlog import EventRecord
from .link import BITS_PER_MB, processing_time, shannon_rate, snr_at_distance, upload_time
from .metrics import (
    EpisodeAggregate,
    MetricsReport,
    TaskLedger,
    TaskRecord,
    build_report,
    episode_aggregate,
)
from .rewards import (
    qos_reward,
    resource_utilization,
    resource_wastage,
    response_time_reward,
    total_reward,
)
from .schedulers import (
    DecisionContext,
    FcfsScheduler,
    NodeView,
    Placement,
    QLearningScheduler,
    RoundRobinScheduler,
    Scheduler,
    WfqScheduler,
)
from .state_space import NUM_STATES, snapshot_ordinal
from .traffic import VehicleSpec, sample_vehicles

# Not called here: bench/run.py and bench/tracing.py look these two up, and
# wrap them, as attributes of this module.
from .agent import load_tables  # noqa: F401
from .eventlog import write_event_log  # noqa: F401


# tiers bound once, so the per-task paths read a global, not an enum member
_LOCAL = Tier.LOCAL
_FOG = Tier.FOG
_CLOUD = Tier.CLOUD


@dataclass(slots=True)
class Task:
    """One offloadable job and its running lifecycle bookkeeping."""

    task_id: int
    vehicle: "VehicleState"
    size_bits: float
    demand_mips: float
    deadline: float
    arrival: float
    bound: float
    cycles: float
    mem_frac: float
    disk_frac: float
    bw_frac: float
    # in a fog node's run queue
    queued: bool = False
    tier: int = -1
    exec_node: int = -1
    decision_node: int = -1
    state_ordinal: int = -1
    action_ordinal: int = -1
    # the grant, fixed when a fog or cloud task is placed: the CPU share and
    # the fractions scaled by the bundle factor, each in [0, 1]
    cpu_share: float = 0.0
    mem_alloc: float = 0.0
    disk_alloc: float = 0.0
    bw_alloc: float = 0.0
    eff_cpu: float = 0.0
    proc_planned: float = 0.0
    upload_planned: float = 0.0
    wait: float = 0.0


class VehicleState:
    """Kinematics and the vehicle's own FIFO CPU."""

    __slots__ = ("spec", "exit_time", "vx", "vy", "busy_until")

    def __init__(self, spec: VehicleSpec):
        self.spec = spec
        self.exit_time = spec.entry_time + spec.dwell
        self.vx = spec.speed * math.cos(spec.heading)
        self.vy = spec.speed * math.sin(spec.heading)
        self.busy_until = spec.entry_time

    def position_at(self, t: float, area: float) -> tuple[float, float]:
        dt = t - self.spec.entry_time
        return (
            _reflect(self.spec.x + self.vx * dt, area),
            _reflect(self.spec.y + self.vy * dt, area),
        )


def _reflect(p: float, limit: float) -> float:
    """Fold a coordinate back into [0, limit] (mirror at both walls)."""
    m = p % (2.0 * limit)
    return m if m <= limit else 2.0 * limit - m


class NodeState:
    """One fog node: capacity commitments, FIFO queue, rolling telemetry.

    The request rate and demand EMA (record_arrival) and the response and
    deadline windows (record_response) feed the state encoder alone, so the
    engine records them only for a scheduler that reads state. The outcome
    window (record_outcome) feeds every task's QoS reward.
    """

    __slots__ = (
        "node_id", "x", "y", "cpu_freq", "baseline", "mem_base", "disk_base",
        "cpu_commit", "mem_commit", "disk_commit", "bw_commit", "run_queue",
        "resp_window", "resp_sum", "dl_window", "dl_sum", "outcome_window",
        "outcome_sum", "arrivals", "demand_ema", "window_size",
    )

    def __init__(self, node_id: int, x: float, y: float, cpu_freq: float, sim: SimParams):
        self.node_id = node_id
        self.x = x
        self.y = y
        self.cpu_freq = cpu_freq
        self.baseline = sim.node_cpu_init
        self.mem_base = sim.node_mem_init
        self.disk_base = sim.node_disk_init
        self.cpu_commit = sim.node_cpu_init
        self.mem_commit = sim.node_mem_init
        self.disk_commit = sim.node_disk_init
        self.bw_commit = 0.0
        self.run_queue: deque[Task] = deque()
        self.window_size = sim.rolling_window
        self.resp_window: deque[float] = deque()
        self.resp_sum = 0.0
        self.dl_window: deque[float] = deque()
        self.dl_sum = 0.0
        self.outcome_window: deque[int] = deque()
        self.outcome_sum = 0
        self.arrivals: deque[float] = deque()
        self.demand_ema = 0.0

    def record_arrival(self, now: float, window_s: float, ema_alpha: float) -> None:
        # trimmed before the append, so that a window lost to rounding
        # (now - window_s == now) keeps the new arrival alone
        arrivals = self.arrivals
        cutoff = now - window_s
        while arrivals and arrivals[0] <= cutoff:
            arrivals.popleft()
        arrivals.append(now)
        rate = len(arrivals) / window_s  # inf once the window is tiny enough
        if ema_alpha < 1.0:
            self.demand_ema = ema_alpha * rate + (1.0 - ema_alpha) * self.demand_ema
        else:
            # the full-weight EMA is the rate itself; the general form would
            # add 0.0 * inf = nan after an overflowed rate
            self.demand_ema = rate

    def record_response(self, response: float, deadline: float) -> None:
        if len(self.resp_window) == self.window_size:
            self.resp_sum -= self.resp_window.popleft()
            self.dl_sum -= self.dl_window.popleft()
        self.resp_window.append(response)
        self.resp_sum += response
        self.dl_window.append(deadline)
        self.dl_sum += deadline

    def record_outcome(self, ok: bool) -> None:
        if len(self.outcome_window) == self.window_size:
            self.outcome_sum -= self.outcome_window.popleft()
        v = 1 if ok else 0
        self.outcome_window.append(v)
        self.outcome_sum += v

    def reliability(self) -> float:
        n = len(self.outcome_window)
        return self.outcome_sum / n if n else 1.0

    # The guards are written as `not (in range)` so that a NaN fails them.

    def commit_cpu(self, share: float) -> None:
        new = self.cpu_commit + share
        if not (new <= 1.0 + 1e-9):
            raise RuntimeError(
                f"node {self.node_id}: cpu share overflow ({new!r} above 1.0 or NaN)"
            )
        self.cpu_commit = new if new <= 1.0 else 1.0

    def release_cpu(self, share: float) -> None:
        new = self.cpu_commit - share
        if not (self.baseline - 1e-9 <= new < math.inf):
            raise RuntimeError(
                f"node {self.node_id}: cpu share underflow ({new!r} below baseline or not finite)"
            )
        self.cpu_commit = new if new >= self.baseline else self.baseline

    def release_bw(self, amount: float) -> None:
        self.bw_commit = self._released("bw", self.bw_commit - amount, 0.0)

    def release_resident(self, mem: float, disk: float) -> None:
        """Give back the memory and disk a task held while on this node."""
        self.mem_commit = self._released("mem", self.mem_commit - mem, self.mem_base)
        self.disk_commit = self._released("disk", self.disk_commit - disk, self.disk_base)

    def _released(self, name: str, new: float, base: float) -> float:
        if not (base - 1e-9 <= new < math.inf):
            raise RuntimeError(
                f"node {self.node_id}: {name} commit underflow ({new!r} below {base!r} "
                "or not finite)"
            )
        return new


@dataclass
class EpisodeResult:
    ledger: TaskLedger
    aggregate: EpisodeAggregate
    events: list[EventRecord] | None


@dataclass
class TrainingResult:
    curve: list[dict]
    tables: dict[int, QTable]


@dataclass
class EvalResult:
    report: MetricsReport
    ledger: TaskLedger
    events: list[EventRecord] | None


class CheckpointError(RuntimeError):
    """Raised when persisting trained tables fails; carries the curve."""

    def __init__(self, message: str, curve: list[dict]):
        super().__init__(message)
        self.curve = curve


def derive_seed(master_seed: int, index: int) -> int:
    """Stream seed for episode or run `index` under a master seed."""
    return master_seed * 1_000_003 + index


def _check_master_seed(seed: int) -> None:
    # random.Random seeds with the absolute value, so derive_seed(-m, 0)
    # would replay the traffic of seed m
    if seed < 0:
        raise ValidationError(f"seed={seed!r} must be >= 0")


def build_nodes(cfg: RunConfig) -> list[NodeState]:
    """Fog grid: node i sits at the center of cell i of a k x k grid.

    Per-node CPU frequencies come from the dedicated topology seed so the
    infrastructure is identical across training and evaluation runs.
    """
    sim = cfg.sim
    n = sim.fog_nodes
    k, cell = _grid_shape(n, sim.area_m)
    trng = random.Random(sim.topology_seed)
    freqs = [trng.uniform(sim.node_cpu_min_hz, sim.node_cpu_max_hz) for _ in range(n)]
    nodes = []
    for i in range(n):
        row, col = divmod(i, k)
        nodes.append(
            NodeState(i, (col + 0.5) * cell, (row + 0.5) * cell, freqs[i], sim)
        )
    return nodes


def _grid_shape(fog_nodes: int, area_m: float) -> tuple[int, float]:
    """Side k of the k x k fog grid and the width of one cell in metres."""
    k = math.ceil(math.sqrt(fog_nodes))
    return k, area_m / k


# Sub-cells per cell side in CellIndex: 4 x 4 per cell leaves about two
# nodes per list on the default density and range.
SUBCELLS = 4


@functools.lru_cache(maxsize=32)
def _subcell_plan(
    fog_nodes: int, area_m: float, v2i_range_m: float
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """CellIndex's node lists as node ids: the distinct lists, and for each
    sub-cell, row-major over the (k * SUBCELLS)^2 grid, the index of its
    list. The plan depends on the geometry alone, so one serves every
    episode of a grid.

    A sub-cell keeps every node that comes within `limit` of it: the larger
    of the V2I range and the least, over every node, of the distance from
    the node to its farthest point of the sub-cell. A node left out is out
    of range of every point of the sub-cell, and farther from each point
    than the node that sets that least distance, so never its nearest; ties
    are kept. A margin on the sub-cell's edges and a relative one on
    `limit` cover the points that the float lookup puts in the sub-cell
    from just outside it, and the rounding of squared distances. Squared
    distances are sums of per-axis tables of the near and far gaps between
    each sub-cell row (column) and node row (column).
    """
    k, cell = _grid_shape(fog_nodes, area_m)
    side = k * SUBCELLS
    sub = cell / SUBCELLS
    margin = 1e-9 * area_m
    centres = [(c + 0.5) * cell for c in range(k)]
    near: list[list[float]] = []
    far: list[list[float]] = []
    for a in range(side):
        lo = a * sub - margin
        hi = (a + 1) * sub + margin
        near.append([
            (lo - c) ** 2 if c < lo else ((c - hi) ** 2 if c > hi else 0.0) for c in centres
        ])
        far.append([max(c - lo, hi - c) ** 2 for c in centres])
    range_sq = v2i_range_m * v2i_range_m
    # node rows 0..top-1 are full and row `top` holds `last` nodes, so the
    # least far distance over every node is a sum of per-axis minima (exact,
    # as float addition is monotone)
    top = (fog_nodes - 1) // k
    last = fog_nodes - top * k
    far_full = [min(gaps[:top], default=math.inf) for gaps in far]
    far_all = [min(gaps) for gaps in far]
    far_last = [min(gaps[:last]) for gaps in far]
    entries: dict[tuple[int, ...], int] = {}
    index = [0] * (side * side)
    # cell by cell, so the distinct lists are numbered as the cells are reached
    for row, col, i, j in itertools.product(range(k), range(k), range(SUBCELLS), range(SUBCELLS)):
        a = row * SUBCELLS + i
        b = col * SUBCELLS + j
        near_y = near[a]
        near_x = near[b]
        limit = min(far_full[a] + far_all[b], far[a][top] + far_last[b])
        limit = max(limit, range_sq) * (1.0 + 1e-9)
        ids = tuple([
            r * k + c
            for r in range(top + 1)
            if near_y[r] <= limit
            for c in range(k if r < top else last)
            if near_y[r] + near_x[c] <= limit
        ])
        index[a * side + b] = entries.setdefault(ids, len(entries))
    return tuple(entries), tuple(index)


class CellIndex:
    """Cell lists over the fog grid (Allen & Tildesley, Computer Simulation
    of Liquids): each arrival looks at about two nodes, not all of them.

    Node i sits at the centre of cell (i // k, i % k) of the k x k grid of
    build_nodes. Each cell is split into SUBCELLS x SUBCELLS sub-cells, and
    a sub-cell's list keeps, in node-id order, only the nodes that can be in
    range of, or nearest to, one of its points (_subcell_plan). Scanning the
    list of the sub-cell that holds a point therefore finds the same nearest
    node (strict <, ties to the lowest id) and the same reachable nodes, in
    the same order, as a scan of every node.

    The plan of node ids is built once per geometry and cached; an episode
    only maps it onto its own nodes, one tuple per distinct list.
    """

    __slots__ = ("side", "sub", "range_sq", "lists")

    def __init__(self, nodes: list[NodeState], sim: SimParams, v2i_range_m: float):
        k, cell = _grid_shape(len(nodes), sim.area_m)
        self.side = k * SUBCELLS
        self.sub = cell / SUBCELLS
        self.range_sq = v2i_range_m * v2i_range_m
        entries, index = _subcell_plan(len(nodes), sim.area_m, v2i_range_m)
        mapped = [tuple([nodes[i] for i in ids]) for ids in entries]
        self.lists: list[tuple[NodeState, ...]] = [mapped[j] for j in index]

    def scan(self, x: float, y: float) -> tuple[NodeState, list[tuple[NodeState, float]]]:
        """The nearest node to (x, y), ties to the lowest id, and the nodes
        within V2I range with their squared distances, in node-id order."""
        side = self.side
        row = int(y / self.sub)
        col = int(x / self.sub)
        range_sq = self.range_sq
        nearest = None
        nearest_d2 = math.inf
        reachable = []
        # _reflect can return exactly area_m, one past the last sub-cell
        for node in self.lists[
            (row if row < side else side - 1) * side + (col if col < side else side - 1)
        ]:
            dx = node.x - x
            dy = node.y - y
            d2 = dx * dx + dy * dy
            if d2 < nearest_d2:
                nearest_d2 = d2
                nearest = node
            if d2 <= range_sq:
                reachable.append((node, d2))
        return nearest, reachable


SCHEDULER_NAMES = ("qlearn", "fcfs", "rr", "wfq")


def build_scheduler(
    cfg: RunConfig,
    name: str,
    tables: dict[int, QTable] | None = None,
) -> Scheduler:
    if name == "fcfs":
        return FcfsScheduler()
    if name == "rr":
        return RoundRobinScheduler(cfg.sim.fog_nodes)
    if name == "wfq":
        # each node weighs its CPU capacity in GHz
        return WfqScheduler([node.cpu_freq / 1e9 for node in build_nodes(cfg)])
    if name == "qlearn":
        if tables is None:
            raise ValidationError(
                "qlearn evaluation needs a trained checkpoint (q-tables missing)"
            )
        check_tables(tables, cfg.sim.fog_nodes)
        bundles = (cfg.sim.bundle_small, cfg.sim.bundle_medium, cfg.sim.bundle_large)
        # greedy; run_training sets each training episode's epsilon
        return QLearningScheduler(tables, bundles)
    raise ValidationError(f"unknown scheduler {name!r}")


class _Episode:
    """Mutable state of one episode run (split out of run_episode for clarity)."""

    def __init__(
        self,
        cfg: RunConfig,
        scheduler: Scheduler,
        seed: int,
        train: bool,
        collect_events: bool,
        vehicles: list[VehicleSpec] | None,
        episode_index: int,
    ):
        cfg.validate()
        self.cfg = cfg
        self.sim = cfg.sim
        self.link = cfg.link
        self.scheduler = scheduler
        self.train = train and scheduler.uses_state
        self.episode_index = episode_index
        self.rng = random.Random(seed)
        self.deadline_span = self.sim.task_deadline_s_max - self.sim.task_deadline_s_min
        self.drop_reward = -cfg.weights.w1  # every dropped task's reward, one float
        self.rate_scale = cfg.scenario.entry_rate  # the unit of the state's rate readings
        self.nodes = build_nodes(cfg)
        self.grid = CellIndex(self.nodes, self.sim, self.link.v2i_range_m)
        self.area = self.sim.area_m
        if vehicles is None:
            vehicles = sample_vehicles(
                cfg.scenario,
                self.rng,
                self.area,
                self.sim.vehicle_cpu_min_hz,
                self.sim.vehicle_cpu_max_hz,
                min_dwell=self.sim.min_dwell_s,
            )
        self.vehicle_specs = vehicles
        # heap entries are (time, sequence, handler, payload); next(self.seq)
        # numbers every push in push order, so ties pop first-in first-out
        # and the handler is never compared
        self.heap: list[tuple[float, int, Callable, object]] = []
        self.seq = itertools.count()
        self.active: dict[int, VehicleState] = {}
        self.ledger = TaskLedger()
        self.events: list[EventRecord] | None = [] if collect_events else None
        self.task_counter = 0
        scheduler.on_episode_start()
        if scheduler.uses_state:
            scheduler.rng = self.rng

    # Event records are appended straight to self.events as the flat tuple
    # (kind, time, task_id, node_id, episode, *detail), the detail values in
    # the order the eventlog module lists for the kind, except that a finish
    # event is the task's TaskRecord, the object the ledger holds; each site
    # checks self.events first so that nothing is built when logging is off.

    # -- setup ------------------------------------------------------------

    def schedule_all(self) -> None:
        heap = self.heap
        seq = self.seq
        for spec in self.vehicle_specs:
            heappush(heap, (spec.entry_time, next(seq), self.on_vehicle_enter, spec))
        interval = self.sim.decision_interval_s
        for i in range(int(self.cfg.scenario.duration / interval)):
            heappush(heap, (i * interval, next(seq), self.on_snapshot, None))

    # -- telemetry --------------------------------------------------------

    def state_for(self, node: NodeState, task: Task, available: int) -> int:
        """State ordinal of the decision node `node` for `task`, encoded
        straight from the node and task fields (readings in
        snapshot_ordinal's argument order; fractions in or clamped into [0, 1]).
        A request-rate or expected-demand reading that overflows to inf is
        passed as 1.0, above every high threshold, so it reads High."""
        sim = self.sim
        mem = node.mem_commit
        disk = node.disk_commit
        bw = node.bw_commit
        free_disk = 1.0 - disk
        at_weight = task.demand_mips / sim.app_type_mips_scale
        if self.deadline_span > 0.0:
            op_req = (sim.task_deadline_s_max - task.deadline) / self.deadline_span
            op_req = 0.0 if op_req < 0.0 else (1.0 if op_req > 1.0 else op_req)
        else:
            op_req = 0.0
        rate = len(node.arrivals) / sim.rate_window_s / self.rate_scale
        demand = node.demand_ema / self.rate_scale
        n = len(node.resp_window)
        return snapshot_ordinal(
            node.cpu_commit,
            0.0 if mem < 0.0 else (1.0 if mem > 1.0 else mem),
            0.0 if disk < 0.0 else (1.0 if disk > 1.0 else disk),
            0.0 if bw < 0.0 else (1.0 if bw > 1.0 else bw),
            rate if rate != math.inf else 1.0,
            at_weight if at_weight <= 1.0 else 1.0,
            demand if demand != math.inf else 1.0,
            node.resp_sum / n if n else 0.0,
            n == 0 or node.resp_sum <= node.dl_sum,
            op_req,
            available,
            0.0 if free_disk < 0.0 else (1.0 if free_disk > 1.0 else free_disk),
            self.cfg.state,
        )

    # -- event handlers ---------------------------------------------------

    def run(self) -> EpisodeResult:
        self.schedule_all()
        heap = self.heap
        while heap:
            time, _seq, handle, payload = heappop(heap)
            handle(time, payload)
        resolved = self.ledger.k_total
        if resolved != self.task_counter:
            raise RuntimeError(
                f"task conservation violated: {resolved} resolved of {self.task_counter}"
            )
        self.check_resources_released()
        return EpisodeResult(self.ledger, episode_aggregate(self.ledger), self.events)

    def check_resources_released(self) -> None:
        """Every task has resolved, so every commit is back where it began."""
        sim = self.sim
        for node in self.nodes:
            for name, value, initial in (
                ("cpu", node.cpu_commit, sim.node_cpu_init),
                ("mem", node.mem_commit, sim.node_mem_init),
                ("disk", node.disk_commit, sim.node_disk_init),
                ("bw", node.bw_commit, 0.0),
            ):
                if not (abs(value - initial) <= 1e-9):  # a NaN fails too
                    raise RuntimeError(
                        f"node {node.node_id}: {name} commit {value!r} did not return "
                        f"to {initial!r} at episode end"
                    )

    def on_vehicle_enter(self, now: float, spec: VehicleSpec) -> None:
        veh = VehicleState(spec)
        self.active[spec.vehicle_id] = veh
        heappush(self.heap, (veh.exit_time, next(self.seq), self.on_vehicle_exit,
                             spec.vehicle_id))
        if self.events is not None:
            self.events.append(
                ("VehicleEnter", now, -1, -1, self.episode_index, spec.vehicle_id)
            )

    def on_vehicle_exit(self, now: float, vehicle_id: int) -> None:
        self.active.pop(vehicle_id, None)
        if self.events is not None:
            self.events.append(("VehicleExit", now, -1, -1, self.episode_index, vehicle_id))

    def on_snapshot(self, now: float, _payload: None) -> None:
        p = self.sim.arrival_prob
        if p <= 0.0:
            return
        draw = self.rng.random
        sim = self.sim
        # each value is lo + (hi - lo) * draw(), as random.Random.uniform(lo,
        # hi) evaluates it, with the spans taken once per tick
        size_lo = sim.task_size_mb_min
        size_span = sim.task_size_mb_max - size_lo
        demand_lo = sim.task_demand_mips_min
        demand_span = sim.task_demand_mips_max - demand_lo
        deadline_lo = sim.task_deadline_s_min
        deadline_span = self.deadline_span
        mb = BITS_PER_MB
        cycles_per_bit = self.link.cycles_per_bit
        wired_rate = self.link.wired_rate_bps
        tasks: list[Task] = []
        for veh in self.active.values():
            if veh.exit_time <= now:
                continue
            if draw() >= p:
                continue
            size_mb = size_lo + size_span * draw()
            demand = demand_lo + demand_span * draw()
            deadline = deadline_lo + deadline_span * draw()
            size_bits = size_mb * mb
            bound = now + deadline
            if veh.exit_time < bound:
                bound = veh.exit_time
            # Fractions are clamped into [0, 1] inline here and on the other
            # per-task paths, comparing `< 0.0` first and then `> 1.0`, so a
            # NaN passes through unchanged.
            mem = size_mb / sim.node_mem_mb
            disk = size_mb / sim.node_storage_mb
            bw = (size_bits / deadline) / wired_rate
            # Task, NodeView, DecisionContext and TaskRecord are built
            # positionally, in field order: on CPython 3.11 a keyword call to a
            # slots dataclass costs 2-3x the positional one (Task 1.70 vs 0.55 us).
            tasks.append(Task(
                self.task_counter,  # task_id
                veh,
                size_bits,
                demand,  # demand_mips
                deadline,
                now,  # arrival
                bound,
                size_bits * cycles_per_bit,  # cycles
                0.0 if mem < 0.0 else (1.0 if mem > 1.0 else mem),  # mem_frac
                0.0 if disk < 0.0 else (1.0 if disk > 1.0 else disk),  # disk_frac
                0.0 if bw < 0.0 else (1.0 if bw > 1.0 else bw),  # bw_frac
            ))
            self.task_counter += 1
        if tasks:
            heappush(self.heap, (now, next(self.seq), self.on_tick_arrivals, tasks))

    def on_tick_arrivals(self, now: float, tasks: list[Task]) -> None:
        """Decide the tick's tasks one by one, in creation order."""
        # bound once per tick: a tool that wraps select, scan or state_for by
        # name does so before the run starts
        area = self.area
        scan = self.grid.scan
        link = self.link
        bandwidth = link.v2i_bandwidth_hz
        window_s = self.sim.rate_window_s
        ema_alpha = self.sim.demand_ema_alpha
        events = self.events
        episode = self.episode_index
        scheduler = self.scheduler
        uses_state = scheduler.uses_state
        select = scheduler.select
        place = self.place
        drop = self.drop
        state_for = self.state_for
        for task in tasks:
            veh = task.vehicle
            x, y = veh.position_at(now, area)
            slack = task.bound - now
            decision, reachable = scan(x, y)

            views: list[NodeView] = []
            for node, d2 in reachable:
                rate = shannon_rate(bandwidth, snr_at_distance(link, math.sqrt(d2)))
                up = upload_time(task.size_bits, rate)
                remaining = slack - up
                views.append(
                    NodeView(
                        node.node_id,
                        1.0 - node.cpu_commit,  # free_share
                        1.0 - node.baseline,  # max_share
                        # req_share
                        (task.cycles / remaining) / node.cpu_freq if remaining > 0.0 else math.inf,
                        up,  # upload_s
                    )
                )

            task.decision_node = decision.node_id
            if uses_state:
                decision.record_arrival(now, window_s, ema_alpha)
            if events is not None:
                events.append((
                    "TaskArrival", now, task.task_id, decision.node_id, episode,
                    task.deadline, task.demand_mips, task.size_bits, veh.spec.vehicle_id,
                ))

            # cpu_mips, nodes, decision_node
            ctx = DecisionContext((task.cycles / slack) / 1e6, views, decision.node_id)
            if uses_state:
                task.state_ordinal = state_for(decision, task, len(views))
                ctx.state_ordinal = task.state_ordinal

            placement = select(ctx)
            if uses_state:
                task.action_ordinal = scheduler.last_action_ordinal
            if placement is None:
                drop(task, now)
                continue
            place(task, placement, views, now)

    def place(self, task: Task, placement: Placement, views: list[NodeView], now: float) -> None:
        task.tier = int(placement.tier)
        veh = task.vehicle
        link = self.link
        if placement.tier == _LOCAL:
            begin = veh.busy_until if veh.busy_until > now else now
            proc = processing_time(task.size_bits, link.cycles_per_bit, veh.spec.local_cpu_hz)
            completion = begin + proc
            if completion > task.bound:
                self.drop(task, now)
                return
            veh.busy_until = completion
            task.proc_planned = proc
            self.start(task, begin)
            return

        for view in views:
            if view.node_id == placement.node_id:
                break
        else:
            raise RuntimeError(
                f"task {task.task_id}: placed via node {placement.node_id}, "
                "which is out of V2I range"
            )
        node = self.nodes[placement.node_id]
        task.exec_node = placement.node_id
        bundle = placement.bundle_factor
        mem = task.mem_frac * bundle
        disk = task.disk_frac * bundle
        bw = task.bw_frac * bundle
        task.mem_alloc = 0.0 if mem < 0.0 else (1.0 if mem > 1.0 else mem)
        task.disk_alloc = 0.0 if disk < 0.0 else (1.0 if disk > 1.0 else disk)
        task.bw_alloc = 0.0 if bw < 0.0 else (1.0 if bw > 1.0 else bw)
        node.bw_commit += task.bw_alloc
        if placement.tier == _CLOUD:
            task.upload_planned = view.upload_s + upload_time(task.size_bits, link.wired_rate_bps)
            cpu = (task.cycles / (task.bound - task.arrival)) / self.sim.cloud_cpu_hz
            task.eff_cpu = 0.0 if cpu < 0.0 else (1.0 if cpu > 1.0 else cpu)
            cpu = task.eff_cpu * bundle
            task.cpu_share = 0.0 if cpu < 0.0 else (1.0 if cpu > 1.0 else cpu)
            task.proc_planned = processing_time(
                task.size_bits, link.cycles_per_bit, self.sim.cloud_cpu_hz
            )
        else:
            task.upload_planned = view.upload_s
            task.cpu_share = placement.cpu_share
            task.eff_cpu = view.req_share if view.req_share <= view.max_share else view.max_share
            task.proc_planned = processing_time(
                task.size_bits, link.cycles_per_bit, placement.cpu_share * node.cpu_freq
            )
        # An expiry is pushed only where it acts: an upload that ends at or
        # after the bound is dropped by its upload expiry, pushed in place of
        # its upload-done; a fog task that queues at upload-done gets its
        # queue expiry then (on_upload_done). Any other task starts, or
        # drops, by its bound.
        upload_end = now + task.upload_planned
        if upload_end >= task.bound:
            heappush(self.heap, (task.bound, next(self.seq), self.on_upload_expire, task))
            return
        heappush(self.heap, (upload_end, next(self.seq), self.on_upload_done, task))

    def on_upload_done(self, now: float, task: Task) -> None:
        node = self.nodes[task.exec_node]
        node.release_bw(task.bw_alloc)
        if self.events is not None:
            self.events.append(("UploadDone", now, task.task_id, task.exec_node,
                                self.episode_index, "cloud" if task.tier == _CLOUD else "fog"))

        if now + task.proc_planned > task.bound:
            self.drop(task, now)
            return
        if task.tier == _CLOUD:
            self.start(task, now)
            return
        # fog: data is resident until the task leaves the node
        node.mem_commit += task.mem_alloc
        node.disk_commit += task.disk_alloc
        if not self.try_start(node, task, now):
            task.queued = True
            node.run_queue.append(task)
            heappush(self.heap, (task.bound, next(self.seq), self.on_queue_expire, task))

    def try_start(self, node: NodeState, task: Task, now: float) -> bool:
        """Start the fog task `task` on `node` now if its share is free;
        whether it started. The caller has checked its bound."""
        if task.cpu_share <= (1.0 - node.cpu_commit) + 1e-12:
            node.commit_cpu(task.cpu_share)
            self.start(task, now)
            return True
        return False

    def start(self, task: Task, begin: float) -> None:
        """Run a placed task from `begin`; the caller has checked that it
        completes by its bound and, on a fog node, committed its share.
        It became ready at its upload-done, or at its decision if local."""
        task.queued = False
        task.wait = begin - (task.arrival + task.upload_planned)
        heappush(self.heap, (begin + task.proc_planned, next(self.seq), self.on_execution_done,
                             task))

    def on_execution_done(self, now: float, task: Task) -> None:
        # admission only allows completion <= bound
        if now > task.bound + 1e-9:
            raise RuntimeError(f"task {task.task_id} executing past its bound")
        tier = task.tier
        if tier == _FOG:
            node = self.nodes[task.exec_node]
            stats_node = node
        else:
            node = None
            stats_node = self.nodes[task.decision_node]

        ncu, nmu, nnbu = stats_node.cpu_commit, stats_node.mem_commit, stats_node.bw_commit
        nmu = 0.0 if nmu < 0.0 else (1.0 if nmu > 1.0 else nmu)
        nnbu = 0.0 if nnbu < 0.0 else (1.0 if nnbu > 1.0 else nnbu)
        if node is not None:
            node.release_cpu(task.cpu_share)
            node.release_resident(task.mem_alloc, task.disk_alloc)

        t_current = now - task.arrival
        if self.scheduler.uses_state:
            stats_node.record_response(t_current, task.deadline)
        stats_node.record_outcome(True)

        weights = self.cfg.weights
        if tier == _LOCAL:
            wastage = 0.0
        else:
            wastage = resource_wastage(task.cpu_share, task.eff_cpu, task.mem_alloc,
                                       task.mem_frac, task.bw_alloc, task.bw_frac)
        utilization = resource_utilization(ncu, nmu, nnbu, weights)
        response = response_time_reward(t_current, task.deadline)
        throughput = (task.size_bits / t_current) / self.link.wired_rate_bps if t_current > 0.0 else 1.0
        qos = qos_reward(
            t_current,  # latency
            throughput if throughput <= 1.0 else 1.0,
            stats_node.reliability(),
            weights,
        )
        reward = total_reward(wastage, utilization, response, qos, weights)
        self.finish(task, now, True, reward, (wastage, utilization, response, qos))
        if node is not None:
            self.drain(node, now)

    def on_upload_expire(self, now: float, task: Task) -> None:
        # pushed in place of the upload-done, so the task is still uploading
        self.nodes[task.exec_node].release_bw(task.bw_alloc)
        self.drop(task, now)

    def on_queue_expire(self, now: float, task: Task) -> None:
        if not task.queued:
            # done, or left the queue to complete exactly at the bound (the
            # expiry, pushed when the task queued, has the lower sequence
            # number and dispatches first)
            return
        self.nodes[task.exec_node].release_resident(task.mem_alloc, task.disk_alloc)
        self.drop(task, now)

    def drain(self, node: NodeState, now: float) -> None:
        queue = node.run_queue
        while queue:
            head = queue[0]
            if not head.queued:
                queue.popleft()
                continue
            if now + head.proc_planned > head.bound:
                queue.popleft()
                node.release_resident(head.mem_alloc, head.disk_alloc)
                self.drop(head, now)
                continue
            if not self.try_start(node, head, now):
                break
            queue.popleft()

    def drop(self, task: Task, now: float) -> None:
        """Resolve a task as dropped: wastage 1, other components 0."""
        self.nodes[task.decision_node].record_outcome(False)
        self.finish(task, now, False, self.drop_reward, (1.0, 0.0, 0.0, 0.0))

    def finish(
        self,
        task: Task,
        now: float,
        serviced: bool,
        reward: float,
        components: tuple[float, float, float, float],
    ) -> None:
        task.queued = False
        record = TaskRecord(
            task.task_id,
            task.arrival,
            task.upload_planned if serviced else 0.0,
            task.wait if serviced else 0.0,
            task.proc_planned if serviced else 0.0,
            now,  # completion
            serviced,
            task.tier,
            task.exec_node,  # node_id
            task.decision_node,
            reward,
            components,
            self.episode_index,
        )
        self.ledger.append(record)
        if self.events is not None:
            self.events.append(record)
        if self.train:
            # a task resolves by its bound, which is at most the vehicle's exit
            x, y = task.vehicle.position_at(now, self.area)
            decision = self.nodes[task.decision_node]
            next_state = self.state_for(decision, task, len(self.grid.scan(x, y)[1]))
            update_q_value(
                self.scheduler.tables[task.decision_node],
                task.state_ordinal,
                task.action_ordinal,
                next_state,
                reward,
                self.cfg.agent,
            )


def run_episode(
    cfg: RunConfig,
    scheduler: Scheduler,
    seed: int,
    *,
    train: bool = False,
    collect_events: bool = False,
    vehicles: list[VehicleSpec] | None = None,
    episode_index: int = 0,
) -> EpisodeResult:
    """Simulate one traffic episode under the given scheduler."""
    return _Episode(cfg, scheduler, seed, train, collect_events, vehicles, episode_index).run()


def run_training(
    cfg: RunConfig,
    master_seed: int,
    checkpoint_dir: str | Path | None = None,
) -> TrainingResult:
    """Train per-node Q agents for cfg.agent.episodes episodes.

    Traffic is reseeded per episode from the master seed; epsilon follows
    the linear decay schedule. Final tables go to checkpoint_dir when
    given; a write failure raises CheckpointError carrying the curve.
    """
    cfg.validate()
    _check_master_seed(master_seed)
    tables = {i: QTable(NUM_STATES, NUM_ACTIONS) for i in range(cfg.sim.fog_nodes)}
    scheduler = build_scheduler(cfg, "qlearn", tables)
    curve: list[dict] = []
    for episode in range(cfg.agent.episodes):
        scheduler.epsilon = epsilon_at(episode, cfg.agent)
        result = run_episode(
            cfg,
            scheduler,
            derive_seed(master_seed, episode),
            train=True,
            episode_index=episode,
        )
        agg = result.aggregate
        curve.append(
            {
                "episode": episode,
                "epsilon": scheduler.epsilon,
                "tasks": agg.tasks,
                "serviced": agg.serviced,
                "reward_sum": agg.reward_sum,
            }
        )
    if checkpoint_dir is not None:
        try:
            save_tables(tables, checkpoint_dir)
        except OSError as exc:
            raise CheckpointError(f"checkpoint write failed: {exc}", curve) from exc
    return TrainingResult(curve, tables)


def run_evaluation(
    cfg: RunConfig,
    scheduler_name: str,
    seed: int,
    tables: dict[int, QTable] | None = None,
    collect_events: bool = False,
    vehicles: list[VehicleSpec] | None = None,
) -> EvalResult:
    """Evaluate a scheduler over cfg.sim.eval_episodes greedy episodes.

    Episode e runs with seed derive_seed(seed, e). `vehicles`, when given,
    replaces the sampled traffic in every episode (a recorded trace).
    """
    cfg.validate()
    _check_master_seed(seed)
    scheduler = build_scheduler(cfg, scheduler_name, tables)
    aggregates: list[EpisodeAggregate] = []
    for episode in range(cfg.sim.eval_episodes):
        result = run_episode(
            cfg,
            scheduler,
            derive_seed(seed, episode),
            collect_events=collect_events,
            vehicles=vehicles,
            episode_index=episode,
        )
        aggregates.append(result.aggregate)
        if episode == 0:
            # the first episode's ledger and event list are taken over, not
            # copied; later episodes extend them
            ledger = result.ledger
            events = result.events
            continue
        ledger.records.extend(result.ledger.records)
        if events is not None:
            events.extend(result.events)
    report = build_report(ledger, aggregates, cfg.sim.fog_nodes)
    return EvalResult(report, ledger, events)
