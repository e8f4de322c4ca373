"""Scheduling policies: FCFS, Round-Robin, WFQ and the Q-learning agent.

Every scheduler consumes the same DecisionContext (a snapshot of node
availability plus the task's CPU demand) and emits a Placement or None
when no infrastructure can take the task. A Placement grants a CPU share
on the fog node and a bundle factor that scales the task's memory and
bandwidth grant: baselines grant exactly the requirement (factor 1); the
learned policy scales it by its chosen bundle.

Contract: ctx.nodes holds the fog nodes within V2I range of the vehicle,
and only those, in ascending node id; it is empty when no node is in
range. Placements on the fog or cloud tier must name one of them.

Shared fallback rule: a task that no reachable node could ever run (its
CPU requirement exceeds every reachable node's grantable share) goes to
the cloud, relayed through the decision node, the vehicle's nearest node,
which is in range whenever any node is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .agent import NUM_BUNDLES, QTable, Tier, select_action
from .errors import ValidationError

# tiers bound once, so the per-task paths read a global, not an enum member
_LOCAL = Tier.LOCAL
_FOG = Tier.FOG
_CLOUD = Tier.CLOUD


@dataclass(slots=True)
class NodeView:
    """One fog node within V2I range, as seen at decision time."""

    node_id: int
    # the engine's views keep free_share <= max_share: a node's CPU commit
    # never falls below its baseline
    free_share: float      # CPU share grantable right now
    max_share: float       # CPU share the node can ever grant
    req_share: float       # this task's CPU-share requirement on this node
    upload_s: float        # V2I upload time of this task to this node


@dataclass(slots=True)
class DecisionContext:
    """Inputs common to all schedulers for one task decision."""

    cpu_mips: float           # compute demand: task cycles / time to its bound, in MIPS
    nodes: list[NodeView]     # reachable nodes only, in ascending node id
    decision_node: int        # the vehicle's nearest node; it decides and relays cloud tasks
    state_ordinal: int = -1   # filled when the scheduler uses telemetry


@dataclass(slots=True)
class Placement:
    """A scheduling decision: where the task runs and with what grant."""

    tier: Tier
    node_id: int              # fog execution node, or cloud relay; -1 for local
    cpu_share: float          # share on the fog node; 0 for local/cloud
    bundle_factor: float


def _first_fit(nodes: list[NodeView]) -> NodeView | None:
    """In one pass: the first node with the task's share free now, else the
    first that could ever grant it, where the task queues, else None."""
    queue_at = None
    for nv in nodes:
        req = nv.req_share
        if req <= nv.max_share:
            if req <= nv.free_share:
                return nv
            if queue_at is None:
                queue_at = nv
    return queue_at


def _cloud_placement(ctx: DecisionContext, bundle_factor: float = 1.0) -> Placement | None:
    if not ctx.nodes:
        return None
    return Placement(_CLOUD, ctx.decision_node, 0.0, bundle_factor)


def _fog_placement(node: NodeView, bundle_factor: float = 1.0) -> Placement:
    share = node.req_share * bundle_factor
    if share > node.max_share:
        share = node.max_share
    return Placement(_FOG, node.node_id, share, bundle_factor)


class Scheduler:
    """Interface shared by all policies."""

    uses_state = False

    def select(self, ctx: DecisionContext) -> Placement | None:
        raise NotImplementedError

    def on_episode_start(self) -> None:
        """Reset any per-episode bookkeeping (cursors, virtual clocks)."""


class FcfsScheduler(Scheduler):
    """First-come-first-served: tasks are placed strictly in arrival order.

    The first reachable node (by node ID) with enough free capacity takes
    the task; if every reachable node is busy, the task joins the FIFO
    queue of the first reachable node that could ever run it.
    """

    def select(self, ctx: DecisionContext) -> Placement | None:
        nv = _first_fit(ctx.nodes)
        if nv is None:
            return _cloud_placement(ctx)
        return _fog_placement(nv)


class RoundRobinScheduler(Scheduler):
    """Cycle a cursor over node IDs, skipping busy or unreachable nodes.

    The cursor ranges over all num_nodes IDs; each decision walks the
    reachable nodes cyclically from the first ID at or past the cursor,
    which visits them in the order a walk over every ID would.
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValidationError(f"num_nodes={num_nodes!r} must be >= 1")
        self.num_nodes = num_nodes
        self.cursor = 0

    def on_episode_start(self) -> None:
        self.cursor = 0

    def select(self, ctx: DecisionContext) -> Placement | None:
        nodes = ctx.nodes
        n = len(nodes)
        start = 0
        while start < n and nodes[start].node_id < self.cursor:
            start += 1
        # without free capacity anywhere the task queues at the first
        # runnable node from the cursor, still advancing the rotation
        nv = _first_fit(nodes[start:] + nodes[:start])
        if nv is None:
            return _cloud_placement(ctx)
        self.cursor = (nv.node_id + 1) % self.num_nodes
        return _fog_placement(nv)


class WfqScheduler(Scheduler):
    """Weighted fair queuing across fog nodes.

    The task goes to the eligible node with the smallest virtual finish
    time (ties to the lowest node ID), whose clock then advances by the
    task's compute demand divided by the node weight. Long-run task
    shares converge to the weight ratios.
    """

    def __init__(self, weights: list[float]):
        self.weights = list(weights)
        for w in self.weights:
            if not w > 0.0:  # a NaN fails too
                raise ValidationError(f"wfq weight must be positive, got {w!r}")
        self.virtual_finish = [0.0] * len(self.weights)  # monotone per node

    def on_episode_start(self) -> None:
        self.virtual_finish = [0.0] * len(self.weights)

    def select(self, ctx: DecisionContext) -> Placement | None:
        vft = self.virtual_finish
        best: NodeView | None = None
        for nv in ctx.nodes:
            if not nv.req_share <= nv.max_share:
                continue
            if best is None or vft[nv.node_id] < vft[best.node_id]:
                best = nv
        if best is None:
            return _cloud_placement(ctx)
        # compute demand in MIPS stands in for the packet length
        vft[best.node_id] += ctx.cpu_mips / self.weights[best.node_id]
        return _fog_placement(best)


class QLearningScheduler(Scheduler):
    """Epsilon-greedy policy over per-node Q-tables.

    The decision node's table picks an action ordinal, decoded as a tier
    and a bundle; the fog tier resolves to the least-loaded reachable
    node, the cloud tier relays through the decision node itself, and the
    bundle factor scales the granted resources above the bare
    requirement. Greedy unless a driver sets epsilon; exploring needs the
    generator the episode sets as rng.
    """

    uses_state = True
    epsilon = 0.0
    rng = None

    def __init__(self, tables: dict[int, QTable], bundle_factors: tuple[float, float, float]):
        if not tables:
            raise ValidationError("qlearn scheduler needs at least one q-table")
        self.tables = tables
        self.bundle_factors = bundle_factors
        self.last_action_ordinal = -1  # the action of the latest select(), placed or not

    def select(self, ctx: DecisionContext) -> Placement | None:
        table = self.tables[ctx.decision_node]
        action = select_action(table, ctx.state_ordinal, self.epsilon, self.rng)
        self.last_action_ordinal = action
        tier, bundle = divmod(action, NUM_BUNDLES)
        if tier == _LOCAL:
            return Placement(_LOCAL, -1, 0.0, 1.0)
        if tier == _CLOUD:
            return _cloud_placement(ctx, self.bundle_factors[bundle])
        # least-loaded viable node; iteration order makes ties go to the
        # lowest node ID
        best: NodeView | None = None
        for nv in ctx.nodes:
            if not nv.req_share <= nv.max_share:
                continue
            if best is None or nv.free_share > best.free_share:
                best = nv
        if best is None:
            return None
        return _fog_placement(best, self.bundle_factors[bundle])
