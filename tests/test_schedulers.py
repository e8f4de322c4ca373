"""Baseline and learned scheduler policy tests on synthetic decision contexts."""

import random

import pytest

from vfcsim.agent import QTable, Tier
from vfcsim.config import SimParams
from vfcsim.errors import ValidationError
from vfcsim.schedulers import (
    DecisionContext,
    FcfsScheduler,
    NodeView,
    Placement,
    QLearningScheduler,
    RoundRobinScheduler,
    WfqScheduler,
)


def view(node_id, free=0.8, max_share=0.8, req=0.1):
    return NodeView(
        node_id=node_id,
        free_share=free,
        max_share=max_share,
        req_share=req,
        upload_s=1.0,
    )


def make_ctx(nodes, cpu_mips=100.0, state=0, decision_node=0):
    return DecisionContext(
        cpu_mips=cpu_mips,
        nodes=nodes,
        decision_node=decision_node,
        state_ordinal=state,
    )


# -- fcfs --------------------------------------------------------------------

def test_fcfs_takes_first_free_node():
    ctx = make_ctx([view(0), view(1), view(2)])
    p = FcfsScheduler().select(ctx)
    assert p is not None and p.tier is Tier.FOG and p.node_id == 0


def test_fcfs_skips_unreachable():
    # node 0 is out of range, so it is not in ctx.nodes
    ctx = make_ctx([view(1), view(2)])
    p = FcfsScheduler().select(ctx)
    assert p.node_id == 1


def test_fcfs_queues_at_first_runnable_when_all_busy():
    # nothing free right now, but both nodes could run the task eventually
    ctx = make_ctx([view(0, free=0.0), view(1, free=0.05)])
    p = FcfsScheduler().select(ctx)
    assert p is not None and p.tier is Tier.FOG and p.node_id == 0


def test_fcfs_oversized_task_goes_to_cloud():
    # requirement above every node's lifetime capacity: relay via the
    # decision node, the nearest one
    ctx = make_ctx([view(0, req=0.9), view(1, req=0.9)], decision_node=1)
    p = FcfsScheduler().select(ctx)
    assert p.tier is Tier.CLOUD and p.node_id == 1
    assert p.cpu_share == 0.0


def test_fcfs_returns_none_when_nothing_reachable():
    ctx = make_ctx([])
    assert FcfsScheduler().select(ctx) is None


# -- round robin ----------------------------------------------------------------

def test_rr_rotates_across_nodes():
    rr = RoundRobinScheduler(3)
    rr.on_episode_start()
    picks = [rr.select(make_ctx([view(0), view(1), view(2)])).node_id
             for _ in range(4)]
    assert picks == [0, 1, 2, 0]


def test_rr_skips_saturated_node_from_cursor():
    rr = RoundRobinScheduler(3)
    rr.on_episode_start()

    def nodes():
        return [view(0), view(1, free=0.0), view(2)]

    first = rr.select(make_ctx(nodes()))
    second = rr.select(make_ctx(nodes()))
    assert first.node_id == 0
    assert second.node_id == 2  # cursor sat on 1, which has no free share


def test_rr_exact_fairness_over_full_cycles():
    rr = RoundRobinScheduler(4)
    rr.on_episode_start()
    counts = {i: 0 for i in range(4)}
    for _ in range(4 * 6):
        p = rr.select(make_ctx([view(j) for j in range(4)]))
        counts[p.node_id] += 1
    assert all(c == 6 for c in counts.values())


def test_rr_queue_fallback_keeps_rotating():
    rr = RoundRobinScheduler(2)
    rr.on_episode_start()

    def nodes():
        return [view(0, free=0.0), view(1, free=0.0)]

    first = rr.select(make_ctx(nodes()))
    second = rr.select(make_ctx(nodes()))
    assert (first.node_id, second.node_id) == (0, 1)


def test_rr_from_cursor_zero_places_as_fcfs():
    # both walk the same first-fit scan; RR only rotates where it starts
    rng = random.Random(7)
    for _ in range(200):
        nodes = [view(i, free=rng.choice([0.0, 0.3, 0.8]), req=rng.choice([0.2, 0.5, 0.9]))
                 for i in sorted(rng.sample(range(6), rng.randint(1, 6)))]
        rr = RoundRobinScheduler(6)
        expected = FcfsScheduler().select(make_ctx(nodes))
        assert rr.select(make_ctx(nodes)) == expected
        if expected.tier is Tier.FOG:
            assert rr.cursor == (expected.node_id + 1) % 6
        else:
            assert rr.cursor == 0


def test_rr_reset_on_episode_start():
    rr = RoundRobinScheduler(3)
    rr.select(make_ctx([view(0), view(1), view(2)]))
    rr.on_episode_start()
    assert rr.cursor == 0


def test_rr_rejects_bad_node_count():
    with pytest.raises(ValidationError):
        RoundRobinScheduler(0)


# -- wfq --------------------------------------------------------------------------

def test_wfq_first_task_lands_on_lowest_id():
    wfq = WfqScheduler([1.0, 1.0])
    wfq.on_episode_start()
    p = wfq.select(make_ctx([view(0), view(1)]))
    assert p.node_id == 0


def test_wfq_equal_weights_alternate():
    wfq = WfqScheduler([1.0, 1.0])
    wfq.on_episode_start()
    picks = [wfq.select(make_ctx([view(0), view(1)])).node_id
             for _ in range(6)]
    assert picks == [0, 1, 0, 1, 0, 1]


def test_wfq_two_to_one_share_split():
    wfq = WfqScheduler([2.0, 1.0])
    wfq.on_episode_start()
    counts = [0, 0]
    n = 300
    for _ in range(n):
        p = wfq.select(make_ctx([view(0), view(1)]))
        counts[p.node_id] += 1
    assert abs(counts[0] / n - 2.0 / 3.0) <= 0.02
    assert abs(counts[1] / n - 1.0 / 3.0) <= 0.02


def test_wfq_virtual_clocks_never_decrease():
    wfq = WfqScheduler([2.0, 1.0])
    wfq.on_episode_start()
    prev = list(wfq.virtual_finish)
    rng = random.Random(8)
    for _ in range(50):
        wfq.select(make_ctx([view(0), view(1)], cpu_mips=rng.uniform(10, 500)))
        now = list(wfq.virtual_finish)
        assert all(b >= a for a, b in zip(prev, now))
        prev = now


def test_wfq_ignores_ineligible_nodes():
    wfq = WfqScheduler([1.0, 1.0])
    wfq.on_episode_start()
    p = wfq.select(make_ctx([view(1)]))
    assert p.node_id == 1
    p = wfq.select(make_ctx([view(0, req=0.9), view(1)]))
    assert p.node_id == 1


def test_wfq_places_on_fog_exactly_when_a_node_fits():
    # a node that could ever grant the share always yields a fog
    # placement on such a node; otherwise the task goes to the cloud
    # through the decision node, the nearest reachable one, or nowhere
    # when none is reachable
    wfq = WfqScheduler([1.0, 2.0, 3.0, 1.5])
    wfq.on_episode_start()
    rng = random.Random(5)
    for _ in range(400):
        reach = [(i, rng.uniform(0.0, 0.8), rng.uniform(1.0, 500.0), rng.uniform(0.0, 1.2))
                 for i in range(4) if rng.random() < 0.7]
        nodes = [view(i, free=free, req=req) for i, free, _d, req in reach]
        nearest = min(reach, key=lambda t: t[2])[0] if reach else -1
        fits = [nv.node_id for nv in nodes if nv.req_share <= nv.max_share]
        p = wfq.select(make_ctx(nodes, cpu_mips=rng.uniform(10, 500), decision_node=nearest))
        if fits:
            assert p.tier is Tier.FOG and p.node_id in fits
        elif nodes:
            assert p.tier is Tier.CLOUD
            assert p.node_id == nearest
        else:
            assert p is None


def test_wfq_weight_validation():
    with pytest.raises(ValidationError):
        WfqScheduler([1.0, 0.0])
    with pytest.raises(ValidationError):
        WfqScheduler([-1.0])
    with pytest.raises(ValidationError):
        WfqScheduler([1.0, float("nan")])


# -- learned policy ------------------------------------------------------------------

def make_qlearn(table_values=None, epsilon=0.0, num_states=16, node=0):
    table = QTable(num_states, 9)
    for (s, a), v in (table_values or {}).items():
        table.set(s, a, v)
    sim = SimParams()
    bundles = (sim.bundle_small, sim.bundle_medium, sim.bundle_large)
    return QLearningScheduler({node: table}, random.Random(0), bundles, epsilon)


def test_qlearn_local_action():
    sched = make_qlearn()  # empty table: greedy argmax is ordinal 0, Local/Small
    ctx = make_ctx([view(0)], state=3)
    p = sched.select(ctx)
    assert p.tier is Tier.LOCAL
    assert p.node_id == -1
    assert p.cpu_share == 0.0
    assert p.bundle_factor == 1.0
    assert sched.last_action_ordinal == 0


def test_qlearn_fog_action_picks_least_loaded():
    sched = make_qlearn({(3, 4): 1.0})  # Fog/Medium
    ctx = make_ctx([view(0, free=0.2), view(1, free=0.6), view(2, free=0.4)], state=3)
    p = sched.select(ctx)
    assert p.tier is Tier.FOG
    assert p.node_id == 1
    assert p.bundle_factor == 1.5
    assert p.cpu_share == pytest.approx(0.1 * 1.5)
    assert p.cpu_share <= ctx.nodes[1].max_share
    assert sched.last_action_ordinal == 4


def test_qlearn_fog_tie_breaks_to_lowest_id():
    sched = make_qlearn({(0, 3): 1.0})  # Fog/Small
    ctx = make_ctx([view(0, free=0.5), view(1, free=0.5)])
    assert sched.select(ctx).node_id == 0


def test_qlearn_fog_share_capped_at_max():
    sched = make_qlearn({(0, 5): 1.0})  # Fog/Large
    ctx = make_ctx([view(0, req=0.5, max_share=0.8)])
    p = sched.select(ctx)
    assert p.cpu_share == pytest.approx(0.8)


def test_qlearn_cloud_action_relays_through_the_decision_node():
    sched = make_qlearn({(0, 8): 1.0}, node=1)  # Cloud/Large
    ctx = make_ctx([view(0), view(1)], decision_node=1)
    p = sched.select(ctx)
    assert p.tier is Tier.CLOUD
    assert p.node_id == 1
    assert p.bundle_factor == 2.0
    assert p.cpu_share == 0.0
    assert sched.last_action_ordinal == 8


def test_qlearn_failed_fog_resolution_reports_action():
    sched = make_qlearn({(0, 3): 1.0})  # Fog/Small with no viable node
    ctx = make_ctx([])
    assert sched.select(ctx) is None
    assert sched.last_action_ordinal == 3


def test_qlearn_uses_the_table_of_the_context_decision_node():
    # each node's table prefers a different tier; the context's
    # decision_node alone picks the table, and the scheduler keeps no
    # decision node of its own
    local, cloud = QTable(16, 9), QTable(16, 9)
    local.set(0, 1, 1.0)  # Local/Medium
    cloud.set(0, 7, 1.0)  # Cloud/Medium
    sim = SimParams()
    bundles = (sim.bundle_small, sim.bundle_medium, sim.bundle_large)
    sched = QLearningScheduler({0: local, 1: cloud}, random.Random(0), bundles, 0.0)
    assert not hasattr(sched, "decision_node")
    nodes = [view(0), view(1)]
    for decision_node, tier, ordinal in ((0, Tier.LOCAL, 1), (1, Tier.CLOUD, 7), (0, Tier.LOCAL, 1)):
        ctx = DecisionContext(100.0, nodes, decision_node, state_ordinal=0)
        assert sched.select(ctx).tier is tier
        assert sched.last_action_ordinal == ordinal


def test_qlearn_needs_tables():
    with pytest.raises(ValidationError):
        QLearningScheduler({}, random.Random(0), (1.0, 1.5, 2.0), 0.0)


# -- interface parity -------------------------------------------------------------------

def all_schedulers():
    return [
        FcfsScheduler(),
        RoundRobinScheduler(3),
        WfqScheduler([1.0, 1.0, 1.0]),
        make_qlearn({(0, 4): 1.0}),
    ]


def test_parity_allocation_covers_requirement():
    rng = random.Random(21)
    for sched in all_schedulers():
        sched.on_episode_start()
        for _ in range(50):
            req_share = rng.uniform(0.01, 0.4)
            nodes = [
                view(j, free=rng.uniform(0.0, 0.8), req=req_share)
                for j in range(3)
            ]
            ctx = make_ctx(nodes, cpu_mips=req_share * 5.0e9 / 1e6)
            p = sched.select(ctx)
            assert isinstance(p, Placement)
            # the engine grants memory and bandwidth as requirement x
            # bundle_factor and fog CPU as cpu_share
            assert p.bundle_factor >= 1.0
            if p.tier is Tier.FOG:
                node = next(nv for nv in ctx.nodes if nv.node_id == p.node_id)
                assert min(node.req_share, node.max_share) <= p.cpu_share <= node.max_share


def test_parity_none_when_isolated():
    ctx = make_ctx([])
    for sched in all_schedulers():
        sched.on_episode_start()
        if isinstance(sched, QLearningScheduler):
            sched_ctx = make_ctx([], state=0)
            # force a non-local action so the fog/cloud path must resolve
            sched.tables[0].set(0, 8, 1.0)
            assert sched.select(sched_ctx) is None
        else:
            assert sched.select(ctx) is None
