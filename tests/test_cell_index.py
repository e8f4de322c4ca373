"""The engine's cell-list lookup (scan, whose reachable list also gives
training's next state its count of nodes in range) against a full scan of
every fog node, the length and caching of its sub-cell lists, and
round-robin over reachable-only views against the full-list rule."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nearest_and_reachable, round_robin_full_list
from vfcsim.agent import Tier
from vfcsim.config import build_config
from vfcsim.engine import SUBCELLS, CellIndex, _subcell_plan, build_nodes
from vfcsim.schedulers import DecisionContext, NodeView, RoundRobinScheduler

NODE_COUNTS = (1, 2, 9, 10, 12, 144)
AREA = 3000.0


def index_for(fog_nodes, range_m, area=AREA):
    cfg = build_config({
        "sim.fog_nodes": str(fog_nodes),
        "sim.area_m": repr(area),
        "link.v2i_range_m": repr(range_m),
    })
    nodes = build_nodes(cfg)
    return CellIndex(nodes, cfg.sim, range_m), [(n.x, n.y) for n in nodes]


def assert_matches(index, centres, range_m, x, y):
    nearest, reachable = index.scan(x, y)
    want_nearest, want_reachable = nearest_and_reachable(centres, x, y, range_m)
    assert nearest.node_id == want_nearest, (x, y)
    assert [node.node_id for node, _d2 in reachable] == want_reachable, (x, y)


def boundary_coordinates(fog_nodes, area=AREA):
    """0, area, every cell edge and centre, every sub-cell edge, and their
    float neighbours."""
    k = math.ceil(math.sqrt(fog_nodes))
    cell = area / k
    sub = cell / SUBCELLS
    coords = {0.0, area}
    for j in range(k + 1):
        for c in (j * cell, (j + 0.5) * cell):
            coords.update({c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf)})
    for j in range(k * SUBCELLS + 1):
        c = j * sub
        coords.update({c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf)})
    return sorted(c for c in coords if 0.0 <= c <= area)


def test_boundaries_corners_and_ties_match_full_scan():
    # ranges below one cell, about one cell, and several cells (rings >= 2)
    for fog_nodes in NODE_COUNTS:
        cell = AREA / math.ceil(math.sqrt(fog_nodes))
        for range_m in (0.3 * cell, 0.5 * cell, cell, 1.3 * cell, 2.5 * cell):
            index, centres = index_for(fog_nodes, range_m)
            coords = boundary_coordinates(fog_nodes)
            for x in coords:
                for y in coords:
                    assert_matches(index, centres, range_m, x, y)


def test_lookup_rounding_at_sub_cell_edges():
    # On 1000 m, cells and sub-cells are not exact in binary. A point one
    # ulp below a sub-cell edge that the lookup puts above it, with the
    # range set to its exact distance from a node centre, needs the
    # plan's margins to keep that node.
    k = 3
    cell = 1000.0 / k
    sub = cell / SUBCELLS
    centres_1d = [(c + 0.5) * cell for c in range(k)]
    checked = 0
    for a in range(1, k * SUBCELLS):
        y = math.nextafter(a * sub, -math.inf)
        if int(y / sub) != a:
            continue
        for cy in centres_1d:
            range_m = abs(y - cy)
            index, centres = index_for(k * k, range_m, 1000.0)
            for x in centres_1d:
                assert_matches(index, centres, range_m, x, y)
                assert_matches(index, centres, range_m, y, x)
                checked += 1
    assert checked


@settings(max_examples=300, deadline=None)
@given(
    fog_nodes=st.sampled_from(NODE_COUNTS),
    range_cells=st.floats(min_value=0.05, max_value=4.0),
    fx=st.floats(min_value=0.0, max_value=1.0),
    fy=st.floats(min_value=0.0, max_value=1.0),
)
def test_random_positions_match_full_scan(fog_nodes, range_cells, fx, fy):
    range_m = range_cells * AREA / math.ceil(math.sqrt(fog_nodes))
    index, centres = index_for(fog_nodes, range_m)
    assert_matches(index, centres, range_m, fx * AREA, fy * AREA)


@pytest.mark.parametrize("fog_nodes, area, most", [(144, 12000.0, 2.2), (9, 3000.0, 1.8)])
def test_sub_cell_lists_keep_about_two_nodes(fog_nodes, area, most):
    # cells 1000 m wide and the default 500 m range: a sub-cell keeps its
    # own node, plus the neighbours that can tie or reach it near the edges
    index, _centres = index_for(fog_nodes, 500.0, area)
    lengths = [len(nodes) for nodes in index.lists]
    assert len(lengths) == (math.ceil(math.sqrt(fog_nodes)) * SUBCELLS) ** 2
    assert sum(lengths) / len(lengths) <= most


def test_plan_is_built_once_per_geometry():
    index_for(12, 700.0)
    before = _subcell_plan.cache_info()
    index, _centres = index_for(12, 700.0)
    after = _subcell_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # each distinct list is one tuple, shared by the sub-cells that have it
    entries, _lists = _subcell_plan(12, AREA, 700.0)
    assert len({id(nodes) for nodes in index.lists}) == len(entries)


def test_round_robin_matches_full_list_rule():
    rng = random.Random(41)
    for trial in range(200):
        num_nodes = rng.randint(1, 12)
        rr = RoundRobinScheduler(num_nodes)
        rr.on_episode_start()
        cursor = 0
        for task_id in range(30):
            full = [
                (
                    rng.random() < 0.5,
                    rng.uniform(0.0, 0.9),
                    rng.uniform(0.0, 0.8),
                    0.8,
                    rng.uniform(0.0, 500.0),
                )
                for _ in range(num_nodes)
            ]
            views = [
                NodeView(i, free, mx, d, req, 1.0)
                for i, (r, req, free, mx, d) in enumerate(full)
                if r
            ]
            ctx = DecisionContext(100.0, views)
            placement = rr.select(ctx)
            tier, node_id, cursor = round_robin_full_list(cursor, full)
            if tier is None:
                assert placement is None
            else:
                assert placement.tier is (Tier.FOG if tier == "fog" else Tier.CLOUD)
                assert placement.node_id == node_id
            assert rr.cursor == cursor, (trial, task_id)
