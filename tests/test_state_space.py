"""Discretization and state encoding tests."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TelemetrySnapshot, discretize, discretize_by_field, state_index
from vfcsim.errors import ValidationError
from vfcsim.state_space import (
    NUM_STATES,
    AppType,
    DiscreteState,
    Level,
    ResponseLevel,
    SlaLevel,
    StateSpaceConfig,
    snapshot_ordinal,
    state_from_index,
)


def make_snapshot(**overrides) -> TelemetrySnapshot:
    base = dict(
        cpu_usage=0.0,
        mem_usage=0.0,
        disk_usage=0.0,
        net_bw_usage=0.0,
        request_rate=0.0,
        app_type_weight=0.0,
        expected_demand=0.0,
        recent_response_time=0.0,
        sla_met=True,
        op_requirement=0.0,
        available_nodes=0,
        storage_availability=0.0,
    )
    base.update(overrides)
    return TelemetrySnapshot(**base)


def readings(snapshot: TelemetrySnapshot) -> list:
    """The snapshot's fields in declaration order, as snapshot_ordinal takes them."""
    return [getattr(snapshot, f.name) for f in dataclasses.fields(TelemetrySnapshot)]


CFG = StateSpaceConfig()


def test_state_count():
    assert NUM_STATES == 3**11 * 2 == 354294


def test_low_cpu_usage_maps_low():
    state = discretize(make_snapshot(cpu_usage=0.10), CFG)
    assert state.cu is Level.LOW


def test_midpoint_snapshot_is_all_medium():
    snap = make_snapshot(
        cpu_usage=0.5,
        mem_usage=0.5,
        disk_usage=0.5,
        net_bw_usage=0.5,
        request_rate=0.5,
        app_type_weight=0.5,
        expected_demand=0.5,
        recent_response_time=7.5,
        sla_met=True,
        op_requirement=0.5,
        available_nodes=1,
        storage_availability=0.5,
    )
    state = discretize(snap, CFG)
    assert state.cu is Level.MEDIUM
    assert state.mu is Level.MEDIUM
    assert state.dsu is Level.MEDIUM
    assert state.nbu is Level.MEDIUM
    assert state.nr is Level.MEDIUM
    assert state.at is AppType.MEDIUM
    assert state.ed is Level.MEDIUM
    assert state.rt is ResponseLevel.MEDIUM
    assert state.sla is SlaLevel.FULFILLED
    assert state.or_ is Level.MEDIUM
    assert state.ncn is Level.MEDIUM
    assert state.asd is Level.MEDIUM


def test_threshold_boundaries_round_up():
    # exactly at a threshold lands in the upper bucket
    assert discretize(make_snapshot(cpu_usage=1.0 / 3.0), CFG).cu is Level.MEDIUM
    assert discretize(make_snapshot(cpu_usage=2.0 / 3.0), CFG).cu is Level.HIGH
    assert discretize(make_snapshot(mem_usage=1.0), CFG).mu is Level.HIGH
    assert discretize(make_snapshot(), CFG).cu is Level.LOW


def test_response_time_buckets():
    assert discretize(make_snapshot(recent_response_time=0.0), CFG).rt is ResponseLevel.FAST
    assert discretize(make_snapshot(recent_response_time=4.999), CFG).rt is ResponseLevel.FAST
    assert discretize(make_snapshot(recent_response_time=5.0), CFG).rt is ResponseLevel.MEDIUM
    assert discretize(make_snapshot(recent_response_time=9.999), CFG).rt is ResponseLevel.MEDIUM
    assert discretize(make_snapshot(recent_response_time=10.0), CFG).rt is ResponseLevel.SLOW


def test_node_count_buckets():
    assert discretize(make_snapshot(available_nodes=0), CFG).ncn is Level.LOW
    assert discretize(make_snapshot(available_nodes=1), CFG).ncn is Level.MEDIUM
    assert discretize(make_snapshot(available_nodes=2), CFG).ncn is Level.HIGH
    assert discretize(make_snapshot(available_nodes=9), CFG).ncn is Level.HIGH


def test_sla_flag_binary():
    assert discretize(make_snapshot(sla_met=True), CFG).sla is SlaLevel.FULFILLED
    assert discretize(make_snapshot(sla_met=False), CFG).sla is SlaLevel.NOT_FULFILLED


def test_rate_scale_divides_rates():
    cfg = StateSpaceConfig(rate_scale=10.0)
    assert discretize(make_snapshot(request_rate=3.0), cfg).nr is Level.LOW
    assert discretize(make_snapshot(request_rate=3.4), cfg).nr is Level.MEDIUM
    assert discretize(make_snapshot(expected_demand=7.0), cfg).ed is Level.HIGH


# the readings that must lie in [0, 1]
FRACTION_FIELDS = (
    "cpu_usage",
    "mem_usage",
    "disk_usage",
    "net_bw_usage",
    "app_type_weight",
    "op_requirement",
    "storage_availability",
)


FRACTION_LEVEL_ATTRS = dict(zip(FRACTION_FIELDS, ("cu", "mu", "dsu", "nbu", "at", "or_", "asd")))


@pytest.mark.parametrize("field", FRACTION_FIELDS)
def test_fraction_is_binned_as_read(field):
    # no cap rescales a fraction: its [0, 1] range spans all three levels
    attr = FRACTION_LEVEL_ATTRS[field]
    levels = [getattr(discretize(make_snapshot(**{field: v}), CFG), attr).value
              for v in (0.0, 0.3, 0.5, 0.7, 1.0)]
    assert levels == [0, 0, 1, 2, 2]


@pytest.mark.parametrize("field", FRACTION_FIELDS)
def test_fraction_validation_names_field(field):
    with pytest.raises(ValidationError, match=field):
        discretize(make_snapshot(**{field: 1.5}), CFG)
    with pytest.raises(ValidationError, match=field):
        discretize(make_snapshot(**{field: -0.01}), CFG)


def test_rate_validation():
    with pytest.raises(ValidationError, match="request_rate"):
        discretize(make_snapshot(request_rate=-1.0), CFG)
    with pytest.raises(ValidationError, match="expected_demand"):
        discretize(make_snapshot(expected_demand=-0.5), CFG)
    with pytest.raises(ValidationError, match="recent_response_time"):
        discretize(make_snapshot(recent_response_time=-0.1), CFG)
    with pytest.raises(ValidationError, match="available_nodes"):
        discretize(make_snapshot(available_nodes=-1), CFG)


def test_nan_rejected():
    with pytest.raises(ValidationError, match="cpu_usage"):
        discretize(make_snapshot(cpu_usage=float("nan")), CFG)


FLOAT_FIELDS = FRACTION_FIELDS + ("request_rate", "expected_demand", "recent_response_time")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.5", None])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_snapshot_ordinal_names_non_finite_or_non_numeric_field(field, bad):
    with pytest.raises(ValidationError, match=field):
        snapshot_ordinal(*readings(make_snapshot(**{field: bad})), CFG)
    with pytest.raises(ValidationError, match=field):
        discretize(make_snapshot(**{field: bad}), CFG)


def test_first_offending_field_is_named():
    snap = make_snapshot(request_rate=-1.0, storage_availability=2.0, cpu_usage=math.nan)
    with pytest.raises(ValidationError, match="cpu_usage"):
        snapshot_ordinal(*readings(snap), CFG)


def test_integer_readings_encode_like_floats():
    # ints skip the combined check and pass the field-by-field one
    ints = make_snapshot(cpu_usage=1, mem_usage=0, request_rate=2, recent_response_time=7,
                         available_nodes=1, storage_availability=1)
    floats = make_snapshot(cpu_usage=1.0, mem_usage=0.0, request_rate=2.0,
                           recent_response_time=7.0, available_nodes=1,
                           storage_availability=1.0)
    assert snapshot_ordinal(*readings(ints), CFG) == snapshot_ordinal(*readings(floats), CFG)


def test_index_of_all_lowest_is_zero():
    lowest = DiscreteState(
        cu=Level.LOW, mu=Level.LOW, dsu=Level.LOW, nbu=Level.LOW,
        nr=Level.LOW, at=AppType.LIGHT, ed=Level.LOW, rt=ResponseLevel.FAST,
        sla=SlaLevel.FULFILLED, or_=Level.LOW, ncn=Level.LOW, asd=Level.LOW,
    )
    assert state_index(lowest) == 0


def test_index_of_all_highest_is_last():
    highest = DiscreteState(
        cu=Level.HIGH, mu=Level.HIGH, dsu=Level.HIGH, nbu=Level.HIGH,
        nr=Level.HIGH, at=AppType.HEAVY, ed=Level.HIGH, rt=ResponseLevel.SLOW,
        sla=SlaLevel.NOT_FULFILLED, or_=Level.HIGH, ncn=Level.HIGH, asd=Level.HIGH,
    )
    assert state_index(highest) == NUM_STATES - 1


def test_index_round_trip_random_sample():
    rng = random.Random(7)
    for _ in range(1000):
        ordinal = rng.randrange(NUM_STATES)
        state = state_from_index(ordinal)
        assert state_index(state) == ordinal


def test_state_from_index_bounds():
    with pytest.raises(ValidationError):
        state_from_index(-1)
    with pytest.raises(ValidationError):
        state_from_index(NUM_STATES)


fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    cpu=fractions, mem=fractions, disk=fractions, nbw=fractions,
    rate=st.floats(min_value=0.0, max_value=5.0),
    app=fractions,
    demand=st.floats(min_value=0.0, max_value=5.0),
    rt=st.floats(min_value=0.0, max_value=30.0),
    sla=st.booleans(),
    opr=fractions,
    nodes=st.integers(min_value=0, max_value=12),
    stor=fractions,
)
def test_snapshot_ordinal_matches_two_step_path(
    cpu, mem, disk, nbw, rate, app, demand, rt, sla, opr, nodes, stor
):
    snap = make_snapshot(
        cpu_usage=cpu, mem_usage=mem, disk_usage=disk, net_bw_usage=nbw,
        request_rate=rate, app_type_weight=app, expected_demand=demand,
        recent_response_time=rt, sla_met=sla, op_requirement=opr,
        available_nodes=nodes, storage_availability=stor,
    )
    # discretize decodes snapshot_ordinal, so both are checked against
    # levels taken one field at a time
    reference = discretize_by_field(snap, CFG)
    assert snapshot_ordinal(*readings(snap), CFG) == state_index(reference)
    assert discretize(snap, CFG) == reference


@settings(max_examples=100, deadline=None)
@given(lo=fractions, hi=fractions)
def test_levels_monotone_in_usage(lo, hi):
    a, b = sorted((lo, hi))
    low_state = discretize(make_snapshot(cpu_usage=a), CFG)
    high_state = discretize(make_snapshot(cpu_usage=b), CFG)
    assert low_state.cu <= high_state.cu
