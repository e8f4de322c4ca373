"""Discretization of node and task telemetry into the tabular state space.

Twelve observed variables are reduced to coarse levels: eleven of them to
three levels and the SLA flag to two, giving 3**11 * 2 = 354294 states.
Rates are normalized by rate_scale, and every reading is mapped through
two thresholds; values landing exactly on a threshold take the upper
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .errors import ValidationError, check_unit


class Level(IntEnum):
    LOW = 0
    MEDIUM = 1
    HIGH = 2


class AppType(IntEnum):
    LIGHT = 0
    MEDIUM = 1
    HEAVY = 2


class ResponseLevel(IntEnum):
    FAST = 0
    MEDIUM = 1
    SLOW = 2


class SlaLevel(IntEnum):
    FULFILLED = 0
    NOT_FULFILLED = 1


@dataclass
class StateSpaceConfig:
    """Thresholds and normalization constants for discretization."""

    low_threshold: float = 1.0 / 3.0
    high_threshold: float = 2.0 / 3.0
    rate_scale: float = 1.0
    response_fast: float = 5.0
    response_slow: float = 10.0
    node_count_low: int = 1
    node_count_high: int = 2

    def validate(self) -> None:
        if not (0.0 < self.low_threshold < self.high_threshold < 1.0):
            raise ValidationError(
                "thresholds must satisfy 0 < low_threshold < high_threshold < 1, "
                f"got low_threshold={self.low_threshold!r} high_threshold={self.high_threshold!r}"
            )
        if not (self.rate_scale > 0.0 and math.isfinite(self.rate_scale)):
            raise ValidationError(f"rate_scale must be positive, got {self.rate_scale!r}")
        if not math.isfinite(self.response_slow):
            raise ValidationError(f"response_slow must be finite, got {self.response_slow!r}")
        if not (0.0 < self.response_fast < self.response_slow):
            raise ValidationError(
                "response thresholds must satisfy 0 < response_fast < response_slow, "
                f"got response_fast={self.response_fast!r} response_slow={self.response_slow!r}"
            )
        if not (0 < self.node_count_low < self.node_count_high):
            raise ValidationError(
                "node count thresholds must satisfy 0 < node_count_low < node_count_high, "
                f"got node_count_low={self.node_count_low!r} node_count_high={self.node_count_high!r}"
            )


@dataclass(frozen=True, slots=True)
class DiscreteState:
    """One point of the tabular state space."""

    cu: Level
    mu: Level
    dsu: Level
    nbu: Level
    nr: Level
    at: AppType
    ed: Level
    rt: ResponseLevel
    sla: SlaLevel
    or_: Level
    ncn: Level
    asd: Level


# Field order fixes the mixed-radix encoding; the SLA flag is the single
# binary digit. All-lowest maps to ordinal 0.
_RADICES = (3, 3, 3, 3, 3, 3, 3, 3, 2, 3, 3, 3)
NUM_STATES = 354294  # 3**11 * 2

assert math.prod(_RADICES) == NUM_STATES

_INF = math.inf


def _check_nonnegative(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if value < 0.0:
        raise ValidationError(f"{name}={value!r} must be >= 0")


def state_from_index(ordinal: int) -> DiscreteState:
    """Decode a state ordinal into its levels, one mixed-radix digit per
    DiscreteState field (the inverse of snapshot_ordinal's encoding)."""
    if not (0 <= ordinal < NUM_STATES):
        raise ValidationError(f"state ordinal {ordinal!r} outside [0, {NUM_STATES})")
    digits = []
    rem = ordinal
    for radix in reversed(_RADICES):
        digits.append(rem % radix)
        rem //= radix
    digits.reverse()
    (cu, mu, dsu, nbu, nr, at, ed, rt, sla, or_, ncn, asd) = digits
    return DiscreteState(
        cu=Level(cu),
        mu=Level(mu),
        dsu=Level(dsu),
        nbu=Level(nbu),
        nr=Level(nr),
        at=AppType(at),
        ed=Level(ed),
        rt=ResponseLevel(rt),
        sla=SlaLevel(sla),
        or_=Level(or_),
        ncn=Level(ncn),
        asd=Level(asd),
    )


def snapshot_ordinal(
    cpu_usage: float,
    mem_usage: float,
    disk_usage: float,
    net_bw_usage: float,
    request_rate: float,
    app_type_weight: float,
    expected_demand: float,
    recent_response_time: float,
    sla_met: bool,
    op_requirement: float,
    available_nodes: int,
    storage_availability: float,
    config: StateSpaceConfig,
) -> int:
    """State ordinal in [0, NUM_STATES) of one telemetry reading.

    The readings come positionally, one per DiscreteState field and in
    its order. Fractions lie in [0, 1], rates are in tasks/second, the
    response time in seconds and available_nodes is a count. This is the
    only encoder, and state_from_index its inverse. Raises
    ValidationError naming the offending field when a fraction leaves
    [0, 1], a rate, response time or node count is negative, or a reading
    is non-finite or not a number.
    """
    # One combined check on the success path: every chained comparison is
    # False for NaN, and `< inf` rejects +inf. Only when it fails do the
    # field-by-field checks run, so that the error names the first
    # offending field; readings that are not floats (ints included) take
    # them too.
    if not (
        cpu_usage.__class__ is mem_usage.__class__ is disk_usage.__class__
        is net_bw_usage.__class__ is request_rate.__class__
        is app_type_weight.__class__ is expected_demand.__class__
        is recent_response_time.__class__ is op_requirement.__class__
        is storage_availability.__class__ is float
        and 0.0 <= cpu_usage <= 1.0
        and 0.0 <= mem_usage <= 1.0
        and 0.0 <= disk_usage <= 1.0
        and 0.0 <= net_bw_usage <= 1.0
        and 0.0 <= app_type_weight <= 1.0
        and 0.0 <= op_requirement <= 1.0
        and 0.0 <= storage_availability <= 1.0
        and 0.0 <= request_rate < _INF
        and 0.0 <= expected_demand < _INF
        and 0.0 <= recent_response_time < _INF
        and available_nodes >= 0
    ):
        check_unit("cpu_usage", cpu_usage)
        check_unit("mem_usage", mem_usage)
        check_unit("disk_usage", disk_usage)
        check_unit("net_bw_usage", net_bw_usage)
        check_unit("app_type_weight", app_type_weight)
        check_unit("op_requirement", op_requirement)
        check_unit("storage_availability", storage_availability)
        _check_nonnegative("request_rate", request_rate)
        _check_nonnegative("expected_demand", expected_demand)
        _check_nonnegative("recent_response_time", recent_response_time)
        if available_nodes < 0:
            raise ValidationError(f"available_nodes={available_nodes!r} must be >= 0")

    low = config.low_threshold
    high = config.high_threshold
    rate_scale = config.rate_scale

    # mixed-radix digits in DiscreteState field order; a value exactly on
    # a threshold takes the upper level
    idx = 0 if cpu_usage < low else 1 if cpu_usage < high else 2
    idx = idx * 3 + (0 if mem_usage < low else 1 if mem_usage < high else 2)
    idx = idx * 3 + (0 if disk_usage < low else 1 if disk_usage < high else 2)
    idx = idx * 3 + (0 if net_bw_usage < low else 1 if net_bw_usage < high else 2)
    x = request_rate / rate_scale
    idx = idx * 3 + (0 if x < low else 1 if x < high else 2)
    idx = idx * 3 + (0 if app_type_weight < low else 1 if app_type_weight < high else 2)
    x = expected_demand / rate_scale
    idx = idx * 3 + (0 if x < low else 1 if x < high else 2)
    x = recent_response_time
    idx = idx * 3 + (0 if x < config.response_fast else 1 if x < config.response_slow else 2)
    idx = idx * 2 + (0 if sla_met else 1)
    idx = idx * 3 + (0 if op_requirement < low else 1 if op_requirement < high else 2)
    x = available_nodes
    idx = idx * 3 + (0 if x < config.node_count_low else 1 if x < config.node_count_high else 2)
    return idx * 3 + (
        0 if storage_availability < low else 1 if storage_availability < high else 2
    )
