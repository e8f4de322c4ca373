"""Discretization of node and task telemetry into the tabular state space.

Twelve readings are reduced to coarse levels, in this order: cpu, memory,
disk and network-bandwidth usage, request rate, app type, expected
demand, recent response time, the SLA flag, operational requirement,
available nodes and storage availability. The SLA flag takes two levels
and the others three, giving 3**11 * 2 = 354294 states. The request
rate and expected demand are read as multiples of the scenario's vehicle
entry rate ANV/ADT; a value exactly on a threshold takes the upper level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, check_unit


@dataclass
class StateSpaceConfig:
    """Thresholds and normalization constants for discretization."""

    low_threshold: float = 1.0 / 3.0
    high_threshold: float = 2.0 / 3.0
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


# One mixed-radix digit per reading in reading order, the first the most
# significant and the SLA flag binary; all-lowest is ordinal 0.
NUM_STATES = 3**11 * 2

_INF = math.inf


def _check_nonnegative(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if value < 0.0:
        raise ValidationError(f"{name}={value!r} must be >= 0")


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

    The readings come positionally in the module's reading order, cpu
    usage first and storage availability last. Fractions lie in [0, 1],
    the request rate and expected demand are multiples of the scenario's
    entry rate ANV/ADT (the caller divides), the response time is in
    seconds and available_nodes is a count. This is the only encoder.
    Raises ValidationError naming the offending field when a fraction
    leaves [0, 1], a rate, response time or node count is negative, or a
    reading is non-finite or not a number.
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

    # mixed-radix digits in reading order; a value exactly on a threshold
    # takes the upper level
    idx = 0 if cpu_usage < low else 1 if cpu_usage < high else 2
    idx = idx * 3 + (0 if mem_usage < low else 1 if mem_usage < high else 2)
    idx = idx * 3 + (0 if disk_usage < low else 1 if disk_usage < high else 2)
    idx = idx * 3 + (0 if net_bw_usage < low else 1 if net_bw_usage < high else 2)
    idx = idx * 3 + (0 if request_rate < low else 1 if request_rate < high else 2)
    idx = idx * 3 + (0 if app_type_weight < low else 1 if app_type_weight < high else 2)
    idx = idx * 3 + (0 if expected_demand < low else 1 if expected_demand < high else 2)
    x = recent_response_time
    idx = idx * 3 + (0 if x < config.response_fast else 1 if x < config.response_slow else 2)
    idx = idx * 2 + (0 if sla_met else 1)
    idx = idx * 3 + (0 if op_requirement < low else 1 if op_requirement < high else 2)
    x = available_nodes
    idx = idx * 3 + (0 if x < config.node_count_low else 1 if x < config.node_count_high else 2)
    return idx * 3 + (
        0 if storage_availability < low else 1 if storage_availability < high else 2
    )
