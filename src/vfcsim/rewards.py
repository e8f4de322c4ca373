"""Composite reward for allocation decisions.

The scalar reward combines four normalized components:

    r = -w1 * wastage + w2 * utilization + w3 * response + w4 * qos

with every component in [0, 1], so r is bounded by [-w1, w2 + w3 + w4]
([-0.3, 0.7] at the default weights). A dropped task is scored with
wastage = 1 and the other components 0, i.e. exactly -w1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, check_unit


@dataclass
class RewardWeights:
    """Weights of the reward mixture and its utilization/quality submixes.

    w1..w4 weight wastage/utilization/response/qos and must sum to 1;
    w21..w23 mix CPU/memory/bandwidth usage inside utilization; w31..w33
    mix latency/throughput/reliability inside the quality score. Each
    group sums to 1 within 1e-9. latency_floor and quality_desired are
    the floor and target that qos_reward scores the quality against.
    """

    w1: float = 0.3
    w2: float = 0.3
    w3: float = 0.2
    w4: float = 0.2
    w21: float = 0.4
    w22: float = 0.3
    w23: float = 0.3
    w31: float = 1.0 / 3.0
    w32: float = 1.0 / 3.0
    w33: float = 1.0 / 3.0
    latency_floor: float = 1e-3
    quality_desired: float = 0.9

    def validate(self) -> None:
        groups = {
            "w1..w4": (self.w1, self.w2, self.w3, self.w4),
            "w21..w23": (self.w21, self.w22, self.w23),
            "w31..w33": (self.w31, self.w32, self.w33),
        }
        for name, values in groups.items():
            for v in values:
                if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
                    raise ValidationError(f"weights {name} must be finite and >= 0, got {v!r}")
            total = math.fsum(values)
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(f"weights {name} must sum to 1, got {total!r}")
        if not (math.isfinite(self.latency_floor) and self.latency_floor > 0.0):
            raise ValidationError(f"latency_floor must be positive, got {self.latency_floor!r}")
        if not (0.0 <= self.quality_desired <= 1.0):
            raise ValidationError(f"quality_desired={self.quality_desired!r} outside [0, 1]")


_INF = math.inf

# Every scorer below validates its inputs with one combined condition on
# the success path: chained comparisons are False for NaN, `< _INF`
# rejects +inf, and the class test sends ints and other numbers down the
# slow path. Only when it fails do the field-by-field checks run, in the
# order written, so the error names the first offending argument.


def _check_pair(name: str, actual: float, efficient: float) -> None:
    check_unit(f"actual_{name}", actual)
    check_unit(f"efficient_{name}", efficient)
    if efficient > actual:
        raise ValidationError(
            f"efficient_{name}={efficient!r} exceeds actual_{name}={actual!r}"
        )


def resource_wastage(
    actual_cpu: float,
    efficient_cpu: float,
    actual_mem: float,
    efficient_mem: float,
    actual_bw: float,
    efficient_bw: float,
) -> float:
    """Mean over-allocation of one task, in [0, 1]: the (actual - efficient)
    gaps of cpu, mem and bw, summed in that order, divided by 3."""
    if not (
        actual_cpu.__class__ is efficient_cpu.__class__ is actual_mem.__class__
        is efficient_mem.__class__ is actual_bw.__class__ is efficient_bw.__class__
        is float
        and 0.0 <= efficient_cpu <= actual_cpu <= 1.0
        and 0.0 <= efficient_mem <= actual_mem <= 1.0
        and 0.0 <= efficient_bw <= actual_bw <= 1.0
    ):
        _check_pair("cpu", actual_cpu, efficient_cpu)
        _check_pair("mem", actual_mem, efficient_mem)
        _check_pair("bw", actual_bw, efficient_bw)
    # the leading 0.0 keeps a -0.0 gap from signing the sum
    return (
        0.0 + (actual_cpu - efficient_cpu) + (actual_mem - efficient_mem)
        + (actual_bw - efficient_bw)
    ) / 3.0


def resource_utilization(ncu: float, nmu: float, nnbu: float, weights: RewardWeights) -> float:
    """Weighted mix of the node's normalized CPU, memory and bandwidth usage."""
    if not (
        ncu.__class__ is nmu.__class__ is nnbu.__class__ is float
        and 0.0 <= ncu <= 1.0
        and 0.0 <= nmu <= 1.0
        and 0.0 <= nnbu <= 1.0
    ):
        check_unit("ncu", ncu)
        check_unit("nmu", nmu)
        check_unit("nnbu", nnbu)
    return weights.w21 * ncu + weights.w22 * nmu + weights.w23 * nnbu


def response_time_reward(t_current: float, t_max: float) -> float:
    """(t_max - min(t_current, t_max)) / t_max; 1 is instantaneous, 0 is at or past t_max."""
    if not (
        t_current.__class__ is t_max.__class__ is float
        and 0.0 < t_max < _INF
        and 0.0 <= t_current < _INF
    ):
        if not (math.isfinite(t_max) and t_max > 0.0):
            raise ValidationError(f"t_max must be positive, got {t_max!r}")
        if not (math.isfinite(t_current) and t_current >= 0.0):
            raise ValidationError(f"t_current must be >= 0, got {t_current!r}")
    t = t_current if t_current < t_max else t_max
    return (t_max - t) / t_max


def quality(latency: float, throughput: float, reliability: float, weights: RewardWeights) -> float:
    """Achieved service quality in [0, 1] of an observed latency (s) and a
    normalized throughput and reliability.

    The latency term is weights.latency_floor / max(latency, floor), so a
    latency at or below the floor scores 1 and the term decays toward 0;
    throughput and reliability enter as already-normalized fractions.
    """
    latency_floor = weights.latency_floor
    if not (
        latency_floor.__class__ is latency.__class__ is throughput.__class__
        is reliability.__class__ is float
        and 0.0 < latency_floor < _INF
        and 0.0 <= latency < _INF
        and 0.0 <= throughput <= 1.0
        and 0.0 <= reliability <= 1.0
    ):
        if not (math.isfinite(latency_floor) and latency_floor > 0.0):
            raise ValidationError(f"latency_floor must be positive, got {latency_floor!r}")
        if not (math.isfinite(latency) and latency >= 0.0):
            raise ValidationError(f"latency must be >= 0, got {latency!r}")
        check_unit("throughput", throughput)
        check_unit("reliability", reliability)
    lat = latency if latency > latency_floor else latency_floor
    return (
        weights.w31 * (latency_floor / lat)
        + weights.w32 * throughput
        + weights.w33 * reliability
    )


def qos_reward(latency: float, throughput: float, reliability: float, weights: RewardWeights) -> float:
    """min(1, exp(-(weights.quality_desired - quality))): 1 once the target is met."""
    quality_desired = weights.quality_desired
    if not (quality_desired.__class__ is float and 0.0 <= quality_desired <= 1.0):
        check_unit("quality_desired", quality_desired)
    # a module-global lookup, so a wrapper set on rewards.quality sees it
    q = quality(latency, throughput, reliability, weights)
    raw = math.exp(-(quality_desired - q))
    return raw if raw < 1.0 else 1.0


def total_reward(
    wastage: float,
    utilization: float,
    response: float,
    qos: float,
    weights: RewardWeights,
) -> float:
    """Combine the four components; each must already lie in [0, 1]."""
    if not (
        wastage.__class__ is utilization.__class__ is response.__class__
        is qos.__class__ is float
        and 0.0 <= wastage <= 1.0
        and 0.0 <= utilization <= 1.0
        and 0.0 <= response <= 1.0
        and 0.0 <= qos <= 1.0
    ):
        check_unit("wastage", wastage)
        check_unit("utilization", utilization)
        check_unit("response", response)
        check_unit("qos", qos)
    return (
        -weights.w1 * wastage
        + weights.w2 * utilization
        + weights.w3 * response
        + weights.w4 * qos
    )
