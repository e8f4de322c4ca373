"""Composite reward for allocation decisions.

The scalar reward combines four normalized components:

    r = -w1 * wastage + w2 * utilization + w3 * response + w4 * qos

with every component in [0, 1], so r is bounded by [-w1, w2 + w3 + w4]
([-0.3, 0.7] at the default weights). A dropped task is scored with
wastage = 1 and the other components 0, i.e. exactly -w1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError

logger = logging.getLogger(__name__)

DEFAULT_LATENCY_FLOOR = 1e-3
DEFAULT_QUALITY_DESIRED = 0.9


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
    latency_floor: float = DEFAULT_LATENCY_FLOOR
    quality_desired: float = DEFAULT_QUALITY_DESIRED

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


@dataclass(slots=True)
class WastageSample:
    """Actual vs efficient usage fractions for one allocation."""

    actual_cpu: float
    efficient_cpu: float
    actual_mem: float
    efficient_mem: float
    actual_bw: float
    efficient_bw: float


@dataclass(slots=True)
class UtilizationSample:
    """Normalized CPU/memory/bandwidth usage of the serving node."""

    ncu: float
    nmu: float
    nnbu: float


@dataclass(slots=True)
class ResponseSample:
    """Observed completion latency against the task's tolerance."""

    t_current: float
    t_max: float


@dataclass(slots=True)
class QualitySample:
    """Observed latency (s), normalized throughput and reliability."""

    latency: float
    throughput: float
    reliability: float


def _check_unit(name: str, value: float) -> None:
    if value.__class__ is float and 0.0 <= value <= 1.0:  # False for NaN
        return
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if value < 0.0 or value > 1.0:
        raise ValidationError(f"{name}={value!r} outside [0, 1]")


def _check_pair(name: str, actual: float, efficient: float) -> None:
    _check_unit(f"actual_{name}", actual)
    _check_unit(f"efficient_{name}", efficient)
    if efficient > actual:
        raise ValidationError(
            f"efficient_{name}={efficient!r} exceeds actual_{name}={actual!r}"
        )


def resource_wastage(samples: Iterable[WastageSample]) -> float:
    """Mean over-allocation across tasks, normalized into [0, 1].

    Sums the (actual - efficient) gaps over all three resources of every
    sample and divides by 3n. An empty batch scores 0 (and logs a note),
    so idle periods are not rewarded for wasting nothing.
    """
    total = 0.0
    n = 0
    for s in samples:
        for name, actual, efficient in (
            ("cpu", s.actual_cpu, s.efficient_cpu),
            ("mem", s.actual_mem, s.efficient_mem),
            ("bw", s.actual_bw, s.efficient_bw),
        ):
            if not (
                actual.__class__ is efficient.__class__ is float
                and 0.0 <= efficient <= actual <= 1.0
            ):
                _check_pair(name, actual, efficient)
            total += actual - efficient
        n += 1
    if n == 0:
        logger.info("resource_wastage: empty sample batch scored as 0")
        return 0.0
    return total / (3.0 * n)


def resource_utilization(sample: UtilizationSample, weights: RewardWeights) -> float:
    """Weighted mix of the node's normalized usage readings."""
    _check_unit("ncu", sample.ncu)
    _check_unit("nmu", sample.nmu)
    _check_unit("nnbu", sample.nnbu)
    return weights.w21 * sample.ncu + weights.w22 * sample.nmu + weights.w23 * sample.nnbu


def response_time_reward(sample: ResponseSample) -> float:
    """(t_max - min(t_current, t_max)) / t_max; 1 is instantaneous, 0 is at or past t_max."""
    if not (math.isfinite(sample.t_max) and sample.t_max > 0.0):
        raise ValidationError(f"t_max must be positive, got {sample.t_max!r}")
    if not (math.isfinite(sample.t_current) and sample.t_current >= 0.0):
        raise ValidationError(f"t_current must be >= 0, got {sample.t_current!r}")
    t = sample.t_current if sample.t_current < sample.t_max else sample.t_max
    return (sample.t_max - t) / sample.t_max


def quality(
    sample: QualitySample,
    weights: RewardWeights,
    latency_floor: float = DEFAULT_LATENCY_FLOOR,
) -> float:
    """Achieved service quality in [0, 1].

    The latency term is latency_floor / max(latency, latency_floor), so a
    latency at or below the floor scores 1 and the term decays toward 0;
    throughput and reliability enter as already-normalized fractions.
    """
    if not (math.isfinite(latency_floor) and latency_floor > 0.0):
        raise ValidationError(f"latency_floor must be positive, got {latency_floor!r}")
    if not (math.isfinite(sample.latency) and sample.latency >= 0.0):
        raise ValidationError(f"latency must be >= 0, got {sample.latency!r}")
    _check_unit("throughput", sample.throughput)
    _check_unit("reliability", sample.reliability)
    lat = sample.latency if sample.latency > latency_floor else latency_floor
    return (
        weights.w31 * (latency_floor / lat)
        + weights.w32 * sample.throughput
        + weights.w33 * sample.reliability
    )


def qos_reward(
    sample: QualitySample,
    weights: RewardWeights,
    latency_floor: float = DEFAULT_LATENCY_FLOOR,
    quality_desired: float = DEFAULT_QUALITY_DESIRED,
) -> float:
    """min(1, exp(-(quality_desired - quality))): 1 once the target is met."""
    _check_unit("quality_desired", quality_desired)
    q = quality(sample, weights, latency_floor)
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
    _check_unit("wastage", wastage)
    _check_unit("utilization", utilization)
    _check_unit("response", response)
    _check_unit("qos", qos)
    return (
        -weights.w1 * wastage
        + weights.w2 * utilization
        + weights.w3 * response
        + weights.w4 * qos
    )
