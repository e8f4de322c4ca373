"""Reward component worked examples, bounds, and validation tests."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfcsim.errors import ValidationError
from vfcsim.rewards import (
    RewardWeights,
    qos_reward,
    quality,
    resource_utilization,
    resource_wastage,
    response_time_reward,
    total_reward,
)

W = RewardWeights()


# -- wastage ---------------------------------------------------------------

def test_wastage_zero_when_allocation_exact():
    assert resource_wastage(0.5, 0.5, 0.2, 0.2, 0.1, 0.1) == 0.0


def test_wastage_worked_example():
    # gaps 0.3, 0.0, 0.1 over three resources of one task
    value = resource_wastage(0.8, 0.5, 0.6, 0.6, 0.4, 0.3)
    assert value == pytest.approx(0.4 / 3.0, abs=1e-12)


def test_wastage_rejects_negative_gap():
    with pytest.raises(ValidationError, match="efficient_cpu"):
        resource_wastage(0.4, 0.5, 0.0, 0.0, 0.0, 0.0)


def test_wastage_rejects_out_of_range():
    with pytest.raises(ValidationError, match="actual_mem"):
        resource_wastage(0.4, 0.2, 1.5, 0.0, 0.0, 0.0)


def test_wastage_bounded():
    rng = random.Random(11)
    for _ in range(500):
        effs = [rng.random() for _ in range(3)]
        acts = [e + rng.random() * (1.0 - e) for e in effs]
        v = resource_wastage(acts[0], effs[0], acts[1], effs[1], acts[2], effs[2])
        assert 0.0 <= v <= 1.0


# -- utilization -------------------------------------------------------------

def test_utilization_full_is_one():
    assert resource_utilization(1.0, 1.0, 1.0, W) == pytest.approx(1.0, abs=1e-12)


def test_utilization_half_everywhere():
    assert resource_utilization(0.5, 0.5, 0.5, W) == pytest.approx(0.5, abs=1e-12)


def test_utilization_cpu_only_weight():
    assert resource_utilization(1.0, 0.0, 0.0, W) == pytest.approx(0.4, abs=1e-12)


def test_utilization_rejects_out_of_range():
    with pytest.raises(ValidationError, match="nmu"):
        resource_utilization(0.0, -0.1, 0.0, W)


# -- response ----------------------------------------------------------------

def test_response_at_deadline_scores_zero():
    assert response_time_reward(10.0, 10.0) == 0.0


def test_response_instantaneous_scores_one():
    assert response_time_reward(0.0, 10.0) == 1.0


def test_response_worked_example():
    assert response_time_reward(4.0, 10.0) == pytest.approx(0.6, abs=1e-12)


def test_response_clamps_past_deadline():
    assert response_time_reward(25.0, 10.0) == 0.0


def test_response_requires_positive_t_max():
    with pytest.raises(ValidationError, match="t_max"):
        response_time_reward(1.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=100.0),
    t_max=st.floats(min_value=1e-6, max_value=100.0),
)
def test_response_identity(t, t_max):
    r = response_time_reward(t, t_max)
    assert 0.0 <= r <= 1.0
    if t <= t_max:
        assert r + t / t_max == pytest.approx(1.0, abs=1e-9)


# -- quality and qos -----------------------------------------------------------

def test_quality_perfect_sample():
    assert quality(W.latency_floor, 1.0, 1.0, W) == pytest.approx(1.0, abs=1e-12)


def test_quality_worked_example():
    assert quality(2.0 * W.latency_floor, 0.5, 0.5, W) == pytest.approx(0.5, abs=1e-12)


def test_quality_latency_below_floor_clamps():
    assert quality(0.0, 0.0, 0.0, W) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_quality_reads_the_floor_from_weights():
    # 2 ms is twice the default floor, and exactly a 2 ms floor
    weights = RewardWeights(w31=1.0, w32=0.0, w33=0.0, latency_floor=0.002)
    assert quality(0.002, 0.0, 0.0, weights) == 1.0
    assert quality(0.002, 0.0, 0.0, RewardWeights(w31=1.0, w32=0.0, w33=0.0)) == 0.5
    with pytest.raises(ValidationError, match="latency_floor"):
        quality(0.002, 0.0, 0.0, RewardWeights(latency_floor=0.0))


def test_qos_one_once_target_met():
    weights = RewardWeights(w31=0.0, w32=1.0, w33=0.0, quality_desired=0.9)
    assert qos_reward(1.0, 0.9, 0.0, weights) == 1.0


def test_qos_clamps_above_target():
    weights = RewardWeights(w31=0.0, w32=1.0, w33=0.0, quality_desired=0.5)
    assert qos_reward(1.0, 1.0, 0.0, weights) == 1.0


def test_qos_unit_gap_gives_inverse_e():
    # quality pinned to exactly 0 against a desired level of 1
    weights = RewardWeights(w31=0.0, w32=0.5, w33=0.5, quality_desired=1.0)
    assert qos_reward(1.0, 0.0, 0.0, weights) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_qos_rejects_target_outside_unit():
    with pytest.raises(ValidationError, match="quality_desired"):
        qos_reward(1.0, 0.0, 0.0, RewardWeights(quality_desired=1.5))


def test_qos_monotone_in_quality():
    prev = -1.0
    for thr in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = qos_reward(1.0, thr, 0.0, W)
        assert v >= prev
        prev = v


# -- total ---------------------------------------------------------------------

def test_total_best_case():
    assert total_reward(0.0, 1.0, 1.0, 1.0, W) == pytest.approx(0.7, abs=1e-12)


def test_total_worst_case():
    assert total_reward(1.0, 0.0, 0.0, 0.0, W) == pytest.approx(-0.3, abs=1e-12)


def test_total_all_zero():
    assert total_reward(0.0, 0.0, 0.0, 0.0, W) == 0.0


def test_total_validates_components():
    with pytest.raises(ValidationError, match="qos"):
        total_reward(0.0, 0.0, 0.0, 1.2, W)
    with pytest.raises(ValidationError, match="wastage"):
        total_reward(-0.2, 0.0, 0.0, 0.0, W)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.5", None, 1.5, -0.1])
def test_unit_checks_name_the_field(bad):
    with pytest.raises(ValidationError, match="utilization"):
        total_reward(0.0, bad, 0.0, 0.0, W)
    with pytest.raises(ValidationError, match="nnbu"):
        resource_utilization(0.0, 0.0, bad, W)
    with pytest.raises(ValidationError, match="actual_mem"):
        resource_wastage(0.5, 0.5, bad, 0.0, 0.5, 0.5)
    with pytest.raises(ValidationError, match="efficient_bw"):
        resource_wastage(0.5, 0.5, 0.5, 0.5, 1.0, bad)


def test_integer_fractions_accepted():
    # ints skip the float-only fast checks and pass the full ones
    assert total_reward(0, 1, 1, 1, W) == pytest.approx(0.7, abs=1e-12)
    assert resource_wastage(1, 0, 1, 1, 0, 0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_total_bounds_over_random_tuples():
    rng = random.Random(99)
    lo, hi = 0.0, 0.0
    for _ in range(100_000):
        r = total_reward(rng.random(), rng.random(), rng.random(), rng.random(), W)
        assert -0.3 - 1e-12 <= r <= 0.7 + 1e-12
        lo = min(lo, r)
        hi = max(hi, r)
    # the sample should actually exercise a wide band of the range
    assert lo < -0.1
    assert hi > 0.5


def test_total_monotone_per_component():
    base = total_reward(0.5, 0.5, 0.5, 0.5, W)
    assert total_reward(0.6, 0.5, 0.5, 0.5, W) < base
    assert total_reward(0.5, 0.6, 0.5, 0.5, W) > base
    assert total_reward(0.5, 0.5, 0.6, 0.5, W) > base
    assert total_reward(0.5, 0.5, 0.5, 0.6, W) > base


def test_weights_must_sum_to_one():
    with pytest.raises(ValidationError, match="w1..w4"):
        RewardWeights(w1=0.5).validate()
    with pytest.raises(ValidationError, match="w31..w33"):
        RewardWeights(w31=0.5, w32=0.5, w33=0.5).validate()
    RewardWeights().validate()


# -- validation on every argument position ----------------------------------
#
# Each scorer is listed with valid float arguments and, per position, the
# name its messages use and the check it applies: "unit" ([0, 1]),
# "nonneg" (finite and >= 0) or "positive" (finite and > 0). Arguments
# carried by RewardWeights are set on a copy of W.

def _with(field, value):
    return dataclasses.replace(W, **{field: value})


SCORERS = {
    "resource_wastage": (
        lambda a, w: resource_wastage(*a),
        (0.5, 0.25, 0.5, 0.25, 0.5, 0.25),
        (("actual_cpu", "unit"), ("efficient_cpu", "unit"), ("actual_mem", "unit"),
         ("efficient_mem", "unit"), ("actual_bw", "unit"), ("efficient_bw", "unit")),
    ),
    "resource_utilization": (
        lambda a, w: resource_utilization(*a, w),
        (0.5, 0.5, 0.5),
        (("ncu", "unit"), ("nmu", "unit"), ("nnbu", "unit")),
    ),
    "response_time_reward": (
        lambda a, w: response_time_reward(*a),
        (2.0, 5.0),
        (("t_current", "nonneg"), ("t_max", "positive")),
    ),
    "quality": (
        lambda a, w: quality(*a, w),
        (0.01, 0.5, 0.5),
        (("latency", "nonneg"), ("throughput", "unit"), ("reliability", "unit")),
    ),
    "qos_reward": (
        lambda a, w: qos_reward(*a, w),
        (0.01, 0.5, 0.5),
        (("latency", "nonneg"), ("throughput", "unit"), ("reliability", "unit")),
    ),
    "total_reward": (
        lambda a, w: total_reward(*a, w),
        (0.5, 0.5, 0.5, 0.5),
        (("wastage", "unit"), ("utilization", "unit"), ("response", "unit"), ("qos", "unit")),
    ),
}
# arguments read from the weights: (scorer, field, check)
WEIGHT_ARGS = (
    ("quality", "latency_floor", "positive"),
    ("qos_reward", "latency_floor", "positive"),
    ("qos_reward", "quality_desired", "unit"),
)
# out-of-range but finite values of each check
OUT_OF_RANGE = {"unit": (1.5, -0.5), "nonneg": (-0.5,), "positive": (0.0, -1.0)}


def expected_message(name, check, value):
    if check == "unit":
        if not math.isfinite(value):
            return f"{name} must be finite, got {value!r}"
        return f"{name}={value!r} outside [0, 1]"
    if check == "nonneg":
        return f"{name} must be >= 0, got {value!r}"
    return f"{name} must be positive, got {value!r}"


def bad_cases():
    for scorer, (_, valid, params) in SCORERS.items():
        for position, (name, check) in enumerate(params):
            for value in (math.nan, math.inf, -math.inf, *OUT_OF_RANGE[check]):
                yield pytest.param(scorer, position, None, name, check, value,
                                   id=f"{scorer}-{name}-{value!r}")
    for scorer, field, check in WEIGHT_ARGS:
        for value in (math.nan, math.inf, -math.inf, *OUT_OF_RANGE[check]):
            yield pytest.param(scorer, None, field, field, check, value,
                               id=f"{scorer}-{field}-{value!r}")


@pytest.mark.parametrize("scorer, position, field, name, check, value", bad_cases())
def test_each_argument_rejects_nan_inf_and_out_of_range(scorer, position, field, name,
                                                        check, value):
    fn, valid, _ = SCORERS[scorer]
    args = list(valid)
    weights = W
    if field is None:
        args[position] = value
    else:
        weights = _with(field, value)
    with pytest.raises(ValidationError) as exc:
        fn(tuple(args), weights)
    assert type(exc.value) is ValidationError
    assert str(exc.value) == expected_message(name, check, value)


def int_cases():
    for scorer, (_, valid, params) in SCORERS.items():
        for position, (name, _check) in enumerate(params):
            # an int the check accepts: 1 for every actual_* (above its
            # efficient value) and t_max, 0 elsewhere
            value = 1 if name.startswith("actual_") or name == "t_max" else 0
            yield pytest.param(scorer, position, None, value, id=f"{scorer}-{name}")
    for scorer, field, _check in WEIGHT_ARGS:
        yield pytest.param(scorer, None, field, 1, id=f"{scorer}-{field}")


@pytest.mark.parametrize("scorer, position, field, value", int_cases())
def test_each_argument_accepts_an_int_as_its_float(scorer, position, field, value):
    fn, valid, _ = SCORERS[scorer]
    as_int, as_float = list(valid), list(valid)
    if field is None:
        as_int[position] = value
        as_float[position] = float(value)
        assert fn(tuple(as_int), W) == fn(tuple(as_float), W)
    else:
        assert fn(valid, _with(field, value)) == fn(valid, _with(field, float(value)))


@pytest.mark.parametrize("scorer, first", [
    ("resource_wastage", "actual_cpu"),
    ("resource_utilization", "ncu"),
    ("response_time_reward", "t_max"),  # t_max is checked before t_current
    ("quality", "latency_floor"),
    ("qos_reward", "quality_desired"),
    ("total_reward", "wastage"),
])
def test_all_bad_arguments_name_the_first_checked(scorer, first):
    fn, valid, _ = SCORERS[scorer]
    weights = _with("latency_floor", math.nan)
    weights = dataclasses.replace(weights, quality_desired=math.nan)
    with pytest.raises(ValidationError, match=f"^{first}[ =]"):
        fn((math.nan,) * len(valid), weights)


def test_wastage_gap_checked_after_both_fractions_of_its_pair():
    with pytest.raises(ValidationError) as exc:
        resource_wastage(0.5, 0.25, 0.25, 0.5, 0.5, 1.5)
    assert str(exc.value) == "efficient_mem=0.5 exceeds actual_mem=0.25"
    with pytest.raises(ValidationError) as exc:
        resource_wastage(0.5, 0.25, 0.5, 0.25, 0.5, 1.5)
    assert str(exc.value) == "efficient_bw=1.5 outside [0, 1]"


def test_wastage_of_zero_gaps_is_positive_zero():
    # a running total starting at 0.0 never turned a -0.0 gap into -0.0
    w = resource_wastage(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0)
    assert math.copysign(1.0, w) == 1.0
