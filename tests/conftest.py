"""Shared fixtures: small fast configurations for engine-level tests."""

import random

import pytest

from vfcsim import load_config


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def tiny_cfg():
    """Light traffic over a short horizon; runs in well under a second."""
    return load_config(
        None,
        {"scenario.name": "NO.4", "scenario.duration": "40", "sim.eval_episodes": "1"},
    )


@pytest.fixture
def quiet_cfg():
    """A configuration whose traffic never generates tasks."""
    return load_config(
        None,
        {"scenario.name": "NO.4", "scenario.duration": "20", "sim.arrival_prob": "0.0"},
    )
