"""Configuration parsing, defaults, precedence, and round-trip tests."""

import dataclasses
import hashlib
import math
import random
import re
from pathlib import Path

import pytest

from vfcsim import config
from vfcsim.config import (
    RunConfig,
    build_config,
    dump_config,
    known_keys,
    load_config,
    parse_config_text,
)
from vfcsim.engine import run_episode
from vfcsim.errors import ConfigError, ValidationError
from vfcsim.schedulers import FcfsScheduler
from vfcsim.traffic import SCENARIOS, Scenario, sample_vehicles


def test_defaults_cover_reference_setup():
    cfg = build_config({})
    assert cfg.link.v2i_bandwidth_hz == 2.0e7
    assert cfg.link.cycles_per_bit == 500.0
    assert cfg.link.v2i_range_m == 500.0
    assert cfg.sim.fog_nodes == 9
    assert cfg.agent.alpha == 0.1
    assert cfg.agent.gamma == 0.9
    assert cfg.agent.episodes == 100
    assert cfg.agent.epsilon_start == 0.1
    assert cfg.agent.epsilon_end == 0.01
    assert cfg.scenario.name == "NO.1"
    assert cfg.scenario.duration == 300.0
    assert cfg.weights.w1 == 0.3
    assert cfg.weights.w4 == 0.2


@pytest.mark.parametrize("adt", ["0", "-5"])
def test_scenario_checked_before_rate_scale_is_derived(adt):
    # the entry rate ANV/ADT divided by zero, or gave a negative rate
    # scale that was reported instead of the ADT
    with pytest.raises(ConfigError, match=r"^scenario adt must be positive, got -?\d"):
        build_config({"scenario.adt": adt})


@pytest.mark.parametrize("key, value, named", [
    # d ** path_loss_exp overflowed inside the episode
    ("link.path_loss_exp", "3000", "path_loss_exp=3000.0 overflows the path loss at v2i_range_m=500.0"),
    # validated, but every upload then failed with a zero rate
    ("link.path_loss_exp", "100", "Shannon rate at 500.0 m is 0.0 bps"),
    # the noise power underflowed to 0 mW, so the SNR divided by zero
    ("link.noise_power_dbm", "-114000", "noise_power_dbm=-114000.0 gives a noise power of 0.0 mW"),
    # dbm_to_mw overflowed inside the episode
    ("link.noise_power_dbm", "3100", "noise_power_dbm=3100.0 gives a noise power of inf mW"),
], ids=["path_loss_exp-overflow", "path_loss_exp-zero-rate", "noise_power_dbm-underflow",
        "noise_power_dbm-overflow"])
def test_link_that_carries_no_data_rejected(key, value, named):
    with pytest.raises(ConfigError, match=re.escape(named)) as exc:
        build_config({key: value})
    assert key.partition(".")[2] in str(exc.value)


def test_parse_skips_blank_and_comment_lines():
    text = "\n# setup\nagent.episodes = 7\n\nsim.fog_nodes=4\n"
    overrides = parse_config_text(text, "run.cfg")
    assert overrides == {"agent.episodes": "7", "sim.fog_nodes": "4"}


def test_a_hash_after_a_value_is_part_of_the_value():
    # only a line that starts with "#" is a comment
    overrides = parse_config_text("agent.episodes = 2  # paper uses 100\n", "run.cfg")
    assert overrides == {"agent.episodes": "2  # paper uses 100"}
    named = "invalid int for agent.episodes: '2  # paper uses 100'"
    with pytest.raises(ConfigError, match=re.escape(named)):
        build_config(overrides)


def test_parse_unknown_key_names_location():
    with pytest.raises(ConfigError, match=r"run\.cfg:3: unknown key 'agent\.beta'"):
        parse_config_text("\n\nagent.beta = 1\n", "run.cfg")


def test_parse_repeated_key_names_both_lines():
    # the file ran with the last value and echoed it, silently
    text = "sim.arrival_prob = 0.05\n\nsim.arrival_prob = 0.9\n"
    with pytest.raises(ConfigError, match=r"^run\.cfg:3: sim\.arrival_prob already set on line 1$"):
        parse_config_text(text, "run.cfg")


def test_parse_malformed_line():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("agent.episodes 7\n", "run.cfg")


def test_build_rejects_out_of_range_alpha():
    with pytest.raises(ConfigError, match="alpha"):
        build_config({"agent.alpha": "1.5"})


def test_build_rejects_bad_literal():
    with pytest.raises(ConfigError):
        build_config({"agent.episodes": "many"})


def test_scenario_selection_and_field_override():
    cfg = build_config({"scenario.name": "NO.4", "scenario.duration": "60"})
    assert cfg.scenario.anv == 207.9
    assert cfg.scenario.duration == 60.0


def test_custom_scenario_requires_core_fields():
    with pytest.raises(ConfigError, match="custom scenarios"):
        build_config({"scenario.name": "rush-hour", "scenario.adt": "100"})
    cfg = build_config({
        "scenario.name": "rush-hour",
        "scenario.adt": "100",
        "scenario.anv": "50",
        "scenario.asv": "5",
    })
    assert cfg.scenario.name == "rush-hour"
    assert cfg.scenario.entry_rate == pytest.approx(0.5)


@pytest.mark.parametrize("overrides", [
    # a custom scenario's VDT defaults to 0, so every dwell draw is 0.5 s
    {"scenario.name": "short", "scenario.adt": "0.5", "scenario.anv": "10",
     "scenario.asv": "5"},
    {"sim.min_dwell_s": "400"},
], ids=["custom-adt-below-the-default-floor", "floor-above-no1-adt"])
def test_dwell_floor_above_adt_rejected(overrides):
    # dwell sampling would redraw without end
    with pytest.raises(ConfigError, match=r"^sim\.min_dwell_s=\S+ exceeds scenario\.adt=\S+$"):
        build_config(overrides)


def test_dwell_floor_at_adt_accepted():
    cfg = build_config({"scenario.name": "short", "scenario.adt": "2", "scenario.anv": "10",
                        "scenario.asv": "5", "scenario.duration": "20", "sim.min_dwell_s": "2"})
    vehicles = sample_vehicles(cfg.scenario, random.Random(1), cfg.sim.area_m, 2.0e9, 6.0e9,
                               cfg.sim.min_dwell_s)
    assert vehicles and {v.dwell for v in vehicles} == {2.0}


def test_load_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("agent.episodes = 7\nscenario.name = NO.2\nsim.fog_nodes = 4\n")
    # file beats defaults
    cfg = load_config(path)
    assert (cfg.agent.episodes, cfg.scenario.name, cfg.sim.fog_nodes) == (7, "NO.2", 4)
    # overrides beat the file; the command line orders its sources into them
    cfg = load_config(path, {"agent.episodes": "9", "scenario.name": "NO.4"})
    assert (cfg.agent.episodes, cfg.scenario.name, cfg.sim.fog_nodes) == (9, "NO.4", 4)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_load_config_unknown_override_key():
    with pytest.raises(ConfigError, match=r"^unknown key 'agent\.beta'$"):
        load_config(None, {"agent.beta": "1"})


def test_dump_round_trip():
    cfg = build_config({
        "agent.episodes": "12",
        "scenario.name": "NO.3",
        "sim.arrival_prob": "0.2",
        "state.response_fast": "4.5",
        "reward.w1": "0.25",
        "reward.w2": "0.35",
    })
    text = dump_config(cfg)
    rebuilt = build_config(parse_config_text(text, "dump"))
    assert dump_config(rebuilt) == text
    assert rebuilt.agent.episodes == 12
    assert rebuilt.weights.w1 == 0.25
    assert rebuilt.state.response_fast == 4.5
    assert rebuilt.scenario.name == "NO.3"


def test_default_run_config_is_complete():
    # RunConfig() carries the built-in NO.1, so it validates, echoes and runs
    cfg = RunConfig()
    cfg.validate()
    assert cfg.scenario == SCENARIOS["NO.1"]
    assert build_config(parse_config_text(dump_config(cfg), "dump")) == cfg
    assert run_episode(cfg, FcfsScheduler(), 1).ledger.k_total > 0


def test_dump_lists_every_known_key():
    text = dump_config(build_config({}))
    dumped = {line.split(" = ")[0] for line in text.strip().splitlines()}
    assert dumped == set(known_keys())


def test_known_keys_sorted_and_stable():
    keys = known_keys()
    assert keys == sorted(keys)
    assert "agent.alpha" in keys
    assert "link.wired_rate_bps" in keys
    assert "sim.arrival_prob" in keys


CUSTOM_SCENARIO = {"scenario.name": "rush-hour", "scenario.adt": "100", "scenario.anv": "50", "scenario.asv": "5"}

# SHA-256 of dump_config(build_config(overrides)), recorded before the key
# list was derived from the dataclasses, then re-derived by deleting the
# lines of the REMOVED_KEYS below from those echoes; config_echo.cfg must
# keep its bytes.
ECHO_SHA256 = (
    ({}, "be66586474b04406333b544b05aa2e1d068f56fd913c5b072e2da73bdb6e2afe"),
    (
        {"scenario.name": "NO.4", "reward.latency_floor": "0.002"},
        "5be1efd871d2a4beedb0f555c4730db1dfc3c986fe9881b77553d6fd4d1ba3eb",
    ),
    (CUSTOM_SCENARIO, "7fb3ab4726c0e46bdaa0fbbcfbaef193f981f88439b78c28a69039c7c26cfef6"),
)


@pytest.mark.parametrize("overrides,digest", ECHO_SHA256)
def test_dump_bytes_pinned(overrides, digest):
    text = dump_config(build_config(overrides))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 of dump_config for each built-in scenario, recorded while
# reward.latency_floor and reward.quality_desired were RunConfig fields,
# then re-derived by deleting the lines of the REMOVED_KEYS below
SCENARIO_ECHO_SHA256 = {
    "NO.1": "be66586474b04406333b544b05aa2e1d068f56fd913c5b072e2da73bdb6e2afe",
    "NO.2": "e3da148a1279988473379644ee2b6fe1ccca293cf033eb5c3c344fcb2858884a",
    "NO.3": "351701fcb427b1c61a9f974d17a147c2f7c077c65bfe26a450ff6df64010856d",
    "NO.4": "f5b1406f9a385f90781fc5a86feaa78d593df98d3529220f0687e03859910df6",
}


@pytest.mark.parametrize("name", sorted(SCENARIO_ECHO_SHA256))
def test_builtin_scenario_echo_pinned(name):
    assert sorted(SCENARIO_ECHO_SHA256) == sorted(SCENARIOS)
    text = dump_config(build_config({"scenario.name": name}))
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIO_ECHO_SHA256[name]
    assert [line.partition(" = ")[0] for line in text.splitlines()] == known_keys()


def test_every_key_is_a_section_field():
    # one rule maps keys to fields: no key is a RunConfig field of its own
    cfg = build_config({})
    assert {f.name for f in dataclasses.fields(cfg)} == {
        attr for attr, _ in config._SECTIONS.values()
    }
    assert cfg.weights.latency_floor == 1e-3
    assert cfg.weights.quality_desired == 0.9


@pytest.mark.parametrize("key, value, named", [
    ("reward.latency_floor", 0.0, "latency_floor must be positive"),
    ("reward.latency_floor", -1e-3, "latency_floor must be positive"),
    ("reward.quality_desired", 1.5, "quality_desired=1.5 outside [0, 1]"),
    # random.Random(-s) is random.Random(s): the default's negative would
    # silently build the default node CPUs
    ("sim.topology_seed", -20231, "topology_seed=-20231 must be >= 0"),
])
def test_bad_value_checked_by_its_section(key, value, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        build_config({key: repr(value)})
    prefix, _, name = key.partition(".")
    attr = config._SECTIONS[prefix][0]
    section = dataclasses.replace(getattr(build_config({}), attr), **{name: value})
    with pytest.raises(ValidationError, match=re.escape(named)):
        section.validate()


def test_known_keys_pinned():
    keys = known_keys()
    assert len(keys) == 67
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert digest == "0ba4bb08306bbd9ee1424596552563b13c98ca6080b69563aa7f8c8456342085"


# Keys that once selected a second code path (per-field state caps, a
# harmonic learning-rate schedule and alternative WFQ weights), changed
# nothing at all (the scenario's trace count and vehicle-count variance)
# or set a value a second way (a cap on the decision ticks, and a state
# rate scale that only the scenario's entry rate ANV/ADT may set).
REMOVED_KEYS = (
    "agent.alpha_schedule",
    "agent.max_time_steps",
    "scenario.trace_count",
    "scenario.vnv",
    "sim.wfq_weights",
    "state.cap.app_type_weight",
    "state.cap.cpu_usage",
    "state.cap.disk_usage",
    "state.cap.mem_usage",
    "state.cap.net_bw_usage",
    "state.cap.op_requirement",
    "state.cap.storage_availability",
    "state.rate_scale",
)


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_unknown(key):
    assert key not in known_keys()
    with pytest.raises(ConfigError, match=f"unknown key '{re.escape(key)}'"):
        build_config({key: "1.0"})
    with pytest.raises(ConfigError, match=f"run.cfg:2: unknown key '{re.escape(key)}'"):
        parse_config_text(f"agent.episodes = 3\n{key} = 1.0\n", "run.cfg")


def _value(cfg, key):
    """Read a key's value straight from the RunConfig fields."""
    prefix, _, name = key.partition(".")
    sections = {
        "state": cfg.state,
        "reward": cfg.weights,
        "agent": cfg.agent,
        "link": cfg.link,
        "sim": cfg.sim,
        "scenario": cfg.scenario,
    }
    return getattr(sections[prefix], name)


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("key", known_keys())
def test_default_round_trips_with_its_type(key):
    default = _value(build_config({}), key)
    value = _value(build_config({key: _text(default)}), key)
    assert type(value) is type(default)
    assert value == default


@pytest.mark.parametrize("field", dataclasses.fields(Scenario), ids=lambda f: f.name)
def test_custom_scenario_field_keeps_its_type(field):
    # a custom scenario has no built-in values, so each field is given one
    # of its annotated type
    kind = {"int": int, "float": float, "str": str}[field.type]
    text = {"int": "3", "float": "2.5", "str": "my-road"}[field.type]
    cfg = build_config({**CUSTOM_SCENARIO, f"scenario.{field.name}": text})
    value = getattr(cfg.scenario, field.name)
    assert type(value) is kind
    assert value == kind(text)


def test_unsupported_annotation_fails_key_derivation(monkeypatch):
    @dataclasses.dataclass
    class Flags:
        verbose: bool = False

    monkeypatch.setitem(config._SECTIONS, "flags", ("flags", Flags))
    with pytest.raises(TypeError, match="flags.verbose"):
        config._derive_tags()


# build_config rejects these before the sections validate; the dataclass
# checks still guard configs built in code
MAX_FIELDS = (
    "vehicle_cpu_max_hz",
    "node_cpu_max_hz",
    "task_size_mb_max",
    "task_demand_mips_max",
    "task_deadline_s_max",
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", MAX_FIELDS)
def test_non_finite_maximum_rejected(name, value):
    sim = dataclasses.replace(build_config({}).sim, **{name: value})
    with pytest.raises(ValidationError, match=rf"\b{name}\b"):
        sim.validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("section, name", [("sim", "bundle_large"), ("state", "response_slow")])
def test_non_finite_upper_bound_rejected(section, name, value):
    params = dataclasses.replace(getattr(build_config({}), section), **{name: value})
    with pytest.raises(ValidationError, match=rf"\b{name}\b"):
        params.validate()


FLOAT_KEYS = [key for key in known_keys() if config._TAGS[key] == "float"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected_naming_key(key, value):
    # the section checks alone blamed another key for some of these: the
    # weight group or all three bundle factors
    name = key.rpartition(".")[2]
    with pytest.raises(ConfigError, match=rf"\b{re.escape(name)}\b"):
        build_config({key: value})


def test_readme_ini_example_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    overrides = parse_config_text(blocks[0], "README.md")
    assert overrides
    build_config(overrides)
