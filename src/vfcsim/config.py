"""Run configuration: a flat key = value file with module-prefixed keys.

Lines are `key = value`; blank lines and lines starting with # are
ignored. Every key has a default, so an empty file is a valid
configuration. dump_config renders the fully resolved configuration in a
canonical form that parses back to an identical RunConfig, which is what
run directories receive as config_echo.cfg for provenance.

scenario.name selects a built-in traffic scenario; individual scenario.*
statistics may then be overridden (or a fully custom scenario described).
state.rate_scale = 0 means "auto": it resolves to the scenario's entry
rate ANV/ADT.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .engine import RunConfig
from .errors import ConfigError, ValidationError
from .state_space import FRACTION_FIELDS
from .traffic import SCENARIOS, Scenario

# key -> (section attribute on RunConfig, field name, type tag)
_SECTIONS = {
    "state": "state",
    "reward": "weights",
    "agent": "agent",
    "link": "link",
    "sim": "sim",
}

_STATE_KEYS = {
    "low_threshold": "float",
    "high_threshold": "float",
    "rate_scale": "float",
    "response_fast": "float",
    "response_slow": "float",
    "node_count_low": "int",
    "node_count_high": "int",
}

_REWARD_WEIGHT_KEYS = {
    "w1": "float", "w2": "float", "w3": "float", "w4": "float",
    "w21": "float", "w22": "float", "w23": "float",
    "w31": "float", "w32": "float", "w33": "float",
}

_TOP_LEVEL_REWARD_KEYS = {
    "latency_floor": "float",
    "quality_desired": "float",
}

_AGENT_KEYS = {
    "alpha": "float",
    "gamma": "float",
    "epsilon_start": "float",
    "epsilon_end": "float",
    "episodes": "int",
    "max_time_steps": "int",
    "alpha_schedule": "str",
}

_LINK_KEYS = {
    "v2i_bandwidth_hz": "float",
    "tx_power_mw": "float",
    "noise_power_dbm": "float",
    "path_loss_exp": "float",
    "v2i_range_m": "float",
    "wired_rate_bps": "float",
    "cycles_per_bit": "float",
}

_SIM_KEYS = {
    "fog_nodes": "int",
    "area_m": "float",
    "cloud_cpu_hz": "float",
    "vehicle_cpu_min_hz": "float",
    "vehicle_cpu_max_hz": "float",
    "node_cpu_min_hz": "float",
    "node_cpu_max_hz": "float",
    "node_cpu_init": "float",
    "node_mem_init": "float",
    "node_disk_init": "float",
    "node_mem_mb": "float",
    "node_storage_mb": "float",
    "rolling_window": "int",
    "rate_window_s": "float",
    "demand_ema_alpha": "float",
    "decision_interval_s": "float",
    "arrival_prob": "float",
    "eval_episodes": "int",
    "bundle_small": "float",
    "bundle_medium": "float",
    "bundle_large": "float",
    "app_type_mips_scale": "float",
    "task_size_mb_min": "float",
    "task_size_mb_max": "float",
    "task_demand_mips_min": "float",
    "task_demand_mips_max": "float",
    "task_deadline_s_min": "float",
    "task_deadline_s_max": "float",
    "min_dwell_s": "float",
    "topology_seed": "int",
    "wfq_weights": "str",
}

_SCENARIO_KEYS = {
    "name": "str",
    "trace_count": "int",
    "adt": "float",
    "vdt": "float",
    "anv": "float",
    "vnv": "float",
    "asv": "float",
    "vsv": "float",
    "duration": "float",
}

DEFAULT_SCENARIO = "NO.1"


def known_keys() -> list[str]:
    keys = []
    keys += [f"state.{k}" for k in _STATE_KEYS]
    keys += [f"state.cap.{f}" for f in FRACTION_FIELDS]
    keys += [f"reward.{k}" for k in _REWARD_WEIGHT_KEYS]
    keys += [f"reward.{k}" for k in _TOP_LEVEL_REWARD_KEYS]
    keys += [f"agent.{k}" for k in _AGENT_KEYS]
    keys += [f"link.{k}" for k in _LINK_KEYS]
    keys += [f"sim.{k}" for k in _SIM_KEYS]
    keys += [f"scenario.{k}" for k in _SCENARIO_KEYS]
    return sorted(keys)


_KNOWN = set(known_keys())


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse key = value lines into a raw override map."""
    overrides: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key not in _KNOWN:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        overrides[key] = value
    return overrides


def _coerce(key: str, value: str, kind: str):
    try:
        if kind == "float":
            return float(value)
        if kind == "int":
            return int(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"invalid {kind} for {key}: {value!r}") from exc


def _kind_of(key: str) -> str:
    section, _, rest = key.partition(".")
    if section == "state":
        if rest.startswith("cap."):
            return "float"
        return _STATE_KEYS[rest]
    if section == "reward":
        return _REWARD_WEIGHT_KEYS.get(rest) or _TOP_LEVEL_REWARD_KEYS[rest]
    if section == "agent":
        return _AGENT_KEYS[rest]
    if section == "link":
        return _LINK_KEYS[rest]
    if section == "sim":
        return _SIM_KEYS[rest]
    return _SCENARIO_KEYS[rest]


def build_config(overrides: dict[str, str]) -> RunConfig:
    """Defaults plus overrides, validated. Raises ConfigError on bad values."""
    cfg = RunConfig()
    scenario_fields: dict[str, object] = {}
    for key, raw in overrides.items():
        if key not in _KNOWN:
            raise ConfigError(f"unknown key {key!r}")
        value = _coerce(key, raw, _kind_of(key))
        section, _, rest = key.partition(".")
        if section == "scenario":
            scenario_fields[rest] = value
        elif section == "state" and rest.startswith("cap."):
            cfg.state.caps[rest[len("cap."):]] = value
        elif section == "reward" and rest in _TOP_LEVEL_REWARD_KEYS:
            setattr(cfg, rest, value)
        else:
            setattr(getattr(cfg, _SECTIONS[section]), rest, value)

    name = scenario_fields.pop("name", DEFAULT_SCENARIO)
    base = SCENARIOS.get(name)
    if base is None:
        if not {"adt", "anv", "asv"}.issubset(scenario_fields):
            raise ConfigError(
                f"scenario {name!r} is not built in; custom scenarios need at "
                "least scenario.adt, scenario.anv and scenario.asv"
            )
        base = Scenario(
            name=name,
            trace_count=int(scenario_fields.pop("trace_count", 0)),
            adt=float(scenario_fields.pop("adt")),
            vdt=float(scenario_fields.pop("vdt", 0.0)),
            anv=float(scenario_fields.pop("anv")),
            vnv=float(scenario_fields.pop("vnv", 0.0)),
            asv=float(scenario_fields.pop("asv")),
            vsv=float(scenario_fields.pop("vsv", 0.0)),
            duration=float(scenario_fields.pop("duration", 300.0)),
        )
    if scenario_fields:
        base = dataclasses.replace(base, **scenario_fields)
    cfg.scenario = base

    # Unset (or explicitly zero) rate scale tracks the scenario's entry rate.
    if "state.rate_scale" not in overrides or cfg.state.rate_scale == 0.0:
        cfg.state.rate_scale = base.entry_rate

    try:
        cfg.validate()
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(
    path: str | Path | None,
    extra_overrides: dict[str, str] | None = None,
    scenario: str | None = None,
) -> RunConfig:
    """Read a config file (optional) and apply CLI-level overrides.

    Precedence per key, lowest to highest: defaults, file, --scenario,
    --set overrides.
    """
    overrides: dict[str, str] = {}
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        overrides.update(parse_config_text(text, str(path)))
    if scenario is not None:
        overrides["scenario.name"] = scenario
    if extra_overrides:
        for key, value in extra_overrides.items():
            if key not in _KNOWN:
                raise ConfigError(f"unknown key {key!r}")
            overrides[key] = value
    return build_config(overrides)


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Canonical resolved-config text; parses back to an equal RunConfig."""
    pairs: dict[str, object] = {}
    for rest in _STATE_KEYS:
        pairs[f"state.{rest}"] = getattr(cfg.state, rest)
    for name in FRACTION_FIELDS:
        pairs[f"state.cap.{name}"] = cfg.state.caps[name]
    for rest in _REWARD_WEIGHT_KEYS:
        pairs[f"reward.{rest}"] = getattr(cfg.weights, rest)
    for rest in _TOP_LEVEL_REWARD_KEYS:
        pairs[f"reward.{rest}"] = getattr(cfg, rest)
    for rest in _AGENT_KEYS:
        pairs[f"agent.{rest}"] = getattr(cfg.agent, rest)
    for rest in _LINK_KEYS:
        pairs[f"link.{rest}"] = getattr(cfg.link, rest)
    for rest in _SIM_KEYS:
        pairs[f"sim.{rest}"] = getattr(cfg.sim, rest)
    scenario = cfg.scenario
    if scenario is not None:
        for rest in _SCENARIO_KEYS:
            pairs[f"scenario.{rest}"] = getattr(scenario, rest)
    lines = [f"{key} = {_format(pairs[key])}" for key in sorted(pairs)]
    return "\n".join(lines) + "\n"
