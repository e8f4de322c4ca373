"""Run configuration: a flat key = value file with module-prefixed keys.

Lines are `key = value`; blank lines and lines starting with # are
ignored. Every key has a default, so an empty file is a valid
configuration. dump_config renders the fully resolved configuration in a
canonical form that parses back to an identical RunConfig, which is what
run directories receive as config_echo.cfg for provenance.

The keys are the fields of the section dataclasses (`<prefix>.<field>`,
prefixes in _SECTIONS), typed by their annotations. The only other keys
are reward.latency_floor and reward.quality_desired, which are RunConfig
fields of their own.

scenario.name selects a built-in traffic scenario; individual scenario.*
statistics may then be overridden (or a fully custom scenario described).
state.rate_scale = 0 means "auto": it resolves to the scenario's entry
rate ANV/ADT.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from .agent import HyperParams
from .engine import RunConfig, SimParams
from .errors import ConfigError, ValidationError
from .link import LinkParams
from .rewards import RewardWeights
from .state_space import StateSpaceConfig
from .traffic import SCENARIOS, Scenario

# key prefix -> (RunConfig attribute, dataclass whose fields are the keys)
_SECTIONS = {
    "state": ("state", StateSpaceConfig),
    "reward": ("weights", RewardWeights),
    "agent": ("agent", HyperParams),
    "link": ("link", LinkParams),
    "sim": ("sim", SimParams),
    "scenario": ("scenario", Scenario),
}

# RunConfig's own fields that are keyed under the reward prefix.
_RUN_CONFIG_KEYS = ("reward.latency_floor", "reward.quality_desired")

# What a custom scenario gets for the fields it leaves out; duration keeps
# its Scenario default, and the other fields without one must be set.
_CUSTOM_SCENARIO_DEFAULTS = {"trace_count": 0, "vdt": 0.0, "vnv": 0.0, "vsv": 0.0}
_SCENARIO_REQUIRED = {f.name for f in dataclasses.fields(Scenario) if f.default is dataclasses.MISSING}

DEFAULT_SCENARIO = "NO.1"


def _derive_tags() -> dict[str, str]:
    """Key -> type tag ("float", "int" or "str") from the field annotations."""
    tags = {}
    for prefix, (_, cls) in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            tags[f"{prefix}.{f.name}"] = f.type
    run_config_types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for key in _RUN_CONFIG_KEYS:
        tags[key] = run_config_types[key.partition(".")[2]]
    untyped = sorted(key for key, tag in tags.items() if tag not in ("float", "int", "str"))
    if untyped:
        raise TypeError(f"config keys need a float, int or str annotation: {untyped}")
    return dict(sorted(tags.items()))


_TAGS = _derive_tags()


def known_keys() -> list[str]:
    return list(_TAGS)


def _slot(cfg: RunConfig, key: str) -> tuple[object, str]:
    """Where key's value is stored: (object, attribute). The object is
    None when cfg has no scenario."""
    prefix, _, name = key.partition(".")
    if key in _RUN_CONFIG_KEYS:
        return cfg, name
    return getattr(cfg, _SECTIONS[prefix][0]), name


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
        if key not in _TAGS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        overrides[key] = value
    return overrides


def _coerce(key: str, value: str, kind: str):
    if kind == "str":
        return value
    try:
        number = float(value) if kind == "float" else int(value)
    except ValueError as exc:
        raise ConfigError(f"invalid {kind} for {key}: {value!r}") from exc
    # every float key is a finite quantity; rejecting here names the key,
    # where a section check may blame another key for the same value
    if kind == "float" and not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def build_config(overrides: dict[str, str]) -> RunConfig:
    """Defaults plus overrides, validated. Raises ConfigError on bad values."""
    cfg = RunConfig()
    scenario_fields: dict[str, object] = {}
    for key, raw in overrides.items():
        if key not in _TAGS:
            raise ConfigError(f"unknown key {key!r}")
        value = _coerce(key, raw, _TAGS[key])
        holder, attr = _slot(cfg, key)
        if holder is None:  # a scenario.* key: the Scenario is built below
            scenario_fields[attr] = value
        else:
            setattr(holder, attr, value)

    name = scenario_fields.get("name", DEFAULT_SCENARIO)
    base = SCENARIOS.get(name)
    if base is None:
        scenario_fields = {**_CUSTOM_SCENARIO_DEFAULTS, **scenario_fields}
        if not _SCENARIO_REQUIRED.issubset(scenario_fields):
            raise ConfigError(
                f"scenario {name!r} is not built in; custom scenarios need at "
                "least scenario.adt, scenario.anv and scenario.asv"
            )
        base = Scenario(**scenario_fields)
    elif scenario_fields:
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
            if key not in _TAGS:
                raise ConfigError(f"unknown key {key!r}")
            overrides[key] = value
    return build_config(overrides)


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Canonical resolved-config text; parses back to an equal RunConfig."""
    lines = []
    for key in _TAGS:
        holder, name = _slot(cfg, key)
        if holder is None:
            continue
        lines.append(f"{key} = {_format(getattr(holder, name))}")
    return "\n".join(lines) + "\n"
