"""Run configuration: a flat key = value file with module-prefixed keys.

Lines are `key = value`; blank lines and lines starting with # are
ignored. Every key has a default, so an empty file is a valid
configuration. dump_config renders the fully resolved configuration in a
canonical form that parses back to an identical RunConfig, which is what
run directories receive as config_echo.cfg for provenance.

The keys are the fields of the section dataclasses (`<prefix>.<field>`,
prefixes in _SECTIONS), typed by their annotations; RunConfig groups one
instance of each section.

scenario.name selects a built-in traffic scenario; individual scenario.*
statistics may then be overridden (or a fully custom scenario described).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .agent import HyperParams
from .errors import ConfigError, ValidationError
from .link import LinkParams
from .rewards import RewardWeights
from .state_space import StateSpaceConfig
from .traffic import SCENARIOS, Scenario


@dataclass
class SimParams:
    """Geometry, fleet, node and task-population constants."""

    fog_nodes: int = 9
    area_m: float = 3000.0
    cloud_cpu_hz: float = 1.0e10
    vehicle_cpu_min_hz: float = 2.0e9
    vehicle_cpu_max_hz: float = 6.0e9
    node_cpu_min_hz: float = 3.0e9
    node_cpu_max_hz: float = 1.0e10
    node_cpu_init: float = 0.20
    node_mem_init: float = 0.15
    node_disk_init: float = 0.10
    node_mem_mb: float = 1024.0
    node_storage_mb: float = 4096.0
    rolling_window: int = 20
    rate_window_s: float = 10.0
    demand_ema_alpha: float = 0.2
    decision_interval_s: float = 1.0
    arrival_prob: float = 0.05
    eval_episodes: int = 1
    bundle_small: float = 1.0
    bundle_medium: float = 1.5
    bundle_large: float = 2.0
    app_type_mips_scale: float = 600.0
    task_size_mb_min: float = 5.0
    task_size_mb_max: float = 10.0
    task_demand_mips_min: float = 100.0
    task_demand_mips_max: float = 500.0
    task_deadline_s_min: float = 5.0
    task_deadline_s_max: float = 10.0
    min_dwell_s: float = 1.0
    topology_seed: int = 20231

    def validate(self) -> None:
        if self.fog_nodes < 1:
            raise ValidationError(f"fog_nodes={self.fog_nodes!r} must be >= 1")
        positives = (
            ("area_m", self.area_m),
            ("cloud_cpu_hz", self.cloud_cpu_hz),
            ("vehicle_cpu_min_hz", self.vehicle_cpu_min_hz),
            ("node_cpu_min_hz", self.node_cpu_min_hz),
            ("node_mem_mb", self.node_mem_mb),
            ("node_storage_mb", self.node_storage_mb),
            ("rate_window_s", self.rate_window_s),
            ("decision_interval_s", self.decision_interval_s),
            ("app_type_mips_scale", self.app_type_mips_scale),
            ("task_size_mb_min", self.task_size_mb_min),
            ("task_demand_mips_min", self.task_demand_mips_min),
            ("task_deadline_s_min", self.task_deadline_s_min),
            ("min_dwell_s", self.min_dwell_s),
            ("bundle_small", self.bundle_small),
        )
        for name, v in positives:
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be positive, got {v!r}")
        ordered = (
            ("vehicle_cpu_min_hz", self.vehicle_cpu_min_hz, "vehicle_cpu_max_hz", self.vehicle_cpu_max_hz),
            ("node_cpu_min_hz", self.node_cpu_min_hz, "node_cpu_max_hz", self.node_cpu_max_hz),
            ("task_size_mb_min", self.task_size_mb_min, "task_size_mb_max", self.task_size_mb_max),
            ("task_demand_mips_min", self.task_demand_mips_min, "task_demand_mips_max", self.task_demand_mips_max),
            ("task_deadline_s_min", self.task_deadline_s_min, "task_deadline_s_max", self.task_deadline_s_max),
        )
        for lo_name, lo, hi_name, hi in ordered:
            if hi < lo:
                raise ValidationError(f"{hi_name}={hi!r} below {lo_name}={lo!r}")
            # NaN passes `hi < lo`; the minimums were checked finite above
            if not math.isfinite(hi):
                raise ValidationError(f"{hi_name} must be finite, got {hi!r}")
        fractions = (
            ("node_cpu_init", self.node_cpu_init),
            ("node_mem_init", self.node_mem_init),
            ("node_disk_init", self.node_disk_init),
            ("arrival_prob", self.arrival_prob),
        )
        for name, v in fractions:
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                raise ValidationError(f"{name}={v!r} outside [0, 1]")
        if self.node_cpu_init >= 1.0:
            raise ValidationError("node_cpu_init must leave grantable capacity below 1.0")
        if self.rolling_window < 1:
            raise ValidationError(f"rolling_window={self.rolling_window!r} must be >= 1")
        if not (0.0 < self.demand_ema_alpha <= 1.0):
            raise ValidationError(f"demand_ema_alpha={self.demand_ema_alpha!r} outside (0, 1]")
        if self.eval_episodes < 1:
            raise ValidationError(f"eval_episodes={self.eval_episodes!r} must be >= 1")
        if self.topology_seed < 0:  # random.Random(-s) would build the nodes of s
            raise ValidationError(f"topology_seed={self.topology_seed!r} must be >= 0")
        # bundle_small was checked finite above and bundle_medium sits between
        if not math.isfinite(self.bundle_large):
            raise ValidationError(f"bundle_large must be finite, got {self.bundle_large!r}")
        if not (1.0 <= self.bundle_small <= self.bundle_medium <= self.bundle_large):
            raise ValidationError(
                "bundle factors must satisfy 1 <= small <= medium <= large, got "
                f"{self.bundle_small!r}, {self.bundle_medium!r}, {self.bundle_large!r}"
            )


@dataclass
class RunConfig:
    """Everything a run needs, grouped by module."""

    state: StateSpaceConfig = field(default_factory=StateSpaceConfig)
    weights: RewardWeights = field(default_factory=RewardWeights)
    agent: HyperParams = field(default_factory=HyperParams)
    link: LinkParams = field(default_factory=LinkParams)
    sim: SimParams = field(default_factory=SimParams)
    scenario: Scenario = SCENARIOS["NO.1"]

    def validate(self) -> None:
        self.state.validate()
        self.weights.validate()
        self.agent.validate()
        self.link.validate()
        self.sim.validate()
        self.scenario.validate()
        # dwell draws centre on the ADT and are redrawn until they reach
        # the floor, so a floor above the ADT can keep sampling going
        # forever
        if self.sim.min_dwell_s > self.scenario.adt:
            raise ValidationError(
                f"sim.min_dwell_s={self.sim.min_dwell_s!r} exceeds "
                f"scenario.adt={self.scenario.adt!r}"
            )


# key prefix -> (RunConfig attribute, dataclass whose fields are the keys)
_SECTIONS = {
    "state": ("state", StateSpaceConfig),
    "reward": ("weights", RewardWeights),
    "agent": ("agent", HyperParams),
    "link": ("link", LinkParams),
    "sim": ("sim", SimParams),
    "scenario": ("scenario", Scenario),
}

# the Scenario fields without a default, which a custom scenario must set
_SCENARIO_REQUIRED = {f.name for f in dataclasses.fields(Scenario) if f.default is dataclasses.MISSING}


def _derive_tags() -> dict[str, str]:
    """Key -> type tag ("float", "int" or "str") from the field annotations."""
    tags = {}
    for prefix, (_, cls) in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            tags[f"{prefix}.{f.name}"] = f.type
    untyped = sorted(key for key, tag in tags.items() if tag not in ("float", "int", "str"))
    if untyped:
        raise TypeError(f"config keys need a float, int or str annotation: {untyped}")
    return dict(sorted(tags.items()))


_TAGS = _derive_tags()


def known_keys() -> list[str]:
    return list(_TAGS)


def _slot(cfg: RunConfig, key: str) -> tuple[object, str]:
    """Where key's value is stored: (object, attribute)."""
    prefix, _, name = key.partition(".")
    return getattr(cfg, _SECTIONS[prefix][0]), name


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse key = value lines into a raw override map."""
    overrides: dict[str, str] = {}
    first_line: dict[str, int] = {}  # key -> line that set it
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
        if first_line.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{source}:{lineno}: {key} already set on line {first_line[key]}")
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
        if key.startswith("scenario."):  # the Scenario is built below
            scenario_fields[attr] = value
        else:
            setattr(holder, attr, value)

    name = scenario_fields.get("name", cfg.scenario.name)
    base = SCENARIOS.get(name)
    if base is None:
        if not _SCENARIO_REQUIRED.issubset(scenario_fields):
            raise ConfigError(
                f"scenario {name!r} is not built in; custom scenarios need at "
                "least scenario.adt, scenario.anv and scenario.asv"
            )
        base = Scenario(**scenario_fields)
    elif scenario_fields:
        base = dataclasses.replace(base, **scenario_fields)
    cfg.scenario = base

    try:
        cfg.validate()
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read a config file (optional) and apply `overrides` over it.

    Precedence per key, lowest to highest: defaults, file, overrides. The
    command line orders its own sources (--scenario, --set, the flags and
    the key a compare or sweep varies) into `overrides`.
    """
    merged: dict[str, str] = {}
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        merged.update(parse_config_text(text, str(path)))
    merged.update(overrides or {})
    return build_config(merged)


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Canonical resolved-config text; parses back to an equal RunConfig."""
    lines = []
    for key in _TAGS:
        holder, name = _slot(cfg, key)
        lines.append(f"{key} = {_format(getattr(holder, name))}")
    return "\n".join(lines) + "\n"
