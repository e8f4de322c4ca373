"""Traffic scenarios and synthetic vehicle generation.

Each scenario is summarized by trace statistics over a fixed observation
window: average/variance of dwell time (ADT/VDT), average vehicle count
(ANV) and average/variance of speed (ASV/VSV). Synthetic traffic draws
vehicle entries as a Poisson process at rate ANV/ADT, dwell times from
Normal(ADT, VDT) truncated at 1 s, and speeds from Normal(ASV, VSV)
truncated at 0 (variances are variances, not standard deviations).
Truncation resamples, so the moments stay close to the scenario
statistics.

The source tables also give each window's trace count (718, 862, 928 and
359 for NO.1-NO.4) and vehicle-count variance VNV (11.6, 5.38, 7.76 and
3.93). Neither is modelled: the entry process alone sets how the vehicle
count varies, so the two are not scenario fields.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError


@dataclass(frozen=True)
class Scenario:
    """Summary statistics of one traffic window."""

    name: str
    adt: float
    anv: float
    asv: float
    vdt: float = 0.0
    vsv: float = 0.0
    duration: float = 300.0

    def validate(self) -> None:
        positives = (
            ("adt", self.adt),
            ("anv", self.anv),
            ("asv", self.asv),
            ("duration", self.duration),
        )
        for name, v in positives:
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValidationError(f"scenario {name} must be positive, got {v!r}")
        nonneg = (("vdt", self.vdt), ("vsv", self.vsv))
        for name, v in nonneg:
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
                raise ValidationError(f"scenario {name} must be >= 0, got {v!r}")

    @property
    def entry_rate(self) -> float:
        """Vehicle entries per second sustaining ANV concurrent vehicles."""
        return self.anv / self.adt


SCENARIOS: dict[str, Scenario] = {
    "NO.1": Scenario("NO.1", adt=198.3, vdt=123.8, anv=474.6, asv=5.22, vsv=2.61),
    "NO.2": Scenario("NO.2", adt=188.5, vdt=125.1, anv=541.6, asv=5.59, vsv=2.73),
    "NO.3": Scenario("NO.3", adt=196.5, vdt=122.5, anv=608.0, asv=4.60, vsv=2.40),
    "NO.4": Scenario("NO.4", adt=173.7, vdt=124.1, anv=207.9, asv=7.30, vsv=3.16),
}


@dataclass(slots=True)
class VehicleSpec:
    """One vehicle's trajectory seed: entry, dwell, kinematics, local CPU."""

    vehicle_id: int
    entry_time: float
    dwell: float
    speed: float
    heading: float
    x: float
    y: float
    local_cpu_hz: float


def sample_dwell(scenario: Scenario, rng: random.Random, min_dwell: float = 1.0) -> float:
    """Normal(ADT, VDT) dwell, resampled until it clears min_dwell."""
    std = math.sqrt(scenario.vdt)
    while True:
        d = rng.gauss(scenario.adt, std)
        if d >= min_dwell:
            return d


def sample_speed(scenario: Scenario, rng: random.Random) -> float:
    """Normal(ASV, VSV) speed, resampled until nonnegative."""
    std = math.sqrt(scenario.vsv)
    while True:
        s = rng.gauss(scenario.asv, std)
        if s >= 0.0:
            return s


def sample_entry_times(scenario: Scenario, rng: random.Random) -> list[float]:
    """Poisson entry process at rate ANV/ADT over [0, scenario.duration)."""
    horizon = scenario.duration
    rate = scenario.entry_rate
    times: list[float] = []
    t = rng.expovariate(rate)
    while t < horizon:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def sample_vehicles(
    scenario: Scenario,
    rng: random.Random,
    area_m: float,
    cpu_min_hz: float,
    cpu_max_hz: float,
    min_dwell: float = 1.0,
) -> list[VehicleSpec]:
    """Draw a full vehicle population for one episode, its entries filling
    the scenario window."""
    scenario.validate()
    vehicles = []
    uniform = rng.uniform
    # built positionally, in field order, which is also the draw order
    for i, entry in enumerate(sample_entry_times(scenario, rng)):
        vehicles.append(
            VehicleSpec(
                i,  # vehicle_id
                entry,  # entry_time
                sample_dwell(scenario, rng, min_dwell),  # dwell
                sample_speed(scenario, rng),  # speed
                uniform(0.0, 2.0 * math.pi),  # heading
                uniform(0.0, area_m),  # x
                uniform(0.0, area_m),  # y
                uniform(cpu_min_hz, cpu_max_hz),  # local_cpu_hz
            )
        )
    return vehicles


TRACE_COLUMNS = ("vehicle_id", "entry_time", "dwell", "speed", "x", "y")


def load_trace_csv(
    path: str | Path,
    rng: random.Random,
    cpu_min_hz: float,
    cpu_max_hz: float,
) -> list[VehicleSpec]:
    """Read recorded vehicle traces instead of sampling synthetic ones.

    The CSV must carry the columns vehicle_id, entry_time, dwell, speed,
    x, y; every value must be finite and every vehicle_id distinct.
    Headings and local CPU capacities are not part of the trace format
    and are drawn from the run RNG.
    """
    path = Path(path)
    vehicles: list[VehicleSpec] = []
    first_line: dict[int, int] = {}  # vehicle_id -> line that introduced it
    try:
        fh = path.open(newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read trace {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(TRACE_COLUMNS).issubset(reader.fieldnames):
            raise ValidationError(
                f"{path}: trace CSV must have columns {', '.join(TRACE_COLUMNS)}"
            )
        for row in reader:
            lineno = reader.line_num  # the row's last line; blank lines count
            try:
                spec = VehicleSpec(
                    vehicle_id=int(row["vehicle_id"]),
                    entry_time=float(row["entry_time"]),
                    dwell=float(row["dwell"]),
                    speed=float(row["speed"]),
                    heading=rng.uniform(0.0, 2.0 * math.pi),
                    x=float(row["x"]),
                    y=float(row["y"]),
                    local_cpu_hz=rng.uniform(cpu_min_hz, cpu_max_hz),
                )
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad trace row: {exc}") from exc
            for name in ("entry_time", "dwell", "speed", "x", "y"):
                if not math.isfinite(getattr(spec, name)):
                    raise ValidationError(f"{path}:{lineno}: {name} must be finite, got {row[name]!r}")
            if spec.vehicle_id in first_line:
                raise ValidationError(
                    f"{path}:{lineno}: vehicle_id {spec.vehicle_id} already used on line "
                    f"{first_line[spec.vehicle_id]}"
                )
            first_line[spec.vehicle_id] = lineno
            if spec.entry_time < 0.0 or spec.dwell <= 0.0 or spec.speed < 0.0:
                raise ValidationError(f"{path}:{lineno}: negative entry/dwell/speed")
            vehicles.append(spec)
    vehicles.sort(key=lambda v: (v.entry_time, v.vehicle_id))
    return vehicles
