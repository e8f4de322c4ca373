"""Traffic scenario table, sampling statistics, and trace loading tests."""

import math
import random
import statistics

import pytest

from vfcsim.errors import ValidationError
from vfcsim.traffic import (
    SCENARIOS,
    TRACE_COLUMNS,
    Scenario,
    load_trace_csv,
    sample_dwell,
    sample_entry_times,
    sample_speed,
    sample_vehicles,
)


def test_scenario_table_values():
    assert set(SCENARIOS) == {"NO.1", "NO.2", "NO.3", "NO.4"}
    s1 = SCENARIOS["NO.1"]
    assert (s1.adt, s1.vdt) == (198.3, 123.8)
    assert (s1.anv, s1.asv, s1.vsv) == (474.6, 5.22, 2.61)
    s4 = SCENARIOS["NO.4"]
    assert (s4.adt, s4.vdt) == (173.7, 124.1)
    assert (s4.anv, s4.asv, s4.vsv) == (207.9, 7.30, 3.16)
    assert all(s.duration == 300.0 for s in SCENARIOS.values())


def test_entry_rate_sustains_mean_population():
    s = SCENARIOS["NO.2"]
    assert s.entry_rate == pytest.approx(541.6 / 188.5, rel=1e-12)


def test_scenario_validation():
    with pytest.raises(ValidationError, match="adt"):
        Scenario("bad", adt=0.0, vdt=1.0, anv=10.0, asv=5.0, vsv=1.0).validate()
    with pytest.raises(ValidationError, match="vsv"):
        Scenario("bad", adt=10.0, vdt=1.0, anv=10.0, asv=5.0, vsv=-1.0).validate()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dwell_and_speed_sample_means(name):
    scenario = SCENARIOS[name]
    rng = random.Random(42)
    n = 10_000
    dwells = [sample_dwell(scenario, rng) for _ in range(n)]
    speeds = [sample_speed(scenario, rng) for _ in range(n)]
    assert abs(statistics.fmean(dwells) - scenario.adt) / scenario.adt < 0.05
    assert abs(statistics.fmean(speeds) - scenario.asv) / scenario.asv < 0.05
    assert min(dwells) >= 1.0
    assert min(speeds) >= 0.0


def test_dwell_variance_tracks_scenario():
    scenario = SCENARIOS["NO.1"]
    rng = random.Random(7)
    dwells = [sample_dwell(scenario, rng) for _ in range(20_000)]
    # truncation at the 1 s floor is negligible this far from zero
    assert statistics.variance(dwells) == pytest.approx(scenario.vdt, rel=0.10)


def test_entry_times_sorted_within_horizon():
    scenario = SCENARIOS["NO.4"]
    rng = random.Random(3)
    times = sample_entry_times(scenario, rng)
    assert all(0.0 < t < scenario.duration for t in times)
    assert times == sorted(times)
    # expected count is rate * duration; allow wide slack
    expected = scenario.entry_rate * scenario.duration
    assert abs(len(times) - expected) < 0.35 * expected


def test_sample_vehicles_field_ranges():
    scenario = SCENARIOS["NO.3"]
    vehicles = sample_vehicles(scenario, random.Random(5), 3000.0, 1.0e9, 2.0e9)
    assert len(vehicles) > 500
    assert [v.vehicle_id for v in vehicles] == list(range(len(vehicles)))
    entries = [v.entry_time for v in vehicles]
    assert entries == sorted(entries)
    assert 0.0 < entries[0] and entries[-1] < scenario.duration
    for v in vehicles:
        assert 0.0 <= v.x <= 3000.0
        assert 0.0 <= v.y <= 3000.0
        assert 0.0 <= v.heading <= 2.0 * math.pi
        assert 1.0e9 <= v.local_cpu_hz <= 2.0e9
        assert v.dwell >= 1.0
        assert v.speed >= 0.0


def test_sample_vehicles_deterministic_per_seed():
    scenario = SCENARIOS["NO.4"]
    a = sample_vehicles(scenario, random.Random(11), 3000.0, 1e9, 2e9)
    b = sample_vehicles(scenario, random.Random(11), 3000.0, 1e9, 2e9)
    assert a == b


def write_trace(path, rows, header=TRACE_COLUMNS):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def test_trace_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, [
        (0, 0.0, 120.0, 4.5, 100.0, 200.0),
        (1, 3.25, 80.0, 0.0, 2999.0, 1.0),
    ])
    vehicles = load_trace_csv(path, random.Random(2), 1e9, 2e9)
    assert len(vehicles) == 2
    assert vehicles[0].vehicle_id == 0
    assert vehicles[0].entry_time == 0.0
    assert vehicles[0].dwell == 120.0
    assert vehicles[1].speed == 0.0
    assert all(1e9 <= v.local_cpu_hz <= 2e9 for v in vehicles)


def test_trace_sorted_by_entry(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, [
        (0, 9.0, 50.0, 1.0, 0.0, 0.0),
        (1, 2.0, 50.0, 1.0, 0.0, 0.0),
    ])
    vehicles = load_trace_csv(path, random.Random(2), 1e9, 2e9)
    assert [v.vehicle_id for v in vehicles] == [1, 0]


def test_trace_missing_column_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, [(0, 0.0, 50.0, 1.0, 0.0)], header=TRACE_COLUMNS[:-1])
    with pytest.raises(ValidationError, match="columns"):
        load_trace_csv(path, random.Random(2), 1e9, 2e9)


def test_trace_bad_values_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, [(0, -1.0, 50.0, 1.0, 0.0, 0.0)])
    with pytest.raises(ValidationError, match="trace.csv:2"):
        load_trace_csv(path, random.Random(2), 1e9, 2e9)
    write_trace(path, [(0, 1.0, 0.0, 1.0, 0.0, 0.0)])
    with pytest.raises(ValidationError):
        load_trace_csv(path, random.Random(2), 1e9, 2e9)
    write_trace(path, [(0, 1.0, 5.0, "fast", 0.0, 0.0)])
    with pytest.raises(ValidationError, match="bad trace row"):
        load_trace_csv(path, random.Random(2), 1e9, 2e9)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["entry_time", "dwell", "speed", "x", "y"])
def test_trace_non_finite_value_rejected(tmp_path, column, bad):
    path = tmp_path / "trace.csv"
    good = (0, 1.0, 50.0, 1.0, 10.0, 10.0)
    row = list(good)
    row[TRACE_COLUMNS.index(column)] = bad
    write_trace(path, [good, row])
    with pytest.raises(ValidationError, match=f"trace.csv:3: {column} must be finite"):
        load_trace_csv(path, random.Random(2), 1e9, 2e9)


def test_trace_error_names_the_file_line_past_blank_lines(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        ",".join(TRACE_COLUMNS) + "\n0,0.0,50.0,1.0,10.0,10.0\n\n1,-1.0,50.0,1.0,10.0,10.0\n"
    )
    with pytest.raises(ValidationError, match="trace.csv:4: negative"):
        load_trace_csv(path, random.Random(2), 1e9, 2e9)


def test_trace_repeated_vehicle_id_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, [
        (4, 0.0, 50.0, 1.0, 10.0, 10.0),
        (5, 1.0, 50.0, 1.0, 10.0, 10.0),
        (4, 2.0, 80.0, 1.0, 10.0, 10.0),
    ])
    with pytest.raises(ValidationError, match="trace.csv:4: vehicle_id 4 already used on line 2"):
        load_trace_csv(path, random.Random(2), 1e9, 2e9)
