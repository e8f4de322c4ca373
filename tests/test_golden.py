"""Every output file of a fixed CLI battery keeps its recorded SHA-256
(tests/golden_battery.py runs the battery and regenerates the manifest)."""

from golden_battery import BATTERY, compare, read_manifest, run_battery


def test_battery_outputs_match_the_manifest(tmp_path):
    expected = read_manifest()
    assert {name.split("/")[0] for name in expected} == {name for name, _ in BATTERY}
    problems = compare(expected, run_battery(tmp_path))
    assert not problems, "\n".join(problems)


def test_compare_names_each_differing_missing_and_extra_file():
    expected = {"a.csv": "1", "b.csv": "2", "c.csv": "3"}
    actual = {"a.csv": "1", "b.csv": "9", "d.csv": "4"}
    assert compare(expected, actual) == ["differs: b.csv", "missing: c.csv", "extra: d.csv"]
