"""Every output file of a fixed CLI battery keeps its recorded SHA-256
(tests/golden_battery.py runs the battery and regenerates the manifest)."""

import golden_battery
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


def test_regenerate_prints_what_moved_before_writing(tmp_path, monkeypatch, capsys):
    manifest = tmp_path / "golden" / "MANIFEST.sha256"
    manifest.parent.mkdir()
    manifest.write_text("1  a.csv\n2  b.csv\n3  c.csv\n")
    monkeypatch.setattr(golden_battery, "MANIFEST", manifest)
    monkeypatch.setattr(golden_battery, "run_battery",
                        lambda root: {"a.csv": "1", "b.csv": "9", "d.csv": "4"})
    golden_battery.regenerate()
    assert capsys.readouterr().out.splitlines() == [
        "differs: b.csv", "missing: c.csv", "extra: d.csv", f"wrote 3 digests to {manifest}",
    ]
    assert manifest.read_text() == "1  a.csv\n9  b.csv\n4  d.csv\n"
