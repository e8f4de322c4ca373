"""A fixed battery of short CLI runs and the SHA-256 of every file it writes.

The battery, of 60-second runs, trains on NO.4 for two episodes,
evaluates fcfs and greedy qlearn on that checkpoint (event logs
included), compares the four schedulers on NO.1 and NO.4 over two seeds,
at the default V2I range and at 800 m, where ranges overlap, and sweeps
them over two arrival probabilities, all in-process through
vfcsim.cli.main. Each command's standard output, with the output
directory written as <out>, is kept as the file stdout.txt next to what
the command wrote.

tests/golden/MANIFEST.sha256 holds one "<sha256>  <path>" line per
file, paths relative to the battery's output directory and sorted;
test_golden.py reruns the battery and names every file that differs, is
missing or is extra. After a change that moves output bytes on purpose,
regenerate the manifest from the root of a checkout with

    PYTHONPATH=src python tests/golden_battery.py

and say in CHANGES.md which files moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from vfcsim.cli import main

MANIFEST = Path(__file__).parent / "golden" / "MANIFEST.sha256"

SHORT = ["--scenario", "NO.4", "--set", "scenario.duration=60"]
CHECKPOINT = "train/checkpoint"

# (directory, argv); a "{checkpoint}" argument names the training run's tables
BATTERY = (
    ("train", ["train", *SHORT, "--episodes", "2", "--seed", "5"]),
    ("eval-fcfs", ["eval", *SHORT, "--scheduler", "fcfs", "--seed", "3,4"]),
    ("eval-qlearn", ["eval", *SHORT, "--scheduler", "qlearn", "--seed", "3,4",
                     "--checkpoint", "{checkpoint}"]),
    ("compare", ["compare", *SHORT, "--schedulers", "qlearn,fcfs,rr,wfq",
                 "--scenarios", "NO.1,NO.4", "--seed", "1,2", "--checkpoint", "{checkpoint}"]),
    # 800 m of V2I range puts several nodes in reach of one vehicle, so the
    # cloud relay and the decision node can be any of them
    ("compare-overlap", ["compare", *SHORT, "--set", "link.v2i_range_m=800",
                         "--schedulers", "qlearn,fcfs,rr,wfq", "--scenarios", "NO.1,NO.4",
                         "--seed", "1,2", "--checkpoint", "{checkpoint}"]),
    ("sweep", ["sweep", *SHORT, "--schedulers", "qlearn,fcfs,rr,wfq", "--probs", "0.3,0.6",
               "--seed", "1,2", "--checkpoint", "{checkpoint}"]),
)


def run_battery(root: Path) -> dict[str, str]:
    """Run the battery under `root`; returns {relative path: sha256}."""
    checkpoint = str(root / CHECKPOINT)
    for name, argv in BATTERY:
        out = root / name
        argv = [checkpoint if a == "{checkpoint}" else a for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        (out / "stdout.txt").write_text(stdout.getvalue().replace(str(out), "<out>"))
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def read_manifest() -> dict[str, str]:
    digests = {}
    for line in MANIFEST.read_text().splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def compare(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One line per file that differs, is missing or is extra."""
    problems = [f"differs: {name}" for name in sorted(expected.keys() & actual.keys())
                if expected[name] != actual[name]]
    problems += [f"missing: {name}" for name in sorted(expected.keys() - actual.keys())]
    problems += [f"extra: {name}" for name in sorted(actual.keys() - expected.keys())]
    return problems


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_battery(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text("".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items())))
    print(f"wrote {len(digests)} digests to {MANIFEST}")
