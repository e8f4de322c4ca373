"""A fixed battery of short CLI runs and the SHA-256 of every file it writes.

The battery, of 60-second runs, trains on NO.4 for two episodes,
evaluates fcfs and greedy qlearn on that checkpoint (event logs
included), evaluates rr on a small recorded trace the battery writes
itself, compares the four schedulers on NO.1 and NO.4 over two seeds,
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

which prints one line per file that differs from, is missing from or is
extra to the old manifest before it writes the new one, and say in
CHANGES.md which files moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from vfcsim.cli import main

MANIFEST = Path(__file__).parent / "golden" / "MANIFEST.sha256"

MINUTE = ["--set", "scenario.duration=60"]
SHORT = ["--scenario", "NO.4", *MINUTE]
CHECKPOINT = "train/checkpoint"
TRACE = "eval-trace/trace.csv"

# twelve vehicles, some parked, some driving, entering over the first 40 s
TRACE_TEXT = (
    "vehicle_id,entry_time,dwell,speed,x,y\n"
    "0,0.0,20.0,0.0,0.0,3000.0\n"
    "1,5.0,23.0,4.5,250.0,2770.0\n"
    "2,10.0,26.0,9.0,500.0,2540.0\n"
    "3,15.0,29.0,13.5,750.0,2310.0\n"
    "4,20.0,32.0,0.0,1000.0,2080.0\n"
    "5,25.0,35.0,4.5,1250.0,1850.0\n"
    "6,30.0,38.0,9.0,1500.0,1620.0\n"
    "7,35.0,41.0,13.5,1750.0,1390.0\n"
    "8,40.0,44.0,0.0,2000.0,1160.0\n"
    "9,0.0,47.0,4.5,2250.0,930.0\n"
    "10,5.0,50.0,9.0,2500.0,700.0\n"
    "11,10.0,53.0,13.5,2750.0,470.0\n"
)

# (directory, argv); a "{checkpoint}" argument names the training run's
# tables and a "{trace}" argument the trace file
BATTERY = (
    ("train", ["train", *SHORT, "--set", "agent.episodes=2", "--seed", "5"]),
    ("eval-fcfs", ["eval", *SHORT, "--scheduler", "fcfs", "--seed", "3,4"]),
    ("eval-qlearn", ["eval", *SHORT, "--scheduler", "qlearn", "--seed", "3,4",
                     "--checkpoint", "{checkpoint}"]),
    ("eval-trace", ["eval", *SHORT, "--scheduler", "rr", "--seed", "3,4",
                    "--set", "sim.arrival_prob=0.5", "--trace", "{trace}"]),
    ("compare", ["compare", *MINUTE, "--schedulers", "qlearn,fcfs,rr,wfq",
                 "--scenario", "NO.1,NO.4", "--seed", "1,2", "--checkpoint", "{checkpoint}"]),
    # 800 m of V2I range puts several nodes in reach of one vehicle, so the
    # cloud relay and the decision node can be any of them
    ("compare-overlap", ["compare", *MINUTE, "--set", "link.v2i_range_m=800",
                         "--schedulers", "qlearn,fcfs,rr,wfq", "--scenario", "NO.1,NO.4",
                         "--seed", "1,2", "--checkpoint", "{checkpoint}"]),
    ("sweep", ["sweep", *SHORT, "--schedulers", "qlearn,fcfs,rr,wfq", "--probs", "0.3,0.6",
               "--seed", "1,2", "--checkpoint", "{checkpoint}"]),
)


def run_battery(root: Path) -> dict[str, str]:
    """Run the battery under `root`; returns {relative path: sha256}."""
    trace = root / TRACE
    trace.parent.mkdir(parents=True)
    trace.write_text(TRACE_TEXT)
    paths = {"{checkpoint}": str(root / CHECKPOINT), "{trace}": str(trace)}
    for name, argv in BATTERY:
        out = root / name
        argv = [paths.get(a, a) for a in argv]
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


def regenerate() -> None:
    """Rerun the battery, print what moved against the old manifest, and
    write the new one."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_battery(Path(tmp))
    for line in compare(read_manifest() if MANIFEST.exists() else {}, digests):
        print(line)
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text("".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items())))
    print(f"wrote {len(digests)} digests to {MANIFEST}")


if __name__ == "__main__":
    regenerate()
