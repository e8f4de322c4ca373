"""vfcsim benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A single-process, single-thread, closed-loop harness that uses only the
standard library and drives vfcsim only through its public functions
(build_config, run_training, run_evaluation, load_tables,
write_event_log). The package is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2 and prints no
result.

Each workload (see workloads.py for why each one exists) is a fixed unit
of work made from --seed, split into parts: one per (scheduler, seed)
evaluation, event-log write included, or one per training episode plus
the rest of run_training. One client repeats the unit, each repeat
starting when the previous one returns, for about --seconds and at least
twice. Every repeat runs identical inputs and must give one ledger digest.

Timings are in reference seconds: host seconds scaled by a fixed probe
run just before and after each episode, evaluation and set-up
(hostspeed.py says why). The same figures in host seconds are printed in the notes and kept
in the record.

--trace 0 reports the end-to-end metrics:
    setup_s        median of several fresh imports of vfcsim plus
                   build_config (plus load_tables of the qlearn checkpoint
                   on eval-no4-loaded)
    wall_s         one repeat of the unit: the sum of its parts, each at
                   its median over the repeats
    tasks_per_s    simulated tasks resolved (ledger k_total) in a repeat,
                   over wall_s
    episode_s_p50  median over the unit's distinct episodes of each one's
                   median run_episode time over the repeats
    episode_s_tail the slowest of those distinct episodes; a unit has
                   fewer than 20, so no percentile has ten samples beyond
                   it, and the count is printed beside it
    peak_rss_mb    ru_maxrss of this process, which ran only this workload
--trace 1 runs two untraced repeats, then traced repeats, and reports the
per-layer metrics (medians over the traced repeats, in host seconds),
the tracing overhead and the failure ratio. fail_ratio (runs or training
episodes that raised ValidationError/RuntimeError over those attempted)
is listed with the per-layer metrics because it is 0 on a healthy run; it
is printed in both modes and also carried by the result's "attempted"
and "failed" counts.
--workload all runs every workload untraced and traced, each in its own
process, prints every metric by name with its unit, and checks that the
untraced and traced runs produced the same ledger digests.

Correctness: every episode must conserve tasks (serviced + dropped ==
total) and its tier counts must sum to the serviced count, and every
repeat in one invocation (traced or not) must give the same SHA-256 of
the ledger rows. A failed check prints "correct": false and exits 1.

The simulator's model is unvalidated and the repo's paper-reported rows
are orderings taken at other hardware scales, so no error figure against
them is reported. The last line of standard output is the JSON result;
the full record (metadata, resolved config, digests, spans) is written
to .bench_out/ in the checkout, which also keeps the trained qlearn
checkpoint for later runs of the same sources.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_PROBE_S, HostProbe
from tracing import AGGREGATE_NOTE, Tracer, install, layer_metrics
from workloads import (
    FIXTURE_EPISODES,
    FIXTURE_MASTER_SEED,
    WORKLOADS,
    EpisodeRecorder,
    Run,
    fixture_checkpoint,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15
LOOP_LIMIT_S = 120.0  # nor, for the first two repeats, past this
MODEL_NOTE = (
    "The simulator's model is unvalidated; the paper-reported rows are "
    "orderings at other hardware scales, so no error figure is reported."
)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="vfcsim benchmark",
        epilog="workloads:\n" + "\n".join(f"  {w['name']}: {w['why']}" for w in spec["workloads"]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds)
    if not (SRC / "vfcsim" / "__init__.py").is_file():
        print(f"error: vfcsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["meta"]["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in section}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:38s} {m['value']:<22.10g} {m['unit']}")
    for note in record["notes"]:
        print(f"note: {note}")
    print(f"record: {path.relative_to(ROOT)}")
    ok = record["correct"] and record["failed"] == 0
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if ok else 1


def fresh_import():
    for name in [m for m in sys.modules if m == "vfcsim" or m.startswith("vfcsim.")]:
        del sys.modules[name]
    vf = importlib.import_module("vfcsim")
    if not Path(vf.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"vfcsim imported from {vf.__file__}, not from {SRC}")
    return vf


def timed_setup(workload, checkpoint: Path | None, probe: HostProbe):
    """One set-up, in host seconds and in reference seconds."""
    gc.collect()
    before = probe.probe()
    t0 = time.perf_counter()
    vf = fresh_import()
    cfg = vf.config.build_config(dict(workload.overrides))
    tables = vf.engine.load_tables(checkpoint, cfg.sim.fog_nodes) if checkpoint else None
    host = time.perf_counter() - t0
    return host, host * probe.scale(before, probe.probe()), vf, cfg, tables


def closed_loop(run: Run, body, seconds: float):
    """Repeat body for about --seconds, and at least twice: no repeat starts
    that would, at the length of the one before it, end past --seconds.

    Each repeat records its parts: one per evaluation (with its event-log
    write) on the eval workloads, and on train-no1 one per episode plus the
    rest of run_training. Part i of every repeat runs the same inputs. A
    part's reference seconds scale its host seconds by every probe taken
    from just before it to just after it (an evaluation's include the one
    after its episode); the rest of run_training is scaled by every probe
    of its repeat.
    """
    rec = run.recorder
    repeats = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        gc.collect()
        rec.begin_repeat()
        run.segment_s = []
        run.segment_probe = []
        first = len(rec.episode_s)
        probes = [rec.probe.probe()]
        overhead = rec.overhead_s
        t0 = time.perf_counter()
        body()
        wall = time.perf_counter() - t0 - (rec.overhead_s - overhead)
        episode_s = rec.episode_s[first:]
        probes += run.segment_probe or rec.probe_after[first:]
        scales = [rec.probe.scale(a, b) for a, b in zip(probes, probes[1:])]
        parts = run.segment_s or episode_s + [wall - sum(episode_s)]
        if not run.segment_s:
            scales.append(rec.probe.scale(probes[0], probes[-1]))
        repeats.append({
            "wall_s": wall,
            "episode_s": episode_s,
            "parts": parts,
            "ref_episode_s": [t * k for t, k in zip(episode_s, scales)],
            "ref_parts": [t * k for t, k in zip(parts, scales)],
            "digest": rec.digest(),
            "counts": rec.counts,
        })
        now = time.perf_counter()
        if now - start + now - began > (seconds if len(repeats) >= 2 else LOOP_LIMIT_S):
            break
    return repeats


def per_part(repeats: list[dict], key: str) -> list[float]:
    """Median over repeats of each part (or episode) separately."""
    return [statistics.median(col) for col in zip(*(r[key] for r in repeats))]


def middle(values: list):
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def check_repeats(repeats: list[dict], expected: str, errors: list[str], label: str) -> None:
    for i, rep in enumerate(repeats):
        if rep["digest"] != expected:
            errors.append(f"{label} repeat {i}: ledger digest {rep['digest'][:16]} != {expected[:16]}")


def run_workload(workload, seed: int, seconds: float, trace: int, scratch: Path) -> dict:
    vf = fresh_import()  # warm-up: later imports read cached bytecode
    checkpoint = fixture = None
    if workload.fixture:
        checkpoint, fixture_digest = fixture_checkpoint(vf, workload, OUT, scratch)
        fixture = {
            "master_seed": FIXTURE_MASTER_SEED,
            "episodes": FIXTURE_EPISODES,
            "digest": fixture_digest,
        }
    probe = HostProbe()
    host_setup, setup = [], []
    for _ in range(SETUP_SAMPLES):
        host_s, ref_s, vf, cfg, tables = timed_setup(workload, checkpoint, probe)
        host_setup.append(host_s)
        setup.append(ref_s)

    recorder = EpisodeRecorder(vf.engine.run_episode, probe)
    vf.engine.run_episode = recorder
    run = Run(workload, vf, cfg, tables, seed, scratch, recorder)
    if trace:
        repeats, metrics, notes, extra = measure_traced(run, seconds, checkpoint)
    else:
        repeats, metrics, notes, extra = measure_untraced(run, seconds)
        metrics["setup_s"] = statistics.median(setup)
        extra["host_seconds"]["setup_s"] = statistics.median(host_setup)
        notes.append(
            f"setup_s is the median of {SETUP_SAMPLES} set-ups, each in reference seconds; "
            f"in host seconds {statistics.median(host_setup):.6g}"
        )
    digest = repeats[0]["digest"]
    episodes = [t for r in repeats for t in r["episode_s"]]
    metrics["fail_ratio"] = run.failed / run.attempted if run.attempted else 0.0
    counts = repeats[0]["counts"].exact()
    notes.append(f"fail_ratio {metrics['fail_ratio']:g} ({run.failed}/{run.attempted})")
    notes.append("exact counts per repeat: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    notes.append(f"ledger digest {digest}")
    for err in recorder.errors + run.failures:
        notes.append(f"FAILED: {err}")
    return {
        "correct": not recorder.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "notes": notes,
        "meta": {
            "workload": workload.name,
            "seed": seed,
            "trace": trace,
            "seconds": seconds,
            "loop": "closed, one client: each repeat starts when the previous returns",
            "repeat_wall_s": [r["wall_s"] for r in repeats],
            "reference_probe_s": REFERENCE_PROBE_S,
            "probe_s": [REFERENCE_PROBE_S / probe.scale(i, i) for i in range(len(probe.samples))],
            "episode_s": episodes,
            "inputs": (
                {"eval_seeds": workload.eval_seeds(seed)} if workload.schedulers
                else {"train_master_seed": seed}
            ),
            "fixture": fixture,
            "ledger_digest": digest,
            "exact_counts": counts,
            "config_echo": vf.dump_config(cfg),
            "git_sha": git_sha(),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "model": MODEL_NOTE,
        },
        **extra,
    }


def measure_untraced(run: Run, seconds: float):
    """Every repeat runs identical inputs (one ledger digest), so each part
    is taken at its median over the repeats, in reference seconds."""
    repeats = closed_loop(run, run.body, seconds)
    check_repeats(repeats, repeats[0]["digest"], run.recorder.errors, "untraced")
    wall = sum(per_part(repeats, "ref_parts"))
    episodes = per_part(repeats, "ref_episode_s")
    tasks = repeats[0]["counts"].tasks
    metrics = {
        "wall_s": wall,
        "tasks_per_s": tasks / wall,
        "episode_s_p50": statistics.median(episodes),
        "episode_s_tail": max(episodes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    host_wall = sum(per_part(repeats, "parts"))
    host_episodes = per_part(repeats, "episode_s")
    host = {
        "wall_s": host_wall,
        "tasks_per_s": tasks / host_wall,
        "episode_s_p50": statistics.median(host_episodes),
        "episode_s_tail": max(host_episodes),
    }
    n = len(episodes)
    notes = [
        f"timings are reference seconds (see hostspeed.py); in host seconds: "
        + ", ".join(f"{k}={v:.6g}" for k, v in host.items()),
        f"wall_s sums the {len(repeats[0]['parts'])} parts of a repeat, each at its median of "
        f"{len(repeats)} repeats",
        f"episode_s_p50 over {n} distinct episodes, each at its median of {len(repeats)} repeats",
        f"episode_s_tail is the slowest of those {n} episodes (p100): fewer than 20 distinct "
        "episodes leave no percentile with ten samples beyond it",
    ]
    return repeats, metrics, notes, {"host_seconds": host}


def measure_traced(run: Run, seconds: float, checkpoint: Path | None):
    """Untraced repeats, then traced repeats that must match their digest.

    The first repeat of a process runs cold and is often the slowest, so
    the tracing overhead is taken against the second untraced repeat.
    """
    vf, recorder, workload = run.vf, run.recorder, run.workload
    untraced = closed_loop(run, run.body, 0.0)
    check_repeats(untraced, untraced[0]["digest"], recorder.errors, "untraced")
    reference = untraced[-1]
    tracer = Tracer()
    install(tracer, vf, recorder)
    try:
        rows = []
        for _ in range(SETUP_SAMPLES):
            vf.config.build_config(dict(workload.overrides))
            if checkpoint:
                vf.engine.load_tables(checkpoint, run.cfg.sim.fog_nodes)
            agg = tracer.take_aggregates()
            rows.append({
                "config.build_config.self_s": agg["config.build_config"][2],
                "engine.load_tables.self_s": agg["engine.load_tables"][2] if checkpoint else 0.0,
            })
        repeat_body = tracer.wrap("bench.repeat", run.body, keep_spans=True)
        layers = []

        def traced_body():
            tracer.episode = -1
            repeat_body()
            layers.append(tracer.take_aggregates())

        repeats = closed_loop(run, traced_body, seconds)
    finally:
        tracer.restore()
        recorder.tracer = None
    check_repeats(repeats, reference["digest"], recorder.errors, "traced")
    for agg, rep in zip(layers, repeats):
        counts = rep["counts"]
        row = layer_metrics(agg, counts.tasks)
        row.update(counts.exact())
        row["agent.qtable_entries"] = counts.qtable_entries
        row["engine.events_logged"] = counts.events_logged
        row["engine.event_log_bytes"] = counts.event_log_bytes
        rows.append(row)
    metrics = {k: middle([r[k] for r in rows if k in r]) for k in {k for r in rows for k in r}}
    metrics["tracing_overhead_s"] = (
        statistics.median(sum(r["ref_parts"]) for r in repeats) - sum(reference["ref_parts"])
    )
    notes = [
        AGGREGATE_NOTE,
        "tracing_overhead_s is in reference seconds, the per-layer times in host seconds",
        f"{len(repeats)} traced repeats; ledger digests match the untraced repeats: "
        f"{all(r['digest'] == reference['digest'] for r in repeats)}",
    ]
    if tracer.missing:
        notes.append(f"not found, so not traced: {', '.join(tracer.missing)}")
    extra = {"spans": tracer.span_records(), "aggregates_last_repeat": layers[-1]}
    return repeats, metrics, notes, extra


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_all(spec: dict, seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process."""
    ok = True
    rows = []
    for w in spec["workloads"]:
        digests = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{w['name']} trace {trace}: no result (exit {proc.returncode})\n{proc.stderr}")
                ok = False
                continue
            ok &= proc.returncode == 0 and result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                rows.append((w["name"], name, m["value"], m["unit"]))
            record = json.loads((OUT / f"{w['name']}-seed{seed}-trace{trace}.json").read_text())
            digests.append(record["meta"]["ledger_digest"])
            for note in record["notes"]:
                if note.startswith("FAILED"):
                    print(f"{w['name']} trace {trace}: {note}")
        agree = len(digests) == 2 and digests[0] == digests[1]
        ok &= agree
        print(f"{w['name']}: untraced and traced ledger digests agree: {agree}")
    print(f"{'workload':16s} {'metric':38s} {'value':>16s} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:16s} {name:38s} {value:16.6g} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
