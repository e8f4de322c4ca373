"""A fixed probe that scales host seconds to reference seconds.

The benchmark shares a few cores of a host whose speed drifts by up to
about 2x, in phases that last from seconds to over a minute. CPU time and
wall time slow down together (there is no steal time), so neither a longer
run, CPU time nor the fastest of several repeats removes the drift: a whole
30-second run can fall in a slow phase.

Every timed interval is therefore bracketed by a probe: a fixed pure-Python
workload, half integer arithmetic and half small-object and dict churn,
timed SAMPLES times per half with the garbage collector off. An interval's
host seconds are multiplied by REFERENCE_PROBE_S over the probe time around
it (the sum of the two halves' medians). The probe is the benchmark's own
code, so a change to vfcsim leaves it alone and the scaled seconds move
with vfcsim's speed exactly as host seconds would on a steady host.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

# About one probe's time (the sum of its two halves' medians) on a 2-vCPU
# x86-64 host running CPython 3.11.7 in its fast phases; reference seconds
# are host seconds on a host that runs the probe this fast.
REFERENCE_PROBE_S = 0.002
SAMPLES = 10


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _arithmetic() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _objects() -> float:
    t0 = time.perf_counter()
    table = {}
    rows = []
    acc = 0.0
    for i in range(2000):
        p = _Point(i, i * 0.5)
        table[i % 97] = p
        acc += math.sqrt(p.b + 1.0) * p.a
        rows.append({"k": i, "v": p.b})
    return time.perf_counter() - t0


class HostProbe:
    """Probe results in the order they were taken."""

    def __init__(self):
        self.samples: list[tuple[list[float], list[float]]] = []

    def probe(self) -> int:
        """Run the probe once; return its index."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            arithmetic = [_arithmetic() for _ in range(SAMPLES)]
            objects = [_objects() for _ in range(SAMPLES)]
        finally:
            if enabled:
                gc.enable()
        self.samples.append((arithmetic, objects))
        return len(self.samples) - 1

    def scale(self, first: int, last: int) -> float:
        """Reference seconds per host second, from probes first..last."""
        taken = self.samples[first:last + 1]
        arithmetic = statistics.median(x for a, _ in taken for x in a)
        objects = statistics.median(x for _, o in taken for x in o)
        return REFERENCE_PROBE_S / (arithmetic + objects)
