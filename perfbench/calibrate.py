"""A fixed calibration pass: the speed of a core right now.

The host under the benchmark is shared, and its speed drifts: the same
fixed-size estimate has taken 2.0 s in one run and 4.6 s in another,
with no steal time, because other tenants' load changes the speed of the
core that is running.  A statistic taken inside one run cannot remove a
drift that lasts minutes, so ``run.py`` also times this pass on the same
core(s) right before and right after each estimate and reports the
estimate's wall time in passes (``wall_rel``) next to its seconds.

The pass does the two kinds of work the workloads do: a Python loop of
small-array numpy calls (a few device lanes at a time, as the G-S first
stage does) and the same loop on 4096-lane arrays (as an MC batch does).
It never calls ``repro``, so a change to the library moves the estimate's
time and not the pass's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: (lanes, iterations) of the two halves of one pass; each half takes
#: about 10 ms on a 2-core x86-64 container.
SHAPES = ((8, 1500), (4096, 400))
#: Passes timed per calibration; the calibration is their median.
PASSES = 5


def _drain_current(vgs, vds, vt):
    """Square-law drain current with channel-length modulation."""
    vov = np.maximum(vgs - vt, 0.0)
    triode = vds < vov
    current = np.where(triode, (vov - 0.5 * vds) * vds, 0.5 * vov * vov)
    return current * (1.0 + 0.1 * vds)


def one_pass() -> float:
    """One fixed unit of work; returns the sum of its outputs."""
    rng = np.random.default_rng(20110605)
    total = 0.0
    for lanes, iterations in SHAPES:
        vt = 0.4 + 0.05 * rng.standard_normal(lanes)
        vout = np.full(lanes, 0.5)
        for _ in range(iterations):
            vout = vout - 0.5 * (_drain_current(1.0, vout, vt) - 0.01)
        total += float(vout.sum())
    return total


def pass_seconds(passes: int = PASSES) -> float:
    """Median wall time of ``passes`` passes on the calling thread's core."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pooled_seconds(per_core) -> float:
    """Pass time of a pool that uses all ``per_core`` cores at once.

    A pool's throughput is the sum of its cores' speeds, so the pooled
    pass time is the harmonic mean of the per-core pass times.
    """
    return statistics.harmonic_mean(list(per_core))
