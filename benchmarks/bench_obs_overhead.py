"""Hot-path overhead of the instrumentation spine (repro.telemetry).

The contract has two halves: results are bit-identical with the sinks
installed or not (asserted here on every repeat), and observing a run
costs essentially nothing — the progress engine is one lock acquisition
per shard completion against shards that each run thousands of
transistor metric evaluations.  This bench measures the Gibbs-method hot
path (G-S on the read-current problem, sharded through the inline
executor) in three modes:

* ``off``      — no sink installed (every hook is one test of a global);
* ``on``       — what ``--metrics-port`` installs: a
  :class:`~repro.telemetry.Recorder` and a
  :class:`~repro.telemetry.ProgressEngine`, via
  :func:`repro.telemetry.activate`;
* ``scraped``  — the same sinks *and* a loopback ``/metrics`` exporter
  polled at 10 Hz by a background thread (an order of magnitude faster
  than a production Prometheus scrape interval).

The inline (serial) executor is deliberate: it fires exactly the same
per-shard hooks as the pooled backends but keeps the wall clock free of
thread-scheduling noise, so a 2% ceiling is actually measurable on a
small CI box.  Wall-clock drift on such a box is *time-correlated*
(neighbouring runs share the machine's load), so each repeat round runs
all three modes back to back and the overhead estimate is the **minimum
over rounds of the within-round ratio** against that round's ``off``
run — drift common to a round cancels in the ratio, and noise only ever
adds time, so the min ratio is the estimate closest to the true cost
(the usual min-estimator argument, applied per round).  The acceptance
gate is < 2% overhead for ``on`` and ``scraped`` vs ``off``.  The
quartiles of the per-round ratios are recorded next to the minimum, so
the record shows how wide the round-to-round noise is against the gate.

Headline numbers land in ``BENCH_obs_overhead.json`` at the repo root.
"""

import json
import os
import statistics
import threading
import time
import urllib.request
from pathlib import Path

from benchmarks._shared import bench_metadata, problem, scaled, write_report
from repro import telemetry
from repro.analysis.experiments import run_method
from repro.analysis.tables import format_table
from repro.obs.http import start_metrics_server

JSON_PATH = Path(__file__).parent.parent / "BENCH_obs_overhead.json"

#: Acceptance ceiling on observed overhead for each enabled mode.
OVERHEAD_CEILING = 0.02
REPEATS = 5


def _workload(prob, kwargs):
    return run_method("G-S", prob, **kwargs)


def _fingerprint(result):
    return (
        result.failure_probability,
        result.relative_error,
        result.n_first_stage,
        result.n_second_stage,
    )


def _sinks():
    """The sinks ``--metrics-port`` installs, through the same call."""
    return telemetry.activate(
        telemetry.Recorder(run_id="bench-obs"),
        engine=telemetry.ProgressEngine(),
    )


def _run_once(mode, prob, kwargs):
    """One timed run in ``mode``; returns (seconds, result fingerprint)."""
    if mode == "off":
        t0 = time.perf_counter()
        result = _workload(prob, kwargs)
        return time.perf_counter() - t0, _fingerprint(result)
    if mode == "on":
        with _sinks():
            t0 = time.perf_counter()
            result = _workload(prob, kwargs)
            return time.perf_counter() - t0, _fingerprint(result)
    assert mode == "scraped"
    with _sinks():
        with start_metrics_server(0) as server:
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    try:
                        urllib.request.urlopen(
                            f"{server.url}/metrics", timeout=5
                        ).read()
                    except OSError:
                        pass
                    stop.wait(0.1)  # 10 Hz, already aggressive

            scraper = threading.Thread(target=hammer, daemon=True)
            scraper.start()
            try:
                t0 = time.perf_counter()
                result = _workload(prob, kwargs)
                return time.perf_counter() - t0, _fingerprint(result)
            finally:
                stop.set()
                scraper.join(timeout=5)


MODES = ("off", "on", "scraped")


def run():
    prob = problem("iread")
    kwargs = dict(
        rng=2011,
        n_gibbs=scaled(150, 40),
        n_second_stage=scaled(30_000, 4_000),
        n_workers=1,
        backend="serial",
        shard_size=max(scaled(30_000, 4_000) // 16, 256),
    )

    # Repeats interleave the modes (off, on, scraped, off, on, ...):
    # wall-clock drift on a busy CI box is correlated in time, so
    # grouping a mode's repeats together would charge whole slow minutes
    # to one mode.  A discarded warm-up run absorbs first-touch costs
    # (imports, allocator growth, CPU frequency ramp).
    _run_once("off", prob, kwargs)
    times = {mode: [] for mode in MODES}
    fingerprints = set()
    for _ in range(REPEATS):
        for mode in MODES:
            seconds, fingerprint = _run_once(mode, prob, kwargs)
            times[mode].append(seconds)
            fingerprints.add(fingerprint)

    # The determinism half of the contract: every repeat of every mode
    # computed the same estimate to the bit.
    assert len(fingerprints) == 1, fingerprints
    records = {mode: min(times[mode]) for mode in MODES}

    # Overhead per the docstring: min over rounds of the within-round
    # ratio, so time-correlated drift cancels against the adjacent
    # ``off`` run instead of being charged to a mode.
    ratios = {
        mode: [times[mode][i] / times["off"][i] for i in range(REPEATS)]
        for mode in ("on", "scraped")
    }
    overhead = {mode: min(ratios[mode]) - 1.0 for mode in ratios}
    quartiles = {
        mode: [q - 1.0 for q in statistics.quantiles(ratios[mode], n=4)]
        for mode in ratios
    }
    for mode, value in overhead.items():
        assert value < OVERHEAD_CEILING, (
            f"obs mode {mode!r} costs {100 * value:.2f}% on the Gibbs hot "
            f"path (ceiling {100 * OVERHEAD_CEILING:.0f}%)"
        )

    payload = {
        "environment": bench_metadata(),
        "problem": "iread (read current, M = 2)",
        "method": "G-S",
        "n_gibbs": kwargs["n_gibbs"],
        "n_second_stage": kwargs["n_second_stage"],
        "shard_size": kwargs["shard_size"],
        "backend": "serial (inline executor, same hooks as pooled)",
        "repeats": REPEATS,
        "seconds": records,
        "cpu_count": os.cpu_count(),
        "overhead_vs_off": overhead,
        "overhead_quartiles_vs_off": quartiles,
        "overhead_ceiling": OVERHEAD_CEILING,
        "results_identical_across_modes": True,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            mode,
            f"{records[mode]:.3f}",
            "-" if mode == "off" else f"{100 * overhead[mode]:+.2f}%",
            "-" if mode == "off" else " / ".join(
                f"{100 * q:+.2f}%" for q in quartiles[mode]
            ),
        ]
        for mode in ("off", "on", "scraped")
    ]
    report = (
        f"G-S on iread, K = {kwargs['n_gibbs']}, "
        f"N = {kwargs['n_second_stage']}, inline executor, "
        f"{REPEATS} interleaved rounds "
        "(time = min, overhead = min within-round ratio; "
        "quartiles Q1 / median / Q3 of the within-round ratios):\n"
        + format_table(
            ["obs mode", "time [s]", "overhead", "quartiles"], rows
        )
        + "\n\nresults bit-identical across all modes: yes\n"
        f"acceptance: overhead < {100 * OVERHEAD_CEILING:.0f}% "
        "for 'on' and 'scraped'\n"
        f"JSON record: {JSON_PATH.name}"
    )
    write_report("obs_overhead", report)


def test_obs_overhead(benchmark):
    benchmark.pedantic(run, rounds=1, iterations=1)


if __name__ == "__main__":
    run()
