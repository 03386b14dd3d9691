"""Throughput of the lockstep multi-chain Gibbs engine (perf benchmark).

The lockstep engine turns every bisection step of Algorithm 3 into one
batched metric call covering all chains' pending midpoints, so on a
vectorised simulator the wall-clock cost per Gibbs sample drops roughly
with the chain count while the *simulation count* per sample stays exactly
that of a sequential chain.  This bench measures samples/sec and metric
calls per sample on the 6-D read-noise-margin problem for
``n_chains in {1, 4, 16, 64}``, plus the honest baseline the speedup claim
is made against: 16 sequential single-chain runs.

Besides the usual text report, the headline numbers land in
``BENCH_gibbs_throughput.json`` at the repository root so the speedup is
machine-checkable (the acceptance floor is 5x at ``n_chains = 16``).
"""

import json
import time
from pathlib import Path

import numpy as np

from benchmarks._shared import bench_metadata, problem, scaled, write_report
from repro.analysis.tables import format_table
from repro.gibbs.cartesian import CartesianGibbs
from repro.gibbs.starting_point import find_starting_point
from repro.mc.counter import CountedMetric

JSON_PATH = Path(__file__).parent.parent / "BENCH_gibbs_throughput.json"


def _measure(fn, counted):
    """Time ``fn`` and return (elapsed, sims, calls) deltas."""
    count0, calls0 = counted.count, counted.calls
    t0 = time.perf_counter()
    chain = fn()
    elapsed = time.perf_counter() - t0
    return chain, elapsed, counted.count - count0, counted.calls - calls0


def run():
    prob = problem("rnm")
    counted = CountedMetric(prob.metric)
    rng = np.random.default_rng(2026)
    start = find_starting_point(
        counted, prob.spec, counted.dimension, rng,
        doe_budget=scaled(400, 100),
    )
    sampler = CartesianGibbs(counted, prob.spec)
    n_gibbs = scaled(30, 8)

    records = []

    # Baseline: 16 sequential single-chain runs (what a user without the
    # lockstep engine would do to obtain 16 chains' worth of samples).
    seq_chains = 16
    t0 = time.perf_counter()
    count0, calls0 = counted.count, counted.calls
    for c in range(seq_chains):
        sampler.run(start.x, n_gibbs, np.random.default_rng(100 + c))
    seq_elapsed = time.perf_counter() - t0
    seq_samples = seq_chains * n_gibbs
    seq_record = {
        "mode": "sequential",
        "n_chains": seq_chains,
        "n_samples": seq_samples,
        "elapsed_s": seq_elapsed,
        "samples_per_sec": seq_samples / seq_elapsed,
        "sims_per_sample": (counted.count - count0) / seq_samples,
        "metric_calls_per_sample": (counted.calls - calls0) / seq_samples,
    }
    records.append(seq_record)

    for n_chains in (1, 4, 16, 64):
        starts = np.tile(start.x, (n_chains, 1))
        chain, elapsed, sims, calls = _measure(
            lambda: sampler.run_lockstep(
                starts, n_gibbs,
                chain_rngs=[
                    np.random.default_rng(7 + c) for c in range(n_chains)
                ],
            ),
            counted,
        )
        records.append({
            "mode": "lockstep",
            "n_chains": n_chains,
            "n_samples": chain.n_samples,
            "elapsed_s": elapsed,
            "samples_per_sec": chain.n_samples / elapsed,
            "sims_per_sample": sims / chain.n_samples,
            "metric_calls_per_sample": calls / chain.n_samples,
        })

    lock16 = next(
        r for r in records
        if r["mode"] == "lockstep" and r["n_chains"] == 16
    )
    speedup16 = lock16["samples_per_sec"] / seq_record["samples_per_sec"]

    payload = {
        "environment": bench_metadata(),
        "problem": "rnm (read noise margin, M = 6)",
        "sampler": "CartesianGibbs",
        "n_gibbs_per_chain": n_gibbs,
        "records": records,
        "speedup_lockstep16_vs_sequential16": speedup16,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            r["mode"], r["n_chains"], r["n_samples"],
            f"{r['elapsed_s']:.2f}",
            f"{r['samples_per_sec']:.1f}",
            f"{r['sims_per_sample']:.1f}",
            f"{r['metric_calls_per_sample']:.2f}",
        ]
        for r in records
    ]
    report = (
        format_table(
            ["mode", "chains", "samples", "time [s]", "samples/s",
             "sims/sample", "calls/sample"],
            rows,
        )
        + f"\n\nlockstep-16 vs 16 sequential chains: {speedup16:.2f}x "
        "samples/sec at identical sims/sample (batching changes how "
        "simulations are issued, never how many are charged).\n"
        f"JSON record: {JSON_PATH.name}"
    )
    write_report("multichain_throughput", report)


def test_multichain_throughput(benchmark):
    benchmark.pedantic(run, rounds=1, iterations=1)
