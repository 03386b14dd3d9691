"""Throughput of the DC-solver hot kernels: compiled stamping vs generic walk.

The workload is the standard 6-T cell in its read configuration — the
circuit every margin metric and Gibbs conditional ultimately solves — over
Monte-Carlo ``delta_vth`` batches at the sizes the samplers actually use:
lockstep Gibbs chain batches (64–1024) and the metric layer's default
evaluation chunk (4096).

Variants:

* ``generic`` — the per-element stamping walk (``compiled=False``), the
  fallback and bit-identity oracle of the compiled path (the battery in
  tests/test_backend_kernels.py enforces bitwise equality).
* ``compiled`` — the precompiled scatter-program stamper
  (``compiled=None``/``True``, the default).

Timing is fully interleaved min-of-k: every round times each variant once
in rotation, and each variant reports its best round.  On a shared 1-core
container that is the only scheme that gave stable ratios; means drift by
2x between runs.

Headline numbers land in ``BENCH_backend_kernels.json`` at the repository
root, with the numpy/BLAS stamp of :func:`benchmarks._shared.bench_metadata`.
The asserted floor — compiled >= 1.5x generic at a Gibbs-scale batch —
sits under the measured 2.3–3.7x at 64–256 lanes (2-core x86 container) with
slack for machine noise.
"""

import json
import time
from pathlib import Path

import numpy as np

from benchmarks._shared import SCALE, bench_metadata, write_report
from repro.circuit import solve_dc
from repro.sram.cell import DEVICE_NAMES, SixTransistorCell

JSON_PATH = Path(__file__).parent.parent / "BENCH_backend_kernels.json"

#: Batch sizes: Gibbs lockstep chain batches, then the metric chunk default.
BATCH_SIZES = (64, 256, 1024, 4096)

#: Gibbs-scale sizes over which the headline speedup is taken.
GIBBS_SIZES = (64, 256)


def _problem(n_batch, seed=17):
    cell = SixTransistorCell()
    rng = np.random.default_rng(seed)
    params = {
        name: {"delta_vth": rng.normal(0.0, 0.08, n_batch)}
        for name in DEVICE_NAMES
    }
    clamps = {"vdd": cell.vdd, "wl": cell.vdd, "bl": cell.vdd, "blb": cell.vdd}
    return cell.build_circuit(), clamps, params


#: Variant name -> ``solve_dc(compiled=)``.
VARIANTS = {"generic": False, "compiled": True}


def bench_dc_solver_kernels():
    rounds = max(3, int(round(5 * SCALE)))
    records = []
    for n_batch in BATCH_SIZES:
        circuit, clamps, params = _problem(n_batch)
        # Warm-up: compiles/caches the stamping plan so the timed rounds
        # measure steady-state solves only, and pins the convergence
        # contract.
        for compiled in VARIANTS.values():
            sol = solve_dc(circuit, clamps, element_params=params,
                           compiled=compiled)
            assert sol.iterations > 0
        best = {name: float("inf") for name in VARIANTS}
        for _ in range(rounds):
            for name, compiled in VARIANTS.items():
                t0 = time.perf_counter()
                solve_dc(circuit, clamps, element_params=params,
                         compiled=compiled)
                best[name] = min(best[name], time.perf_counter() - t0)
        base = best["generic"]
        for name in VARIANTS:
            records.append(
                {
                    "n_batch": n_batch,
                    "variant": name,
                    "best_solve_s": best[name],
                    "samples_per_sec": n_batch / best[name],
                    "speedup_vs_generic": base / best[name],
                }
            )
    return records


def test_backend_kernel_throughput():
    records = bench_dc_solver_kernels()
    headline = max(
        r["speedup_vs_generic"]
        for r in records
        if r["variant"] == "compiled" and r["n_batch"] in GIBBS_SIZES
    )
    payload = {
        "workload": "6T read-configuration DC solve, per-device delta_vth batch",
        "batch_sizes": list(BATCH_SIZES),
        "gibbs_sizes": list(GIBBS_SIZES),
        "rounds": max(3, int(round(5 * SCALE))),
        "environment": bench_metadata(),
        "records": records,
        "headline_compiled_speedup": headline,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = ["DC kernel throughput (6T read DC solve)", ""]
    lines.append(f"{'n_batch':>8} {'variant':>10} {'samples/s':>12} {'vs generic':>11}")
    for r in records:
        lines.append(
            f"{r['n_batch']:>8} {r['variant']:>10} "
            f"{r['samples_per_sec']:>12.0f} {r['speedup_vs_generic']:>10.2f}x"
        )
    lines.append("")
    lines.append(f"headline compiled speedup (Gibbs-scale batches): {headline:.2f}x")
    write_report("backend_kernels", "\n".join(lines))

    # Floor, not a target: measured 2.3–3.7x on a 2-core x86 container.
    assert headline >= 1.5, f"compiled speedup {headline:.2f}x under the 1.5x floor"


if __name__ == "__main__":
    test_backend_kernel_throughput()
