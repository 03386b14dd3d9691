"""The repository's benchmark: cold failure-rate estimates, end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gs_iread --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics: a closed loop of cold
estimates (one client; the next estimate starts after the previous one
returned) for about ``--seconds`` seconds, at least four estimates,
plus a few fresh interpreters timed from start to ready.  Every estimate's
output is checked against its reference.  After each estimate,
:mod:`calibrate` times a fixed pass on the core(s) it ran on, so that the
estimates' wall time is also reported in passes of those cores
(``wall_rel``), which the host's speed drift does not move.

``--trace 1`` gives the per-layer metrics: it runs the first estimate of
the seed twice untraced, then once more with :mod:`tracer`'s wrappers
installed, checks that all three results are identical, and splits the
traced run's wall time by layer.

The metric names, units and directions come from ``BENCHMARK.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record of
the run goes to ``perfbench/out/``.  The exit status is 0 when every
check passed, 1 when one failed and 2 when the checkout has no library to
measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_REPEATS = 4
#: Estimates per untraced run, whatever ``--seconds`` says.
MIN_ESTIMATES = 4
#: No new estimate starts after this many seconds of measuring, so a run
#: ends well inside the three minutes it is allowed.
LOOP_LIMIT_S = 100.0
#: An estimate running longer than this counts as failed (timed out).
ESTIMATE_TIMEOUT_S = 60
#: Share of a traced estimate's wall time its layer spans must cover.
COVERAGE_FLOOR = 0.99
#: One BLAS thread per process: two workers on two cores, no
#: oversubscription, and steadier timings.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Estimate:
    seed: int
    core: Optional[int] = None
    wall_s: float = 0.0
    result: object = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.result is not None and not self.problems

    def record(self) -> dict:
        out = {"seed": self.seed, "core": self.core, "wall_s": self.wall_s,
               "problems": self.problems}
        if self.result is not None:
            out.update(
                failure_probability=self.result.failure_probability,
                relative_error=self.result.relative_error,
                n_first_stage=self.result.n_first_stage,
                n_second_stage=self.result.n_second_stage,
            )
        return out


class EstimateTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: int):
    def expire(signum, frame):
        raise EstimateTimeout(f"estimate exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ------------------------------------------------------------------ cores
def bench_cores() -> List[int]:
    """The (at most two) cores the benchmark runs on.

    One vCPU of a shared host can run a quarter slower than its sibling
    for minutes at a time, and a serial process tends to stay on the core
    it started on.  So serial work is pinned to each of these cores in
    turn and reported as a mean over cores (:func:`balanced_median`), and a
    pooled workload runs with all of them.
    """
    return sorted(os.sched_getaffinity(0))[:2]


@contextlib.contextmanager
def pinned(cores):
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cores)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def pass_time(core: Optional[int], cores) -> float:
    """Calibration pass time on ``core``; ``None``: pooled over ``cores``."""
    per_core = []
    for each in cores if core is None else [core]:
        with pinned({each}):
            per_core.append(calibrate.pass_seconds())
    return calibrate.pooled_seconds(per_core)


def _by_core(samples) -> dict:
    by_core = {}
    for core, value in samples:
        by_core.setdefault(core, []).append(value)
    return by_core


def balanced_median(samples) -> float:
    """Mean over cores of the median of the ``(core, value)`` samples on each."""
    by_core = _by_core(samples)
    if not by_core:
        return 0.0
    return statistics.fmean(statistics.median(v) for v in by_core.values())


def balanced_ratio(samples, passes) -> float:
    """Mean over cores of the median sample over the median pass time.

    ``samples`` and ``passes`` are ``(core, seconds)`` pairs; a core's
    ratio of medians is steadier than the median of per-estimate ratios,
    because each pass time is a short, noisy measurement.
    """
    by_core, cal = _by_core(samples), _by_core(passes)
    if not by_core:
        return 0.0
    return statistics.fmean(
        statistics.median(v) / statistics.median(cal[core])
        for core, v in by_core.items()
    )


def timed_estimate(workloads, workload, seed: int, pool,
                   core: Optional[int] = None) -> Estimate:
    """Build a fresh problem, run one estimate on ``core``, check its output.

    ``core=None`` leaves the affinity alone (pooled workloads).
    """
    estimate = Estimate(seed=seed, core=core)
    problem = workloads.build_problem()
    start = time.perf_counter()
    try:
        with deadline(ESTIMATE_TIMEOUT_S), (
            contextlib.nullcontext() if core is None else pinned({core})
        ):
            estimate.result = workloads.run_estimate(
                workload, problem, seed, pool, OUT
            )
        estimate.wall_s = time.perf_counter() - start
        estimate.problems = workloads.check_estimate(workload, estimate.result)
    except Exception as exc:  # any failure of the program is a failed run
        estimate.wall_s = time.perf_counter() - start
        estimate.problems = [f"{type(exc).__name__}: {exc}"]
    return estimate


# ------------------------------------------------------------- resources
def _hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _children() -> List[int]:
    pids = []
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        pids.extend(int(p) for p in (task / "children").read_text().split())
    return pids


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children (MB)."""
    total = _hwm_mb(os.getpid())
    for pid in _children():
        with contextlib.suppress(OSError):
            total += _hwm_mb(pid)
    return total


def time_setup(workload, core: int) -> float:
    """Seconds from a fresh interpreter's start, on ``core``, to ``ready``."""
    start = time.perf_counter()
    with pinned({core}), subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return elapsed


# ------------------------------------------------------------ the two runs
def run_untraced(workloads, workload, seed: int, seconds: float):
    """End-to-end metrics of one run; returns (metrics, estimates, notes)."""
    notes = []
    cores = bench_cores()
    setup_cores = [cores[i % len(cores)] for i in range(SETUP_REPEATS)]
    try:
        setups = [(core, time_setup(workload, core)) for core in setup_cores]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        setups = []
        notes.append(str(exc))
    # Serial estimates visit the cores in turn and the loop only stops
    # after a full round; a pooled workload keeps all cores every time.
    rotation = [None] if workload.n_workers else cores
    estimates: List[Estimate] = []
    peak = 0.0
    with pinned(cores):
        pool = workloads.open_pool(workload)
        try:
            workloads.warm_up(workload, pool, OUT)
            passes = [(slot, pass_time(slot, cores)) for slot in rotation]
            start = time.perf_counter()
            while True:
                elapsed = time.perf_counter() - start
                walls = [e.wall_s for e in estimates]
                if elapsed > LOOP_LIMIT_S or (
                    len(estimates) % len(rotation) == 0
                    and len(estimates) >= MIN_ESTIMATES
                    and elapsed + len(rotation) * statistics.median(walls)
                    > seconds
                ):
                    break
                index = len(estimates)
                estimate = timed_estimate(
                    workloads, workload,
                    workloads.estimate_seed(seed, workload, index), pool,
                    rotation[index % len(rotation)],
                )
                peak = max(peak, peak_rss_mb())
                estimates.append(estimate)
                passes.append((estimate.core, pass_time(estimate.core, cores)))
        finally:
            if pool is not None:
                pool.close()

    good = [e for e in estimates if e.ok]
    metrics = {
        "wall_s": balanced_median([(e.core, e.wall_s) for e in good]),
        "wall_rel": balanced_ratio([(e.core, e.wall_s) for e in good],
                                   passes),
        "cal_s": balanced_median(passes),
        "setup_s": balanced_median(setups),
        "sims_total": _median([workloads.sims_total(e.result) for e in good]),
        "sims_to_5pct": _median(
            [workloads.sims_to_target(e.result) for e in good]
        ),
        "rel_err99": _median([e.result.relative_error for e in good]),
        "peak_rss_mb": peak,
        "fail_frac": 1.0 - len(good) / max(len(estimates), 1),
    }
    return metrics, estimates, notes


def run_traced(workloads, workload, seed: int, run_id: str):
    """Per-layer metrics of one run; returns (metrics, estimates, notes)."""
    import tracer as tracing
    from repro import telemetry

    notes = []
    seed_0 = workloads.estimate_seed(seed, workload, 0)
    cores = bench_cores()
    # Every estimate of a traced run sits on the same core(s), so the
    # overhead ratio compares like with like.
    core = None if workload.n_workers else cores[0]
    with pinned(cores):
        pool = workloads.open_pool(workload)
        try:
            workloads.warm_up(workload, pool, OUT)
            untraced = [timed_estimate(workloads, workload, seed_0, pool, core)
                        for _ in range(2)]
        finally:
            if pool is not None:
                pool.close()

    tracer = tracing.Tracer(run_id)
    recorder = telemetry.Recorder(run_id=run_id)
    problem = workloads.build_problem()
    traced = Estimate(seed=seed_0, core=core)
    with tracer.installed(), pinned(cores if core is None else {core}):
        # The pool is started after wrapping so forked workers inherit it.
        pool = workloads.open_pool(workload)
        try:
            workloads.warm_up(workload, pool, OUT)
            start = time.perf_counter()
            with telemetry.activate(recorder), tracer.span(tracing.ROOT):
                traced.result = workloads.run_estimate(
                    workload, problem, seed_0, pool, OUT
                )
            traced.wall_s = time.perf_counter() - start
        finally:
            if pool is not None:
                pool.close()
    traced.problems = workloads.check_estimate(workload, traced.result)
    estimates = untraced + [traced]

    leftovers = tracing.wrapped_bindings()
    if leftovers:
        notes.append(f"wrappers left installed: {leftovers}")
    if all(e.result is not None for e in untraced):
        if not workloads.same_result(untraced[0].result, untraced[1].result):
            notes.append("two untraced runs of one seed differ")
        if not workloads.same_result(untraced[0].result, traced.result):
            notes.append("the traced run differs from the untraced ones")

    metrics, layer_notes = layer_metrics(
        tracing, workloads, workload, recorder, traced,
        statistics.median(e.wall_s for e in untraced),
    )
    notes.extend(layer_notes)
    OUT.mkdir(parents=True, exist_ok=True)
    telemetry.write_jsonl(recorder, OUT / f"{run_id}.spans.jsonl")
    return metrics, estimates, notes


def layer_metrics(tracing, workloads, workload, recorder, traced, untraced_wall):
    """Per-layer numbers from one traced estimate; returns (metrics, notes)."""
    notes = []
    pid = os.getpid()
    spans = tracing.bench_spans(recorder.spans)
    local = [e for e in spans if e["pid"] == pid]
    remote = [e for e in spans if e["pid"] != pid]
    root = next(e for e in local if e["name"] == tracing.ROOT)
    covered, accounted = tracing.coverage(local, root["attrs"]["sid"])
    selfs = tracing.self_times(spans)
    counters = recorder.counters

    def pick(name, among=spans):
        return [e for e in among if e["name"] == name]

    def total(name, among=spans):
        return sum(e["dur"] for e in pick(name, among))

    def rows(name, among=spans):
        return sum(e["counters"].get("rows", 0) for e in pick(name, among))

    def self_time(name):
        return sum(selfs[e["attrs"]["sid"]] for e in pick(name))

    def ratio(num, den):
        return num / den if den else 0.0

    gibbs = workload.method == "G-S"
    samples = workload.n_chains * workload.n_gibbs
    first_stage = 0.0
    if gibbs:
        entry = pick("gibbs.entry")[0]
        second = pick("mc.second_stage")[0]
        first_stage = second["start"] - entry["start"]
    map_s = total("parallel.map", local)
    busy = sum(
        e["dur"] for e in recorder.spans
        if e["pid"] != pid and e["name"].startswith("shard.")
    )
    result = traced.result
    metrics = {
        "gibbs.first_stage_s": first_stage,
        "gibbs.start_s": total("gibbs.start"),
        "gibbs.interval_s": total("gibbs.interval"),
        "gibbs.interval_calls": len(pick("gibbs.interval")),
        "gibbs.bisect_rounds_per_sample": ratio(
            counters.get("bisect.rounds", 0), samples if gibbs else 0),
        "gibbs.sims_per_sample": ratio(
            counters.get("bisect.sims", 0), samples if gibbs else 0),
        "mc.second_stage_s": total("mc.second_stage"),
        "mc.run_s": total("mc.run"),
        "mc.rel_err99": result.relative_error,
        "mc.sims_to_5pct": workloads.sims_to_target(result),
        "sram.metric_calls": len(pick("sram.metric")),
        "sram.metric_rows": rows("sram.metric"),
        "sram.rows_per_call": ratio(rows("sram.metric"),
                                    len(pick("sram.metric"))),
        "sram.metric_s": total("sram.metric"),
        "sram.metric_nonfinite": sum(
            e["counters"].get("nonfinite", 0) for e in pick("sram.metric")),
        "sram.cell.read_state_s": total("sram.cell.read_state"),
        "sram.cell.read_state_self_s": self_time("sram.cell.read_state"),
        "sram.newton_iters_per_solve": ratio(
            counters.get("newton.lane_iters", 0),
            counters.get("newton.lane_solves", 0)),
        "devices.mosfet_calls": len(pick("devices.mosfet")),
        "devices.mosfet_s": total("devices.mosfet"),
        "devices.lanes_per_call": ratio(rows("devices.mosfet"),
                                        len(pick("devices.mosfet"))),
        "backend.namespace_calls": len(pick("backend.namespace")),
        "backend.namespace_s": total("backend.namespace"),
        "parallel.map_s": map_s,
        "parallel.shards": rows("parallel.map", local),
        "parallel.worker_busy_s": busy,
        "parallel.busy_frac": ratio(busy, workload.n_workers * map_s),
        "parallel.ledger_record_s": total("parallel.ledger_record"),
        "parallel.ledger_rows": len(pick("parallel.ledger_record")),
        "trace.coverage": covered,
        "trace.overhead_x": ratio(traced.wall_s, untraced_wall),
    }

    if covered < COVERAGE_FLOOR:
        notes.append(f"layer spans cover {covered:.4f} of wall time, "
                     f"below {COVERAGE_FLOOR}")
    if abs(accounted - 1.0) > 1e-6:
        notes.append(f"self times sum to {accounted:.6f} of wall time")
    # Worker-span witness: every simulation is one metric row, so the
    # rows seen by the traced metric must add up to the simulations
    # charged -- on a pooled run, all of them from worker processes.
    witness = rows("sram.metric", remote if workload.n_workers else local)
    if witness != workloads.sims_total(result):
        where = "worker" if workload.n_workers else "in-process"
        notes.append(f"{where} metric spans saw {witness} rows, the estimate "
                     f"charged {workloads.sims_total(result)} simulations")
    return metrics, notes


# ---------------------------------------------------------------- reporting
def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def environment(workload, seed: int) -> dict:
    """Environment and provenance stamp (``benchmarks/_shared.py``)."""
    import importlib.util
    import multiprocessing

    import numpy as np

    spec = importlib.util.spec_from_file_location(
        "bench_shared", ROOT / "benchmarks" / "_shared.py"
    )
    shared = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shared)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True,
    ).stdout.strip() if (ROOT / ".git").exists() else ""
    return shared.bench_metadata(
        blas=blas,
        blas_threads={var: os.environ.get(var) for var in THREAD_VARS},
        start_method=multiprocessing.get_start_method(),
        git_commit=commit or "unknown (not a git checkout)",
        workload=workload.name,
        seed=seed,
    )


def print_table(title: str, declared, values: dict) -> None:
    print(title)
    for name, unit in declared:
        print(f"  {name:<32} {values[name]:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'repro'}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        values, estimates, notes = run_traced(
            workloads, workload, args.seed, run_id)
        declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        title = f"per-layer metrics, {workload.name} (one traced estimate)"
    else:
        values, estimates, notes = run_untraced(
            workloads, workload, args.seed, args.seconds)
        # fail_frac is not a declared metric (it is 0 on a correct run);
        # the table prints it, the result line carries it as failed/attempted.
        # wall_s and cal_s, the two sides of wall_rel, are printed only.
        declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        shown = declared + [
            (name, unit) for name, unit in (
                ("wall_s", "s"), ("cal_s", "s"),
                ("sims_to_5pct", "count"), ("rel_err99", "fraction"),
                ("fail_frac", "fraction"))
            if name not in dict(declared)
        ]
        title = (f"end-to-end metrics, {workload.name}: median of "
                 f"{len(estimates)} cold estimates")
    failed = sum(not e.ok for e in estimates)
    if notes:  # a failed run-level check fails the run's estimates too
        failed = max(failed, 1)
    correct = failed == 0

    env = environment(workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{run_id}.json").write_text(json.dumps({
        "environment": env,
        "estimates": [e.record() for e in estimates],
        "notes": notes,
        "metrics": values,
    }, indent=1, default=str))

    print(f"environment: {json.dumps(env, default=str)}")
    for e in estimates:
        if e.problems:
            print(f"FAILED estimate seed={e.seed}: {'; '.join(e.problems)}",
                  file=sys.stderr)
    for note in notes:
        print(f"FAILED check: {note}", file=sys.stderr)
    print_table(title, declared if args.trace else shown, values)
    print(json.dumps({
        "correct": correct,
        "attempted": len(estimates),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
