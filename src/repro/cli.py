"""Command-line interface: ``python -m repro <command>``.

Nine commands cover the common workflows without writing any Python:

* ``estimate`` — run one method on a built-in problem::

      python -m repro estimate --problem iread --method G-S \
          --n-gibbs 300 --n-second 5000 --seed 0

* ``compare`` — run a panel of methods with agreement diagnostics::

      python -m repro compare --problem rnm --methods MNIS G-S --seed 7

* ``region`` — print the ASCII failure-region map of a 2-D problem::

      python -m repro region --problem iread --extent 8

* ``serve`` — run the yield-estimation service with a persistent
  proposal cache (see ``docs/SERVICE.md``)::

      python -m repro serve --cache-dir .repro-cache --port 8642

* ``submit`` — submit one job (or a JSON batch file) to a running
  service and optionally wait for the result::

      python -m repro submit --problem iread --method G-S --wait 120

* ``jobs`` — list a running service's jobs with cache accounting::

      python -m repro jobs --url http://127.0.0.1:8642

* ``worker`` — join a remote-backend coordinator (an ``estimate
  --backend remote`` run) and execute shards until drained
  (trusted networks only; see ``docs/ELASTIC.md``)::

      python -m repro worker --connect 127.0.0.1:7341 --retries 30

* ``top`` / ``status`` — watch a live metrics endpoint (a service, or
  any long run started with ``--metrics-port``); ``top`` refreshes a
  terminal dashboard, ``status`` prints the snapshot once as JSON (see
  ``docs/OBSERVABILITY.md``)::

      python -m repro top http://127.0.0.1:9464

An interrupted run (SIGINT) exits with status 130 after the parallel
layer has cancelled queued shards and joined its worker processes — no
orphaned pools or shared-memory segments.

Output contract: **stdout carries only results** (summaries, the chain
line, agreement tables, region maps); every diagnostic — progress lines,
verbose extras, notes, errors — flows through the structured ``repro``
logger to stderr (``--log-json`` for one JSON object per line).  With
``--trace`` / ``--trace-events`` the run records telemetry spans and
counters and writes a Chrome ``trace_event`` file and/or a JSONL event
stream, each carrying the run manifest (problem, seed, worker grid,
versions, adaptive-probe record).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional

from repro import telemetry
from repro.analysis.diagnostics import check_agreement
from repro.analysis.experiments import METHODS, compare_methods, run_method
from repro.analysis.region import ascii_region, map_failure_region
from repro.mc.diagnostics import diagnose_weights
from repro.sram.problems import (
    read_current_problem,
    read_noise_margin_problem,
    write_noise_margin_problem,
    write_time_problem,
)
from repro.telemetry import logs

PROBLEMS = {
    "rnm": read_noise_margin_problem,
    "wnm": write_noise_margin_problem,
    "iread": read_current_problem,
    "twrite": write_time_problem,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SRAM failure-rate prediction via Gibbs sampling "
        "(DAC'11 / TCAD'12 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--problem", choices=sorted(PROBLEMS), default="iread",
            help="built-in problem instance (default: iread)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--n-second", type=int, default=5000,
                       help="second-stage simulations N")
        p.add_argument("--n-gibbs", type=int, default=300,
                       help="first-stage Gibbs samples K")
        p.add_argument("--n-chains", type=int, default=1,
                       help="first-stage Gibbs chains C (Gibbs methods "
                            "only); with --workers the chains fan out "
                            "over the worker pool")
        p.add_argument("--doe-budget", type=int, default=None,
                       help="surrogate/DOE simulation budget")
        p.add_argument("--ladder-width", type=int, default=1,
                       help="interval-search points per bracket side and "
                            "round (Gibbs methods only); k > 1 trades "
                            "extra simulations per round for fewer "
                            "sequential rounds (default: 1, classic "
                            "bisection)")
        p.add_argument("--warm-start", action="store_true",
                       help="seed each chain's Newton solves from its "
                            "previous converged state (Gibbs methods "
                            "only); results shift within solver "
                            "tolerance (see DESIGN.md)")
        p.add_argument("--workers", type=int, default=None,
                       help="run the sampling shards on this many worker "
                            "processes (default: one, inline): the "
                            "first-stage chain groups and the second-stage "
                            "shards; results depend on the seed only, not "
                            "the worker count")
        p.add_argument("--shard-size", type=int, default=None,
                       help="samples per shard "
                            "(default: per-method; the shard grid is part "
                            "of the run identity, so a ledger resume must "
                            "reuse the original value)")
        p.add_argument("--backend",
                       choices=("serial", "thread", "process", "remote"),
                       default="process",
                       help="sharded-path backend (with --workers); "
                            "'remote' dispatches shards to `repro worker` "
                            "processes over the socket transport "
                            "(trusted networks only, see docs/ELASTIC.md)")
        p.add_argument("--listen", metavar="HOST:PORT", default=None,
                       help="remote backend only: address the coordinator "
                            "binds for workers to connect to "
                            "(default: 127.0.0.1 with an OS-picked port, "
                            "logged at startup)")
        p.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="persist completed shards to append-only "
                            "ledgers in DIR; a killed run re-invoked with "
                            "the same arguments resumes bit-identically, "
                            "re-running only the missing shards (see "
                            "docs/ELASTIC.md)")
        p.add_argument("--resume", default=True,
                       action=argparse.BooleanOptionalAction,
                       help="with --checkpoint-dir: replay a matching "
                            "ledger (default); --no-resume truncates it "
                            "and starts over")
        p.add_argument("--adaptive-shards", action="store_true",
                       help="size shards and chain groups from a "
                            "metric-throughput probe; the probe numbers "
                            "and chosen grid are recorded in the result "
                            "extras")
        p.add_argument("--verbose", action="store_true",
                       help="print chain diagnostics, the adaptive sizing "
                            "record and the telemetry summary (stderr)")
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="record run telemetry and write a Chrome "
                            "trace_event file (open in chrome://tracing "
                            "or Perfetto); tracing never changes results")
        p.add_argument("--trace-events", metavar="PATH", default=None,
                       help="record run telemetry and write the JSONL "
                            "event stream (schema "
                            f"{telemetry.JSONL_SCHEMA})")
        p.add_argument("--log-json", action="store_true",
                       help="emit stderr diagnostics as one JSON object "
                            "per line")
        p.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve live observability for this run on "
                            "http://127.0.0.1:PORT (/metrics Prometheus "
                            "text, /status JSON; 0 picks a free port); "
                            "watch it with `repro top` — observing never "
                            "changes results (docs/OBSERVABILITY.md)")

    est = sub.add_parser("estimate", help="run one estimation method")
    add_common(est)
    est.add_argument(
        "--method", choices=METHODS + ("MC",), default="G-S"
    )

    cmp_ = sub.add_parser("compare", help="run several methods and check agreement")
    add_common(cmp_)
    cmp_.add_argument(
        "--methods", nargs="+", choices=METHODS, default=list(METHODS)
    )

    reg = sub.add_parser("region", help="ASCII failure-region map (2-D problems)")
    reg.add_argument(
        "--problem", choices=sorted(PROBLEMS), default="iread"
    )
    reg.add_argument("--extent", type=float, default=8.0)
    reg.add_argument("--grid", type=int, default=61)

    srv = sub.add_parser(
        "serve", help="run the yield-estimation service (see docs/SERVICE.md)"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8642,
                     help="listen port (0 picks a free one)")
    srv.add_argument("--cache-dir", default=None,
                     help="artifact-cache root; omit to serve without "
                          "persistence (every job runs cold)")
    srv.add_argument("--job-workers", type=int, default=2,
                     help="jobs simulating concurrently")
    srv.add_argument("--workers", type=int, default=1,
                     help="simulation workers in the persistent pool")
    srv.add_argument("--backend", choices=("serial", "thread", "process"),
                     default="serial",
                     help="pool backend (default: serial/inline)")
    srv.add_argument("--job-timeout", type=float, default=None,
                     help="default per-job wall-clock limit in seconds")
    srv.add_argument("--log-json", action="store_true",
                     help="emit stderr diagnostics as one JSON object "
                          "per line")
    srv.add_argument("--metrics-port", type=int, default=None,
                     metavar="PORT",
                     help="additionally serve /metrics and /status on a "
                          "dedicated loopback port (0 picks a free one); "
                          "the main API port always serves both routes "
                          "too (see docs/OBSERVABILITY.md)")

    def add_client(p):
        p.add_argument("--url", default="http://127.0.0.1:8642",
                       help="service base URL")
        p.add_argument("--log-json", action="store_true",
                       help="emit stderr diagnostics as one JSON object "
                            "per line")

    sm = sub.add_parser(
        "submit", help="submit a job (or batch file) to a running service"
    )
    add_client(sm)
    sm.add_argument("--problem", choices=sorted(PROBLEMS), default="iread")
    sm.add_argument("--method", choices=METHODS + ("MC",), default="G-S")
    sm.add_argument("--corner", default="TT",
                    help="global process corner (TT/FF/SS/FS/SF)")
    sm.add_argument("--sigma-global", type=float, default=0.03,
                    help="die-to-die threshold sigma of the corner model")
    sm.add_argument("--threshold", type=float, default=None,
                    help="failure-spec threshold override")
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--n-second", type=int, default=5000,
                    help="second-stage budget N (a floor on cache hits)")
    sm.add_argument("--n-gibbs", type=int, default=300)
    sm.add_argument("--n-chains", type=int, default=1)
    sm.add_argument("--doe-budget", type=int, default=None)
    sm.add_argument("--ladder-width", type=int, default=1,
                    help="first-stage interval-search ladder width "
                         "(Gibbs methods only; part of the job identity)")
    sm.add_argument("--warm-start", action="store_true",
                    help="first-stage Newton warm starts (Gibbs methods "
                         "only; part of the job identity)")
    sm.add_argument("--shard-size", type=int, default=1024,
                    help="second-stage samples per shard (part of the "
                         "stored record's identity)")
    sm.add_argument("--timeout", type=float, default=None,
                    help="per-job wall-clock limit in seconds")
    sm.add_argument("--no-cache", action="store_true",
                    help="force a cold run (the result still lands in "
                         "the cache)")
    sm.add_argument("--batch", metavar="FILE", default=None,
                    help="JSON file with a list of job objects; "
                         "overrides the single-job options")
    sm.add_argument("--wait", type=float, default=None,
                    help="block up to this many seconds for the "
                         "result(s) and print them")

    lst = sub.add_parser("jobs", help="list a running service's jobs")
    add_client(lst)

    wrk = sub.add_parser(
        "worker",
        help="join a remote-backend coordinator and execute shards "
             "(see docs/ELASTIC.md; trusted networks only)",
    )
    wrk.add_argument("--connect", metavar="HOST:PORT", required=True,
                     help="coordinator address (the estimate side's "
                          "--listen / logged address)")
    wrk.add_argument("--heartbeat", type=float, default=None,
                     help="liveness beat interval in seconds "
                          "(default: the coordinator's)")
    wrk.add_argument("--retries", type=int, default=0,
                     help="connection attempts before giving up "
                          "(for workers started before the coordinator)")
    wrk.add_argument("--retry-delay", type=float, default=1.0,
                     help="seconds between connection attempts")
    wrk.add_argument("--log-json", action="store_true",
                     help="emit stderr diagnostics as one JSON object "
                          "per line")
    wrk.add_argument("--metrics-port", type=int, default=None,
                     metavar="PORT",
                     help="serve this worker's own /metrics (shards and "
                          "simulations completed, task seconds) on "
                          "http://127.0.0.1:PORT (0 picks a free port)")

    top_ = sub.add_parser(
        "top",
        help="live dashboard over a /status endpoint "
             "(a service, or a run started with --metrics-port)",
    )
    top_.add_argument("url", nargs="?", default="http://127.0.0.1:8642",
                      help="metrics endpoint base URL "
                           "(default: the local service)")
    top_.add_argument("--interval", type=float, default=2.0,
                      help="seconds between refreshes (default: 2)")
    top_.add_argument("--iterations", type=int, default=0,
                      help="frames to render before exiting "
                           "(default: 0 = until interrupted)")
    top_.add_argument("--log-json", action="store_true",
                      help="emit stderr diagnostics as one JSON object "
                           "per line")

    sta = sub.add_parser(
        "status", help="one-shot observability snapshot as JSON"
    )
    sta.add_argument("url", nargs="?", default="http://127.0.0.1:8642",
                     help="metrics endpoint base URL "
                          "(default: the local service)")
    sta.add_argument("--log-json", action="store_true",
                     help="emit stderr diagnostics as one JSON object "
                          "per line")
    return parser


def _adaptive_kwargs(args, method: str) -> dict:
    """Resolve ``--adaptive-shards`` into method kwargs."""
    if not args.adaptive_shards:
        return {}
    if method in ("G-C", "G-S"):
        return {"chain_group_size": "adaptive", "shard_size": "adaptive"}
    logs.warning(
        f"--adaptive-shards is ignored for {method} (Gibbs methods only)"
    )
    return {}


def _first_stage_kwargs(args, methods) -> dict:
    """Resolve ``--ladder-width`` / ``--warm-start`` into method kwargs.

    Both knobs tune the Gibbs first stage only; for other methods they
    are warned about and dropped rather than rejected, matching the
    ``--adaptive-shards`` convention.  ``methods`` is the method label
    (``estimate``) or the iterable of labels (``compare``) — the knobs
    are forwarded only when *every* target method accepts them, because
    ``compare`` fans the same kwargs to the whole panel.
    """
    kwargs = {}
    if args.ladder_width != 1:
        kwargs["ladder_width"] = args.ladder_width
    if args.warm_start:
        kwargs["solver_warm_start"] = True
    if not kwargs:
        return {}
    targets = (methods,) if isinstance(methods, str) else tuple(methods)
    non_gibbs = [name for name in targets if name not in ("G-C", "G-S")]
    if non_gibbs:
        logs.warning(
            "--ladder-width/--warm-start are ignored for "
            f"{', '.join(non_gibbs)} (Gibbs methods only)"
        )
        return {}
    return kwargs


@contextlib.contextmanager
def _instrumented(args):
    """Install this invocation's sinks for the block; yields the recorder.

    ``--metrics-port`` adds a :class:`~repro.telemetry.ProgressEngine`
    and a loopback exporter serving both on ``/metrics`` and ``/status``.
    Without any flag nothing is installed (the one-test fast path).
    """
    recorder = _run_recorder(args)
    port = getattr(args, "metrics_port", None)
    engine = telemetry.ProgressEngine() if port is not None else None
    with telemetry.activate(recorder, engine=engine):
        if engine is None:
            yield recorder
            return
        from repro.obs.http import start_metrics_server

        with start_metrics_server(port) as server:
            logs.info(f"metrics exporter on {server.url}/metrics "
                      f"(watch with `repro top {server.url}`)")
            yield recorder


def _print_verbose_extras(result) -> None:
    """``--verbose`` detail: mixing diagnostics and the adaptive record."""
    diagnostics = result.extras.get("chain_diagnostics")
    if diagnostics is not None:
        logs.info(f"chain mixing: {diagnostics.summary()}")
    resumed = result.extras.get("resume")
    if resumed is not None:
        line = (
            f"elastic ledger {resumed.get('path')}: "
            f"{resumed.get('shards_replayed', 0)} shard(s) replayed, "
            f"{resumed.get('shards_executed', 0)} executed "
            f"({resumed.get('sims_replayed', 0)} simulations saved)"
        )
        dropped = resumed.get("rows_dropped", 0)
        if dropped:
            line += f"; {dropped} torn/corrupt row(s) dropped"
        logs.info(line)
    adaptive = result.extras.get("adaptive_sharding")
    if adaptive is not None:
        probe = adaptive["probe"]
        logs.info(
            "adaptive sizing probe: "
            f"{1e6 * probe['per_call_s']:.1f} us/call + "
            f"{1e6 * probe['per_row_s']:.3f} us/row "
            f"({probe['n_probe_sims']} probe simulations)"
        )
        chosen = {
            key: adaptive[key]
            for key in ("chain_group_size", "shard_size")
            if key in adaptive
        }
        if chosen:
            grid = ", ".join(f"{key}={value}" for key, value in chosen.items())
            logs.info(f"adaptive sizing chose: {grid}")


def _tracing_requested(args) -> bool:
    return bool(
        getattr(args, "trace", None) or getattr(args, "trace_events", None)
    )


def _run_recorder(args) -> Optional["telemetry.Recorder"]:
    """A fresh run recorder when this invocation records telemetry.

    Tracing flags always record; ``--verbose`` alone records too, so the
    stderr summary has something to say, and ``--metrics-port`` records
    so the exporter has counters to serve.  ``None`` (the default) keeps
    every instrumented site on its one-``is None``-check fast path.
    """
    if (
        _tracing_requested(args)
        or getattr(args, "verbose", False)
        or getattr(args, "metrics_port", None) is not None
    ):
        return telemetry.Recorder(run_id=f"repro-{args.command}")
    return None


def _finish_telemetry(recorder, args, method) -> None:
    """Stamp the manifest, write the requested trace files, summarise."""
    if recorder is None:
        return
    recorder.meta["manifest"] = telemetry.build_manifest(
        command=args.command,
        problem=args.problem,
        method=method,
        seed=args.seed,
        n_workers=args.workers,
        backend="process" if args.workers is not None else None,
        argv=list(sys.argv[1:]),
        adaptive=recorder.meta.get("adaptive_sharding"),
    )
    if args.trace_events:
        telemetry.write_jsonl(recorder, args.trace_events)
        logs.info("telemetry events written", path=args.trace_events)
    if args.trace:
        telemetry.write_chrome_trace(recorder, args.trace)
        logs.info("chrome trace written", path=args.trace)
    if args.verbose:
        logs.info(recorder.summary())


def _cmd_estimate(args) -> int:
    problem = PROBLEMS[args.problem]()
    logs.info(f"problem: {problem.description}")
    adaptive = _adaptive_kwargs(args, args.method)
    first_stage = _first_stage_kwargs(args, args.method)
    elastic = {}
    if args.shard_size is not None:
        if args.adaptive_shards:
            logs.error("--shard-size conflicts with --adaptive-shards")
            return 2
        elastic["shard_size"] = args.shard_size
    if args.checkpoint_dir is not None:
        elastic.update(checkpoint_dir=args.checkpoint_dir,
                       resume=args.resume)
    pool = None
    if args.backend == "remote":
        # The coordinator binds on __enter__; log the address so
        # `repro worker --connect` invocations know where to join.
        from repro.parallel.executor import ParallelExecutor

        pool = ParallelExecutor(
            n_workers=args.workers, backend="remote",
            listen=args.listen, min_workers=args.workers or 1,
        )
    with _instrumented(args) as recorder, (
        pool if pool is not None else contextlib.nullcontext()
    ):
        if pool is not None:
            host, port = pool.address
            logs.info(f"remote coordinator listening on {host}:{port}; "
                      f"waiting for {pool.min_workers} worker(s)")
        result = run_method(
            args.method, problem, rng=args.seed,
            n_second_stage=args.n_second, n_gibbs=args.n_gibbs,
            n_chains=args.n_chains,
            doe_budget=args.doe_budget, n_workers=args.workers,
            backend=args.backend, executor=pool,
            **adaptive, **first_stage, **elastic,
        )
        if recorder is not None:
            record = result.extras.get("adaptive_sharding")
            if record is not None:
                recorder.meta["adaptive_sharding"] = record
    print(result.summary())
    chain = result.extras.get("chain")
    if chain is not None:
        print(
            f"chain: {chain.n_samples} Gibbs samples at "
            f"{chain.simulations_per_sample:.1f} sims/sample"
        )
    if args.verbose:
        _print_verbose_extras(result)
    _finish_telemetry(recorder, args, args.method)
    return 0


def _cmd_compare(args) -> int:
    problem = PROBLEMS[args.problem]()
    logs.info(f"problem: {problem.description}")
    if args.adaptive_shards:
        # Panel kwargs go to every method and the baselines take no sizing
        # knobs; adaptive sizing is an `estimate` feature.
        logs.warning(
            "--adaptive-shards is ignored by compare "
            "(use `estimate` with a Gibbs method)"
        )
    if args.checkpoint_dir is not None:
        logs.warning(
            "--checkpoint-dir is ignored by compare "
            "(shard ledgers are an `estimate` feature)"
        )
    if args.shard_size is not None:
        logs.warning(
            "--shard-size is ignored by compare "
            "(per-method sizing is an `estimate` feature)"
        )
    if args.backend == "remote":
        logs.error(
            "--backend remote shards one estimate over socket workers; "
            "compare runs a method panel (use `estimate`)"
        )
        return 2
    first_stage = _first_stage_kwargs(args, args.methods)
    with _instrumented(args) as recorder:
        results = compare_methods(
            problem, methods=tuple(args.methods), seed=args.seed,
            n_workers=args.workers, backend=args.backend,
            n_second_stage=args.n_second, n_gibbs=args.n_gibbs,
            n_chains=args.n_chains,
            doe_budget=args.doe_budget,
            **first_stage,
        )
    for result in results.values():
        print(" ", result.summary())
        if args.verbose:
            _print_verbose_extras(result)
    if len(results) >= 2:
        print("agreement check:")
        print(check_agreement(results).summary())
    _finish_telemetry(recorder, args, list(args.methods))
    return 0


def _cmd_region(args) -> int:
    problem = PROBLEMS[args.problem]()
    if problem.dimension != 2:
        logs.error(
            f"problem {args.problem!r} has dimension "
            f"{problem.dimension}; the region map is 2-D only (use iread)"
        )
        return 2
    axis_x, axis_y, fail = map_failure_region(
        problem, extent=args.extent, n_grid=args.grid
    )
    print(f"problem: {problem.description}")
    print(ascii_region(axis_x, axis_y, fail, width=61, height=25))
    print(f"failing fraction of the map: {fail.mean():.3f}")
    return 0


def _cmd_serve(args) -> int:
    # Local import: the serving layer is optional machinery the
    # single-run commands never need to pay for.
    from repro.service import YieldService, serve_forever

    service = YieldService(
        cache_dir=args.cache_dir,
        n_job_workers=args.job_workers,
        n_workers=args.workers,
        backend=args.backend,
        default_timeout=args.job_timeout,
    )
    if args.cache_dir is None:
        logs.warning("no --cache-dir: serving without persistence "
                     "(every job runs cold)")
    metrics = None
    if args.metrics_port is not None:
        # The service installed its progress engine as the process's
        # progress sink in its constructor, so the dedicated exporter
        # serves the same queue the API port does.
        from repro.obs.http import start_metrics_server

        metrics = start_metrics_server(args.metrics_port)
        logs.info(f"metrics exporter on {metrics.url}/metrics "
                  f"(watch with `repro top {metrics.url}`)")
    try:
        serve_forever(service, host=args.host, port=args.port)
    finally:
        if metrics is not None:
            metrics.close()
    return 0


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    if args.batch:
        with open(args.batch) as handle:
            payload = json.load(handle)
        if not isinstance(payload, list):
            logs.error(f"batch file {args.batch} must hold a JSON list "
                       "of job objects")
            return 2
        requests = payload
    else:
        request = {
            "problem": args.problem,
            "method": args.method,
            "corner": args.corner,
            "sigma_global": args.sigma_global,
            "seed": args.seed,
            "n_second_stage": args.n_second,
            "n_gibbs": args.n_gibbs,
            "n_chains": args.n_chains,
            "shard_size": args.shard_size,
        }
        if args.threshold is not None:
            request["threshold"] = args.threshold
        if args.doe_budget is not None:
            request["doe_budget"] = args.doe_budget
        # Only stamp non-default values: servers predating these fields
        # reject unknown keys, so a default-valued submit stays compatible.
        if args.ladder_width != 1:
            request["ladder_width"] = args.ladder_width
        if args.warm_start:
            request["solver_warm_start"] = True
        if args.timeout is not None:
            request["timeout"] = args.timeout
        if args.no_cache:
            request["use_cache"] = False
        requests = [request]
    try:
        ids = client.submit_batch(requests)
        for job_id in ids:
            print(job_id)
        if args.wait is None:
            return 0
        for job_id in ids:
            payload = client.result(job_id, wait=args.wait)
            result = payload.get("result", {})
            job = payload.get("job", {})
            print(
                f"{job_id}: P_f = {result.get('failure_probability'):.3e} "
                f"(rel. err. {100 * result.get('relative_error', 0):.2f}%, "
                f"{result.get('n_first_stage')} + "
                f"{result.get('n_second_stage')} sims, "
                f"cache_hit={job.get('cache_hit')}, mode={job.get('mode')})"
            )
    except ServiceError as exc:
        logs.error(str(exc))
        return 1
    return 0


def _cmd_jobs(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        jobs = client.jobs()
        health = client.health()
    except ServiceError as exc:
        logs.error(str(exc))
        return 1
    for status in jobs:
        request = status["request"]
        record = status.get("job") or {}
        line = (
            f"{status['id']}  {status['state']:<9} "
            f"{request['problem']}/{request['method']} "
            f"seed={request['seed']} N={request['n_second_stage']}"
        )
        if record:
            line += (
                f"  cache_hit={record.get('cache_hit')} "
                f"mode={record.get('mode')} "
                f"saved={record.get('first_stage_sims_saved')} sims"
            )
        if status.get("error"):
            line += f"  error: {status['error']}"
        print(line)
    cache = health.get("cache")
    if cache:
        print(
            f"cache: {cache['entries']} entries, {cache['hits']} hits / "
            f"{cache['misses']} misses, {cache['refinements']} refinements"
        )
    saved = health.get("first_stage_sims_saved", 0)
    print(f"first-stage sims saved: {saved}")
    return 0


def _cmd_worker(args) -> int:
    from repro.parallel.remote import parse_address, run_worker

    host, port = parse_address(args.connect)
    logs.info(f"joining coordinator at {host}:{port}")
    with _instrumented(args):
        completed = run_worker(
            host, port,
            heartbeat=args.heartbeat,
            retries=args.retries,
            retry_delay=args.retry_delay,
        )
    logs.info(f"worker done: {completed} shard(s) executed")
    return 0


def _cmd_top(args) -> int:
    from repro.obs.top import run_top

    return run_top(
        args.url, interval=args.interval, iterations=args.iterations
    )


def _cmd_status(args) -> int:
    from repro.obs.top import fetch_status

    try:
        status = fetch_status(args.url)
    except (OSError, ValueError) as exc:
        logs.error(f"cannot fetch {args.url}/status: {exc}")
        return 1
    print(json.dumps(status, indent=2, default=str, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logs.configure_cli_logging(json_mode=getattr(args, "log_json", False))
    handlers = {
        "estimate": _cmd_estimate,
        "compare": _cmd_compare,
        "region": _cmd_region,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "worker": _cmd_worker,
        "top": _cmd_top,
        "status": _cmd_status,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # Context-managed pools have already unwound by the time the
        # interrupt propagates here (ParallelExecutor.__exit__ cancels
        # queued shards; serve_forever closes the service) — exit with
        # the conventional SIGINT status instead of a traceback.
        logs.error("interrupted; worker pools torn down")
        return 130


if __name__ == "__main__":
    sys.exit(main())
