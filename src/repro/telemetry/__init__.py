"""Run-wide instrumentation: the one spine the library reports through.

The paper's evaluation is a cost-accounting argument — every figure and
table compares methods by simulation count at a target accuracy — and
the process-parallel fan-out of the execution layer spreads that cost
over workers where ad-hoc prints cannot see it.  Telemetry records;
:mod:`repro.obs` exports (Prometheus text, ``/status``, ``repro top``).
This package holds:

* two **sinks**: :class:`Recorder` (counters, gauges, histograms and
  **spans**) and the live :class:`ProgressEngine` (progress, ETA,
  streaming convergence);
* the **hooks** every instrumented site calls, the sink slots
  (:func:`activate`, :func:`set_engine`) and the one **stage table**
  (:data:`STAGES`), in :mod:`repro.telemetry.context`;
* the **worker protocol** (:func:`ship_to_workers`,
  :class:`ShardTelemetry`, :func:`fold_shard_records`) — worker-side
  recorders travel home inside shard result records and fold into the
  parent at merge time, the same pattern as
  :meth:`repro.mc.counter.CountedMetric.add_external`, so process-backend
  runs get exact per-worker attribution;
* **export** — a JSONL event stream (:func:`write_jsonl`) and a Chrome
  ``trace_event`` file (:func:`write_chrome_trace`) plus the run
  :func:`manifest <build_manifest>`;
* the shared injectable **clock** (:mod:`repro.telemetry.clock`) that
  spans, the progress engine and the adaptive-sizing probe all read;
* the structured CLI **logger** (:mod:`repro.telemetry.logs`) keeping
  stdout machine-parseable.

Both sinks are RNG-free and strictly additive: recording or watching a
run can never change its sampling results — the parallel layer's
bit-identity battery passes with them on and off — and timestamps are
explicitly outside the determinism contract.
"""

from repro.telemetry.clock import get_timer, now, set_timer, use_timer
from repro.telemetry.context import (
    NULL_SPAN,
    STAGES,
    ShardTelemetry,
    activate,
    count,
    enabled,
    fold_replayed_records,
    fold_shard_records,
    gauge,
    get_active,
    get_engine,
    observe,
    set_active,
    set_engine,
    ship_to_workers,
    span,
    stage,
)
from repro.telemetry.export import (
    JSONL_SCHEMA,
    chrome_trace_events,
    read_jsonl,
    recorder_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.logs import configure_cli_logging, get_logger
from repro.telemetry.manifest import build_manifest
from repro.telemetry.progress import ProgressEngine
from repro.telemetry.recorder import Recorder, Span

__all__ = [
    # sinks
    "Recorder",
    "Span",
    "ProgressEngine",
    # installation
    "activate",
    "get_active",
    "set_active",
    "get_engine",
    "set_engine",
    "enabled",
    # hooks
    "span",
    "count",
    "gauge",
    "observe",
    "stage",
    "NULL_SPAN",
    "STAGES",
    # worker protocol
    "ship_to_workers",
    "ShardTelemetry",
    "fold_replayed_records",
    "fold_shard_records",
    # export
    "JSONL_SCHEMA",
    "recorder_events",
    "chrome_trace_events",
    "write_jsonl",
    "read_jsonl",
    "write_chrome_trace",
    "build_manifest",
    # clock
    "now",
    "get_timer",
    "set_timer",
    "use_timer",
    # logging
    "get_logger",
    "configure_cli_logging",
]
