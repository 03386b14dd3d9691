"""Prometheus text-format exposition of progress, fleet and recorder state.

:func:`render_exposition` turns the live :class:`~repro.telemetry.
ProgressEngine` snapshot plus an optional :class:`~repro.telemetry.
Recorder` into the Prometheus text exposition format (version 0.0.4):
``# HELP`` / ``# TYPE`` headers followed by ``name{labels} value``
samples.  :func:`parse_exposition` is the strict inverse used by the
round-trip tests — every emitted line must parse.

Naming scheme
-------------
Progress and fleet series get one metric family per concept with a
``stage=`` / ``worker=`` label (``repro_shards_completed_total``,
``repro_worker_heartbeat_age_seconds``, ...).  Recorder series keep
their dotted repro names as a ``name=`` label under three fixed
families — ``repro_events_total`` (counters), ``repro_gauge`` (gauges)
and ``repro_observation`` (histograms, exported as a summary with
p50/p95 quantiles) — so new instrumentation never mints surprising
metric names.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _fmt(value) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


class _Writer:
    """Accumulates families, emitting HELP/TYPE once per family."""

    def __init__(self):
        self.lines: List[str] = []
        self._declared = set()

    def declare(self, name: str, kind: str, help_text: str) -> None:
        if name in self._declared:
            return
        self._declared.add(name)
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: Dict[str, str], value) -> None:
        if labels:
            inner = ",".join(
                f'{key}="{_escape(val)}"' for key, val in labels.items()
            )
            self.lines.append(f"{name}{{{inner}}} {_fmt(value)}")
        else:
            self.lines.append(f"{name} {_fmt(value)}")

    def family(
        self, name: str, kind: str, help_text: str,
        labels: Dict[str, str], value,
    ) -> None:
        self.declare(name, kind, help_text)
        self.sample(name, labels, value)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _stage_labels(stage: dict) -> Dict[str, str]:
    labels = {"stage": stage["stage"]}
    if stage.get("scope"):
        labels["job"] = stage["scope"]
    return labels


def _render_progress(w: _Writer, snapshot: dict) -> None:
    w.family("repro_up", "gauge", "The repro process is serving metrics.",
             {}, 1)
    w.family("repro_uptime_seconds", "gauge",
             "Seconds since the progress engine was created.",
             {}, snapshot.get("uptime_s", 0.0))
    w.family("repro_sims_per_second", "gauge",
             "EWMA of live simulation throughput (replays excluded).",
             {}, snapshot.get("sims_per_second", 0.0))
    for stage in snapshot.get("stages", ()):
        labels = _stage_labels(stage)
        w.family("repro_shards_total", "gauge",
                 "Planned shards for the stage.",
                 labels, stage["shards_total"])
        w.family("repro_shards_completed_total", "counter",
                 "Live shard completions observed for the stage.",
                 labels, stage["shards_done"])
        w.family("repro_shards_replayed_total", "counter",
                 "Shards replayed from a checkpoint ledger.",
                 labels, stage["shards_replayed"])
        w.family("repro_sims_completed_total", "counter",
                 "Simulations executed live in the stage.",
                 labels, stage["sims_live"])
        w.family("repro_sims_replayed_total", "counter",
                 "Simulations recovered from a checkpoint ledger.",
                 labels, stage["sims_replayed"])
        w.family("repro_stage_active", "gauge",
                 "1 while the stage is running, 0 otherwise.",
                 labels, 1 if stage["active"] else 0)
        w.family("repro_stage_progress_ratio", "gauge",
                 "Completed fraction of the stage's planned shards.",
                 labels, stage["fraction"])
        if stage.get("eta_s") is not None:
            w.family("repro_stage_eta_seconds", "gauge",
                     "Estimated seconds until the stage completes.",
                     labels, stage["eta_s"])
        conv = stage.get("convergence")
        if conv:
            w.family("repro_convergence_estimate", "gauge",
                     "Running failure-probability estimate.",
                     labels, conv["estimate"])
            w.family("repro_convergence_relative_error", "gauge",
                     "99%-CI relative error of the running estimate.",
                     labels, conv["relative_error"])
            w.family("repro_convergence_cov", "gauge",
                     "Coefficient of variation of the weight stream.",
                     labels, conv["cov"])
    for scope, diag in (snapshot.get("chain") or {}).items():
        labels = {"job": scope} if scope else {}
        w.family("repro_chain_max_rhat", "gauge",
                 "Pooled Gelman-Rubin R-hat at the last fold point.",
                 labels, diag["max_rhat"])
        w.family("repro_chain_min_ess", "gauge",
                 "Minimum pooled effective sample size across dimensions.",
                 labels, diag["min_ess"])


def _render_fleet(w: _Writer, fleet: Optional[dict]) -> None:
    if not fleet:
        return
    counts = fleet.get("counts", {})
    w.family("repro_workers_connected", "gauge",
             "Workers currently connected to the coordinator.",
             {}, counts.get("connected", 0))
    w.family("repro_workers_alive", "gauge",
             "Connected workers with a fresh heartbeat.",
             {}, counts.get("alive", 0))
    w.family("repro_workers_lost_total", "counter",
             "Workers presumed dead since the coordinator started.",
             {}, counts.get("lost", 0))
    w.family("repro_shards_requeued_total", "counter",
             "Shards requeued after a worker loss.",
             {}, counts.get("requeued", 0))
    overhead = fleet.get("dispatch_overhead_s") or {}
    if overhead.get("count"):
        w.family("repro_dispatch_overhead_seconds_sum", "counter",
                 "Total coordinator-side dispatch overhead.",
                 {}, overhead.get("sum", 0.0))
        w.family("repro_dispatch_overhead_seconds_count", "counter",
                 "Dispatch overhead samples.",
                 {}, overhead.get("count", 0))
    for worker in fleet.get("workers", ()):
        labels = {"worker": str(worker.get("worker", ""))}
        if worker.get("hostname"):
            labels["hostname"] = str(worker["hostname"])
        w.family("repro_worker_up", "gauge",
                 "1 while the worker's heartbeat is fresh.",
                 labels, 1 if worker.get("alive") else 0)
        w.family("repro_worker_heartbeat_age_seconds", "gauge",
                 "Seconds since the worker was last heard from.",
                 labels, worker.get("heartbeat_age_s", 0.0))
        w.family("repro_worker_inflight_shards", "gauge",
                 "Shards currently dispatched to the worker.",
                 labels, worker.get("in_flight", 0))
        w.family("repro_worker_shards_completed_total", "counter",
                 "Shards the worker has completed.",
                 labels, worker.get("shards_completed", 0))
        w.family("repro_worker_sims_completed_total", "counter",
                 "Simulations the worker has completed.",
                 labels, worker.get("sims_completed", 0))


def _render_recorder(w: _Writer, recorder) -> None:
    if recorder is None:
        return
    with recorder._lock:
        counters = dict(recorder.counters)
        gauges = dict(recorder.gauges)
        histograms = {k: list(v) for k, v in recorder.histograms.items()}
    for name in sorted(counters):
        w.family("repro_events_total", "counter",
                 "Recorder counters, keyed by their dotted repro name.",
                 {"name": name}, counters[name])
    for name in sorted(gauges):
        try:
            value = float(gauges[name])
        except (TypeError, ValueError):
            continue
        w.family("repro_gauge", "gauge",
                 "Recorder gauges (last value wins), keyed by name.",
                 {"name": name}, value)
    for name in sorted(histograms):
        n, total, lo, hi = histograms[name]
        w.declare("repro_observation", "summary",
                  "Recorder histograms, keyed by name.")
        for q, value in recorder.percentiles(name).items():
            w.sample("repro_observation",
                     {"name": name, "quantile": _fmt(q)}, value)
        w.sample("repro_observation_sum", {"name": name}, total)
        w.sample("repro_observation_count", {"name": name}, n)
        w.family("repro_observation_min", "gauge",
                 "Smallest recorded observation per histogram.",
                 {"name": name}, lo)
        w.family("repro_observation_max", "gauge",
                 "Largest recorded observation per histogram.",
                 {"name": name}, hi)


def render_exposition(
    engine=None,
    recorder=None,
    extra_gauges: Optional[Dict[str, float]] = None,
) -> str:
    """Render the current process state as Prometheus text exposition.

    Any argument may be ``None``; an empty exposition still carries the
    ``repro_up 1`` liveness sample so scrapers always get valid output.
    """
    w = _Writer()
    snapshot = engine.snapshot() if engine is not None else {}
    _render_progress(w, snapshot)
    _render_fleet(w, snapshot.get("fleet"))
    _render_recorder(w, recorder)
    for name in sorted(extra_gauges or {}):
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid metric name: {name!r}")
        w.family(name, "gauge", "Ad-hoc gauge.", {}, extra_gauges[name])
    return w.render()


def parse_exposition(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Strictly parse a text exposition; raises ``ValueError`` on any
    malformed line.

    Returns ``{(metric_name, sorted_label_items): value}`` — the shape
    the round-trip tests compare against.  Comment lines are validated
    as ``# HELP`` / ``# TYPE`` headers referring to well-formed names.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if (
                len(parts) < 4
                or parts[1] not in ("HELP", "TYPE")
                or not _NAME_RE.fullmatch(parts[2])
            ):
                raise ValueError(f"line {lineno}: bad comment {line!r}")
            if parts[1] == "TYPE" and parts[3] not in (
                "counter", "gauge", "summary", "histogram", "untyped"
            ):
                raise ValueError(f"line {lineno}: bad type {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: bad sample {line!r}")
        labels = {}
        raw = match.group("labels")
        if raw:
            for label in _LABEL_RE.finditer(raw):
                labels[label.group("key")] = (
                    label.group("value")
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
            stripped = re.sub(r"[,\s]", "", raw)
            body = sum(
                len(label.group(0)) for label in _LABEL_RE.finditer(raw)
            )
            if body != len(stripped):
                raise ValueError(f"line {lineno}: bad labels {raw!r}")
        raw_value = match.group("value")
        try:
            value = float(raw_value.replace("+Inf", "inf").replace(
                "-Inf", "-inf"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad value {raw_value!r}"
            ) from None
        samples[(match.group("name"), tuple(sorted(labels.items())))] = value
    return samples
