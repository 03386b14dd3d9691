"""The library's one instrumentation API: sink slots, hooks, stage table.

Two sinks can be installed per process: the :class:`Recorder` and the
live :class:`~repro.telemetry.progress.ProgressEngine`.  :func:`activate`
installs either or both for a block; :func:`set_active` /
:func:`set_engine` do so without one.  Instrumented sites never thread a
sink around; they call the hooks here: :func:`span`, :func:`count`,
:func:`gauge`, :func:`observe` (recorder only), :func:`stage` (a sampled
stage's span, whose lifetime is also the stage's on the engine), and
:func:`shards_mapped`, :func:`shard_completed`, :func:`shards_replayed`,
:func:`chain_diagnostics`.  With no sink installed each hook returns
after one test of a module global and allocates nothing; that test is
the entire disabled-mode overhead.  Stage names live in one table,
:data:`STAGES`.

Cross-process protocol (mirrors ``CountedMetric.add_external``):

* the **parent** decides per task batch whether workers must record
  locally (:func:`ship_to_workers`: an active recorder *and* an executor
  that actually crosses a process boundary — serial/thread workers share
  the caller's recorder already);
* the **worker** wraps its body in :class:`ShardTelemetry`, which installs
  a fresh recorder when the task asked for one (unconditionally — a
  ``fork``-started worker inherits the parent's recorder object as a dead
  copy, so "is one active?" would lie) and exposes the snapshot to ship
  home in the shard result;
* the **parent** folds the returned records via
  :func:`fold_shard_records` at merge time, giving exact per-worker
  attribution on the process backend and zero double-counting on the
  inline/thread paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple, Optional

from repro.telemetry.recorder import Recorder, Span


class Stage(NamedTuple):
    """A stage's recorder span, and the shard runner (``__name__``) and
    ledger kind whose completions and replays count toward it."""

    span: str
    runner: str
    ledger_kind: str


#: The one table of stage names.  Keys are what the progress engine,
#: ``/metrics`` (the ``stage=`` label), ``/status`` and ``repro top``
#: report.
STAGES = {
    "first_stage": Stage("gibbs.first_stage", "run_gibbs_shard", "gibbs"),
    "second_stage": Stage("second_stage", "run_is_shard", "is"),
    "mc": Stage("mc.run", "run_mc_shard", "mc"),
    "blockade": Stage("blockade.screen", "run_blockade_shard", "blockade"),
}
_STAGE_BY_RUNNER = {s.runner: name for name, s in STAGES.items()}
_STAGE_BY_KIND = {s.ledger_kind: name for name, s in STAGES.items()}


def stage_of_runner(fn) -> str:
    """Stage a shard runner's completions count toward (a runner outside
    the table, such as a method panel, reports under its own name)."""
    name = getattr(fn, "__name__", str(fn))
    return _STAGE_BY_RUNNER.get(name, name)


# ----------------------------------------------------------------------
# sink slots

_active: Optional[Recorder] = None
_engine = None
#: True while either sink is installed: the one test hooks that feed
#: both sinks make.
_on = False


def get_active() -> Optional[Recorder]:
    """The process-local active recorder, or ``None`` when telemetry is off."""
    return _active


def get_engine():
    """The installed progress engine, or ``None``."""
    return _engine


def set_active(recorder: Optional[Recorder]) -> Optional[Recorder]:
    """Install ``recorder`` as the active one; returns the previous."""
    global _active, _on
    previous = _active
    _active = recorder
    _on = _active is not None or _engine is not None
    return previous


def set_engine(engine):
    """Install ``engine`` as the progress sink; returns the previous."""
    global _engine, _on
    previous = _engine
    _engine = engine
    _on = _active is not None or _engine is not None
    return previous


@contextmanager
def activate(recorder: Optional[Recorder] = None, engine=None):
    """Install the given sinks for the duration of the block.

    A sink passed as ``None`` leaves its slot as it is.  Both slots are
    restored on exit.  Yields ``recorder``.
    """
    previous = (_active, _engine)
    if recorder is not None:
        set_active(recorder)
    if engine is not None:
        set_engine(engine)
    try:
        yield recorder
    finally:
        set_active(previous[0])
        set_engine(previous[1])


class _NullSpan:
    """Reusable no-op span returned when no recorder is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, name: str, n=1) -> None:
        pass


NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Open a span on the active recorder; a shared no-op when disabled."""
    recorder = _active
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, **attrs)


@contextmanager
def _engine_stage(engine, name: str, stage_span):
    engine.stage_begin(name)
    try:
        with stage_span:
            yield stage_span
    finally:
        engine.stage_end(name)


def stage(name: str, **attrs):
    """Open sampled stage ``name`` (a :data:`STAGES` key) for a block.

    On the recorder this is the stage's span; on the engine the stage is
    active from entry to exit.  A shared no-op when no sink is installed.
    """
    if not _on:
        return NULL_SPAN
    stage_span = span(STAGES[name].span, **attrs)
    engine = _engine
    if engine is None:
        return stage_span
    return _engine_stage(engine, name, stage_span)


def shards_mapped(fn, n_tasks: int, on_result=None, fleet=None):
    """An executor is about to run ``n_tasks`` shards of runner ``fn``;
    returns the per-completion callback to fire in place of ``on_result``.
    ``fleet`` (a remote coordinator) provides the exporter's fleet view."""
    engine = _engine
    if engine is None:
        return on_result
    stage_name = stage_of_runner(fn)
    engine.map_started(stage_name, n_tasks)
    if fleet is not None:
        engine.attach_fleet(fleet.fleet_snapshot)

    def report(result):
        if on_result is not None:
            on_result(result)
        engine.shard_done(stage_name, result)

    return report


def shard_completed(fn, result, seconds: float) -> None:
    """A remote worker finished one shard of runner ``fn``."""
    if not _on:
        return
    recorder = _active
    if recorder is not None:
        recorder.count("worker.tasks_completed", 1)
        recorder.observe("worker.task_seconds", seconds)
    engine = _engine
    if engine is not None:
        engine.shard_done(stage_of_runner(fn), result)


def shards_replayed(kind: str, replayed, n_scheduled: int,
                    n_dropped: int) -> None:
    """A ``kind`` ledger replayed ``replayed`` results; ``n_scheduled``
    tasks still run.  Replays count toward completion on the engine, never
    toward its live sims/sec rate."""
    if not _on:
        return
    recorder = _active
    if recorder is not None:
        sims_saved = sum(int(getattr(r, "n_sims", 0) or 0) for r in replayed)
        recorder.count("ledger.shards_replayed", len(replayed))
        recorder.count("ledger.shards_scheduled", n_scheduled)
        recorder.gauge("ledger.shards_replayed", len(replayed))
        recorder.gauge("ledger.sims_saved", sims_saved)
        recorder.gauge("ledger.rows_dropped", n_dropped)
    engine = _engine
    if engine is not None and replayed:
        engine.shards_replayed(_STAGE_BY_KIND.get(kind, kind), replayed)


def chain_diagnostics(max_rhat: float, min_ess: float) -> None:
    """Pooled Gelman-Rubin R-hat / ESS at a first-stage fold point."""
    engine = _engine
    if engine is not None:
        engine.chain_diagnostics(max_rhat, min_ess)


def count(name: str, n=1) -> None:
    """Bump a run-wide counter on the active recorder (no-op when off)."""
    recorder = _active
    if recorder is not None:
        recorder.count(name, n)


def gauge(name: str, value) -> None:
    """Record a gauge on the active recorder (no-op when off)."""
    recorder = _active
    if recorder is not None:
        recorder.gauge(name, value)


def observe(name: str, value) -> None:
    """Feed a histogram on the active recorder (no-op when off)."""
    recorder = _active
    if recorder is not None:
        recorder.observe(name, value)


def enabled() -> bool:
    """True when a recorder is active in this process."""
    return _active is not None


def ship_to_workers(executor) -> bool:
    """Parent-side decision: must workers record into their own recorder?

    True only when telemetry is on *and* the executor isolates worker
    state in other processes.  Inline and thread execution share the
    caller's recorder (its mutations are lock-guarded), so shipping there
    would double-count every event.
    """
    return (
        _active is not None
        and executor is not None
        and executor.cross_process
    )


class ShardTelemetry:
    """Worker-side recorder scope for one shard task.

    ``enabled`` is the parent's :func:`ship_to_workers` decision carried
    in the task.  When set, a fresh recorder is installed for the task
    body *unconditionally*: under the ``fork`` start method the worker
    inherits the parent's recorder object as a stale copy, so checking
    "is a recorder already active?" would silently record into an object
    that dies with the worker.  The previous (possibly inherited) value
    is restored on exit so pooled workers stay clean between tasks.
    """

    def __init__(self, enabled: bool, run_id: str = "shard"):
        self._enabled = bool(enabled)
        self._run_id = str(run_id)
        self._recorder: Optional[Recorder] = None
        self._previous: Optional[Recorder] = None

    def __enter__(self) -> "ShardTelemetry":
        if self._enabled:
            self._recorder = Recorder(run_id=self._run_id)
            self._previous = set_active(self._recorder)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._recorder is not None:
            set_active(self._previous)
        return False

    def record(self) -> Optional[dict]:
        """The worker recorder's snapshot, or ``None`` when not shipping."""
        if self._recorder is None:
            return None
        return self._recorder.to_record()


def fold_shard_records(shard_results) -> None:
    """Fold worker telemetry records from shard results into the parent.

    Called at merge time for cross-process runs only (the caller gates on
    ``executor.cross_process``, exactly like the simulation-count fold);
    a no-op without an active recorder.

    Tolerant by design: shard records replayed from a checkpoint ledger
    may predate the ``telemetry`` field, carry ``None`` (the writing run
    had telemetry off), or be malformed after storage.  Such records are
    *skipped*, never fatal — losing a worker's span attribution must not
    lose the run — and each skip bumps the ``telemetry.folds_skipped``
    counter so the gap is visible in the summary.
    """
    recorder = _active
    if recorder is None:
        return
    for result in shard_results:
        record = getattr(result, "telemetry", None)
        if not record:
            recorder.count("telemetry.folds_skipped", 1)
            continue
        try:
            recorder.fold(record)
        except Exception:
            recorder.count("telemetry.folds_skipped", 1)


def fold_replayed_records(records) -> None:
    """Fold *persisted* telemetry snapshots from a resume ledger.

    Replayed shards ran in an earlier (killed) process, so their counters
    must not masquerade as this run's work — the resumed run's
    ``metric.sims`` counter stays equal to the simulations it actually
    paid for.  Their counters fold under a ``replayed.`` prefix instead,
    and ``ledger.snapshots_folded`` records how many snapshots came home.
    """
    recorder = _active
    if recorder is None:
        return
    folded = 0
    for record in records:
        if not isinstance(record, dict):
            continue
        counters = record.get("counters")
        if not isinstance(counters, dict):
            continue
        for name, value in counters.items():
            try:
                recorder.count(f"replayed.{name}", value)
            except TypeError:
                continue
        folded += 1
    if folded:
        recorder.count("ledger.snapshots_folded", folded)
