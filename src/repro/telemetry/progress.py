"""Live progress sink: shard, sims/sec, ETA and convergence tracking.

:class:`ProgressEngine` is the second sink behind the hooks of
:mod:`repro.telemetry.context`, next to the recorder; :mod:`repro.obs`
reads it back through :meth:`ProgressEngine.snapshot`.  It is a pure
*observer*: it reads shard-result fields (``n_sims``, ``weights``,
``n_failures``/``count``) after the result exists and never touches RNG
streams, task content or merge order, so estimates are bit-identical
with the engine on or off.

Everything is keyed by ``(scope, stage)``.  The scope is a thread-local
label (empty for CLI runs; the yield service scopes each job worker
thread by job id via :meth:`ProgressEngine.scoped`).  A stage is active
exactly while a stage span is open on it; shard maps only raise its
totals.  Tallies only ever *increase* and totals only ever ``max()``, so
the completion fraction is monotone even when remote completions land
out of order.  Time comes from the shared :mod:`repro.telemetry.clock`.
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.stats.confidence import Z_99
from repro.telemetry import clock

#: Time constant (seconds) of the sims/sec exponential moving average;
#: larger values smooth more.
EWMA_TAU = 5.0


class _StageState:
    """Mutable tallies for one ``(scope, stage)`` pair."""

    __slots__ = (
        "scope",
        "stage",
        "shards_total",
        "shards_done",
        "shards_replayed",
        "sims_live",
        "sims_replayed",
        "started_at",
        "finished_at",
        "open_spans",
        "conv_n",
        "conv_sum",
        "conv_sumsq",
    )

    def __init__(self, scope: str, stage: str):
        self.scope = scope
        self.stage = stage
        self.shards_total = 0
        self.shards_done = 0
        self.shards_replayed = 0
        self.sims_live = 0
        self.sims_replayed = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.open_spans = 0
        # Running first/second moments of the per-sample weight stream
        # (failure indicators count as 0/1 weights), enough for the
        # streaming estimate, its 99%-CI relative error and CoV.
        self.conv_n = 0
        self.conv_sum = 0.0
        self.conv_sumsq = 0.0

    def fraction(self) -> float:
        done = self.shards_done + self.shards_replayed
        if self.shards_total <= 0:
            return 0.0
        return min(done / self.shards_total, 1.0)

    def convergence(self) -> Optional[dict]:
        if self.conv_n < 2 or self.conv_sum <= 0.0:
            return None
        n = self.conv_n
        mean = self.conv_sum / n
        var = max(self.conv_sumsq / n - mean * mean, 0.0) * n / (n - 1)
        sem = math.sqrt(var / n)
        return {
            "n": n,
            "estimate": mean,
            "relative_error": Z_99 * sem / mean,
            "cov": math.sqrt(var) / mean,
        }


class ProgressEngine:
    """Thread-safe live progress state for one process."""

    def __init__(self):
        self._lock = threading.RLock()
        self._tls = threading.local()
        self._stages: "OrderedDict[Tuple[str, str], _StageState]" = (
            OrderedDict()
        )
        self._chain: Dict[str, dict] = {}
        self._fleet_provider: Optional[Callable[[], dict]] = None
        self._rate = 0.0
        self._rate_t: Optional[float] = None
        self._accum_sims = 0
        self._started_at = clock.now()
        #: Total mutating calls observed (reported as ``n_events``).
        self.n_events = 0

    # ------------------------------------------------------------------
    # scoping

    def _scope(self) -> str:
        return getattr(self._tls, "scope", "")

    @contextlib.contextmanager
    def scoped(self, label: str):
        """Attribute this thread's subsequent events to ``label``.

        The yield service wraps each job worker thread in
        ``engine.scoped(job_id)`` so ``GET /jobs`` can report per-job
        progress; executor completion callbacks fire in the mapping
        thread, so they inherit the scope automatically.
        """
        previous = getattr(self._tls, "scope", "")
        self._tls.scope = str(label)
        try:
            yield self
        finally:
            self._tls.scope = previous

    def _state(self, stage: str) -> _StageState:
        key = (self._scope(), stage)
        state = self._stages.get(key)
        if state is None:
            state = _StageState(key[0], stage)
            self._stages[key] = state
        return state

    # ------------------------------------------------------------------
    # event intake (each call is one lock acquisition; nothing here runs
    # unless an engine is installed)

    def stage_begin(self, stage: str) -> None:
        """A stage span opened: the stage is active until it closes."""
        with self._lock:
            self.n_events += 1
            state = self._state(stage)
            state.open_spans += 1
            state.finished_at = None
            if state.started_at is None:
                state.started_at = clock.now()
            if self._rate_t is None:
                self._rate_t = clock.now()

    def stage_end(self, stage: str) -> None:
        """A stage span closed; the last one to close ends the stage."""
        with self._lock:
            self.n_events += 1
            state = self._state(stage)
            state.open_spans = max(state.open_spans - 1, 0)
            if state.open_spans == 0:
                state.finished_at = clock.now()

    def map_started(self, stage: str, n_tasks: int) -> None:
        """``n_tasks`` shards of ``stage`` were handed to an executor: this
        raises the planned total but never opens the stage."""
        with self._lock:
            self.n_events += 1
            state = self._state(stage)
            floor = state.shards_done + state.shards_replayed + int(n_tasks)
            state.shards_total = max(state.shards_total, floor)
            if self._rate_t is None:
                self._rate_t = clock.now()

    def shard_done(self, stage: str, result=None) -> None:
        """One live shard completed (fired from ``map`` in completion
        order, possibly out of task order — tallies only ever grow, so
        progress stays monotone)."""
        with self._lock:
            self.n_events += 1
            state = self._state(stage)
            state.shards_done += 1
            state.shards_total = max(
                state.shards_total, state.shards_done + state.shards_replayed
            )
            n_sims = int(getattr(result, "n_sims", 0) or 0)
            state.sims_live += n_sims
            self._update_rate(n_sims)
            self._feed(state, result)

    def shards_replayed(self, stage: str, results) -> None:
        """Ledger replay handed back already-paid-for shards.

        Replayed sims count toward completion and the running estimate
        but never toward the live sims/sec rate — a resumed run's ETA
        must reflect the speed of the machine it is *now* on.
        """
        results = list(results)
        if not results:
            return
        with self._lock:
            self.n_events += 1
            state = self._state(stage)
            state.shards_replayed += len(results)
            state.shards_total = max(
                state.shards_total, state.shards_done + state.shards_replayed
            )
            for result in results:
                state.sims_replayed += int(getattr(result, "n_sims", 0) or 0)
                self._feed(state, result)

    def chain_diagnostics(self, max_rhat: float, min_ess: float) -> None:
        """Pooled Gelman-Rubin R-hat / ESS at a first-stage fold point."""
        with self._lock:
            self.n_events += 1
            self._chain[self._scope()] = {
                "max_rhat": float(max_rhat),
                "min_ess": float(min_ess),
            }

    def attach_fleet(self, provider: Optional[Callable[[], dict]]) -> None:
        """Register a callable returning the remote fleet snapshot."""
        with self._lock:
            self.n_events += 1
            self._fleet_provider = provider

    # ------------------------------------------------------------------
    # internals

    def _feed(self, state: _StageState, result) -> None:
        """Fold a shard result into the stage's running-estimate moments."""
        weights = getattr(result, "weights", None)
        if weights is not None:
            state.conv_n += int(weights.size)
            state.conv_sum += float(weights.sum())
            state.conv_sumsq += float((weights * weights).sum())
            return
        n_failures = getattr(result, "n_failures", None)
        count = getattr(result, "count", None)
        if n_failures is not None and count is not None:
            # Failure indicators are 0/1 weights: sum == sumsq == failures.
            state.conv_n += int(count)
            state.conv_sum += float(n_failures)
            state.conv_sumsq += float(n_failures)

    def _update_rate(self, n_sims: int) -> None:
        now = clock.now()
        if self._rate_t is None:
            self._rate_t = now
        self._accum_sims += n_sims
        dt = now - self._rate_t
        if dt <= 0.0:
            return
        instantaneous = self._accum_sims / dt
        alpha = 1.0 - math.exp(-dt / EWMA_TAU)
        self._rate += alpha * (instantaneous - self._rate)
        self._accum_sims = 0
        self._rate_t = now

    def _stage_snapshot(self, state: _StageState, now: float) -> dict:
        remaining = max(
            state.shards_total - state.shards_done - state.shards_replayed, 0
        )
        eta = None
        if remaining == 0 and state.shards_total > 0:
            eta = 0.0
        elif state.shards_done > 0 and self._rate > 0.0:
            sims_per_shard = state.sims_live / state.shards_done
            eta = remaining * sims_per_shard / self._rate
        elapsed = None
        if state.started_at is not None:
            end = state.finished_at if state.finished_at is not None else now
            elapsed = max(end - state.started_at, 0.0)
        return {
            "scope": state.scope,
            "stage": state.stage,
            "active": state.open_spans > 0,
            "shards_total": state.shards_total,
            "shards_done": state.shards_done,
            "shards_replayed": state.shards_replayed,
            "sims_live": state.sims_live,
            "sims_replayed": state.sims_replayed,
            "fraction": state.fraction(),
            "eta_s": eta,
            "elapsed_s": elapsed,
            "convergence": state.convergence(),
        }

    # ------------------------------------------------------------------
    # read side

    def snapshot(self) -> dict:
        """JSON-able view of everything the engine knows right now."""
        with self._lock:
            now = clock.now()
            stages = [
                self._stage_snapshot(state, now)
                for state in self._stages.values()
            ]
            chain = {scope: dict(diag) for scope, diag in self._chain.items()}
            provider = self._fleet_provider
            rate = self._rate
            uptime = now - self._started_at
            n_events = self.n_events
        fleet = None
        if provider is not None:
            # The provider takes the coordinator's own lock; call it
            # outside ours so the two locks never interleave.
            try:
                fleet = provider()
            except Exception:
                fleet = None
        return {
            "uptime_s": uptime,
            "sims_per_second": rate,
            "stages": stages,
            "chain": chain,
            "fleet": fleet,
            "n_events": n_events,
        }

    def job_snapshot(self, scope: str) -> List[dict]:
        """Stage snapshots for one scope (the service's per-job view)."""
        scope = str(scope)
        with self._lock:
            now = clock.now()
            return [
                self._stage_snapshot(state, now)
                for (owner, _), state in self._stages.items()
                if owner == scope
            ]

