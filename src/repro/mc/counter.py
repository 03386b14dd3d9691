"""Simulation-count instrumentation.

The paper's cost unit is the number of transistor-level simulations, and
every comparison in Section V (Figs. 6-12, Tables I-II) is expressed in it.
:class:`CountedMetric` wraps any metric callable and counts one simulation
per evaluated sample, no matter how the caller batches its requests, so
first-stage, second-stage and model-building costs all flow through one
instrument.
"""

from __future__ import annotations

import threading
from typing import Callable, Tuple

import numpy as np

from repro.telemetry import context as _telemetry
from repro.utils.validation import as_sample_matrix


class CountedMetric:
    """A metric wrapper that counts evaluated samples.

    Counting is thread-safe: the thread backend of the parallel execution
    layer shares one instance across shard workers, and ``count``/``calls``
    increments are read-modify-write pairs that would otherwise interleave
    and silently lose simulations.  A lock serialises the bookkeeping only
    — metric evaluation itself runs unlocked.

    Parameters
    ----------
    metric:
        Callable mapping an ``(n, M)`` sample matrix to ``(n,)`` values.
    dimension:
        Input dimensionality ``M``; taken from ``metric.dimension`` when the
        metric exposes it.
    """

    def __init__(self, metric: Callable, dimension: int = None):
        if dimension is None:
            dimension = getattr(metric, "dimension", None)
        if dimension is None:
            raise ValueError(
                "dimension must be given when the metric does not expose one"
            )
        self.metric = metric
        self.dimension = int(dimension)
        self.count = 0
        #: Number of batched metric invocations (not rows).  ``count`` is
        #: the paper's cost model; ``calls`` measures how well a sampler
        #: amortises per-call overhead — the lockstep multi-chain engine
        #: drives ``count / calls`` up without touching ``count``.
        self.calls = 0
        #: Portion of ``count`` folded in from worker processes via
        #: :meth:`add_external` — zero on inline and thread executors, where
        #: every evaluation goes through this instance directly.  Lets the
        #: CLI's verbose accounting show how much of the total cost was
        #: paid across process boundaries.
        self.external_count = 0
        self._lock = threading.Lock()

    def __getstate__(self):
        # Locks don't pickle; process-backend workers get a copy and
        # recreate their own in __setstate__.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = as_sample_matrix(x, self.dimension)
        n = x.shape[0]
        with self._lock:
            self.count += n
            self.calls += 1
        # Every simulation in the flow passes through here (worker copies
        # included, each recording into its own shipped-home recorder), so
        # these two counters are the telemetry mirror of ``count``/``calls``
        # — after the merge-time fold their totals equal this instrument's.
        recorder = _telemetry.get_active()
        if recorder is not None:
            recorder.count("metric.sims", n)
            recorder.count("metric.calls", 1)
        return np.asarray(self.metric(x), dtype=float)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self(x)

    def add_external(self, n: int, calls: int = 0) -> None:
        """Fold in ``n`` simulations evaluated outside this instance.

        Worker processes of the parallel execution layer evaluate through
        pickled *copies* of the metric, so their counts never reach the
        parent's instrument on their own; each shard result carries its
        local tally home and the parent folds it in here, keeping
        first/second-stage accounting exact across process boundaries.
        """
        if n < 0 or calls < 0:
            raise ValueError(
                f"external counts must be non-negative, got n={n}, calls={calls}"
            )
        with self._lock:
            self.count += int(n)
            self.calls += int(calls)
            self.external_count += int(n)

    def checkpoint(self) -> int:
        """Current count, for before/after accounting of one flow stage.

        Lock-guarded: on the thread backend a concurrent ``__call__`` is
        mid-increment often enough that an unguarded read could observe a
        torn stage boundary.
        """
        with self._lock:
            return self.count

    def snapshot(self) -> Tuple[int, int, int]:
        """Atomic ``(count, calls, external_count)`` for telemetry sampling.

        Reading the three attributes separately can interleave with a
        concurrent increment and report a mixed state (e.g. the new count
        with the old call tally); one lock acquisition returns a
        consistent triple.
        """
        with self._lock:
            return (self.count, self.calls, self.external_count)

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.calls = 0
            self.external_count = 0

    def __repr__(self) -> str:
        external = (
            f", {self.external_count} via workers" if self.external_count else ""
        )
        return (
            f"CountedMetric({self.count} simulations{external}, "
            f"M={self.dimension})"
        )
