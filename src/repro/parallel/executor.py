"""Backend-agnostic fan-out of shard tasks across cores.

:class:`ParallelExecutor` is the one place in this library that knows how
to run a list of independent tasks concurrently.  Everything above it —
the sharded brute-force Monte Carlo, the sharded importance-sampling
second stage, the experiment panels — only ever says "map this top-level
function over these task objects" and merges the returned shard results.

Design rules that keep the parallel layer deterministic and debuggable:

* **Results never depend on the backend.**  Tasks carry their own
  :class:`numpy.random.SeedSequence`-derived streams, so ``serial``,
  ``thread`` and ``process`` execution produce bit-identical output; the
  backend only changes wall-clock time.
* **Workers are spawn-safe.**  Only top-level functions and picklable
  task dataclasses cross the process boundary — no closures, no lambdas —
  so the ``process`` backend works under every multiprocessing start
  method (``fork``, ``spawn``, ``forkserver``).
* **Worker state never leaks.**  A worker process mutates only its own
  copies; anything that must survive (simulation counts, failure tallies,
  convergence checkpoints) is returned in the shard result and folded back
  by the caller (see :meth:`repro.mc.counter.CountedMetric.add_external`).
"""

from __future__ import annotations

import os
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Callable, List, Optional, Sequence

from repro.telemetry import context as _telemetry

#: Recognised backend names.  ``"remote"`` fans shards out to
#: ``repro worker`` processes over the socket transport
#: (:mod:`repro.parallel.remote`); the others stay in-process.
BACKENDS = ("serial", "thread", "process", "remote")


def default_workers() -> int:
    """Worker count used when the caller passes ``n_workers=None``.

    Respects CPU affinity masks (containers, ``taskset``) where the
    platform exposes them, falling back to the raw core count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


class ParallelExecutor:
    """Run independent tasks on a ``serial`` / ``thread`` / ``process`` backend.

    Parameters
    ----------
    n_workers:
        Concurrent workers; ``None`` uses the machine's available cores.
        ``1`` always runs inline in the calling process/thread, whatever
        the backend — convenient for debugging and for exact shared-state
        accounting (a shared :class:`~repro.mc.counter.CountedMetric`
        counts directly instead of through shard-result folding).
    backend:
        ``"process"`` (default) for CPU-bound numpy work, ``"thread"`` for
        workloads dominated by GIL-releasing native code, ``"serial"`` to
        force inline execution.
    mp_context:
        Optional :mod:`multiprocessing` context for the process backend
        (e.g. ``multiprocessing.get_context("spawn")``); the platform
        default is used otherwise.
    listen:
        Remote backend only: the ``(host, port)`` / ``"host:port"`` the
        coordinator binds (default ``127.0.0.1``, port picked by the OS —
        read :attr:`address`).  **Trusted networks only**: the transport
        is unauthenticated pickle (see :mod:`repro.parallel.remote`).
    min_workers:
        Remote backend only: how many ``repro worker`` connections to wait
        for before dispatching shards (workers may keep joining later).
    heartbeat / connect_timeout:
        Remote backend only: worker heartbeat interval and how long to
        wait for workers to (re)join before failing the run.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        backend: str = "process",
        mp_context=None,
        listen=None,
        min_workers: int = 1,
        heartbeat: float = 5.0,
        connect_timeout: float = 60.0,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if n_workers is None:
            n_workers = (
                max(int(min_workers), 1)
                if backend == "remote"
                else default_workers()
            )
        n_workers = int(n_workers)
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.backend = backend
        self.mp_context = mp_context
        self.listen = listen
        self.min_workers = max(int(min_workers), 1)
        self.heartbeat = float(heartbeat)
        self.connect_timeout = float(connect_timeout)
        self._pool = None
        self._coordinator = None
        self._depth = 0

    @property
    def runs_inline(self) -> bool:
        """True when tasks execute in the calling process and thread."""
        if self.backend == "remote":
            return False
        return self.backend == "serial" or self.n_workers == 1

    @property
    def cross_process(self) -> bool:
        """True when workers get *copies* of task state.

        Callers use this to decide whether shard-local bookkeeping (e.g.
        simulation counts) must be folded back into parent objects: inline
        and thread execution share objects with the caller, so counts
        accumulate directly; process and remote execution mutate pickled
        copies whose deltas only come home inside the shard results.
        """
        if self.backend == "remote":
            return True
        return self.backend == "process" and not self.runs_inline

    @property
    def supports_shm(self) -> bool:
        """True when shard payloads may ride ``multiprocessing.shared_memory``.

        Only the local process backend qualifies: remote workers may run
        on other machines, where a shared-memory block name means nothing.
        """
        return self.backend == "process" and not self.runs_inline

    @property
    def address(self):
        """The remote coordinator's bound ``(host, port)`` (starts it)."""
        if self.backend != "remote":
            raise AttributeError(
                f"address is only meaningful for backend='remote', "
                f"not {self.backend!r}"
            )
        return self._ensure_coordinator().address

    @property
    def dispatch_overhead_s(self):
        """Per-shard dispatch overhead samples from the remote coordinator.

        Empty for local backends, or before the first remote ``map``.
        """
        if self.backend != "remote" or self._coordinator is None:
            return []
        return list(self._coordinator.dispatch_overhead_s)

    def _ensure_coordinator(self):
        if self._coordinator is None:
            from repro.parallel.remote import RemoteCoordinator, parse_address

            host, port = (
                parse_address(self.listen)
                if self.listen is not None
                else ("127.0.0.1", 0)
            )
            self._coordinator = RemoteCoordinator(
                host=host,
                port=port,
                min_workers=self.min_workers,
                heartbeat=self.heartbeat,
                connect_timeout=self.connect_timeout,
            )
        return self._coordinator

    def __enter__(self) -> "ParallelExecutor":
        """Open a persistent worker pool reused by every ``map`` call.

        Outside a ``with`` block each ``map`` builds and tears down its own
        pool — correct, but a multi-stage flow (first-stage chain groups,
        then second-stage shards) then pays worker startup per stage.
        Inside the block the pool is created once, ``map`` reuses it, and
        the outermost ``__exit__`` shuts it down.  Inline execution has no
        pool; the context manager is then a no-op.

        The context is **reentrant**: a caller that owns a long-lived pool
        (the yield service keeps one across every job) can hand the
        executor to flows that themselves do ``with pool:`` — inner blocks
        only bump a depth counter, and the pool survives until the
        owner's outermost exit.
        """
        self._depth += 1
        if self.backend == "remote":
            self._ensure_coordinator()
        elif self._pool is None and not self.runs_inline:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
            else:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers, mp_context=self.mp_context
                )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._depth = max(self._depth - 1, 0)
        if self._depth == 0:
            self._shutdown(cancel=exc_type is not None)

    def _shutdown(self, cancel: bool = False) -> None:
        """Tear the persistent pool down (idempotent).

        ``cancel`` drops queued-but-unstarted tasks instead of draining
        them — the right call when unwinding from an exception or a
        SIGINT, where waiting on a queue of doomed shards can hang the
        interpreter's exit for minutes.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel)
            self._pool = None
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def close(self) -> None:
        """Force the persistent pool down regardless of context depth.

        Interrupt/timeout teardown paths (the CLI's SIGINT handler, the
        yield service's shutdown) call this directly: pending tasks are
        cancelled, worker processes join, and the executor can be
        re-entered later if needed.
        """
        self._depth = 0
        self._shutdown(cancel=True)

    def map(
        self,
        fn: Callable,
        tasks: Sequence,
        on_result: Optional[Callable] = None,
    ) -> List:
        """Apply a top-level function to every task; results stay ordered.

        ``fn`` must be a module-level callable and each task picklable when
        the process or remote backend is active.  Exceptions raised by any
        task propagate to the caller (after a per-call pool has been torn
        down; a persistent pool opened with ``with executor:`` stays up).

        ``on_result`` switches pooled execution to an as-completed
        streaming path: the callback fires in the caller's process, in
        *completion* order, once per finished task — the hook the shard
        ledger uses to persist checkpoints while the run is still going.
        The returned list keeps serial (task) order regardless.

        Every completion is also reported through
        :func:`repro.telemetry.shards_mapped` (a no-op without a progress
        engine), which attaches the remote coordinator's fleet snapshot
        for the exporter.  The engine only observes results after they
        exist, so mapped output is bit-identical with it on or off.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        coordinator = (
            self._ensure_coordinator() if self.backend == "remote" else None
        )
        on_result = _telemetry.shards_mapped(
            fn, len(tasks), on_result, fleet=coordinator
        )
        with _telemetry.span(
            "parallel.map",
            fn=getattr(fn, "__name__", str(fn)),
            tasks=len(tasks),
            backend=self.backend,
            workers=self.n_workers,
        ):
            if coordinator is not None:
                return coordinator.map(fn, tasks, on_result=on_result)
            if self.runs_inline:
                results = []
                for task in tasks:
                    result = fn(task)
                    if on_result is not None:
                        on_result(result)
                    results.append(result)
                return results
            if self._pool is not None:
                return self._pool_map(self._pool, fn, tasks, on_result)
            workers = min(self.n_workers, len(tasks))
            if self.backend == "thread":
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    return self._pool_map(pool, fn, tasks, on_result)
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=self.mp_context
            ) as pool:
                return self._pool_map(pool, fn, tasks, on_result)

    def _pool_map(self, pool, fn, tasks, on_result) -> List:
        """Ordered map over a pool, streaming completions when asked."""
        if on_result is None:
            return list(pool.map(fn, tasks))
        futures = {pool.submit(fn, task): i for i, task in enumerate(tasks)}
        results: List = [None] * len(tasks)
        not_done = set(futures)
        try:
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()  # re-raises worker exceptions
                    results[futures[future]] = result
                    on_result(result)
        except BaseException:
            for future in not_done:
                future.cancel()
            raise
        return results

    def __repr__(self) -> str:
        return f"ParallelExecutor({self.backend!r}, n_workers={self.n_workers})"


def resolve_executor(
    executor: Optional[ParallelExecutor],
    n_workers: Optional[int],
    backend: str = "process",
) -> ParallelExecutor:
    """Shared argument plumbing for ``(executor, n_workers, backend)`` knobs.

    Entry points accept either a prebuilt executor or the plain
    ``n_workers``/``backend`` pair.  ``None`` for both is the one-worker
    inline executor: every sampled stage has exactly one (sharded) code
    path, so a run without a pool is the ``n_workers=1`` serial reference
    of every parallel run, bit for bit.
    """
    if executor is not None:
        return executor
    if n_workers is None:
        return ParallelExecutor(n_workers=1, backend="serial")
    return ParallelExecutor(n_workers=n_workers, backend=backend)
