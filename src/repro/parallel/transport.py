"""Shared-memory transport for large shard payloads.

The process backend returns shard results by pickling them through the
pool's result pipe.  For the bookkeeping scalars that is free, but a
``store_samples=True`` second stage or a first-stage Gibbs shard carries
sample arrays whose pickling cost (serialise, copy through a pipe,
deserialise) grows linearly with the payload and competes with the very
work being parallelised.  This module moves such arrays through
:mod:`multiprocessing.shared_memory` instead: the worker copies the array
into a named shared-memory block once, ships only a tiny
:class:`ShmArrayHandle` (name + shape + dtype) through the pipe, and the
parent maps the block back — no pickle bytes proportional to the data.

The transport degrades automatically:

* ``serial`` / ``thread`` backends share the caller's address space, so
  arrays are returned directly (nothing to transport);
* payloads below :func:`shm_min_bytes` stay on the pickle path — for a
  few hundred kilobytes the pipe is cheaper than two shm round-trip
  copies plus the kernel object;
* platforms without ``multiprocessing.shared_memory`` (``SHM_AVAILABLE``
  is False) always use the pickle path.

Ownership protocol: the *worker* creates the block and immediately
disowns it (including unregistering it from its own resource tracker);
the *parent* attaches, copies out, closes and unlinks inside
:func:`import_array`.  A parent that crashes between the two leaks the
block until the OS reclaims ``/dev/shm`` — the price of not keeping a
tracker process in the loop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.telemetry import context as _telemetry

try:  # pragma: no cover - import guard exercised via SHM_AVAILABLE=False
    from multiprocessing import resource_tracker, shared_memory

    SHM_AVAILABLE = True
except ImportError:  # pragma: no cover - python built without _posixshmem
    shared_memory = None
    resource_tracker = None
    SHM_AVAILABLE = False

#: Default payload floor (bytes) below which pickling wins; override with
#: the ``REPRO_SHM_MIN_BYTES`` environment variable.
DEFAULT_SHM_MIN_BYTES = 1 << 20


def shm_min_bytes() -> int:
    """The configured minimum payload size for the shared-memory path."""
    try:
        return int(os.environ.get("REPRO_SHM_MIN_BYTES", DEFAULT_SHM_MIN_BYTES))
    except ValueError:
        return DEFAULT_SHM_MIN_BYTES


@dataclass(frozen=True)
class ShmArrayHandle:
    """A picklable reference to an array parked in shared memory.

    Only the block *name* and the array's layout cross the process
    boundary; the data never touches a pickle stream.  The handle is
    single-use: :func:`import_array` unlinks the block after copying.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def should_use_shm(
    executor,
    nbytes: int,
    threshold: Optional[int] = None,
) -> bool:
    """Decide, in the parent, whether a shard payload should ride shm.

    True only when all three hold: the platform has shared memory, the
    executor crosses a process boundary *on this machine* (serial/thread
    workers share the caller's memory already; remote workers may live on
    hosts where a block name means nothing), and the payload is big enough
    for the block setup to pay for itself.
    """
    if not SHM_AVAILABLE:
        return False
    if not getattr(executor, "supports_shm", executor.cross_process):
        return False
    if threshold is None:
        threshold = shm_min_bytes()
    return int(nbytes) >= int(threshold)


def export_array(array: np.ndarray) -> ShmArrayHandle:
    """Park ``array`` in a fresh shared-memory block (worker side).

    The block is disowned immediately — the worker's resource tracker is
    told to forget it so that ownership transfers cleanly to whichever
    process calls :func:`import_array`.
    """
    if not SHM_AVAILABLE:
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    array = np.ascontiguousarray(array)
    shm = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[...] = array
    handle = ShmArrayHandle(
        name=shm.name, shape=tuple(array.shape), dtype=str(array.dtype)
    )
    try:
        # The creating process registered the block with its resource
        # tracker; the parent will unlink it, so unregister here or the
        # worker's tracker warns about (and may destroy) a block it no
        # longer owns when the pool shuts down.
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API is semi-private
        pass
    shm.close()
    recorder = _telemetry.get_active()
    if recorder is not None:
        recorder.count("shm.exports", 1)
        recorder.count("shm.export_bytes", int(array.nbytes))
    return handle


def import_array(handle: ShmArrayHandle) -> np.ndarray:
    """Copy a parked array out of shared memory and release the block."""
    if not SHM_AVAILABLE:
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    shm = shared_memory.SharedMemory(name=handle.name)
    try:
        view = np.ndarray(
            handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf
        )
        array = np.array(view, copy=True)
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
    recorder = _telemetry.get_active()
    if recorder is not None:
        recorder.count("shm.imports", 1)
        recorder.count("shm.import_bytes", int(array.nbytes))
    return array


def discard_array(handle) -> None:
    """Unlink a parked array that will never be imported (idempotent).

    The shm ownership protocol hands the block from worker to parent via
    :func:`import_array`, which unlinks after copying.  When a shard dies
    *between* export and return — a later export raises, the worker is
    told to drain mid-shard — nobody would ever import the handle and the
    segment would leak until reboot.  Failure paths call this instead;
    a handle whose block is already gone is a no-op.
    """
    if not SHM_AVAILABLE or not isinstance(handle, ShmArrayHandle):
        return
    try:
        shm = shared_memory.SharedMemory(name=handle.name)
    except FileNotFoundError:
        return
    try:
        # Attaching re-registered the block with this process's tracker;
        # forget it again so unlink stays the only teardown.
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API is semi-private
        pass
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        pass
    recorder = _telemetry.get_active()
    if recorder is not None:
        recorder.count("shm.discards", 1)


def pack_array(array: np.ndarray, use_shm: bool):
    """Worker-side dispatch: park the array in shm or return it as-is.

    ``use_shm`` is the parent's :func:`should_use_shm` decision, carried
    in the task; the worker additionally falls back to the direct path if
    shared memory turns out to be unavailable where it runs.
    """
    if use_shm and SHM_AVAILABLE:
        return export_array(array)
    return array


def unpack_array(payload) -> Optional[np.ndarray]:
    """Parent-side dispatch: resolve a handle (or pass an array through)."""
    if payload is None:
        return None
    if isinstance(payload, ShmArrayHandle):
        return import_array(payload)
    return np.asarray(payload)
