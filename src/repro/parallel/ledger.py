"""Durable shard ledger: crash-safe incremental checkpoints for sharded runs.

The sharded flows (golden brute-force MC, the importance-sampling second
stage, the first-stage Gibbs chain groups) all share one structure: a
worker-count-invariant shard grid where shard ``i`` owns the spawn-indexed
child stream at index ``i`` and returns a self-contained, mergeable result
record.  That structure makes *persistence* trivial in principle — a run
is nothing but its shard results — and this module makes it trivial in
practice: a :class:`ShardLedger` appends one fsync'd JSONL record per
completed shard, so a run killed at K of N shards resumes by replaying the
K persisted results and executing only the N−K missing ones, with the
merged estimate **bit-identical** to an uninterrupted run.

Format (``repro-ledger-v1``): line 1 is a header row binding the file to
a *run key* — every input that shapes shard content (seed entropy, shard
grid, chunking, proposal fingerprint, ...) — so a ledger can never be
replayed into a run it does not belong to; each subsequent line is one
shard row carrying the grid coords (``index``/``offset``/``count``), the
shard's spawn key, the full result payload (numpy arrays as base64 raw
bytes — exact to the bit), a SHA-256 payload digest, the worker's host
stamp, and the persisted telemetry snapshot inside the payload.  Appends
are flushed and fsync'd per record: after a SIGKILL at any instant the
file contains every finished shard plus at most one torn trailing line,
which the loader drops (that shard simply re-runs).

Ledger files are named ``<kind>-<digest12>.jsonl`` after the run key, so
pointing ``--checkpoint-dir`` at the same directory automatically resumes
matching runs and leaves non-matching ones untouched; opening a specific
path whose header disagrees with the run key raises :class:`LedgerMismatch`.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import socket
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry import context as _telemetry

#: On-disk schema tag, bumped only on incompatible format changes.
LEDGER_SCHEMA = "repro-ledger-v1"


def host_stamp() -> dict:
    """Identify the machine/process a shard ran on (ledger rows, bench rows).

    Multi-host runs merge shards computed on different machines; recording
    ``hostname``/``cpu_count`` per shard is what lets a future analysis
    attribute wall-clock to hardware instead of guessing.
    """
    return {
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
        "cpu_count": os.cpu_count(),
    }


class LedgerMismatch(ValueError):
    """An existing ledger file does not belong to the requested run."""


# ------------------------------------------------------------- encoding
def encode_value(value):
    """JSON-encode one payload value; arrays become base64 raw bytes.

    Base64 of the contiguous buffer (not repr, not a float list) is what
    makes replayed shards bit-identical: the bytes that come back are the
    bytes that went in.
    """
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {
            "__ndarray__": {
                "dtype": str(data.dtype),
                "shape": list(data.shape),
                "data": base64.b64encode(data.tobytes()).decode("ascii"),
            }
        }
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"ledger payloads must be JSON/ndarray-representable, got "
        f"{type(value).__name__} (shared-memory handles must be disabled "
        f"on checkpointed runs)"
    )


def decode_value(value):
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        spec = value.get("__ndarray__")
        if spec is not None and len(value) == 1:
            raw = base64.b64decode(spec["data"])
            array = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
            return array.reshape(spec["shape"]).copy()
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def _canonical(obj) -> str:
    return json.dumps(encode_value(obj), sort_keys=True, separators=(",", ":"))


def run_digest(run_key: dict) -> str:
    """Stable hex digest of a run key (also names the ledger file)."""
    return hashlib.sha256(_canonical(run_key).encode("utf-8")).hexdigest()


def _payload_digest(encoded_payload: dict) -> str:
    canonical = json.dumps(
        encoded_payload, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def seed_key(root: np.random.SeedSequence) -> dict:
    """Run-key fragment identifying a root seed sequence exactly."""
    return {
        "entropy": str(root.entropy),
        "spawn_key": [int(k) for k in root.spawn_key],
    }


def _result_type(kind: str):
    # Lazy: repro.parallel.workers imports this module for host_stamp().
    from repro.parallel import workers

    types = {
        "mc": workers.MCShardResult,
        "is": workers.ISShardResult,
        "gibbs": workers.GibbsShardResult,
        "blockade": workers.BlockadeShardResult,
    }
    try:
        return types[kind]
    except KeyError:
        raise ValueError(
            f"unknown ledger kind {kind!r}; expected one of {sorted(types)}"
        ) from None


def proposal_fingerprint(proposal) -> str:
    """Hex digest identifying a proposal distribution for IS run keys.

    Pickle bytes are not canonical across interpreter versions, but they
    are deterministic within one, and a false mismatch only costs a fresh
    ledger (shards re-run) — the safe direction.  A stateful proposal
    that has advanced its sequence fingerprints differently from a fresh
    one, which is exactly right: its shards would draw different points.
    """
    import pickle

    try:
        payload = pickle.dumps(proposal, protocol=5)
    except Exception:
        payload = repr(proposal).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def metric_fingerprint(metric, spec=None) -> str:
    """Hex digest binding a run key to the metric/spec being estimated.

    Two runs that differ only in the *problem* — same dimension, seed and
    shard grid — must never share a ledger: replaying problem A's shard
    counts as problem B's estimate would silently corrupt the result.
    Wrappers that do not change the numbers (:class:`~repro.mc.counter.
    CountedMetric`, timing shims) expose the wrapped callable as a
    ``.metric`` attribute and are unwrapped first, so instrumenting a
    resumed run never keys a different ledger than the killed one.
    Identity is the pickle of the unwrapped metric (content-based:
    direction vectors, thresholds, cell geometry) plus the spec's
    threshold/polarity; unpicklable metrics fall back to their qualified
    name — never ``repr``, which embeds object addresses and would key a
    fresh ledger on every invocation.
    """
    import pickle

    target = metric
    seen = set()
    while id(target) not in seen:
        seen.add(id(target))
        inner = getattr(target, "metric", None)
        if inner is None or not callable(inner):
            break
        target = inner
    try:
        payload = pickle.dumps(target, protocol=5)
    except Exception:
        name = getattr(target, "__qualname__", None) or type(target).__qualname__
        module = getattr(target, "__module__", None) or type(target).__module__
        payload = f"{module}.{name}".encode("utf-8")
    digest = hashlib.sha256(payload)
    if spec is not None:
        digest.update(
            _canonical(
                {
                    "threshold": float(spec.threshold),
                    "fail_below": bool(spec.fail_below),
                }
            ).encode("utf-8")
        )
    return digest.hexdigest()


def _task_spawn_key(task) -> Optional[List[int]]:
    seed = getattr(task, "seed", None)
    if isinstance(seed, np.random.SeedSequence):
        return [int(k) for k in seed.spawn_key]
    seeds = getattr(task, "chain_seeds", None)
    if seeds:
        return [int(k) for k in seeds[0].spawn_key]
    return None


# --------------------------------------------------------------- ledger
class ShardLedger:
    """Append-only JSONL checkpoint of completed shard results.

    Parameters
    ----------
    path:
        The ledger file.  Created (with parents) on the first
        :meth:`record`; an existing file is validated against
        ``kind``/``run_key`` and loaded for replay when ``resume`` is
        true, truncated otherwise.
    kind:
        Shard family: ``"mc"``, ``"is"``, ``"gibbs"`` or ``"blockade"``
        (selects the result dataclass reconstructed on replay).
    run_key:
        Everything that shapes shard content for this run.  Two runs with
        equal keys produce byte-equal shard results; a header mismatch
        raises :class:`LedgerMismatch` instead of merging foreign shards.
    """

    def __init__(self, path, kind: str, run_key: dict, resume: bool = True):
        self.path = Path(path)
        self.kind = str(kind)
        _result_type(self.kind)  # validate early
        self.run_key = dict(run_key)
        self.digest = run_digest({"ledger_kind": self.kind, **self.run_key})
        self._rows: Dict[int, dict] = {}
        self._replayed_indices: List[int] = []
        self._spawn_keys: Dict[int, Optional[List[int]]] = {}
        self._handle = None
        self.n_replayed = 0
        self.n_recorded = 0
        self.n_dropped = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            if resume:
                self._load()
            else:
                self.path.unlink()

    # ------------------------------------------------------------- load
    def _load(self) -> None:
        with _telemetry.span("ledger.load", path=str(self.path)) as sp:
            lines = self.path.read_text(encoding="utf-8").splitlines()
            try:
                header = json.loads(lines[0]) if lines else None
            except json.JSONDecodeError:
                header = None
            if not isinstance(header, dict):
                if len(lines) <= 1:
                    # A kill mid-write of the very first append tears the
                    # header line, and nothing can follow it (the header
                    # is always written first): the file holds no shard
                    # data.  Start fresh instead of demanding manual
                    # deletion to resume.
                    self.n_dropped += len(lines)
                    self.path.unlink()
                    sp.add("rows", 0)
                    sp.add("dropped", self.n_dropped)
                    return
                raise LedgerMismatch(
                    f"{self.path}: unreadable ledger header followed by "
                    f"{len(lines) - 1} line(s); refusing to resume over a "
                    "file this ledger did not write"
                )
            if header.get("schema") != LEDGER_SCHEMA:
                raise LedgerMismatch(
                    f"{self.path}: schema {header.get('schema')!r} != "
                    f"{LEDGER_SCHEMA!r}"
                )
            if header.get("kind") != self.kind or (
                header.get("digest") != self.digest
            ):
                raise LedgerMismatch(
                    f"{self.path}: ledger belongs to a different run "
                    f"(kind={header.get('kind')!r} digest="
                    f"{header.get('digest', '')[:12]!r}, expected "
                    f"kind={self.kind!r} digest={self.digest[:12]!r})"
                )
            for line in lines[1:]:
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    index = int(row["index"])
                    ok = row.get("digest") == _payload_digest(row["payload"])
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    # A torn trailing line from a kill mid-append (or bit
                    # rot anywhere): drop the row, the shard re-runs.
                    self.n_dropped += 1
                    continue
                if not ok:
                    self.n_dropped += 1
                    continue
                self._rows[index] = row
            sp.add("rows", len(self._rows))
            sp.add("dropped", self.n_dropped)
        _telemetry.count("ledger.rows_loaded", len(self._rows))

    # ----------------------------------------------------------- replay
    @property
    def completed_indices(self) -> List[int]:
        return sorted(self._rows)

    def match(self, shard) -> Optional[object]:
        """Replay the persisted result for ``shard``, or ``None`` if absent.

        A row only replays when its grid coords agree with the live shard
        plan — a ledger written against a different grid (even one passing
        the header check through key omission) can never inject a
        mismatched result.
        """
        row = self._rows.get(int(shard.index))
        if row is None:
            return None
        if int(row.get("count", -1)) != int(shard.count):
            return None
        offset = row.get("offset")
        if offset is not None and int(offset) != int(shard.offset):
            return None
        cls = _result_type(self.kind)
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {
            key: decode_value(value)
            for key, value in row["payload"].items()
            if key in names
        }
        self.n_replayed += 1
        self._replayed_indices.append(int(shard.index))
        return cls(**kwargs)

    def split(self, tasks: Sequence) -> Tuple[List[object], List[object]]:
        """Partition shard tasks into (replayed results, tasks still to run).

        Resume accounting goes through
        :func:`repro.telemetry.shards_replayed`: counters and gauges
        (``ledger.shards_replayed``, ``ledger.sims_saved``,
        ``ledger.rows_dropped``) on the recorder, and replayed shards
        credited toward completion, not the live sims/sec rate, on the
        progress engine.
        """
        replayed: List[object] = []
        todo: List[object] = []
        for task in tasks:
            self._spawn_keys.setdefault(
                int(task.shard.index), _task_spawn_key(task)
            )
            hit = self.match(task.shard)
            if hit is not None:
                replayed.append(hit)
            else:
                todo.append(task)
        _telemetry.shards_replayed(
            self.kind, replayed, len(todo), int(self.n_dropped)
        )
        return replayed, todo

    # ----------------------------------------------------------- record
    def _open(self) -> None:
        if self._handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            header = {
                "schema": LEDGER_SCHEMA,
                "kind": self.kind,
                "digest": self.digest,
                "run_key": encode_value(self.run_key),
                "host": host_stamp(),
                "created": time.time(),
            }
            self._append(header)

    def _append(self, row: dict) -> None:
        self._handle.write(json.dumps(row, separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, result) -> None:
        """Persist one completed shard result (fsync'd before returning).

        Safe to hand directly to ``ParallelExecutor.map(on_result=...)``:
        completion events stream in as they finish, so the ledger is
        exactly as complete as the run was at the moment of a kill.
        """
        existing = self._rows.get(int(result.index))
        if existing is not None:
            # Replayed shards never re-append; a *stale* row at the same
            # index (e.g. the trailing partial shard of a shorter run
            # whose grid this run extends) is superseded — the fresh row
            # appends after it and last-write-wins on the next load.
            same_count = int(existing.get("count", -1)) == int(result.count)
            offset = getattr(result, "offset", None)
            same_offset = (
                existing.get("offset") is None
                or offset is None
                or int(existing["offset"]) == int(offset)
            )
            if same_count and same_offset:
                return
        with _telemetry.span("ledger.record", index=int(result.index)):
            self._open()
            payload = {
                f.name: encode_value(getattr(result, f.name))
                for f in dataclasses.fields(result)
            }
            row = {
                "index": int(result.index),
                "offset": (
                    int(result.offset)
                    if getattr(result, "offset", None) is not None
                    else None
                ),
                "count": int(result.count),
                "spawn_key": self._spawn_keys.get(int(result.index)),
                "digest": _payload_digest(payload),
                "payload": payload,
                "host": getattr(result, "host", None) or host_stamp(),
                "ts": time.time(),
            }
            self._append(row)
            self._rows[row["index"]] = row
            self.n_recorded += 1
        _telemetry.count("ledger.shards_recorded", 1)

    # ------------------------------------------------------------- misc
    def replayed_telemetry(self) -> List[dict]:
        """Persisted worker telemetry snapshots of the *replayed* shards.

        Only shards matched through :meth:`match`/:meth:`split` qualify —
        rows recorded by this very run already folded their telemetry
        live, and must not fold again under the ``replayed.`` prefix.
        """
        records = []
        for index in sorted(self._replayed_indices):
            snapshot = self._rows[index]["payload"].get("telemetry")
            if snapshot:
                records.append(decode_value(snapshot))
        return records

    def summary(self) -> dict:
        """Resume accounting for ``result.extras`` / job manifests."""
        return {
            "path": str(self.path),
            "schema": LEDGER_SCHEMA,
            "digest": self.digest,
            "shards_replayed": int(self.n_replayed),
            "shards_recorded": int(self.n_recorded),
            "rows_dropped": int(self.n_dropped),
        }

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ShardLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardLedger({str(self.path)!r}, kind={self.kind!r}, "
            f"rows={len(self._rows)})"
        )


def open_ledger(
    checkpoint_dir, kind: str, run_key: dict, resume: bool = True
) -> ShardLedger:
    """Open (or create) the ledger for a run inside ``checkpoint_dir``.

    The file name is derived from the run key, so the same directory can
    hold checkpoints for many distinct runs and a re-invocation with the
    same inputs finds its own ledger automatically.
    """
    digest = run_digest({"ledger_kind": str(kind), **dict(run_key)})
    path = Path(checkpoint_dir) / f"{kind}-{digest[:12]}.jsonl"
    return ShardLedger(path, kind, run_key, resume=resume)
