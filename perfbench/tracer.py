"""Outside-in layer tracer for the benchmark.

The benchmark never edits the library to see into it.  Instead,
:class:`Tracer` wraps the public entry points of each ``repro`` module
(functions on their modules, methods on their classes) so that every call
opens a :class:`repro.telemetry.Recorder` span carrying a span id, its
parent's id and the run id.  ``uninstall`` puts every original object
back.

Spans go to whichever recorder is active in the calling process.  In the
parent that is the benchmark's recorder; in a forked process-pool worker
it is the per-shard recorder that :class:`repro.telemetry.ShardTelemetry`
installs, so worker spans come home through the library's own shard-result
fold.  A worker started by ``spawn`` or ``forkserver`` imports unwrapped
modules and records nothing, which the worker-span witness in ``run.py``
turns into a loud failure.

:func:`self_times` and :func:`coverage` turn the spans of one process
into self times: a span's duration minus the part of it its children
cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
from collections import defaultdict
from typing import Callable, Dict, List

import numpy as np

from repro.telemetry import context as _context


def _metric_counts(args, result) -> dict:
    values = np.asarray(result)
    return {
        "rows": int(np.shape(args[1])[0]),
        "nonfinite": int(values.size - np.count_nonzero(np.isfinite(values))),
    }


def _lane_counts(args, result) -> dict:
    return {"rows": int(np.size(result[0]))}


def _task_counts(args, result) -> dict:
    return {"rows": len(result)}


#: (span name, module, attribute path, counters taken from args/result).
#: The span name's first dotted part is the layer.  Functions are patched
#: in every loaded ``repro`` module that binds them, so ``from x import f``
#: call sites are traced too; methods are patched on the defining class.
TARGETS = (
    ("gibbs.entry", "repro.gibbs.two_stage", "gibbs_importance_sampling", None),
    ("gibbs.start", "repro.gibbs.starting_point", "find_starting_point", None),
    ("gibbs.interval", "repro.gibbs.bounds", "batched_failure_interval", None),
    ("gibbs.interval", "repro.gibbs.bounds", "failure_interval", None),
    ("gibbs.chain", "repro.gibbs.spherical", "SphericalGibbs.run", None),
    ("gibbs.chain", "repro.gibbs.spherical", "SphericalGibbs.run_lockstep", None),
    ("gibbs.chain", "repro.gibbs.cartesian", "CartesianGibbs.run", None),
    ("gibbs.chain", "repro.gibbs.cartesian", "CartesianGibbs.run_lockstep", None),
    ("gibbs.chain", "repro.gibbs.two_stage", "run_first_stage", None),
    ("gibbs.conditional", "repro.gibbs.inverse_transform",
     "sample_conditional_1d", None),
    ("gibbs.conditional", "repro.gibbs.inverse_transform",
     "sample_conditional_batch", None),
    ("mc.second_stage", "repro.mc.importance",
     "importance_sampling_estimate", None),
    ("mc.run", "repro.mc.montecarlo", "brute_force_monte_carlo", None),
    ("mc.diagnostics", "repro.mc.diagnostics", "diagnose_chains", None),
    ("sram.metric", "repro.sram.metrics", "SramMetric.evaluate",
     _metric_counts),
    ("sram.cell.read_state", "repro.sram.cell",
     "SixTransistorCell.solve_read_state", None),
    ("devices.mosfet", "repro.devices.mosfet", "Mosfet.current_and_derivs",
     _lane_counts),
    ("backend.namespace", "repro.backend.dispatch", "array_namespace", None),
    ("parallel.map", "repro.parallel.executor", "ParallelExecutor.map",
     _task_counts),
    ("parallel.ledger_record", "repro.parallel.ledger", "ShardLedger.record",
     None),
)

#: Span name of the benchmark's own root span around one estimate.
ROOT = "bench.estimate"


class Tracer:
    """Installs and removes the span wrappers; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = str(run_id)
        self._local = threading.local()
        self._ids = itertools.count()
        #: (owner, attribute, original) per patched binding.
        self.patches: List[tuple] = []
        os.register_at_fork(after_in_child=self._forget_stack)

    def _forget_stack(self) -> None:
        # A forked worker must not parent its spans on the spans that were
        # open in the parent when it forked.
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a traced span on the active recorder (no-op without one)."""
        recorder = _context.get_active()
        if recorder is None:
            yield None
            return
        stack = self._stack()
        sid = f"{os.getpid()}-{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(sid)
        try:
            with recorder.span(name, sid=sid, parent=parent,
                               run=self.run_id) as sp:
                yield sp
        finally:
            stack.pop()

    def _wrap(self, name: str, fn: Callable, counters) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if _context.get_active() is None:
                return fn(*args, **kwargs)
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
                if counters is not None:
                    for key, value in counters(args, result).items():
                        sp.add(key, value)
            return result

        traced.__bench_wrapped__ = True  # see wrapped_bindings
        return traced

    def install(self) -> None:
        """Wrap every target (once per instance)."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        for name, module_name, path, counters in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self._wrap(name, original, counters))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counters)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched binding to its original object."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def wrapped_bindings() -> List[str]:
    """``module.attr`` of every tracer wrapper still bound in ``repro``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            holders = [value] + (
                list(vars(value).values()) if isinstance(value, type) else []
            )
            if any(getattr(v, "__bench_wrapped__", False) for v in holders):
                found.append(f"{name}.{attr}")
    return found


# ------------------------------------------------------------- analysis
def bench_spans(events) -> List[dict]:
    """The tracer's spans among a recorder's span events (others ignored)."""
    return [e for e in events if "sid" in e.get("attrs", {})]


def _union_length(intervals) -> float:
    total = 0.0
    end = -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> Dict[str, float]:
    """Self time per span id: duration minus the union of its children.

    ``spans`` are span events of one process (``start``, ``dur`` and
    ``attrs.sid`` / ``attrs.parent``); children are clipped to their
    parent's interval, so the self times of a tree sum to its root's
    duration.
    """
    children = defaultdict(list)
    for event in spans:
        parent = event["attrs"].get("parent")
        if parent is not None:
            children[parent].append(event)
    out = {}
    for event in spans:
        lo = event["start"]
        hi = lo + event["dur"]
        covered = _union_length(
            (max(c["start"], lo), min(c["start"] + c["dur"], hi))
            for c in children.get(event["attrs"]["sid"], ())
            if c["start"] < hi and c["start"] + c["dur"] > lo
        )
        out[event["attrs"]["sid"]] = max(event["dur"] - covered, 0.0)
    return out


def subtree(spans, root_sid: str) -> List[dict]:
    """``root_sid`` and every span below it."""
    children = defaultdict(list)
    for event in spans:
        children[event["attrs"].get("parent")].append(event)
    by_sid = {e["attrs"]["sid"]: e for e in spans}
    out, todo = [], [root_sid]
    while todo:
        sid = todo.pop()
        out.append(by_sid[sid])
        todo.extend(c["attrs"]["sid"] for c in children.get(sid, ()))
    return out


def coverage(spans, root_sid: str) -> tuple:
    """(covered fraction, self-time sum / root duration) of one span tree.

    The covered fraction is the share of the root's wall time spent inside
    some traced layer, i.e. one minus the root's own self time.
    """
    tree = subtree(spans, root_sid)
    selfs = self_times(tree)
    root = next(e for e in tree if e["attrs"]["sid"] == root_sid)
    wall = root["dur"]
    if wall <= 0.0:
        return 1.0, 1.0
    return 1.0 - selfs[root_sid] / wall, sum(selfs.values()) / wall
