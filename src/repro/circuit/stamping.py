"""Compiled circuit stamping for the batched Newton DC solver.

The generic residual/Jacobian evaluation in :mod:`repro.circuit.dc_solver`
walks the element list on **every Newton iteration**: it rebuilds a
node-voltage dict, re-slices each element's parameter arrays, calls each
element's ``kcl_contributions`` (re-deriving the same EKV transcendentals
device by device), and scatter-adds through Python loops into freshly
allocated ``f``/``jac`` arrays.  For the tiny systems SRAM cells produce
(two free nodes, six MOSFETs) that interpreter traffic dwarfs the actual
arithmetic on one core.

This module *compiles* the walk once per circuit topology:

* every MOSFET is evaluated in **one fused call** with a leading device
  axis (stacked parameter columns against a shared node-voltage matrix),
  so the expensive ``logaddexp``/``exp`` transcendentals run over a
  ``(n_devices, n_active)`` block instead of ``n_devices`` separate
  ``(n_active,)`` calls — likewise for resistors;
* the per-terminal scatter into ``f``/``jac`` is flattened into a static
  **op program** (one vectorised in-place add or subtract per stamp)
  replayed in exact element order;
* ``f``, ``jac``, the voltage matrix and the gather buffers are
  preallocated once per solve and reused across iterations, shrinking
  with the solver's active set instead of being reallocated.

Bit-identity contract
---------------------
The compiled path is **bit-identical** to the generic walk.  This rests on
three facts, each load-bearing:

1. IEEE elementwise arithmetic is value-deterministic per lane: evaluating
   a device's equations on a stacked ``(m, n)`` block yields bitwise the
   same lane values as ``m`` separate ``(n,)`` evaluations, provided the
   scalar parameter values and the operation order are preserved — which
   they are, because the fused path calls the *same*
   :func:`repro.devices.mosfet.ekv_current_and_derivs` the per-device
   path delegates to.
2. Floating-point addition is commutative but **not** associative, so the
   op program replays accumulation in exactly the generic element order
   (per element: terminal-order ``f`` stamps interleaved with their
   Jacobian stamps), and ``x -= y`` is bitwise ``x += (-y)``.
3. Stamps that are exact zeros (MOSFET gate/bulk currents, current-source
   Jacobians) may be skipped: the accumulators can never hold ``-0.0``
   (they start at ``+0.0`` and IEEE addition only produces ``-0.0`` from
   two negative zeros), so adding ``+0.0`` is always the identity.

``compile_plan`` returns ``None`` for anything it cannot prove it handles
(unknown element classes, unexpected parameter keys); the solver then
falls back to the generic walk, so third-party :class:`Element`
subclasses keep working unchanged.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

import numpy as np

from repro.circuit.netlist import Circuit, CurrentSource, MosfetElement, Resistor
from repro.devices.mosfet import ekv_current_and_derivs

#: Lanes evaluated per pass.  The fused device evaluation materialises
#: ``O(n_devices * n_lanes)`` temporaries; chunking keeps them L2-resident
#: for large batches.  Chunking is per-lane elementwise, so it cannot
#: perturb bits.
LANE_CHUNK = 1024

# Source-buffer ids for op-program entries.
_SRC_IDS = 0     # mosfet drain current
_SRC_DVG = 1
_SRC_DVD = 2
_SRC_DVS = 3
_SRC_DVB = 4     # -(dvg + dvd + dvs), computed only when referenced
_SRC_RES = 5     # resistor branch currents
_SRC_CONST = 6   # python-float constant (resistor conductances, sources)

_N_SRC_BUFFERS = 6


class StampPlan:
    """Static (per-topology) compilation of a circuit's KCL stamping.

    Built by :func:`compile_plan`; instantiate per-solve state with
    :meth:`bind`.  The plan itself holds only index arrays, parameter
    columns and the op program — nothing batch-sized.
    """

    def __init__(self, circuit: Circuit, free_index: Dict[str, int],
                 clamp_names: List[str]):
        self.n_free = len(free_index)
        # Voltage-matrix slots: free nodes first (row == free column index),
        # then one row per clamped node.
        self.clamp_names = list(clamp_names)
        slot = dict(free_index)
        for name in self.clamp_names:
            slot[name] = len(slot)
        self.n_slots = len(slot)

        mos: List[MosfetElement] = []
        mos_slots: List[List[int]] = []
        res: List[Resistor] = []
        res_slots: List[List[int]] = []
        # Op program entries: (is_jac, row, col, is_sub, src_kind, src_row, const)
        program = []

        def emit(element_rows, currents, jacobian):
            # Replay the generic scatter loop: per terminal i, the f stamp
            # then that terminal's Jacobian stamps, skipping exact zeros.
            for i, row in enumerate(element_rows):
                if row < 0:
                    continue
                if currents[i] is not None:
                    is_sub, kind, src_row, const = currents[i]
                    program.append((False, row, 0, is_sub, kind, src_row, const))
                for j, col in enumerate(element_rows):
                    if col < 0 or jacobian[i][j] is None:
                        continue
                    is_sub, kind, src_row, const = jacobian[i][j]
                    program.append((True, row, col, is_sub, kind, src_row, const))

        for element in circuit.elements:
            rows = [free_index.get(n, -1) for n in element.nodes]
            if isinstance(element, MosfetElement):
                m = len(mos)
                mos.append(element)
                mos_slots.append([slot[n] for n in element.nodes])
                cur = (
                    (False, _SRC_IDS, m, 0.0),   # drain: +ids
                    None,                        # gate: exact zero
                    (True, _SRC_IDS, m, 0.0),    # source: -ids
                    None,                        # bulk: exact zero
                )
                # Rows in (d, g, s, b) terminal order, matching
                # MosfetElement.kcl_contributions.
                drain = (
                    (False, _SRC_DVD, m, 0.0),
                    (False, _SRC_DVG, m, 0.0),
                    (False, _SRC_DVS, m, 0.0),
                    (False, _SRC_DVB, m, 0.0),
                )
                source = (
                    (True, _SRC_DVD, m, 0.0),
                    (True, _SRC_DVG, m, 0.0),
                    (True, _SRC_DVS, m, 0.0),
                    (True, _SRC_DVB, m, 0.0),
                )
                none4 = (None, None, None, None)
                emit(rows, cur, (drain, none4, source, none4))
            elif isinstance(element, Resistor):
                m = len(res)
                res.append(element)
                res_slots.append([slot[n] for n in element.nodes])
                g = 1.0 / element.resistance
                cur = ((False, _SRC_RES, m, 0.0), (True, _SRC_RES, m, 0.0))
                jacr = (
                    ((False, _SRC_CONST, 0, g), (True, _SRC_CONST, 0, g)),
                    ((True, _SRC_CONST, 0, g), (False, _SRC_CONST, 0, g)),
                )
                emit(rows, cur, jacr)
            elif isinstance(element, CurrentSource):
                c = element.current
                cur = ((False, _SRC_CONST, 0, c), (True, _SRC_CONST, 0, c))
                none2 = (None, None)
                emit(rows, cur, (none2, none2))
            else:
                raise TypeError(f"unsupported element {type(element).__name__}")

        self.slot = slot
        self.mos_names = [e.name for e in mos]
        self.n_mos = len(mos)
        if mos:
            # (4, n_mos) terminal->slot gather and (n_mos, 1) param columns.
            self.mos_term_slots = np.asarray(mos_slots, dtype=np.intp).T.copy()
            self.mos_pol = np.array([[float(e.device.params.polarity)] for e in mos])
            self.mos_vth = np.array([[e.device.params.vth] for e in mos])
            self.mos_beta = np.array([[e.device.params.beta] for e in mos])
            self.mos_n = np.array([[e.device.params.n] for e in mos])
            self.mos_lam = np.array([[e.device.params.lam] for e in mos])
        self.n_res = len(res)
        if res:
            self.res_term_slots = np.asarray(res_slots, dtype=np.intp).T.copy()
            self.res_g = np.array([[1.0 / e.resistance] for e in res])
        self.program = tuple(program)
        self.need_dvb = any(
            op[4] == _SRC_DVB for op in program
        )

    def bind(self, clamp_flat, params_flat, n_batch: int,
             gmin: Optional[float], workspace: Optional["StampWorkspace"] = None,
             ) -> "StampWorkspace":
        """Create (or rebind) per-solve state for a flattened batch.

        ``gmin=None`` omits the diagonal load entirely (the transient
        engine's contract); ``gmin=0.0`` still performs the add, matching
        the generic DC walk bit-for-bit (``x + 0.0`` normalises ``-0.0``).
        """
        if workspace is None:
            workspace = StampWorkspace(self)
        workspace.rebind(clamp_flat, params_flat, n_batch, gmin)
        return workspace


# Plans keyed per circuit object (weakly) and per solve configuration.
# Element parameters are immutable (frozen dataclasses) and the only
# topology mutation API is Circuit.add, which the element count catches.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Circuit, Dict[tuple, StampPlan]]" = (
    weakref.WeakKeyDictionary()
)
_UNSUPPORTED = object()


def compile_plan(circuit: Circuit, free_index: Dict[str, int],
                 clamp_names: List[str],
                 params: Dict[str, dict]) -> Optional[StampPlan]:
    """Compile ``circuit`` for fast stamping, or ``None`` if unsupported.

    ``params`` is the per-element parameter-override mapping of the solve;
    any key other than a MOSFET ``delta_vth`` defeats compilation (the
    generic path then surfaces the same error the element would raise).
    Plans are cached per circuit and solve configuration, so the repeated
    solves of a Monte-Carlo or Gibbs run compile exactly once.
    """
    key = (
        len(circuit.elements),
        tuple(free_index),
        tuple(clamp_names),
        tuple(sorted((name, tuple(sorted(kw))) for name, kw in params.items())),
    )
    per_circuit = _PLAN_CACHE.setdefault(circuit, {})
    cached = per_circuit.get(key)
    if cached is not None:
        return None if cached is _UNSUPPORTED else cached
    plan = _compile_uncached(circuit, free_index, clamp_names, params)
    per_circuit[key] = _UNSUPPORTED if plan is None else plan
    return plan


def _compile_uncached(circuit, free_index, clamp_names, params):
    for element in circuit.elements:
        if not isinstance(element, (MosfetElement, Resistor, CurrentSource)):
            return None
        keys = set(params.get(element.name, ()))
        if isinstance(element, MosfetElement):
            if keys - {"delta_vth"}:
                return None
        elif keys:
            return None
    return StampPlan(circuit, free_index, clamp_names)


class StampWorkspace:
    """Per-solve mutable state for a :class:`StampPlan`.

    Holds the clamp/parameter matrices for the full batch plus the
    active-set-sized workspaces (voltage matrix, gather buffers, ``f`` and
    ``jac``).  The lifecycle mirrors the solver's active set:

    - :meth:`rebind` — new solve (full batch matrices rebuilt);
    - :meth:`set_rows` — select an arbitrary active row subset (start of a
      Newton pass, including the restart pass);
    - :meth:`compact` — drop converged rows by boolean mask;
    - :meth:`residual_and_jacobian` — evaluate over the current rows.
    """

    def __init__(self, plan: StampPlan):
        self.plan = plan
        self._cap = 0

    # ------------------------------------------------------------ binding
    def rebind(self, clamp_flat, params_flat, n_batch: int, gmin: float):
        plan = self.plan
        self.gmin = gmin
        self.n_batch = n_batch
        # Full-batch clamp matrix, one row per clamped slot.
        self._clamp_full = np.empty((len(plan.clamp_names), n_batch))
        for r, name in enumerate(plan.clamp_names):
            self._clamp_full[r] = clamp_flat[name]
        # Full-batch threshold-shift matrix (zeros where a device has none).
        self._delta_full = None
        if plan.n_mos:
            rows = {}
            for m, name in enumerate(plan.mos_names):
                kw = params_flat.get(name, {})
                if "delta_vth" in kw:
                    rows[m] = kw["delta_vth"]
            if rows:
                self._delta_full = np.zeros((plan.n_mos, n_batch))
                for m, v in rows.items():
                    self._delta_full[m] = v
                self._delta_act = np.empty((plan.n_mos, n_batch))
        self._ensure_capacity(n_batch)
        self.n_active = 0

    def _ensure_capacity(self, cap: int):
        if cap <= self._cap:
            return
        plan = self.plan
        self._cap = cap
        self._v = np.empty((plan.n_slots, cap))
        self._f_ws = np.empty((cap, plan.n_free))
        self._jac_ws = np.empty((cap, plan.n_free, plan.n_free))
        chunk = min(cap, LANE_CHUNK)
        if plan.n_mos:
            self._mos_gather = np.empty((4, plan.n_mos, chunk))
        if plan.n_res:
            self._res_gather = np.empty((2, plan.n_res, chunk))

    def set_rows(self, rows_idx: np.ndarray):
        """Select the active batch rows (arbitrary subset, in order)."""
        plan = self.plan
        n = rows_idx.size
        self.n_active = n
        # Clamp rows of the voltage matrix; free rows are overwritten from
        # the iterate on every evaluation.
        self._v[plan.n_free:, :n] = self._clamp_full[:, rows_idx]
        if plan.n_mos and self._delta_full is not None:
            self._delta_act[:, :n] = self._delta_full[:, rows_idx]
        self._resize_views()

    def update_clamps(self, clamp_flat):
        """Rewrite clamp voltages in place (time-varying sources).

        Only valid while the full batch is active (the transient engine's
        usage); named nodes missing from ``clamp_flat`` keep their values.
        """
        plan, n = self.plan, self.n_active
        for r, name in enumerate(plan.clamp_names):
            if name in clamp_flat:
                self._clamp_full[r] = clamp_flat[name]
                self._v[plan.n_free + r, :n] = self._clamp_full[r]

    def compact(self, keep: np.ndarray):
        """Drop rows where ``keep`` is False (cheaper than a re-gather)."""
        plan = self.plan
        old = self.n_active
        n = int(np.count_nonzero(keep))
        self.n_active = n
        self._v[plan.n_free:, :n] = self._v[plan.n_free:, :old][:, keep]
        if plan.n_mos and self._delta_full is not None:
            self._delta_act[:, :n] = self._delta_act[:, :old][:, keep]
        self._resize_views()

    def _resize_views(self):
        plan, n = self.plan, self.n_active
        self._v_act = self._v[:, :n]
        self._f = self._f_ws[:n]
        self._jac = self._jac_ws[:n]
        # Strided view of the Jacobian diagonal for the gmin load.
        k = plan.n_free
        self._jac_diag = self._jac.reshape(n, k * k)[:, :: k + 1] if k else self._jac
        self._delta = (
            self._delta_act[:, :n] if (plan.n_mos and self._delta_full is not None)
            else 0.0
        )

    # --------------------------------------------------------- evaluation
    def residual_and_jacobian(self, v_act: np.ndarray):
        """KCL residual and Jacobian over the bound rows.

        ``v_act`` has shape ``(n_active, n_free)``.  Returns views into the
        reusable workspaces — consumed (not stored) by the Newton loop.
        """
        plan, n = self.plan, self.n_active
        f, jac = self._f, self._jac
        f[...] = 0.0
        jac[...] = 0.0
        for col in range(plan.n_free):
            self._v_act[col] = v_act[:, col]

        has_delta = plan.n_mos and self._delta_full is not None
        for lo in range(0, n, LANE_CHUNK):
            hi = min(lo + LANE_CHUNK, n)
            width = hi - lo
            v_chunk = self._v_act[:, lo:hi]
            bufs = [None] * _N_SRC_BUFFERS
            if plan.n_mos:
                gather = self._mos_gather[:, :, :width]
                # mode="clip" skips numpy's bounds-check buffering (indices
                # are plan-validated): the gather is truly allocation-free.
                np.take(v_chunk, plan.mos_term_slots, axis=0, out=gather,
                        mode="clip")
                vd, vg, vs, vb = gather[0], gather[1], gather[2], gather[3]
                delta = self._delta[:, lo:hi] if has_delta else 0.0
                ids, d_dvg, d_dvd, d_dvs = ekv_current_and_derivs(
                    vg, vd, vs, vb, plan.mos_pol, plan.mos_vth, plan.mos_beta,
                    plan.mos_n, plan.mos_lam, delta_vth=delta,
                )
                bufs[_SRC_IDS] = ids
                bufs[_SRC_DVG] = d_dvg
                bufs[_SRC_DVD] = d_dvd
                bufs[_SRC_DVS] = d_dvs
                if plan.need_dvb:
                    bufs[_SRC_DVB] = -(d_dvg + d_dvd + d_dvs)
            if plan.n_res:
                gather = self._res_gather[:, :, :width]
                np.take(v_chunk, plan.res_term_slots, axis=0, out=gather,
                        mode="clip")
                bufs[_SRC_RES] = (gather[0] - gather[1]) * plan.res_g

            f_chunk, jac_chunk = f[lo:hi], jac[lo:hi]
            for is_jac, row, col, is_sub, kind, src_row, const in plan.program:
                tgt = jac_chunk[:, row, col] if is_jac else f_chunk[:, row]
                src = const if kind == _SRC_CONST else bufs[kind][src_row]
                if is_sub:
                    np.subtract(tgt, src, out=tgt)
                else:
                    np.add(tgt, src, out=tgt)

        if plan.n_free and self.gmin is not None:
            self._jac_diag += self.gmin
        return f, jac
