"""The 6-T SRAM cell and its batched DC analyses.

Device naming follows the paper's Fig. 5 conventions as reverse-engineered
from three statements in Section V:

* the read current is "the drain current of transistor M3" with WL and both
  bitlines at VDD — M3 is the *left access* transistor;
* read-current variation is dominated by M1 and M3 — M1 is the *left
  pull-down* in series with that access path;
* the WNM-critical pair is (M3, M5) — M5 is the *left pull-up* the write
  must overpower through M3.

Hence the device order M1..M6 used everywhere in this library::

    M1 = pd_l   left pull-down (NMOS)    M2 = pd_r   right pull-down (NMOS)
    M3 = ax_l   left access    (NMOS)    M4 = ax_r   right access    (NMOS)
    M5 = pu_l   left pull-up   (PMOS)    M6 = pu_r   right pull-up   (PMOS)

with storage nodes ``q`` (left, drain of M1/M5, inner terminal of M3) and
``qb`` (right).

Performance note: the butterfly-curve and read-state analyses are the hot
path of every Monte-Carlo experiment, so they bypass the general netlist
solver and evaluate the half-cell KCL directly with a *vectorised
safeguarded Newton* — the single-node KCL residual is strictly increasing in
the node voltage (every device's output conductance is positive), so a
bracketed Newton/bisection hybrid is globally convergent.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.circuit.netlist import Circuit
from repro.telemetry import context as _telemetry
from repro.devices.mosfet import Mosfet
from repro.devices.technology import (
    DEFAULT_GEOMETRIES,
    DeviceGeometry,
    Technology,
    default_technology,
)

#: Device names in paper order (index i corresponds to transistor M(i+1)).
DEVICE_NAMES: Tuple[str, ...] = ("pd_l", "pd_r", "ax_l", "ax_r", "pu_l", "pu_r")

#: Map from paper transistor label to index in DEVICE_NAMES.
PAPER_INDEX: Dict[str, int] = {f"M{i + 1}": i for i in range(6)}


def _solve_monotone_node(residual, lo: float, hi: float, shape,
                         iterations: int = 26, tol: float = 2e-12,
                         v0=None):
    """Solve ``residual(v) = 0`` for a strictly increasing residual.

    ``residual`` maps a *flat* array of node voltages plus an optional
    flat-index array (``None`` meaning "all lanes") to ``(f, dfdv)`` for
    those lanes.  Uses Newton steps safeguarded by bisection on the bracket
    ``[lo, hi]``; globally convergent for monotone residuals.

    The loop maintains a shrinking **active set**: a lane whose residual
    drops under ``tol`` is written back and exits immediately, so every
    subsequent residual evaluation — the dominant cost, six transistor
    models per lane — covers only the still-running lanes.  In a
    Monte-Carlo batch the bulk converges within a few Newton steps and a
    handful of collapsed-lobe stragglers run long, so the tail iterations
    cost a fraction of the full batch (the same pattern as the DC solver's
    Newton loop).  Lane freezing also keeps batch members decoupled: a
    converged lane's value never depends on how long *other* lanes keep
    the loop alive (a batch-coupling bug caught by importance-sampling
    weight explosions; see tests/test_sram_cell.py).

    ``v0`` (broadcastable to ``shape``) seeds the first Newton step instead
    of the bracket midpoint — the grid-continuation warm start of
    :meth:`SixTransistorCell.half_cell_vtc`.  The bracket stays the full
    ``[lo, hi]``, so a poor warm start costs iterations, never correctness.
    """
    n = int(np.prod(shape)) if shape else 1
    lo_act = np.full((n,), float(lo), dtype=np.float64)
    hi_act = np.full((n,), float(hi), dtype=np.float64)
    if v0 is None:
        v_act = 0.5 * (lo_act + hi_act)
    else:
        v_act = np.clip(
            np.broadcast_to(np.asarray(v0, dtype=np.float64), shape).reshape(n),
            float(lo), float(hi),
        )
    v = np.empty((n,), dtype=np.float64)
    active = np.arange(n)
    recorder = _telemetry.get_active()
    lane_iters = 0
    for _ in range(iterations):
        if recorder is not None:
            lane_iters += len(active)
        f, dfdv = residual(v_act, active)
        done = np.abs(f) < tol
        if done.any():
            # Early lane exit: freeze converged lanes at the voltage their
            # residual was just evaluated at and drop them from the set.
            v[active[done]] = v_act[done]
            keep = ~done
            if not keep.any():
                active = active[:0]
                break
            active = active[keep]
            v_act, lo_act, hi_act = v_act[keep], lo_act[keep], hi_act[keep]
            f, dfdv = f[keep], dfdv[keep]
        # Tighten the bracket using the sign of the monotone residual.
        above = f > 0.0
        hi_act = np.where(above, v_act, hi_act)
        lo_act = np.where(~above, v_act, lo_act)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dfdv > 0.0, -f / dfdv, 0.0)
        candidate = v_act + step
        # Fall back to bisection wherever Newton leaves the bracket or the
        # derivative is unusable.
        inside = (candidate > lo_act) & (candidate < hi_act) & (dfdv > 0.0)
        v_act = np.where(inside, candidate, 0.5 * (lo_act + hi_act))
    if len(active):
        v[active] = v_act
    if recorder is not None:
        recorder.count("newton.lane_solves", n)
        recorder.count("newton.lane_iters", lane_iters)
    return v.reshape(shape)


#: Input-grid stride of the coarse continuation pass in ``half_cell_vtc``.
_VTC_COARSE_STRIDE = 8


def _interp_along_axis0(x_full, x_coarse, y_coarse):
    """Linearly interpolate ``y_coarse`` onto ``x_full`` along axis 0.

    ``y_coarse`` has shape ``(len(x_coarse), *batch)``; the result has shape
    ``(len(x_full), *batch)``.  Only used to seed Newton iterations, so
    plain piecewise-linear accuracy is plenty.
    """
    pos = np.searchsorted(x_coarse, x_full, side="right") - 1
    pos = np.clip(pos, 0, len(x_coarse) - 2)
    x0 = x_coarse[pos]
    span = x_coarse[pos + 1] - x0
    frac = np.where(span > 0.0, (x_full - x0) / np.where(span > 0.0, span, 1.0), 0.0)
    frac = frac.reshape((-1,) + (1,) * (y_coarse.ndim - 1))
    y0 = y_coarse[pos]
    return y0 + frac * (y_coarse[pos + 1] - y0)


class SixTransistorCell:
    """A 6-T SRAM cell with per-device mismatch hooks.

    Parameters
    ----------
    technology:
        Process description; defaults to the library's 90nm-flavoured corner.
    geometries:
        Mapping with keys ``pull_down`` / ``access`` / ``pull_up`` overriding
        the default transistor sizes.
    """

    def __init__(
        self,
        technology: Optional[Technology] = None,
        geometries: Optional[Mapping[str, DeviceGeometry]] = None,
    ):
        self.technology = technology or default_technology()
        geo = dict(DEFAULT_GEOMETRIES)
        if geometries:
            unknown = set(geometries) - set(geo)
            if unknown:
                raise KeyError(f"unknown geometry roles: {sorted(unknown)}")
            geo.update(geometries)
        self.geometries = geo
        tech = self.technology
        role_of = {
            "pd_l": "pull_down", "pd_r": "pull_down",
            "ax_l": "access", "ax_r": "access",
            "pu_l": "pull_up", "pu_r": "pull_up",
        }
        self.devices: Dict[str, Mosfet] = {}
        self.sigma_vth: Dict[str, float] = {}
        for name in DEVICE_NAMES:
            role = role_of[name]
            geometry = geo[role]
            params = tech.pmos(geometry) if name.startswith("pu") else tech.nmos(geometry)
            self.devices[name] = Mosfet(params)
            self.sigma_vth[name] = tech.sigma_vth(geometry)
        self.vdd = tech.vdd

    # ----------------------------------------------------------- netlist
    def build_circuit(self) -> Circuit:
        """Full-cell netlist for use with the general DC solver.

        Nodes: ``q``, ``qb`` (storage), ``bl``, ``blb``, ``wl``, ``vdd``.
        Used by examples and cross-validation tests; the Monte-Carlo hot
        paths use the specialised solvers below instead.
        """
        c = Circuit("sram6t")
        dev = {name: self.devices[name].params for name in DEVICE_NAMES}
        c.add_mosfet("pd_l", dev["pd_l"], drain="q", gate="qb", source="0")
        c.add_mosfet("pu_l", dev["pu_l"], drain="q", gate="qb", source="vdd", bulk="vdd")
        c.add_mosfet("ax_l", dev["ax_l"], drain="bl", gate="wl", source="q")
        c.add_mosfet("pd_r", dev["pd_r"], drain="qb", gate="q", source="0")
        c.add_mosfet("pu_r", dev["pu_r"], drain="qb", gate="q", source="vdd", bulk="vdd")
        c.add_mosfet("ax_r", dev["ax_r"], drain="blb", gate="wl", source="qb")
        return c

    # ------------------------------------------------- half-cell response
    def _half_cell_residual(self, side: str, vin, bl_voltage, wl_voltage,
                            delta_vth: Mapping[str, np.ndarray], shape):
        """Residual factory: KCL current leaving the storage node of ``side``.

        Inputs (input voltage and per-device mismatches) are broadcast to
        ``shape`` and flattened once, so the returned ``residual(v, idx)``
        can evaluate any *subset* of lanes — the contract
        :func:`_solve_monotone_node`'s active-set loop relies on.  Subset
        evaluation is elementwise, hence bit-identical to evaluating the
        full batch and slicing.
        """
        suffix = "_l" if side == "left" else "_r"
        pd = self.devices["pd" + suffix]
        pu = self.devices["pu" + suffix]
        ax = self.devices["ax" + suffix]
        vdd = self.vdd
        n = int(np.prod(shape)) if shape else 1

        def flat(value):
            return np.broadcast_to(
                np.asarray(value, dtype=np.float64), shape).reshape(n)

        vin_f = flat(vin)
        d_pd = flat(delta_vth.get("pd" + suffix, 0.0))
        d_pu = flat(delta_vth.get("pu" + suffix, 0.0))
        d_ax = flat(delta_vth.get("ax" + suffix, 0.0))

        def residual(v_node, idx=None):
            if idx is None:
                vin_x, dpd_x, dpu_x, dax_x = vin_f, d_pd, d_pu, d_ax
            else:
                vin_x, dpd_x, dpu_x, dax_x = (
                    vin_f[idx], d_pd[idx], d_pu[idx], d_ax[idx]
                )
            i_pd, _, dd_pd, _ = pd.current_and_derivs(vin_x, v_node, 0.0, 0.0, dpd_x)
            i_pu, _, dd_pu, _ = pu.current_and_derivs(vin_x, v_node, vdd, vdd, dpu_x)
            i_ax, _, _, ds_ax = ax.current_and_derivs(
                wl_voltage, bl_voltage, v_node, 0.0, dax_x
            )
            # i_pd and i_pu leave the node (their drain is the node); the
            # access current flows bitline -> node, so it enters the node.
            f = i_pd + i_pu - i_ax
            dfdv = dd_pd + dd_pu - ds_ax
            return f, dfdv

        return residual

    def half_cell_vtc(
        self,
        side: str,
        vin_grid: np.ndarray,
        bl_voltage: float,
        delta_vth: Optional[Mapping[str, np.ndarray]] = None,
        wl_voltage: Optional[float] = None,
        v0: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Voltage transfer curve of one half-cell with its access device.

        Solves the storage-node voltage for every input-grid point and every
        mismatch sample at once.  Returns shape ``(n_grid, *batch)`` where
        ``batch`` is the broadcast shape of the ``delta_vth`` arrays
        (``(n_grid,)`` if no mismatch given).

        ``bl_voltage`` selects the configuration: VDD for read (both
        bitlines precharged) and 0 V for the write-driven side.

        ``v0`` optionally seeds the Newton solve with a previously converged
        VTC of matching shape (the cross-round warm start of
        :mod:`repro.circuit.warm`), replacing the internal coarse
        grid-continuation pass.  As with that pass, the full ``[lo, hi]``
        bracket and tolerance are retained — a stale seed costs Newton
        iterations, never correctness — so warm results agree with cold
        ones to solver tolerance but are not bitwise identical.  A ``v0``
        whose shape does not match the solve is ignored.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        delta_vth = dict(delta_vth or {})
        wl_voltage = self.vdd if wl_voltage is None else float(wl_voltage)
        vin_grid = np.asarray(vin_grid, dtype=np.float64)
        if vin_grid.ndim != 1:
            raise ValueError("vin_grid must be 1-D")

        batch_shape = np.broadcast_shapes(*(np.shape(d) for d in delta_vth.values())) \
            if delta_vth else ()
        # Broadcast grid against batch: grid axis first.
        vin = vin_grid.reshape((-1,) + (1,) * len(batch_shape))
        n_grid = len(vin_grid)
        shape = (n_grid,) + batch_shape
        residual = self._half_cell_residual(
            side, vin, float(bl_voltage), wl_voltage, delta_vth, shape
        )
        lo, hi = -0.2, self.vdd + 0.2
        if v0 is not None:
            seed = np.asarray(v0, dtype=np.float64)
            if seed.shape == shape:
                return _solve_monotone_node(residual, lo, hi, shape, v0=seed)
        if n_grid < 2 * _VTC_COARSE_STRIDE:
            return _solve_monotone_node(residual, lo, hi, shape)
        # Grid continuation: solve every ``stride``-th input point first,
        # then seed the full solve by linear interpolation along the grid
        # axis.  The VTC is continuous in the input voltage, so the
        # interpolant lands within a few Newton steps of the answer; the
        # full solve keeps the complete [lo, hi] bracket, so convergence
        # (and the bisection safety net) is untouched — only the Newton
        # starting point changes, within the solver tolerance.
        coarse_idx = np.arange(0, n_grid, _VTC_COARSE_STRIDE)
        if int(coarse_idx[-1]) != n_grid - 1:
            coarse_idx = np.append(coarse_idx, n_grid - 1)
        coarse_shape = (len(coarse_idx),) + batch_shape
        vin_coarse = vin_grid[coarse_idx]
        coarse_res = self._half_cell_residual(
            side, vin_coarse.reshape((-1,) + (1,) * len(batch_shape)),
            float(bl_voltage), wl_voltage, delta_vth, coarse_shape,
        )
        v_coarse = _solve_monotone_node(coarse_res, lo, hi, coarse_shape)
        interp = _interp_along_axis0(vin_grid, vin_coarse, v_coarse)
        return _solve_monotone_node(residual, lo, hi, shape, v0=interp)

    # ------------------------------------------------------- read state
    def solve_read_state(
        self,
        delta_vth: Optional[Mapping[str, np.ndarray]] = None,
        stored_zero_at_q: bool = True,
        newton_iterations: int = 80,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """DC state ``(v_q, v_qb)`` during a read access (WL=BL=BLB=VDD).

        The solve starts from the stored state, so if that state still exists
        it is returned; if large mismatch has destroyed it (static read
        upset) the solver lands on the flipped state — exactly the physics
        that makes the read-current failure region of Section V-B
        non-convex.

        Strategy: batched damped 2-D Newton for the bulk of the batch, then
        the monotone least-fixed-point construction
        (:meth:`_read_fixed_point`) for any members Newton left unconverged
        — typically samples at or past the read-upset fold, where Newton
        oscillates and relaxation slows critically, but where the bracketed
        fixed-point bisection stays O(log) regardless.
        """
        delta_vth = dict(delta_vth or {})
        batch_shape = np.broadcast_shapes(*(np.shape(d) for d in delta_vth.values())) \
            if delta_vth else ()
        vdd = self.vdd
        dev = self.devices
        d = {name: delta_vth.get(name, 0.0) for name in DEVICE_NAMES}

        def residuals(vq, vqb, d):
            i_pd_l, dg_pd_l, dd_pd_l, _ = dev["pd_l"].current_and_derivs(
                vqb, vq, 0.0, 0.0, d["pd_l"])
            i_pu_l, dg_pu_l, dd_pu_l, _ = dev["pu_l"].current_and_derivs(
                vqb, vq, vdd, vdd, d["pu_l"])
            i_ax_l, _, _, ds_ax_l = dev["ax_l"].current_and_derivs(
                vdd, vdd, vq, 0.0, d["ax_l"])
            i_pd_r, dg_pd_r, dd_pd_r, _ = dev["pd_r"].current_and_derivs(
                vq, vqb, 0.0, 0.0, d["pd_r"])
            i_pu_r, dg_pu_r, dd_pu_r, _ = dev["pu_r"].current_and_derivs(
                vq, vqb, vdd, vdd, d["pu_r"])
            i_ax_r, _, _, ds_ax_r = dev["ax_r"].current_and_derivs(
                vdd, vdd, vqb, 0.0, d["ax_r"])
            fq = i_pd_l + i_pu_l - i_ax_l
            fqb = i_pd_r + i_pu_r - i_ax_r
            j11 = dd_pd_l + dd_pu_l - ds_ax_l      # dfq/dvq
            j12 = dg_pd_l + dg_pu_l                # dfq/dvqb
            j21 = dg_pd_r + dg_pu_r                # dfqb/dvq
            j22 = dd_pd_r + dd_pu_r - ds_ax_r      # dfqb/dvqb
            return fq, fqb, j11, j12, j21, j22

        if stored_zero_at_q:
            init_q, init_qb = 0.05, vdd
        else:
            init_q, init_qb = vdd, 0.05

        # Flatten the batch so straggler compaction below stays simple.
        n_batch = int(np.prod(batch_shape)) if batch_shape else 1
        d_flat = {
            name: np.broadcast_to(
                np.asarray(val, dtype=np.float64), batch_shape).reshape(n_batch)
            for name, val in d.items()
        }
        vq = np.full((n_batch,), float(init_q), dtype=np.float64)
        vqb = np.full((n_batch,), float(init_qb), dtype=np.float64)

        # Residual tolerance: device currents are ~1e-4 A and node
        # conductances ~1e-4 S, so 3e-11 A resolves node voltages to well
        # under a microvolt — far tighter than any metric needs, yet loose
        # enough that near-fold (read-upset boundary) points, where Newton
        # slows to linear convergence, still terminate quickly.
        tol = 3e-11
        step_cap = 0.1

        def newton_pass(vq, vqb, deltas, iterations):
            converged = np.zeros(vq.shape, dtype=bool)
            for _ in range(iterations):
                fq, fqb, j11, j12, j21, j22 = residuals(vq, vqb, deltas)
                converged = (np.abs(fq) < tol) & (np.abs(fqb) < tol)
                if converged.all():
                    break
                det = j11 * j22 - j12 * j21
                safe = np.abs(det) > 1e-30
                inv_det = np.where(safe, 1.0 / np.where(safe, det, 1.0), 0.0)
                dvq = np.clip(-(j22 * fq - j12 * fqb) * inv_det, -step_cap, step_cap)
                dvqb = np.clip(-(-j21 * fq + j11 * fqb) * inv_det, -step_cap, step_cap)
                vq = np.clip(vq + np.where(converged, 0.0, dvq), -0.2, vdd + 0.2)
                vqb = np.clip(vqb + np.where(converged, 0.0, dvqb), -0.2, vdd + 0.2)
            return vq, vqb, converged

        # Phase 1: a short full-batch Newton settles the vast majority.
        first_pass = min(14, newton_iterations)
        vq, vqb, converged = newton_pass(vq, vqb, d_flat, first_pass)

        if not converged.all():
            # Phase 2: compact the stragglers — mostly read-upset cases
            # where the stored state no longer exists and Newton oscillates
            # around the fold — and resolve them with the monotone
            # fixed-point construction, which has no critical slowing.
            idx = np.nonzero(~converged)[0]
            d_sub = {name: val[idx] for name, val in d_flat.items()}
            vq_s, vqb_s = self._read_fixed_point(
                d_sub, stored_zero_at_q, len(idx)
            )
            vq[idx] = vq_s
            vqb[idx] = vqb_s

        return vq.reshape(batch_shape), vqb.reshape(batch_shape)

    def _read_fixed_point(self, delta, stored_zero_at_q, n_batch,
                          n_grid: int = 33, bisect_iters: int = 30):
        """Basin-correct read state via the monotone loop map.

        The read-configuration DC states are the fixed points of
        ``phi(v) = h_near(h_far(v))`` — the composition of the two
        half-cell responses — which is *increasing* (both responses are
        strictly decreasing).  By monotone-map theory, the state reachable
        from the stored value (low node near 0) is the **least** fixed
        point, i.e. the first sign change of ``psi(v) = phi(v) - v`` going
        up from the bottom of the range.  A vectorised grid scan brackets
        that crossing and bisection refines it: cost is independent of how
        close the cell sits to the read-upset fold, where Newton and
        relaxation methods slow critically.

        ``stored_zero_at_q`` selects which storage node is the low one;
        ``v`` always parametrises the *low* node.
        """
        vdd = self.vdd
        if stored_zero_at_q:
            near, far = "left", "right"
        else:
            near, far = "right", "left"

        def loop_map(v_low):
            """phi: low-node voltage -> far response -> near response."""
            shape = np.shape(v_low)
            far_res = self._half_cell_residual(far, v_low, vdd, vdd, delta, shape)
            v_far = _solve_monotone_node(far_res, -0.2, vdd + 0.2, shape)
            near_res = self._half_cell_residual(near, v_far, vdd, vdd, delta, shape)
            v_near = _solve_monotone_node(near_res, -0.2, vdd + 0.2, shape)
            return v_near, v_far

        grid = np.linspace(-0.1, vdd + 0.1, n_grid)
        grid_b = np.broadcast_to(grid[:, None], (n_grid, n_batch))
        phi, _ = loop_map(grid_b)
        psi = phi - grid_b
        # First + -> - transition: psi starts positive (phi maps the range
        # into itself) and ends negative.
        negative = psi < 0.0
        first_neg = np.argmax(negative.astype(np.int64), axis=0)
        first_neg = np.clip(first_neg, 1, n_grid - 1)
        lo = grid[first_neg - 1]
        hi = grid[first_neg]
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            phi_mid, _ = loop_map(mid)
            above = phi_mid >= mid
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        v_low = 0.5 * (lo + hi)
        _, v_far = loop_map(v_low)
        # Evaluate the near node once more so (v_low, v_far) is an exact
        # consistent pair at the fixed point.
        shape = np.shape(v_low)
        near_res = self._half_cell_residual(near, v_far, vdd, vdd, delta, shape)
        v_low = _solve_monotone_node(near_res, -0.2, vdd + 0.2, shape)
        if stored_zero_at_q:
            return v_low, v_far
        return v_far, v_low

    # ------------------------------------------------------ write timing
    def write_flip_time(
        self,
        delta_vth: Optional[Mapping[str, np.ndarray]] = None,
        node_capacitance: float = 5e-15,
        t_window: float = 150e-12,
        dt: float = 1e-12,
    ) -> np.ndarray:
        """Time (s) for a write-0 to pull ``q`` through VDD/2.

        The cell starts storing 1 at ``q``; at t = 0 the wordline is
        asserted with BL = 0 and BLB = VDD.  Backward-Euler integration of
        the two storage nodes (lumped ``node_capacitance`` each), with
        per-sample crossing detection; a cell that never flips inside
        ``t_window`` reports the full window, keeping the metric finite and
        monotone through the write-failure boundary.

        This is the specialised fast path behind
        :class:`repro.sram.dynamic.WriteTimeMetric`; it integrates only
        until every sample has either flipped or settled, which matters for
        the sequential single-sample evaluations of a Gibbs chain.
        """
        if node_capacitance <= 0 or dt <= 0 or t_window <= 0:
            raise ValueError("capacitance, dt and window must be positive")
        delta_vth = dict(delta_vth or {})
        batch_shape = np.broadcast_shapes(*(np.shape(v) for v in delta_vth.values())) \
            if delta_vth else ()
        n_batch = int(np.prod(batch_shape)) if batch_shape else 1
        d = {
            name: np.broadcast_to(
                np.asarray(delta_vth.get(name, 0.0), dtype=np.float64), batch_shape
            ).reshape(n_batch)
            for name in DEVICE_NAMES
        }
        vdd = self.vdd
        dev = self.devices

        def residuals(vq, vqb):
            # Left half in write configuration: access pulls q toward BL=0.
            i_pd, g_pd, dd_pd, _ = dev["pd_l"].current_and_derivs(
                vqb, vq, 0.0, 0.0, d["pd_l"])
            i_pu, g_pu, dd_pu, _ = dev["pu_l"].current_and_derivs(
                vqb, vq, vdd, vdd, d["pu_l"])
            i_ax, _, dd_ax, _ = dev["ax_l"].current_and_derivs(
                vdd, vq, 0.0, 0.0, d["ax_l"])
            fq = i_pd + i_pu + i_ax
            j11 = dd_pd + dd_pu + dd_ax
            j12 = g_pd + g_pu
            # Right half sees BLB = VDD (read-like).
            i_pd2, g_pd2, dd_pd2, _ = dev["pd_r"].current_and_derivs(
                vq, vqb, 0.0, 0.0, d["pd_r"])
            i_pu2, g_pu2, dd_pu2, _ = dev["pu_r"].current_and_derivs(
                vq, vqb, vdd, vdd, d["pu_r"])
            i_ax2, _, _, ds_ax2 = dev["ax_r"].current_and_derivs(
                vdd, vdd, vqb, 0.0, d["ax_r"])
            fqb = i_pd2 + i_pu2 - i_ax2
            j22 = dd_pd2 + dd_pu2 - ds_ax2
            j21 = g_pd2 + g_pu2
            return fq, fqb, j11, j12, j21, j22

        g_cap = node_capacitance / dt
        n_steps = int(np.ceil(t_window / dt))
        half = 0.5 * vdd
        vq = np.full((n_batch,), float(vdd), dtype=np.float64)
        vqb = np.zeros((n_batch,), dtype=np.float64)
        crossing = np.full((n_batch,), float(t_window), dtype=np.float64)
        crossed = np.zeros((n_batch,), dtype=bool)
        for step in range(1, n_steps + 1):
            vq_prev, vqb_prev = vq, vqb
            # Backward-Euler step via a short damped Newton.
            for _ in range(12):
                fq, fqb, j11, j12, j21, j22 = residuals(vq, vqb)
                fq = fq + g_cap * (vq - vq_prev)
                fqb = fqb + g_cap * (vqb - vqb_prev)
                j11 = j11 + g_cap
                j22 = j22 + g_cap
                det = j11 * j22 - j12 * j21
                dvq = -(j22 * fq - j12 * fqb) / det
                dvqb = -(-j21 * fq + j11 * fqb) / det
                vq = np.clip(vq + dvq, -0.2, vdd + 0.2)
                vqb = np.clip(vqb + dvqb, -0.2, vdd + 0.2)
                if max(float(np.max(np.abs(dvq))), float(np.max(np.abs(dvqb)))) < 1e-10:
                    break
            # Linear-interpolated downward crossing of vdd/2 on the q node.
            just = (~crossed) & (vq_prev >= half) & (vq < half)
            if just.any():
                frac = (vq_prev - half) / np.maximum(vq_prev - vq, 1e-30)
                crossing = np.where(
                    just, (step - 1 + np.clip(frac, 0.0, 1.0)) * dt, crossing
                )
                crossed = crossed | just
            # Stop once every sample has flipped or truly frozen (tight
            # tolerance: a near-write-failure trajectory creeps through a
            # saddle before accelerating, and must not be cut off there).
            moved = np.maximum(np.abs(vq - vq_prev), np.abs(vqb - vqb_prev))
            if (crossed | (moved < 1e-8)).all():
                break
        return crossing.reshape(batch_shape)

    # ------------------------------------------------------ read current
    def read_current(
        self, delta_vth: Optional[Mapping[str, np.ndarray]] = None
    ) -> np.ndarray:
        """Drain current of the left access transistor (M3) during read.

        This is the paper's Section V-B metric: WL and both bitlines at VDD,
        cell storing 0 at ``q``; the access device discharges the bitline
        through the left pull-down.  If mismatch statically flips the cell,
        the current collapses — the mechanism behind the non-convex failure
        region of Fig. 13.
        """
        delta_vth = dict(delta_vth or {})
        vq, _ = self.solve_read_state(delta_vth, stored_zero_at_q=True)
        ax = self.devices["ax_l"]
        return ax.current(self.vdd, self.vdd, vq, 0.0, delta_vth.get("ax_l", 0.0))

    def __repr__(self) -> str:
        g = self.geometries
        return (
            f"SixTransistorCell(vdd={self.vdd} V, "
            f"pd={g['pull_down'].ratio:.1f}, ax={g['access'].ratio:.1f}, "
            f"pu={g['pull_up'].ratio:.1f})"
        )
