"""Circuit description: nodes and elements.

The netlist layer is deliberately small — ground-referenced nodes, MOSFETs,
resistors and current sources, with ideal voltage sources expressed as node
clamps at solve time.  That covers every circuit in the paper (the 6-T cell
and its read/write testbenches) as well as the custom-circuit example, while
keeping the solver purely nodal.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.devices.mosfet import Mosfet, MosfetParams

#: Canonical name of the ground node.
GROUND = "0"


class Element:
    """Base class for circuit elements.

    Subclasses define ``nodes`` (terminal node names, order fixed per class)
    and :meth:`kcl_contributions`, which returns per-terminal currents
    *leaving* each node and their partial derivatives with respect to the
    terminal voltages.
    """

    name: str
    nodes: Tuple[str, ...]

    def kcl_contributions(self, voltages, **params):
        """Return ``(currents, jacobian)``.

        ``voltages`` is a tuple of arrays, one per terminal in ``self.nodes``
        order.  ``currents[i]`` is the current leaving ``self.nodes[i]``;
        ``jacobian[i][j]`` is ``d currents[i] / d voltages[j]``.
        """
        raise NotImplementedError


class MosfetElement(Element):
    """A MOSFET connected drain/gate/source/bulk.

    The bulk must be a clamped node (a supply rail); the solver treats the
    device as a three-terminal element whose currents depend parametrically
    on the bulk potential, which is exact for rail-tied wells.
    """

    def __init__(
        self,
        name: str,
        params: MosfetParams,
        drain: str,
        gate: str,
        source: str,
        bulk: str = GROUND,
    ):
        self.name = name
        self.device = Mosfet(params)
        self.nodes = (drain, gate, source, bulk)

    def kcl_contributions(self, voltages, delta_vth=0.0):
        vd, vg, vs, vb = voltages
        ids, d_dvg, d_dvd, d_dvs = self.device.current_and_derivs(
            vg, vd, vs, vb, delta_vth
        )
        zero = np.zeros_like(ids)
        # By translation invariance the bulk partial is minus the sum of the
        # other three; it only matters if the bulk were a free node.
        d_dvb = -(d_dvg + d_dvd + d_dvs)
        # Positive ids flows drain -> source inside the device, so it leaves
        # the drain node and enters the source node.
        currents = (ids, zero, -ids, zero)
        jacobian = (
            (d_dvd, d_dvg, d_dvs, d_dvb),
            (zero, zero, zero, zero),
            (-d_dvd, -d_dvg, -d_dvs, -d_dvb),
            (zero, zero, zero, zero),
        )
        return currents, jacobian

    def branch_current(self, voltages, delta_vth=0.0):
        """Drain current given terminal voltages (drain, gate, source, bulk)."""
        vd, vg, vs, vb = voltages
        return self.device.current(vg, vd, vs, vb, delta_vth)

    def __repr__(self) -> str:
        d, g, s, b = self.nodes
        return f"MosfetElement({self.name}: d={d} g={g} s={s} b={b})"


class Resistor(Element):
    """A linear resistor between nodes ``a`` and ``b``."""

    def __init__(self, name: str, resistance: float, a: str, b: str):
        if resistance <= 0:
            raise ValueError(f"resistance must be positive, got {resistance}")
        self.name = name
        self.resistance = float(resistance)
        self.nodes = (a, b)

    def kcl_contributions(self, voltages):
        va, vb = voltages
        g = 1.0 / self.resistance
        i = (va - vb) * g
        shape = getattr(i, "shape", ())
        if shape:
            g_arr = np.broadcast_to(np.asarray(g, dtype=i.dtype), shape)
        else:
            g_arr = g
        currents = (i, -i)
        jacobian = ((g_arr, -g_arr), (-g_arr, g_arr))
        return currents, jacobian

    def branch_current(self, voltages):
        va, vb = voltages
        return (va - vb) / self.resistance


class CurrentSource(Element):
    """An ideal DC current source driving ``current`` from node ``a`` to ``b``."""

    def __init__(self, name: str, current: float, a: str, b: str):
        self.name = name
        self.current = float(current)
        self.nodes = (a, b)

    def kcl_contributions(self, voltages):
        va, vb = voltages
        shape = getattr(va, "shape", ())
        i = np.full(shape, self.current, dtype=np.float64)
        zero = np.zeros_like(i)
        currents = (i, -i)
        jacobian = ((zero, zero), (zero, zero))
        return currents, jacobian

    def branch_current(self, voltages):
        va, _ = voltages
        return np.full(getattr(va, "shape", ()), self.current, dtype=np.float64)


class Circuit:
    """A named collection of elements over ground-referenced nodes."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.elements: List[Element] = []
        self._by_name: Dict[str, Element] = {}
        self._nodes: List[str] = [GROUND]

    # -------------------------------------------------------------- build
    def add(self, element: Element) -> Element:
        if element.name in self._by_name:
            raise ValueError(f"duplicate element name {element.name!r}")
        self._by_name[element.name] = element
        self.elements.append(element)
        for node in element.nodes:
            if node not in self._nodes:
                self._nodes.append(node)
        return element

    def add_mosfet(
        self,
        name: str,
        params: MosfetParams,
        drain: str,
        gate: str,
        source: str,
        bulk: str = GROUND,
    ) -> MosfetElement:
        return self.add(MosfetElement(name, params, drain, gate, source, bulk))

    def add_resistor(self, name: str, resistance: float, a: str, b: str) -> Resistor:
        return self.add(Resistor(name, resistance, a, b))

    def add_current_source(self, name: str, current: float, a: str, b: str) -> CurrentSource:
        return self.add(CurrentSource(name, current, a, b))

    # ------------------------------------------------------------ queries
    @property
    def nodes(self) -> List[str]:
        """All node names, ground first."""
        return list(self._nodes)

    def element(self, name: str) -> Element:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no element named {name!r} in circuit {self.name!r}") from None

    def __repr__(self) -> str:
        return f"Circuit({self.name!r}, {len(self.elements)} elements, {len(self._nodes)} nodes)"
