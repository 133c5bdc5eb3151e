"""Matrix crossbar model (Orion-style), used for NoC routers and the
Niagara-style core-to-cache crossbar.

An ``n_in x n_out`` crossbar of ``width``-bit ports is laid out as a wire
matrix: every input drives a horizontal wire spanning all output columns,
every output is a vertical wire spanning all input rows, and a tri-state
connector sits at each crosspoint. Area is the wire-matrix footprint;
per-transfer energy charges one full row, one full column, and the
connector drivers; delay is the Elmore delay of the worst-case path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.gates import Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology
from repro.tech.wire import WireType

#: Drive strength of each crosspoint tri-state driver.
_CROSSPOINT_SIZE = 8.0

#: Tri-state crosspoint is roughly two gate-equivalents of devices.
_CROSSPOINT_GATE_EQUIV = 2.0


@dataclass(frozen=True)
class Crossbar:
    """A matrix crossbar switch.

    Attributes:
        tech: Technology operating point.
        n_inputs: Number of input ports.
        n_outputs: Number of output ports.
        width_bits: Data width of each port.
    """

    tech: Technology
    n_inputs: int
    n_outputs: int
    width_bits: int

    def __post_init__(self) -> None:
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise ValueError("crossbar needs at least one input and output")
        if self.width_bits < 1:
            raise ValueError("width must be at least one bit")

    @cached_property
    def _wire(self):
        return self.tech.wire(WireType.SEMI_GLOBAL)

    @cached_property
    def _track_pitch(self) -> float:
        return self._wire.pitch

    @cached_property
    def width(self) -> float:
        """Physical width spanned by the output columns (m)."""
        return self.n_outputs * self.width_bits * self._track_pitch

    @cached_property
    def height(self) -> float:
        """Physical height spanned by the input rows (m)."""
        return self.n_inputs * self.width_bits * self._track_pitch

    @cached_property
    def area(self) -> float:
        """Wire-matrix footprint (m^2)."""
        return self.width * self.height

    @cached_property
    def _crosspoint_gate(self) -> Gate:
        return Gate(self.tech, GateKind.INV, size=_CROSSPOINT_SIZE)

    def _row_capacitance(self) -> float:
        """Capacitance of one input (horizontal) wire (F)."""
        wire_cap = self._wire.capacitance_per_length * self.width
        # Each column hangs a crosspoint drain on the row wire.
        drain_cap = (
            self.n_outputs
            * self._crosspoint_gate.self_capacitance
        )
        return wire_cap + drain_cap

    def _column_capacitance(self) -> float:
        """Capacitance of one output (vertical) wire (F)."""
        wire_cap = self._wire.capacitance_per_length * self.height
        drain_cap = (
            self.n_inputs * self._crosspoint_gate.self_capacitance
        )
        return wire_cap + drain_cap

    @cached_property
    def energy_per_transfer(self) -> float:
        """Dynamic energy to move one ``width_bits`` flit through (J).

        Assumes half the bits toggle (random data), the standard activity
        assumption for datapath wires.
        """
        vdd = self.tech.vdd
        per_bit = (
            self._row_capacitance()
            + self._column_capacitance()
            + self._crosspoint_gate.input_capacitance
        ) * vdd**2
        return 0.5 * self.width_bits * per_bit

    @cached_property
    def delay(self) -> float:
        """Worst-case input-to-output propagation delay (s)."""
        driver = Gate(self.tech, GateKind.INV, size=_CROSSPOINT_SIZE * 2)
        row_delay = driver.delay(self._row_capacitance())
        column_delay = self._crosspoint_gate.delay(self._column_capacitance())
        wire_rc = 0.38 * (
            self._wire.rc_per_length_squared
            * (self.width**2 + self.height**2)
        )
        return row_delay + column_delay + wire_rc

    @cached_property
    def leakage_power(self) -> float:
        """Static power of all crosspoint drivers (W)."""
        crosspoints = self.n_inputs * self.n_outputs * self.width_bits
        return (
            crosspoints
            * _CROSSPOINT_GATE_EQUIV
            * self._crosspoint_gate.leakage_power
        )
