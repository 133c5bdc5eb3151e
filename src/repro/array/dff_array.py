"""Latch/flip-flop based arrays for small buffers.

Structures of a few dozen entries (instruction buffers, small FIFOs, rename
checkpoints) are built from DFFs with mux-tree read ports rather than SRAM,
which is what McPAT does below the SRAM crossover point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.array.spec import ArraySpec
from repro.circuit.flipflop import FlipFlop
from repro.circuit.gates import Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology

#: Wiring/placement overhead of a synthesized register block.
_PLACEMENT_OVERHEAD = 1.25


@dataclass(frozen=True)
class DffArrayModel:
    """A DFF-based storage block with mux-tree reads.

    Attributes:
        tech: Technology operating point.
        spec: Array specification (cell_type should be DFF).
    """

    tech: Technology
    spec: ArraySpec

    @cached_property
    def _flop(self) -> FlipFlop:
        return FlipFlop(self.tech)

    @cached_property
    def _mux_gate(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)

    @property
    def _bit_count(self) -> int:
        return self.spec.entries_per_bank * self.spec.width_bits

    @cached_property
    def _mux_depth(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.spec.entries_per_bank))))

    # -- timing -------------------------------------------------------------

    @cached_property
    def access_time(self) -> float:
        """Read-mux traversal time (s)."""
        per_level = self._mux_gate.delay(4 * self._mux_gate.input_capacitance)
        return self._mux_depth * per_level

    @cached_property
    def cycle_time(self) -> float:
        """A DFF array cycles every clock; limited by the mux tree (s)."""
        return self.access_time

    # -- energy -------------------------------------------------------------

    @cached_property
    def read_energy(self) -> float:
        """Mux tree switching for one read of the full width (J)."""
        per_bit_muxes = self._mux_depth
        per_mux = self._mux_gate.switching_energy(
            2 * self._mux_gate.input_capacitance
        )
        # Roughly half the tree toggles with random data.
        return 0.5 * self.spec.width_bits * per_bit_muxes * per_mux

    @cached_property
    def write_energy(self) -> float:
        """Capturing a full-width entry, half the bits flipping (J)."""
        decode = self._mux_depth * self._mux_gate.switching_energy(
            4 * self._mux_gate.input_capacitance
        )
        data = (
            0.5 * self.spec.width_bits * self._flop.data_energy_per_transition
        )
        return decode + data

    @cached_property
    def clock_energy_per_cycle(self) -> float:
        """Clock pin energy of every flop, every cycle (J)."""
        return self._bit_count * self._flop.clock_energy_per_cycle

    @cached_property
    def leakage_power(self) -> float:
        """Static power of flops and mux trees (W)."""
        flops = self._bit_count * self._flop.leakage_power
        muxes = (
            self.spec.width_bits
            * self.spec.entries_per_bank
            * self._mux_gate.leakage_power
        )
        return flops + muxes

    # -- area ----------------------------------------------------------------

    @cached_property
    def area(self) -> float:
        """Placed-and-routed footprint (m^2)."""
        flops = self._bit_count * self._flop.area
        muxes = (
            self.spec.width_bits
            * self.spec.entries_per_bank
            * self._mux_gate.area
        )
        return (flops + muxes) * _PLACEMENT_OVERHEAD

    @cached_property
    def width(self) -> float:
        return math.sqrt(self.area)

    @cached_property
    def height(self) -> float:
        return math.sqrt(self.area)
