"""Empirical functional-unit models (integer ALU, FPU, multiplier/divider).

Reference energies and areas are taken at 90 nm from the published
datapoints McPAT itself calibrated against (Sun Niagara and Alpha class
execution units) and scaled to the target node with the
:mod:`repro.tech.scaling` rules: dynamic energy by ``C*Vdd^2``, area by the
ideal shrink, leakage re-derived from the target node's device leakage per
unit area.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.circuit.gates import Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology
from repro.tech.scaling import area_scale, dynamic_energy_scale

#: Node the reference datapoints are calibrated at.
_REFERENCE_NODE_NM = 90

#: Fraction of a logic block's devices that are actively leaking relative
#: to the gate-model density of its area (layout is less dense than the
#: standard-cell estimate).
_LEAKAGE_DENSITY_FACTOR = 0.5


class FunctionalUnitKind(str, Enum):
    """Execution-unit families with distinct cost points."""

    INT_ALU = "int_alu"
    FPU = "fpu"
    MUL_DIV = "mul_div"


@dataclass(frozen=True)
class _ReferencePoint:
    """Calibrated per-unit datapoint at the reference node (64-bit)."""

    energy_per_op: float  # repro: dim[energy_per_op: j]
    area: float  # repro: dim[area: m2]


# 90 nm, 64-bit units. The energies cover the whole execution lane — the
# arithmetic arrays plus operand steering, flag/control logic, and the
# local result drive — which is what published per-lane measurements
# capture (a bare 64-bit adder alone would be ~10x cheaper).
_REFERENCE: dict[FunctionalUnitKind, _ReferencePoint] = {
    FunctionalUnitKind.INT_ALU: _ReferencePoint(25.0e-12, 0.280e-6),
    FunctionalUnitKind.FPU: _ReferencePoint(120.0e-12, 1.200e-6),
    FunctionalUnitKind.MUL_DIV: _ReferencePoint(60.0e-12, 0.500e-6),
}

#: Reference datapath width the table is calibrated at.
_REFERENCE_WIDTH_BITS = 64


@dataclass(frozen=True)
class FunctionalUnit:
    """A bank of identical functional units.

    Attributes:
        tech: Technology operating point.
        kind: Unit family.
        count: Number of identical units.
        width_bits: Datapath width; costs scale ~linearly in width for the
            ALU and ~quadratically for multiplier-class units.
    """

    tech: Technology
    kind: FunctionalUnitKind
    count: int = 1
    width_bits: int = 64

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")
        if self.width_bits < 1:
            raise ValueError("width_bits must be positive")

    @property
    def _width_factor(self) -> float:
        ratio = self.width_bits / _REFERENCE_WIDTH_BITS
        if self.kind is FunctionalUnitKind.INT_ALU:
            return ratio
        return ratio**1.5  # multiplier arrays grow superlinearly

    @cached_property
    def energy_per_op(self) -> float:  # repro: dim[return: j]
        """Dynamic energy of one operation on one unit (J)."""
        ref = _REFERENCE[self.kind]
        scale = dynamic_energy_scale(
            _REFERENCE_NODE_NM, self.tech.node_nm, self.tech.device_type
        )
        return ref.energy_per_op * scale * self._width_factor

    @cached_property
    def area_per_unit(self) -> float:  # repro: dim[return: m2]
        """Silicon area of one unit (m^2)."""
        ref = _REFERENCE[self.kind]
        return (
            ref.area
            * area_scale(_REFERENCE_NODE_NM, self.tech.node_nm)
            * self._width_factor
        )

    @cached_property
    def area(self) -> float:  # repro: dim[return: m2]
        """Total area of the bank (m^2)."""
        return self.count * self.area_per_unit

    @cached_property
    def leakage_power(self) -> float:  # repro: dim[return: w]
        """Static power of the bank, derived from target-node devices (W)."""
        gate = Gate(self.tech, GateKind.NAND, fanin=2)
        leakage_per_area = gate.leakage_power / gate.area
        return self.area * leakage_per_area * _LEAKAGE_DENSITY_FACTOR

    def dynamic_power(self, ops_per_second: float) -> float:  # repro: dim[ops_per_second: hz, return: w]
        """Runtime dynamic power of the bank (W)."""
        if ops_per_second < 0:
            raise ValueError("ops_per_second must be non-negative")
        return ops_per_second * self.energy_per_op

    def peak_dynamic_power(self, clock_hz: float, duty: float = 1.0) -> float:  # repro: dim[clock_hz: hz, duty: 1, return: w]
        """TDP-style dynamic power: every unit busy ``duty`` of cycles (W)."""
        if clock_hz < 0 or not 0.0 <= duty <= 1.0:
            raise ValueError("clock must be >= 0 and duty within [0, 1]")
        return self.count * clock_hz * duty * self.energy_per_op
