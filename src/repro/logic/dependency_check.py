"""Inter-instruction dependency-check logic for superscalar rename.

A ``w``-wide rename stage compares every later instruction's sources to
every earlier instruction's destination within the group: that is
``w * (w - 1) / 2`` destination slots times the number of source operands,
each a ``tag_bits`` comparator. The quadratic growth of this block with
issue width is one of McPAT's signature OOO-cost effects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.gates import Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology

#: Gate-equivalents of a b-bit equality comparator per bit (XNOR + AND tree).
_COMPARATOR_GATES_PER_BIT = 1.5


@dataclass(frozen=True)
class DependencyCheck:
    """Rename-group dependency comparators.

    Attributes:
        tech: Technology operating point.
        width: Instructions renamed per cycle.
        tag_bits: Architectural register specifier width.
        sources_per_instruction: Source operands compared per instruction.
    """

    tech: Technology
    width: int
    tag_bits: int = 5
    sources_per_instruction: int = 2

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.tag_bits < 1:
            raise ValueError("tag_bits must be >= 1")
        if self.sources_per_instruction < 0:
            raise ValueError("sources must be non-negative")

    @property
    def comparator_count(self) -> int:
        """Number of tag comparators (quadratic in width)."""
        pairs = self.width * (self.width - 1) // 2
        return pairs * self.sources_per_instruction

    @cached_property
    def _gate(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=1.0)

    @cached_property
    def _gates_total(self) -> float:
        return (
            self.comparator_count
            * self.tag_bits
            * _COMPARATOR_GATES_PER_BIT
        )

    @cached_property
    def energy_per_cycle(self) -> float:
        """Dynamic energy of one rename-group check (J)."""
        per_gate = self._gate.switching_energy(
            2 * self._gate.input_capacitance
        )
        return self._gates_total * 0.5 * per_gate

    @cached_property
    def leakage_power(self) -> float:
        """Static power (W)."""
        return self._gates_total * self._gate.leakage_power

    @cached_property
    def area(self) -> float:
        """Layout area (m^2)."""
        return self._gates_total * self._gate.area
