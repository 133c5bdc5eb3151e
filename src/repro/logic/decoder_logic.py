"""Instruction decoder model.

RISC decoders are a few thousand gate equivalents of structured logic;
x86-class decoders (with their microcode ROM and length decode) are more
than an order of magnitude larger. Both are modeled as gate censuses on
top of the standard-cell gate model, which is McPAT's approach for the
front-end random logic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.gates import Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology

#: Gate-equivalents of one RISC decode lane.
_RISC_GATES_PER_LANE = 3_000

#: Gate-equivalents of one x86 decode lane (incl. amortized ucode ROM).
_X86_GATES_PER_LANE = 45_000

#: Fraction of decoder gates toggling per decoded instruction.
_DECODE_ACTIVITY = 0.3


@dataclass(frozen=True)
class InstructionDecoder:
    """A ``decode_width``-lane instruction decoder.

    Attributes:
        tech: Technology operating point.
        decode_width: Instructions decoded per cycle.
        is_x86: CISC decode (bigger, hungrier).
    """

    tech: Technology
    decode_width: int = 1
    is_x86: bool = False

    def __post_init__(self) -> None:
        if self.decode_width < 1:
            raise ValueError("decode_width must be >= 1")

    @property
    def gate_count(self) -> int:
        """Total gate-equivalents."""
        per_lane = _X86_GATES_PER_LANE if self.is_x86 else _RISC_GATES_PER_LANE
        return self.decode_width * per_lane

    @cached_property
    def _gate(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)

    @cached_property
    def energy_per_instruction(self) -> float:
        """Dynamic energy to decode one instruction (J)."""
        per_lane = self.gate_count / self.decode_width
        per_gate = self._gate.switching_energy(
            2 * self._gate.input_capacitance
        )
        return per_lane * _DECODE_ACTIVITY * per_gate

    @cached_property
    def leakage_power(self) -> float:
        """Static power (W)."""
        return self.gate_count * self._gate.leakage_power

    @cached_property
    def area(self) -> float:
        """Layout area (m^2)."""
        return self.gate_count * self._gate.area

    def dynamic_power(self, instructions_per_second: float) -> float:
        """Runtime dynamic power (W)."""
        if instructions_per_second < 0:
            raise ValueError("rate must be non-negative")
        return instructions_per_second * self.energy_per_instruction
