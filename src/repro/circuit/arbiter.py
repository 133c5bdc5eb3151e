"""Matrix arbiter model for router switch/VC allocation and shared buses.

An ``n``-requester matrix arbiter keeps an ``n x (n-1) / 2`` priority
matrix in flip-flops and computes grants with ~2 gates per matrix cell.
The model follows Orion's gate-census approach, built on our gate and
flip-flop primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.flipflop import FlipFlop
from repro.circuit.gates import Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology


@dataclass(frozen=True)
class Arbiter:
    """A matrix arbiter among ``n_requesters``.

    Attributes:
        tech: Technology operating point.
        n_requesters: Number of request inputs (>= 2).
    """

    tech: Technology
    n_requesters: int

    def __post_init__(self) -> None:
        if self.n_requesters < 2:
            raise ValueError("an arbiter needs at least two requesters")

    @cached_property
    def _priority_cells(self) -> int:
        n = self.n_requesters
        return n * (n - 1) // 2

    @cached_property
    def _grant_gates(self) -> int:
        # Per requester: an (n-1)-input AND-tree of priority terms plus the
        # request qualify gate; ~n gate-equivalents each.
        return self.n_requesters * self.n_requesters

    @cached_property
    def _nand(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)

    @cached_property
    def _flop(self) -> FlipFlop:
        return FlipFlop(self.tech, size=1.0)

    @cached_property
    def energy_per_arbitration(self) -> float:
        """Dynamic energy of one grant decision (J).

        Roughly a third of the grant logic toggles per decision, and the
        winner's priority row updates.
        """
        logic = (
            self._grant_gates
            / 3.0
            * self._nand.switching_energy(self._nand.input_capacitance)
        )
        priority_update = (self.n_requesters - 1) * (
            self._flop.data_energy_per_transition
        )
        return logic + priority_update

    @cached_property
    def clock_energy_per_cycle(self) -> float:
        """Clock energy of the priority flops every cycle (J)."""
        return self._priority_cells * self._flop.clock_energy_per_cycle

    @cached_property
    def delay(self) -> float:
        """Grant-computation delay: the AND-tree critical path (s)."""
        import math

        depth = max(1, math.ceil(math.log2(max(2, self.n_requesters))))
        return depth * self._nand.delay(4 * self._nand.input_capacitance)

    @cached_property
    def leakage_power(self) -> float:
        """Static power of matrix flops plus grant logic (W)."""
        return (
            self._priority_cells * self._flop.leakage_power
            + self._grant_gates * self._nand.leakage_power
        )

    @cached_property
    def area(self) -> float:
        """Layout area (m^2)."""
        return (
            self._priority_cells * self._flop.area
            + self._grant_gates * self._nand.area
        )
