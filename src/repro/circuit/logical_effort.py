"""Logical-effort buffer-chain sizing.

CACTI/McPAT size every large driver (wordline drivers, predecoder drivers,
output drivers, H-tree buffers) as a geometric chain of inverters whose
per-stage effort is close to the optimum of ~4. :class:`BufferChain`
captures one such chain and reports its delay, per-event energy, leakage,
and area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.circuit.gates import Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology

#: Optimum stage effort; 4 is the classical sweet spot once parasitics are
#: accounted for (the pure-math optimum is e).
OPTIMAL_STAGE_EFFORT = 4.0


def optimal_stage_count(path_effort: float) -> int:
    """Number of inverter stages that minimizes delay for a path effort.

    Args:
        path_effort: Ratio of load capacitance to input capacitance times
            the path logical effort (>= 1 yields >= 1 stage).
    """
    if path_effort <= 0:
        raise ValueError(f"path effort must be positive, got {path_effort}")
    if path_effort <= 1.0:
        return 1
    stages = round(math.log(path_effort) / math.log(OPTIMAL_STAGE_EFFORT))
    return max(1, stages)


@dataclass(frozen=True)
class BufferChain:
    """A geometrically sized inverter chain driving a capacitive load.

    Attributes:
        tech: Technology operating point.
        load_capacitance: Final load the chain must drive (F).
        input_size: Drive strength of the first inverter (min-inverter
            multiples); the capacitance seen by whatever drives the chain.
    """

    tech: Technology
    load_capacitance: float  # repro: dim[load_capacitance: f]
    input_size: float = 1.0  # repro: dim[input_size: 1]

    def __post_init__(self) -> None:
        if self.load_capacitance < 0:
            raise ValueError("load capacitance must be non-negative")
        if self.input_size <= 0:
            raise ValueError("input size must be positive")

    @cached_property
    def _first_gate(self) -> Gate:
        return Gate(self.tech, GateKind.INV, size=self.input_size)

    @cached_property
    def stage_count(self) -> int:
        """Number of inverters in the chain."""
        c_in = self._first_gate.input_capacitance
        if self.load_capacitance <= c_in:
            return 1
        return optimal_stage_count(self.load_capacitance / c_in)

    @cached_property
    def stage_effort(self) -> float:
        """Realized per-stage effort (fanout)."""
        c_in = self._first_gate.input_capacitance
        ratio = max(1.0, self.load_capacitance / c_in)
        return ratio ** (1.0 / self.stage_count)

    @cached_property
    def stages(self) -> tuple[Gate, ...]:
        """The sized gates, input to output.

        Solved once per chain instance; traced as a *detail* span (these
        fire thousands of times per cold evaluation, so they are only
        recorded under ``obs.enable(detail=True)``).
        """
        with obs.span("circuit.logical_effort.solve", detail=True,
                      stages=self.stage_count):
            return tuple(
                Gate(
                    self.tech,
                    GateKind.INV,
                    size=self.input_size * self.stage_effort**i,
                )
                for i in range(self.stage_count)
            )

    @property
    def input_capacitance(self) -> float:  # repro: dim[return: f]
        """Capacitance presented to the driver of this chain (F)."""
        return self._first_gate.input_capacitance

    @cached_property
    def delay(self) -> float:  # repro: dim[return: s]
        """Propagation delay through the chain into the load (s)."""
        total = 0.0
        gates = self.stages
        for i, gate in enumerate(gates):
            if i + 1 < len(gates):
                load = gates[i + 1].input_capacitance
            else:
                load = self.load_capacitance
            total += gate.delay(load)
        return total

    @cached_property
    def energy_per_transition(self) -> float:  # repro: dim[return: j]
        """Dynamic energy of one full propagation incl. the load (J)."""
        total = 0.0
        gates = self.stages
        for i, gate in enumerate(gates):
            if i + 1 < len(gates):
                load = gates[i + 1].input_capacitance
            else:
                load = self.load_capacitance
            total += gate.switching_energy(load)
        return total

    @cached_property
    def leakage_power(self) -> float:  # repro: dim[return: w]
        """Total static power of the chain (W)."""
        return sum(gate.leakage_power for gate in self.stages)

    @cached_property
    def area(self) -> float:  # repro: dim[return: m2]
        """Total layout area of the chain (m^2)."""
        return sum(gate.area for gate in self.stages)
