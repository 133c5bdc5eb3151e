"""Pipeline-register overhead model.

Every pipeline stage boundary holds the architectural and control state of
in-flight instructions in flip-flops. The clock energy of these registers
is a large, always-on term (a big part of why deep pipelines burn power),
so McPAT accounts for it explicitly per core.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.flipflop import FlipFlop
from repro.fastpath import cached_property
from repro.tech import Technology


@dataclass(frozen=True)
class PipelineRegisters:
    """Flip-flop state at the pipeline-stage boundaries of a core.

    Attributes:
        tech: Technology operating point.
        stages: Pipeline depth.
        bits_per_stage: Latched bits per stage per lane (datapath +
            control; ~2-3x the machine word in practice).
        lanes: Superscalar width replicating each boundary.
    """

    tech: Technology
    stages: int
    bits_per_stage: int = 160
    lanes: int = 1

    def __post_init__(self) -> None:
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        if self.bits_per_stage < 1:
            raise ValueError("bits_per_stage must be >= 1")
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")

    @property
    def flop_count(self) -> int:
        """Total pipeline flops."""
        return self.stages * self.bits_per_stage * self.lanes

    @cached_property
    def _flop(self) -> FlipFlop:
        return FlipFlop(self.tech)

    @cached_property
    def clock_energy_per_cycle(self) -> float:
        """Clock-pin energy every cycle (J)."""
        return self.flop_count * self._flop.clock_energy_per_cycle

    @cached_property
    def data_energy_per_cycle(self) -> float:
        """Data-capture energy with typical (~25%) bit activity (J)."""
        return (
            0.25 * self.flop_count * self._flop.data_energy_per_transition
        )

    def dynamic_power(self, clock_hz: float, activity: float = 1.0) -> float:
        """Runtime power: clock always toggles, data scales by activity (W)."""
        if clock_hz < 0 or not 0.0 <= activity <= 1.0:
            raise ValueError("clock must be >= 0 and activity within [0, 1]")
        return clock_hz * (
            self.clock_energy_per_cycle
            + activity * self.data_energy_per_cycle
        )

    @cached_property
    def leakage_power(self) -> float:
        """Static power (W)."""
        return self.flop_count * self._flop.leakage_power

    @cached_property
    def area(self) -> float:
        """Layout area (m^2)."""
        return self.flop_count * self._flop.area
