"""Core control/steering logic census.

Beyond the named arrays and functional units, a real core contains a sea
of control logic: pipeline steering, hazard detection, thread selection,
exception handling, and the glue around every structure. McPAT accounts
for this with gate censuses; empirically it is a large fraction of core
power and area. The census here scales with superscalar width, hardware
threading, and OOO-ness, and its electrical behavior comes entirely from
the target node's gate model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.gates import Gate, GateKind
from repro.config.schema import CoreConfig
from repro.fastpath import cached_property
from repro.tech import Technology

#: Placed logic achieves roughly 50% cell utilization; the footprint is
#: this multiple of the summed cell areas.
LOGIC_PLACEMENT_FACTOR = 2.0

#: Census coefficients (gate equivalents).
_BASE_GATES = 300_000
_GATES_PER_ISSUE = 350_000
_GATES_PER_THREAD = 60_000
_OOO_EXTRA_GATES = 400_000
_X86_EXTRA_GATES = 1_500_000  # trace cache fill, length decode, microcode

#: Deeper pipelines replicate stage control; census grows by
#: ``1 + stages / _PIPELINE_DEPTH_SCALE``.
_PIPELINE_DEPTH_SCALE = 50.0

#: Fraction of control gates toggling each active cycle.
_CONTROL_ACTIVITY = 0.2


def core_control_gate_count(config: CoreConfig) -> int:
    """Estimate the control-logic gate census of a core."""
    gates = (
        _BASE_GATES
        + _GATES_PER_ISSUE * config.issue_width
        + _GATES_PER_THREAD * config.hardware_threads
    )
    if config.is_ooo:
        gates += _OOO_EXTRA_GATES
    if config.is_x86:
        gates += _X86_EXTRA_GATES
    depth_factor = 1.0 + config.pipeline_stages / _PIPELINE_DEPTH_SCALE
    return int(gates * depth_factor)


@dataclass(frozen=True)
class ControlLogic:
    """A census of random control logic.

    Attributes:
        tech: Technology operating point.
        gate_count: NAND2-equivalent gates.
        activity: Fraction toggling per active cycle.
    """

    tech: Technology
    gate_count: int
    activity: float = _CONTROL_ACTIVITY

    def __post_init__(self) -> None:
        if self.gate_count < 0:
            raise ValueError("gate_count must be non-negative")
        if not 0.0 <= self.activity <= 1.0:
            raise ValueError("activity must be within [0, 1]")

    @classmethod
    def for_core(cls, tech: Technology, config: CoreConfig) -> "ControlLogic":
        """Build the census for one core."""
        return cls(tech=tech, gate_count=core_control_gate_count(config))

    @cached_property
    def _gate(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)

    @cached_property
    def energy_per_cycle(self) -> float:
        """Dynamic energy per active cycle (J)."""
        per_gate = self._gate.switching_energy(
            2 * self._gate.input_capacitance
        )
        return self.gate_count * self.activity * per_gate

    def dynamic_power(self, clock_hz: float, duty: float = 1.0) -> float:
        """Runtime dynamic power (W)."""
        if clock_hz < 0 or not 0.0 <= duty <= 1.0:
            raise ValueError("clock must be >= 0 and duty within [0, 1]")
        return self.energy_per_cycle * clock_hz * duty

    @cached_property
    def leakage_power(self) -> float:
        """Static power (W)."""
        return self.gate_count * self._gate.leakage_power

    @cached_property
    def area(self) -> float:
        """Placed footprint (m^2)."""
        return self.gate_count * self._gate.area * LOGIC_PLACEMENT_FACTOR
