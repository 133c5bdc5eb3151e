"""Master-slave D flip-flop model.

Pipeline registers, FIFO/buffer entries, and the leaves of the clock
network are all DFFs. The model is the standard 24-transistor transmission
gate master-slave flop: per-clock energy (the clock pins toggle every
cycle), per-data-transition energy, leakage, and standard-cell area.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit import transistor
from repro.circuit.gates import SHORT_CIRCUIT_FRACTION, Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology

#: Transistor count of a transmission-gate master-slave DFF.
_DFF_TRANSISTORS = 24

#: Number of minimum-gate-equivalents loading the clock pin (the two
#: transmission gate pairs plus local clock inverters).
_CLOCK_LOAD_GATES = 4.0

#: Fraction of the flop's devices that switch on a data transition.
_DATA_SWITCH_FRACTION = 0.5


@dataclass(frozen=True)
class FlipFlop:
    """One D flip-flop.

    Attributes:
        tech: Technology operating point.
        size: Drive strength scaling (min-inverter multiples).
    """

    tech: Technology
    size: float = 1.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")

    @property
    def _device_width(self) -> float:
        return self.tech.min_width * self.size

    @cached_property
    def clock_capacitance(self) -> float:
        """Capacitance the flop presents to the clock network (F)."""
        return (
            _CLOCK_LOAD_GATES
            * transistor.gate_capacitance(self.tech, self._device_width)
        )

    @cached_property
    def data_capacitance(self) -> float:
        """Capacitance presented to the data input (F)."""
        return 2.0 * transistor.gate_capacitance(self.tech, self._device_width)

    @cached_property
    def clock_energy_per_cycle(self) -> float:
        """Energy burned by the clock pins every clock cycle (J)."""
        vdd = self.tech.vdd
        return (1 + SHORT_CIRCUIT_FRACTION) * self.clock_capacitance * vdd**2

    @cached_property
    def data_energy_per_transition(self) -> float:
        """Energy of capturing a changed data value (J)."""
        vdd = self.tech.vdd
        internal_cap = (
            _DFF_TRANSISTORS
            * _DATA_SWITCH_FRACTION
            * transistor.gate_capacitance(self.tech, self._device_width)
        )
        return (1 + SHORT_CIRCUIT_FRACTION) * internal_cap * vdd**2

    def energy(self, clock_cycles: float, data_transitions: float) -> float:
        """Total dynamic energy over an interval (J)."""
        if clock_cycles < 0 or data_transitions < 0:
            raise ValueError("event counts must be non-negative")
        return (
            clock_cycles * self.clock_energy_per_cycle
            + data_transitions * self.data_energy_per_transition
        )

    @cached_property
    def leakage_power(self) -> float:
        """Static power of the flop (W)."""
        total_width = _DFF_TRANSISTORS * self._device_width
        # Half the devices are NMOS; stack-averaged like a gate.
        return 0.5 * transistor.subthreshold_leakage_power(
            self.tech, total_width / 2
        ) + transistor.gate_leakage_power(self.tech, total_width)

    @cached_property
    def area(self) -> float:
        """Standard-cell area (m^2): about five NAND2-equivalents."""
        nand = Gate(self.tech, GateKind.NAND, fanin=2, size=self.size)
        return 5.0 * nand.area
