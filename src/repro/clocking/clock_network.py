"""Global + local clock distribution.

The global network is an H-tree of fat repeated wires spanning the die;
the local grids and leaf buffers are folded into an effective capacitance
per unit area derived from the flop density (the per-flop clock-pin energy
itself is charged inside each component's model, so this network carries
only the distribution overhead — wire + buffer capacitance).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chip.results import ComponentResult
from repro.circuit.flipflop import FlipFlop
from repro.circuit.repeater import RepeatedWire
from repro.fastpath import cached_property
from repro.tech import Technology
from repro.tech.wire import WireType

#: Total H-tree + grid wire length as a multiple of (width + height).
_TREE_LENGTH_FACTOR = 4.0

#: Fraction of chip area occupied by clocked elements (flops, latch
#: arrays, clocked domino headers) seen by the distribution grid. Chip
#: clock grids of this era switched hundreds of pF - several nF.
_FLOP_AREA_FRACTION = 0.22

#: Clock buffers add this multiple of the wire+load capacitance.
_BUFFER_CAP_FRACTION = 0.4


@dataclass(frozen=True)
class ClockNetwork:
    """Chip-wide clock distribution.

    Attributes:
        tech: Technology operating point.
        chip_width: Die width (m).
        chip_height: Die height (m).
    """

    tech: Technology
    chip_width: float
    chip_height: float

    def __post_init__(self) -> None:
        if self.chip_width <= 0 or self.chip_height <= 0:
            raise ValueError("chip dimensions must be positive")

    @property
    def chip_area(self) -> float:
        return self.chip_width * self.chip_height

    @cached_property
    def _wire(self) -> RepeatedWire:
        return RepeatedWire(self.tech, WireType.GLOBAL)

    @cached_property
    def tree_wire_length(self) -> float:
        """Total distribution wire length (m)."""
        return _TREE_LENGTH_FACTOR * (self.chip_width + self.chip_height)

    @cached_property
    def _grid_load_capacitance(self) -> float:
        """Leaf-grid capacitance from the flop population (F)."""
        flop = FlipFlop(self.tech)
        flops = _FLOP_AREA_FRACTION * self.chip_area / flop.area
        # The distribution grid sees the local buffer inputs, roughly one
        # buffer per 16 flops, each ~4x the flop clock pin.
        return flops / 16.0 * 4.0 * flop.clock_capacitance

    @cached_property
    def switched_capacitance(self) -> float:
        """Capacitance the network toggles every cycle (F)."""
        wire_cap = (
            self._wire.wire.capacitance_per_length * self.tree_wire_length
        )
        total_load = wire_cap + self._grid_load_capacitance
        return total_load * (1.0 + _BUFFER_CAP_FRACTION)

    @cached_property
    def energy_per_cycle(self) -> float:
        """Distribution energy per clock cycle (J)."""
        return self.switched_capacitance * self.tech.vdd**2

    @cached_property
    def leakage_power(self) -> float:
        """Static power of the clock buffers (W)."""
        return self._wire.leakage_power(self.tree_wire_length) * (
            1.0 + _BUFFER_CAP_FRACTION
        )

    @cached_property
    def area(self) -> float:
        """Buffer silicon area (wires route on top metal) (m^2)."""
        return self._wire.repeater_area(self.tree_wire_length) * 2.0

    def result(
        self,
        clock_hz: float,
        duty_cycle: float | None = 1.0,
    ) -> ComponentResult:
        """Report the clock network.

        Args:
            clock_hz: Chip clock.
            duty_cycle: Fraction of time the clock is running (global
                clock gating); ``None`` means no runtime stats were
                supplied, so runtime power is reported as zero. Peak
                power always assumes 1.0.
        """
        if duty_cycle is not None and not 0.0 <= duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be within [0, 1]")
        peak = self.energy_per_cycle * clock_hz
        return ComponentResult(
            name="Clock Network",
            area=self.area,
            peak_dynamic_power=peak,
            runtime_dynamic_power=(
                0.0 if duty_cycle is None else peak * duty_cycle
            ),
            leakage_power=self.leakage_power,
        )
