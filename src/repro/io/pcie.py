"""PCIe controller (transaction/data-link engines + lanes)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.chip.results import ComponentResult
from repro.circuit.gates import Gate, GateKind
from repro.config.schema import PcieConfig
from repro.fastpath import cached_property
from repro.io.serdes import SerdesLane
from repro.logic.control_logic import LOGIC_PLACEMENT_FACTOR
from repro.tech import Technology

#: Gate census of the transaction + data-link layers (per controller).
_CONTROLLER_GATES = 200_000

#: Additional per-lane logic (elastic buffers, lane management).
_GATES_PER_LANE = 30_000

#: Fraction of controller gates toggling per cycle at full rate.
_ACTIVITY = 0.25

#: Line rate per lane by PCIe generation (bit/s).
LANE_RATE_BY_GEN = {1: 2.5e9, 2: 5.0e9, 3: 8.0e9}


@dataclass(frozen=True)
class PcieController:
    """The chip's PCIe interface."""

    tech: Technology
    config: PcieConfig

    @cached_property
    def _gate(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)

    @property
    def _gates(self) -> int:
        return _CONTROLLER_GATES + _GATES_PER_LANE * self.config.lanes

    @cached_property
    def _lane(self) -> SerdesLane:
        return SerdesLane(
            self.tech,
            rate_bits_per_second=LANE_RATE_BY_GEN[self.config.gen],
        )

    def _logic_power(self, clock_hz: float, utilization: float) -> float:
        per_gate = self._gate.switching_energy(
            2 * self._gate.input_capacitance
        )
        return self._gates * _ACTIVITY * utilization * per_gate * clock_hz

    def result(
        self,
        clock_hz: float,
        utilization: float | None = None,
    ) -> ComponentResult:
        """Report the PCIe controller (see NIU for argument semantics)."""
        if self.config.lanes == 0:
            return ComponentResult(name="PCIe")
        if utilization is not None and not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be within [0, 1]")

        lanes = self.config.lanes
        peak = (
            self._logic_power(clock_hz, 1.0)
            + lanes * self._lane.power(1.0)
        )
        if utilization is None:
            runtime = 0.0
        else:
            runtime = (
                self._logic_power(clock_hz, utilization)
                + lanes * self._lane.power(utilization)
            )
        area = (
            self._gates * self._gate.area * LOGIC_PLACEMENT_FACTOR
            + lanes * self._lane.area
        )
        return ComponentResult(
            name="PCIe",
            area=area,
            peak_dynamic_power=peak,
            runtime_dynamic_power=runtime,
            leakage_power=self._gates * self._gate.leakage_power,
        )
