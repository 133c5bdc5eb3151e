"""Network Interface Unit (on-die Ethernet MAC + packet engines)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.chip.results import ComponentResult
from repro.circuit.gates import Gate, GateKind
from repro.config.schema import NiuConfig
from repro.fastpath import cached_property
from repro.io.serdes import SerdesLane
from repro.logic.control_logic import LOGIC_PLACEMENT_FACTOR
from repro.tech import Technology

#: Gate census of the MAC + packet DMA engines per port.
_MAC_GATES_PER_PORT = 300_000

#: Fraction of MAC gates toggling per cycle at full line rate.
_MAC_ACTIVITY = 0.3

#: Lanes per port (e.g. XAUI-style 10GbE uses 4 lanes).
_LANES_PER_PORT = 4


@dataclass(frozen=True)
class NetworkInterfaceUnit:
    """All on-die Ethernet ports of the chip."""

    tech: Technology
    config: NiuConfig

    @cached_property
    def _gate(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)

    @property
    def _gates(self) -> int:
        return _MAC_GATES_PER_PORT * self.config.ports

    @cached_property
    def _lane(self) -> SerdesLane:
        per_lane = self.config.bandwidth_gbps * 1e9 / _LANES_PER_PORT
        return SerdesLane(self.tech, rate_bits_per_second=per_lane)

    @property
    def _lane_count(self) -> int:
        return _LANES_PER_PORT * self.config.ports

    def _mac_power(self, clock_hz: float, utilization: float) -> float:
        per_gate = self._gate.switching_energy(
            2 * self._gate.input_capacitance
        )
        return (
            self._gates * _MAC_ACTIVITY * utilization * per_gate * clock_hz
        )

    def result(
        self,
        clock_hz: float,
        utilization: float | None = None,
    ) -> ComponentResult:
        """Report the NIU.

        Args:
            clock_hz: Chip clock (the MAC engines' clock domain).
            utilization: Link utilization in [0, 1]; ``None`` means no
                runtime stats (runtime power reported as zero).
        """
        if self.config.ports == 0:
            return ComponentResult(name="NIU")
        if utilization is not None and not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be within [0, 1]")

        peak = (
            self._mac_power(clock_hz, 1.0)
            + self._lane_count * self._lane.power(1.0)
        )
        if utilization is None:
            runtime = 0.0
        else:
            runtime = (
                self._mac_power(clock_hz, utilization)
                + self._lane_count * self._lane.power(utilization)
            )
        area = (
            self._gates * self._gate.area * LOGIC_PLACEMENT_FACTOR
            + self._lane_count * self._lane.area
        )
        leakage = self._gates * self._gate.leakage_power
        return ComponentResult(
            name="NIU",
            area=area,
            peak_dynamic_power=peak,
            runtime_dynamic_power=runtime,
            leakage_power=leakage,
        )
