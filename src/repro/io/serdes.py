"""Shared SerDes lane model for high-speed I/O (NIU, PCIe).

A SerDes lane is mixed-signal: its energy per bit and area scale weakly
with the logic node (like the memory-controller PHY). Reference values
are 90 nm server-class lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fastpath import cached_property
from repro.tech import Technology

#: SerDes energy per transferred bit at 90 nm (J/bit).
_SERDES_ENERGY_PER_BIT_90NM = 10e-12

#: SerDes lane area at 90 nm (m^2).
_SERDES_LANE_AREA_90NM = 0.5e-6

#: Analog scaling exponent across nodes.
_ANALOG_SCALING_EXPONENT = 0.5

#: Bias/static power as a fraction of the lane's full-rate power.
_STATIC_FRACTION = 0.25


@dataclass(frozen=True)
class SerdesLane:
    """One serializer/deserializer lane.

    Attributes:
        tech: Technology operating point.
        rate_bits_per_second: Line rate of the lane.
    """

    tech: Technology
    rate_bits_per_second: float

    def __post_init__(self) -> None:
        if self.rate_bits_per_second <= 0:
            raise ValueError("lane rate must be positive")

    @cached_property
    def _scale(self) -> float:
        return (self.tech.node_nm / 90.0) ** _ANALOG_SCALING_EXPONENT

    @cached_property
    def energy_per_bit(self) -> float:
        """Energy per transferred bit (J)."""
        return _SERDES_ENERGY_PER_BIT_90NM * self._scale

    @cached_property
    def peak_power(self) -> float:
        """Power at full line rate (W)."""
        return self.energy_per_bit * self.rate_bits_per_second

    def power(self, utilization: float) -> float:
        """Power at a link utilization in [0, 1] (W).

        The bias/CDR portion burns regardless of traffic.
        """
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be within [0, 1]")
        static = _STATIC_FRACTION * self.peak_power
        return static + (1.0 - _STATIC_FRACTION) * self.peak_power * (
            utilization
        )

    @cached_property
    def area(self) -> float:
        """Lane area (m^2)."""
        return _SERDES_LANE_AREA_90NM * self._scale**2
