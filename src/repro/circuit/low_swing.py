"""Low-swing differential interconnect.

CACTI 6 / McPAT offer low-swing differential wires as an alternative to
full-swing repeated wires for long links: the wire pair is driven with a
reduced voltage swing (~100 mV) from a small driver, and a sense
amplifier recovers the signal at the far end. Energy drops by roughly
``Vdd / Vswing`` at the cost of latency (no repeaters — RC-limited) and
receiver complexity, which is why NoC designs use them selectively.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.gates import Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology
from repro.tech.wire import WireParameters, WireType

#: Differential swing on the pair (V).
_SWING_V = 0.1

#: Receiver sense amp modeled as this many min-inverter equivalents of
#: switched capacitance / leakage / area.
_RECEIVER_CAP_EQUIV = 12.0
_RECEIVER_LEAK_EQUIV = 8.0
_RECEIVER_AREA_EQUIV = 15.0

#: Driver size (min-inverter multiples); small by construction.
_DRIVER_SIZE = 4.0

#: Practical length limit before the RC-limited delay becomes unusable
#: relative to a repeated wire (m).
MAX_PRACTICAL_LENGTH = 8e-3


@dataclass(frozen=True)
class LowSwingLink:
    """A one-bit low-swing differential link of fixed length.

    Attributes:
        tech: Technology operating point.
        length: Link span (m).
        wire_type: Plane the pair routes on.
    """

    tech: Technology
    length: float  # repro: dim[length: m]
    wire_type: WireType = WireType.GLOBAL

    def __post_init__(self) -> None:
        if not 0 < self.length <= MAX_PRACTICAL_LENGTH:
            raise ValueError(
                f"low-swing links are practical up to "
                f"{MAX_PRACTICAL_LENGTH * 1e3:.0f} mm; got "
                f"{self.length * 1e3:.1f} mm"
            )

    @cached_property
    def _wire(self) -> WireParameters:
        return self.tech.wire(self.wire_type)

    @cached_property
    def _pair_capacitance(self) -> float:  # repro: dim[return: f]
        """Total capacitance of the differential pair (F)."""
        return 2.0 * self._wire.capacitance_per_length * self.length

    @cached_property
    def _driver(self) -> Gate:
        return Gate(self.tech, GateKind.INV, size=_DRIVER_SIZE)

    @cached_property
    def delay(self) -> float:  # repro: dim[return: s]
        """End-to-end latency: RC flight plus sense resolution (s)."""
        r_wire = self._wire.resistance_per_length * self.length
        c_wire = self._wire.capacitance_per_length * self.length
        flight = (
            0.69 * self._driver.drive_resistance * c_wire
            + 0.38 * r_wire * c_wire
        )
        sense = 2.0 * self.tech.fo4_delay
        return flight + sense

    @cached_property
    def energy_per_bit(self) -> float:  # repro: dim[return: j]
        """Dynamic energy per transferred bit (J).

        The pair swings by ``_SWING_V`` rather than Vdd; the receiver
        burns a full-swing sense event.
        """
        wire = self._pair_capacitance * self.tech.vdd * _SWING_V
        receiver = (
            _RECEIVER_CAP_EQUIV
            * self.tech.c_inverter_min_input
            * self.tech.vdd**2
        )
        driver = self._driver.switching_energy(0.0) * (
            _SWING_V / self.tech.vdd
        )
        return wire + receiver + driver

    @cached_property
    def leakage_power(self) -> float:  # repro: dim[return: w]
        """Static power of driver + receiver (W)."""
        inv = Gate(self.tech)
        return (
            self._driver.leakage_power
            + _RECEIVER_LEAK_EQUIV * inv.leakage_power
        )

    @cached_property
    def area(self) -> float:  # repro: dim[return: m2]
        """Driver + receiver silicon (the pair routes over logic) (m^2)."""
        inv = Gate(self.tech)
        return self._driver.area + _RECEIVER_AREA_EQUIV * inv.area
