"""Point-to-point NoC link: repeated full-swing or low-swing wires."""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.low_swing import LowSwingLink
from repro.circuit.repeater import RepeatedWire
from repro.config.schema import LinkSignaling
from repro.fastpath import cached_property
from repro.tech import Technology
from repro.tech.wire import WireType


@dataclass(frozen=True)
class Link:
    """One unidirectional link.

    Attributes:
        tech: Technology operating point.
        flit_bits: Wires in the bundle.
        length: Physical span (m).
        signaling: Full-swing repeated wires or low-swing differential.
    """

    tech: Technology
    flit_bits: int
    length: float  # repro: dim[length: m]
    signaling: LinkSignaling = LinkSignaling.FULL_SWING

    def __post_init__(self) -> None:
        if self.flit_bits < 1:
            raise ValueError("flit_bits must be >= 1")
        if self.length < 0:
            raise ValueError("length must be non-negative")

    @property
    def is_low_swing(self) -> bool:
        return self.signaling is LinkSignaling.LOW_SWING

    @cached_property
    def _wire(self) -> RepeatedWire:
        return RepeatedWire(self.tech, WireType.GLOBAL)

    @cached_property
    def _low_swing_bit(self) -> LowSwingLink:
        return LowSwingLink(self.tech, length=max(self.length, 1e-5))

    @cached_property
    def delay(self) -> float:  # repro: dim[return: s]
        """Traversal latency (s)."""
        if self.is_low_swing:
            return self._low_swing_bit.delay
        return self._wire.delay(self.length)

    @cached_property
    def energy_per_flit(self) -> float:  # repro: dim[return: j]
        """Dynamic energy moving one flit (random data) (J)."""
        if self.is_low_swing:
            return 0.5 * self.flit_bits * self._low_swing_bit.energy_per_bit
        return 0.5 * self.flit_bits * self._wire.energy(self.length)

    @cached_property
    def leakage_power(self) -> float:  # repro: dim[return: w]
        """Driver/repeater static power (W)."""
        if self.is_low_swing:
            return self.flit_bits * self._low_swing_bit.leakage_power
        return self.flit_bits * self._wire.leakage_power(self.length)

    @cached_property
    def area(self) -> float:  # repro: dim[return: m2]
        """Link silicon area (wires route over logic) (m^2)."""
        if self.is_low_swing:
            return self.flit_bits * self._low_swing_bit.area
        return self.flit_bits * self._wire.repeater_area(self.length)
