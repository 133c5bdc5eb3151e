"""Static-CMOS gate model (INV / NAND / NOR) with delay, energy, and area.

A :class:`Gate` is parameterized by kind, fan-in, and a drive-strength
``size`` (multiple of the minimum inverter's drive). Delay follows the
switched-RC model with an empirical slope/stack derating that aligns the
resulting FO4 with published numbers; energy is ``C V^2`` on the switched
capacitance; area follows a standard-cell layout model (fixed track height,
width proportional to transistor count and size).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from repro import fastpath
from repro.circuit import transistor
from repro.fastpath import cached_property
from repro.tech import Technology

#: Empirical multiplier on the ideal switched-RC delay accounting for input
#: slope, velocity saturation and series-stack resistance effects. Chosen so
#: the model FO4 lands at ~1.7x the ideal-RC value, matching published HP
#: silicon (e.g. ~10 ps FO4 at 65 nm).
DELAY_DERATE = 1.7

#: Short-circuit power adder as a fraction of dynamic switching energy
#: (Nose-Sakurai style flat approximation used by McPAT).
SHORT_CIRCUIT_FRACTION = 0.10

#: Standard-cell track height in local-metal pitches.
_CELL_TRACK_HEIGHT = 12.0

#: Contacted gate pitch in units of the feature size.
_CONTACTED_PITCH_FEATURES = 2.5


class GateKind(str, Enum):
    """Supported static-CMOS gate families."""

    INV = "inv"
    NAND = "nand"
    NOR = "nor"


class GateConstants(NamedTuple):
    """The electrical/physical constants of one sized gate.

    Pure function of ``(tech, kind, fanin, size)``; memoized process-wide
    because hot loops (repeater sizing, array searches) instantiate the
    same handful of gate designs thousands of times per chip.
    """

    input_capacitance: float  # repro: dim[input_capacitance: f]
    self_capacitance: float  # repro: dim[self_capacitance: f]
    drive_resistance: float  # repro: dim[drive_resistance: ohm]
    leakage_power: float  # repro: dim[leakage_power: w]
    area: float  # repro: dim[area: m2]


#: Process-wide memo of :class:`GateConstants`, keyed by the (frozen,
#: hashable) :class:`Gate` value itself.
_CONSTANTS_MEMO = fastpath.Memo("gate_constants", max_entries=8192)


@dataclass(frozen=True)
class Gate:
    """One sized static-CMOS gate.

    Attributes:
        tech: Technology operating point.
        kind: Gate family.
        fanin: Number of inputs (must be 1 for INV).
        size: Drive strength as a multiple of a minimum inverter.
    """

    tech: Technology
    kind: GateKind = GateKind.INV
    fanin: int = 1  # repro: dim[fanin: 1]
    size: float = 1.0  # repro: dim[size: 1]

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"gate size must be positive, got {self.size}")
        if self.fanin < 1:
            raise ValueError(f"fanin must be >= 1, got {self.fanin}")
        if self.kind is GateKind.INV and self.fanin != 1:
            raise ValueError("an inverter has exactly one input")
        if self.kind is not GateKind.INV and self.fanin < 2:
            raise ValueError(f"{self.kind.value} gate needs fanin >= 2")

    # -- transistor sizing --------------------------------------------------

    @property
    def _nmos_width(self) -> float:  # repro: dim[return: m]
        """Width of each NMOS device (m), sized to match min-inverter drive."""
        base = self.tech.min_width * self.size
        if self.kind is GateKind.NAND:
            # Series NMOS stack: upsize by the stack depth.
            return base * self.fanin
        return base

    @property
    def _pmos_width(self) -> float:  # repro: dim[return: m]
        """Width of each PMOS device (m)."""
        ratio = self.tech.device.n_to_p_ratio
        base = self.tech.min_width * self.size * ratio
        if self.kind is GateKind.NOR:
            # Series PMOS stack: upsize by the stack depth.
            return base * self.fanin
        return base

    @property
    def transistor_count(self) -> int:
        """Total devices in the gate."""
        return 2 * self.fanin

    # -- electrical ---------------------------------------------------------

    @cached_property
    def constants(self) -> GateConstants:
        """The gate's constants, via the process-wide memo.

        Identically sized gates share one computation per process; with
        the fast path disabled the constants are recomputed in place
        (same arithmetic, no sharing).
        """
        return _CONSTANTS_MEMO.get_or_compute(self, self._compute_constants)

    def _compute_constants(self) -> GateConstants:
        return GateConstants(
            input_capacitance=self._compute_input_capacitance(),
            self_capacitance=self._compute_self_capacitance(),
            drive_resistance=self._compute_drive_resistance(),
            leakage_power=self._compute_leakage_power(),
            area=self._compute_area(),
        )

    @property
    def input_capacitance(self) -> float:  # repro: dim[return: f]
        """Capacitance presented to one input pin (F)."""
        return self.constants.input_capacitance

    @property
    def self_capacitance(self) -> float:  # repro: dim[return: f]
        """Parasitic output (drain) capacitance (F)."""
        return self.constants.self_capacitance

    @property
    def drive_resistance(self) -> float:  # repro: dim[return: ohm]
        """Effective worst-case output resistance (ohm)."""
        return self.constants.drive_resistance

    def _compute_input_capacitance(self) -> float:  # repro: dim[return: f]
        return transistor.gate_capacitance(
            self.tech, self._nmos_width
        ) + transistor.gate_capacitance(self.tech, self._pmos_width)

    def _compute_self_capacitance(self) -> float:  # repro: dim[return: f]
        # One NMOS and one PMOS drain hang on the output per input leg; in a
        # multi-input gate roughly half the legs' junctions sit on the
        # output node (the rest are internal stack nodes).
        per_leg = transistor.drain_capacitance(
            self.tech, self._nmos_width
        ) + transistor.drain_capacitance(self.tech, self._pmos_width)
        if self.kind is GateKind.INV:
            return per_leg
        return per_leg * self.fanin / 2.0

    def _compute_drive_resistance(self) -> float:  # repro: dim[return: ohm]
        r_n = transistor.on_resistance(self.tech, self._nmos_width)
        if self.kind is GateKind.NAND:
            r_n *= self.fanin  # series stack
        # The pull-up path is sized to match, so the worst case is ~r_n.
        return r_n

    def delay(
        self, load_capacitance: float
    ) -> float:  # repro: dim[load_capacitance: f, return: s]
        """Propagation delay into a capacitive load (s)."""
        if load_capacitance < 0:
            raise ValueError("load capacitance must be non-negative")
        c_total = self.self_capacitance + load_capacitance
        return DELAY_DERATE * 0.69 * self.drive_resistance * c_total

    def switching_energy(
        self, load_capacitance: float
    ) -> float:  # repro: dim[load_capacitance: f, return: j]
        """Dynamic energy of one output transition incl. short circuit (J)."""
        if load_capacitance < 0:
            raise ValueError("load capacitance must be non-negative")
        vdd = self.tech.vdd
        c_total = (
            self.self_capacitance + self.input_capacitance + load_capacitance
        )
        return (1.0 + SHORT_CIRCUIT_FRACTION) * c_total * vdd * vdd

    @property
    def leakage_power(self) -> float:  # repro: dim[return: w]
        """Average subthreshold + gate leakage of the gate (W).

        Uses the standard stack-averaged approximation: on average one of
        the two networks is off; series stacks leak less (stacking effect,
        ~10x per extra series device captured as /fanin here).
        """
        return self.constants.leakage_power

    def _compute_leakage_power(self) -> float:  # repro: dim[return: w]
        sub_n = transistor.subthreshold_leakage_power(
            self.tech, self._nmos_width
        )
        sub_p = (
            transistor.subthreshold_leakage_power(self.tech, self._pmos_width)
            / self.tech.device.n_to_p_ratio
        )
        stack = float(self.fanin) if self.kind is not GateKind.INV else 1.0
        subthreshold = 0.5 * (sub_n + sub_p) * self.fanin / stack
        gate_leak = transistor.gate_leakage_power(
            self.tech, (self._nmos_width + self._pmos_width) * self.fanin
        )
        return subthreshold + gate_leak

    # -- physical -----------------------------------------------------------

    @property
    def area(self) -> float:  # repro: dim[return: m2]
        """Standard-cell footprint (m^2)."""
        return self.constants.area

    def _compute_area(self) -> float:  # repro: dim[return: m2]
        height = _CELL_TRACK_HEIGHT * self.tech.wire_local.pitch
        pitch = _CONTACTED_PITCH_FEATURES * self.tech.feature_size
        # Wide (sized-up) devices fold into multiple fingers; up to 2x drive
        # fits in a unit-width cell.
        fold = max(1.0, self.size / 2.0)
        width = (self.fanin + 1) * pitch * fold
        return height * width
