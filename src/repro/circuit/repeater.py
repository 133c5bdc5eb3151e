"""Optimally repeated wires.

Long on-chip wires (H-trees, buses, NoC links, result buses) are broken
into segments driven by repeaters. :class:`RepeatedWire` numerically
co-optimizes the repeater size and spacing for minimum delay (optionally
backing off for energy, as McPAT's interconnect model does with its
"aggressive/conservative" knobs) and reports per-length delay, energy,
leakage, and repeater area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import fastpath
from repro import obs
from repro.circuit.gates import DELAY_DERATE, Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology
from repro.tech.wire import WireParameters, WireType

#: The candidate grid: repeater sizes in min-inverter multiples and
#: repeater spacings in meters, both log2-spaced.
_SIZES = tuple(2.0**k for k in range(0, 10))
_SPACINGS = tuple(10e-6 * 2.0**k for k in range(0, 10))  # 10um .. 5mm

#: Half-width (in log2 grid steps) of the refinement window around the
#: closed-form Bakoglu seed. The objective is separable and convex in the
#: log of each axis, so the grid optimum sits at a point bracketing the
#: continuous optimum; +-3 steps is ample slack on top of that guarantee.
_SEED_WINDOW = 3

#: Process-wide memo of solved design points. A chip model solves the
#: same few (tech, plane, penalty) combinations hundreds of times (every
#: candidate bank H-tree, every NoC link); the solution depends only on
#: the key.
_OPTIMUM_MEMO = fastpath.Memo("repeater_optimum", max_entries=1024)


@dataclass(frozen=True)
class RepeatedWire:
    """A repeated wire of a given plane at one technology point.

    Attributes:
        tech: Technology operating point.
        wire_type: Which wiring plane the signal routes on.
        delay_penalty: >= 1.0; allow this multiple of the minimum achievable
            delay in exchange for smaller/sparser (cheaper) repeaters.
    """

    tech: Technology
    wire_type: WireType = WireType.GLOBAL
    delay_penalty: float = 1.0  # repro: dim[delay_penalty: 1]

    def __post_init__(self) -> None:
        if self.delay_penalty < 1.0:
            raise ValueError("delay penalty must be >= 1.0")

    @cached_property
    def wire(self) -> WireParameters:
        return self.tech.wire(self.wire_type)

    def _segment_delay(
        self, size: float, spacing: float
    ) -> float:  # repro: dim[size: 1, spacing: m, return: s]
        """Delay of one repeater + wire segment (s)."""
        gate = Gate(self.tech, GateKind.INV, size=size)
        r_seg_ohm = self.wire.resistance_per_length * spacing
        c_seg_f = self.wire.capacitance_per_length * spacing
        # Driver charges its own parasitics, the wire, and the next gate.
        driver = gate.delay(c_seg_f + gate.input_capacitance)
        wire_term = r_seg_ohm * (0.38 * c_seg_f + 0.69 * gate.input_capacitance)
        return driver + wire_term

    def closed_form_optimum(self) -> tuple[float, float]:
        """Continuous (size, spacing) minimizing delay — Bakoglu's formulas.

        The per-length delay is a separable posynomial
        ``f(s, L) = A/L + B/s + C*L + E*s`` (driver parasitics, driver into
        wire cap, wire self-RC, wire into next gate), so the unconstrained
        optimum has the classic closed form ``s* = sqrt(B/E)``,
        ``L* = sqrt(A/C)``. It seeds the grid refinement in
        :attr:`_optimum`.
        """
        unit = Gate(self.tech, GateKind.INV, size=1.0).constants
        r_drive_ohm = DELAY_DERATE * 0.69 * unit.drive_resistance
        c_wire_per_m = self.wire.capacitance_per_length
        r_wire_per_m = self.wire.resistance_per_length
        coeff_a_s = r_drive_ohm * (
            unit.self_capacitance + unit.input_capacitance
        )
        coeff_b = r_drive_ohm * c_wire_per_m
        coeff_c = 0.38 * r_wire_per_m * c_wire_per_m
        coeff_e = 0.69 * r_wire_per_m * unit.input_capacitance
        size = math.sqrt(coeff_b / coeff_e)
        spacing = math.sqrt(coeff_a_s / coeff_c)
        return size, spacing

    def _grid_window(self) -> tuple[range, range]:
        """Grid index ranges to sweep: seeded window, or the full grid.

        On the fast path the sweep is a local refinement around the
        closed-form seed. Because the objective is separable and convex in
        the log of each axis, the grid optimum is guaranteed to bracket
        the continuous one, so the window always contains it; the exact
        path sweeps everything anyway.
        """
        if not fastpath.enabled():
            return range(len(_SIZES)), range(len(_SPACINGS))
        try:
            seed_size, seed_spacing = self.closed_form_optimum()
        except (ValueError, ZeroDivisionError, OverflowError):
            return range(len(_SIZES)), range(len(_SPACINGS))
        if not (math.isfinite(seed_size) and math.isfinite(seed_spacing)
                and seed_size > 0 and seed_spacing > 0):
            return range(len(_SIZES)), range(len(_SPACINGS))

        def window(seed: float, grid: tuple[float, ...]) -> range:
            index = round(math.log2(seed / grid[0]))
            index = min(max(index, 0), len(grid) - 1)
            return range(max(0, index - _SEED_WINDOW),
                         min(len(grid), index + _SEED_WINDOW + 1))

        return window(seed_size, _SIZES), window(seed_spacing, _SPACINGS)

    @cached_property
    def _optimum(self) -> tuple[float, float, float]:
        """(size, spacing, delay_per_length) at the chosen design point.

        Served from a process-wide memo keyed on
        ``(tech, wire_type, delay_penalty)``; on a miss, a Bakoglu-seeded
        local refinement of the log-spaced grid replaces the historical
        exhaustive sweep (identical result; the objective is separable
        and convex per log-axis).
        """
        key = (self.tech, self.wire_type, self.delay_penalty)
        return _OPTIMUM_MEMO.get_or_compute(key, self._solve_optimum)

    def _solve_optimum(self) -> tuple[float, float, float]:
        with obs.span("circuit.repeater.solve",
                      plane=self.wire_type.name,
                      penalty=self.delay_penalty):
            return self._solve_optimum_traced()

    def _solve_optimum_traced(self) -> tuple[float, float, float]:
        size_window, spacing_window = self._grid_window()
        # Evaluated delay-per-length by grid index; the energy back-off
        # pass below extends and reuses this instead of re-solving.
        evaluated: dict[tuple[int, int], float] = {}

        def delay_per_length(i: int, j: int) -> float:
            try:
                return evaluated[(i, j)]
            except KeyError:
                value = self._segment_delay(
                    _SIZES[i], _SPACINGS[j]
                ) / _SPACINGS[j]
                evaluated[(i, j)] = value
                return value

        # Ranking by (value, i, j) reproduces the strict-improvement,
        # row-major tie-breaking of a full sweep regardless of the window.
        best_value, best_size_idx, best_spacing_idx = min(
            (delay_per_length(i, j), i, j)
            for i in size_window for j in spacing_window
        )
        best = (_SIZES[best_size_idx], _SPACINGS[best_spacing_idx],
                best_value)
        if self.delay_penalty <= 1.0:  # validated >= 1.0: no back-off
            return best
        # Energy back-off: among design points within the delay budget,
        # pick the one with the lowest repeater capacitance per length
        # (width per meter). Needs the whole grid: the cheapest feasible
        # point usually sits far from the delay optimum.
        budget = best_value * self.delay_penalty
        feasible = [
            (_SIZES[i] / _SPACINGS[j], i, j)
            for i in range(len(_SIZES))
            for j in range(len(_SPACINGS))
            if delay_per_length(i, j) <= budget
        ]
        if not feasible:
            return best
        _, i, j = min(feasible)
        return (_SIZES[i], _SPACINGS[j], evaluated[(i, j)])

    @property
    def repeater_size(self) -> float:
        """Chosen repeater drive strength (min-inverter multiples)."""
        return self._optimum[0]

    @property
    def repeater_spacing(self) -> float:  # repro: dim[return: m]
        """Chosen distance between repeaters (m)."""
        return self._optimum[1]

    @property
    def delay_per_length(self) -> float:  # repro: dim[return: s/m]
        """Signal velocity figure (s/m)."""
        return self._optimum[2]

    def delay(
        self, length: float
    ) -> float:  # repro: dim[length: m, return: s]
        """Propagation delay over ``length`` meters (s)."""
        if length < 0:
            raise ValueError("length must be non-negative")
        return self.delay_per_length * length

    @cached_property
    def _repeater_gate(self) -> Gate:
        return Gate(self.tech, GateKind.INV, size=self.repeater_size)

    @cached_property
    def energy_per_length(self) -> float:  # repro: dim[return: j/m]
        """Dynamic energy per transition per meter of wire (J/m)."""
        gate = self._repeater_gate
        wire_energy = (
            self.wire.capacitance_per_length * self.tech.vdd**2
        )
        repeater_energy = (
            gate.switching_energy(0.0) / self.repeater_spacing
        )
        return wire_energy + repeater_energy

    def energy(
        self, length: float
    ) -> float:  # repro: dim[length: m, return: j]
        """Dynamic energy of one transition across ``length`` meters (J)."""
        if length < 0:
            raise ValueError("length must be non-negative")
        return self.energy_per_length * length

    @cached_property
    def leakage_power_per_length(self) -> float:  # repro: dim[return: w/m]
        """Static power of the repeaters per meter (W/m)."""
        return self._repeater_gate.leakage_power / self.repeater_spacing

    def leakage_power(
        self, length: float
    ) -> float:  # repro: dim[length: m, return: w]
        """Static power of the repeaters along ``length`` meters (W)."""
        if length < 0:
            raise ValueError("length must be non-negative")
        return self.leakage_power_per_length * length

    @cached_property
    def repeater_area_per_length(self) -> float:  # repro: dim[return: m2/m]
        """Silicon area of the repeaters per meter (m^2/m)."""
        return self._repeater_gate.area / self.repeater_spacing

    def repeater_area(
        self, length: float
    ) -> float:  # repro: dim[length: m, return: m2]
        """Repeater silicon area along ``length`` meters (m^2)."""
        if length < 0:
            raise ValueError("length must be non-negative")
        return self.repeater_area_per_length * length
