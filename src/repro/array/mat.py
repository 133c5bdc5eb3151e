"""Subarray (mat) circuit model: decoder, wordline, bitline, sense amps.

One subarray is a ``rows x cols`` grid of storage cells with a row decoder
strip on its left edge and a precharge / sense-amplifier / column-mux strip
on its bottom edge. All delay and energy numbers are derived from the RC
content of those structures, CACTI style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.array.spec import CellType, PortCounts
from repro.circuit import transistor
from repro.circuit.gates import Gate, GateKind
from repro.circuit.logical_effort import BufferChain
from repro.fastpath import cached_property
from repro.tech import Technology
from repro.tech.technology import EDRAM_RETENTION_TIME_S

#: Differential bitline sense swing as a fraction of Vdd (floored in volts).
_SWING_FRACTION = 0.125
_SWING_FLOOR_V = 0.08

#: Sense amplifier modeled as this many minimum-inverter equivalents of
#: switched capacitance and leakage, and this many inverter areas.
_SENSEAMP_CAP_EQUIV = 10.0
_SENSEAMP_AREA_EQUIV = 12.0
_SENSEAMP_LEAK_EQUIV = 6.0

#: Sense amplifier resolution delay in FO4 units.
_SENSEAMP_DELAY_FO4 = 2.0

#: Fraction of write bitline energy relative to a full Vdd swing on the
#: pair (one line swings fully, the other is already there).
_WRITE_SWING_FACTOR = 1.1


@dataclass(frozen=True)
class Subarray:
    """One subarray of an SRAM array.

    Attributes:
        tech: Technology operating point.
        rows: Number of wordlines.
        cols: Number of bitline pairs (physical storage columns).
        ports: Port configuration (affects cell geometry and leakage).
        column_mux_degree: Bitline pairs sharing one sense amplifier.
        cell_type: SRAM (6T, non-destructive) or EDRAM (1T1C,
            destructive read with restore, refresh required).
    """

    tech: Technology
    rows: int
    cols: int
    ports: PortCounts
    column_mux_degree: int = 1
    cell_type: CellType = CellType.SRAM

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("subarray must have at least one row and column")
        if self.column_mux_degree < 1:
            raise ValueError("column mux degree must be >= 1")
        if self.cols % self.column_mux_degree:
            raise ValueError(
                f"columns ({self.cols}) must be divisible by the column mux "
                f"degree ({self.column_mux_degree})"
            )
        if self.cell_type is CellType.DFF:
            raise ValueError("DFF storage uses DffArrayModel, not Subarray")

    @property
    def is_edram(self) -> bool:
        return self.cell_type is CellType.EDRAM

    # -- geometry ------------------------------------------------------------

    @property
    def _port_factor(self) -> float:
        return self.ports.area_cost_factor

    @cached_property
    def cell_width(self) -> float:  # repro: dim[return: m]
        """Storage cell width including multi-port growth (m)."""
        base = (self.tech.edram_cell_width if self.is_edram
                else self.tech.sram_cell_width)
        return base * self._port_factor

    @cached_property
    def cell_height(self) -> float:  # repro: dim[return: m]
        """Storage cell height including multi-port growth (m)."""
        base = (self.tech.edram_cell_height if self.is_edram
                else self.tech.sram_cell_height)
        return base * self._port_factor

    @cached_property
    def cell_block_width(self) -> float:  # repro: dim[return: m]
        return self.cols * self.cell_width

    @cached_property
    def cell_block_height(self) -> float:  # repro: dim[return: m]
        return self.rows * self.cell_height

    # -- component circuits ---------------------------------------------------

    @cached_property
    def _wordline_capacitance(self) -> float:  # repro: dim[return: f]
        """Load on one wordline (F): pass-gate gates plus wire."""
        pass_gates = 2.0 * transistor.gate_capacitance(
            self.tech, self.tech.min_width
        )
        wire = (
            self.tech.wire_local.capacitance_per_length * self.cell_block_width
        )
        return self.cols * pass_gates + wire

    @cached_property
    def _wordline_driver(self) -> BufferChain:
        return BufferChain(self.tech, self._wordline_capacitance)

    @cached_property
    def _bitline_capacitance(self) -> float:  # repro: dim[return: f]
        """Capacitance of one bitline (F): cell drains plus wire."""
        drain = transistor.drain_capacitance(self.tech, self.tech.min_width)
        wire = (
            self.tech.wire_local.capacitance_per_length
            * self.cell_block_height
        )
        return self.rows * drain + wire

    @cached_property
    def _cell_read_current(self) -> float:  # repro: dim[return: a]
        """Discharge current a cell pulls on its bitline (A)."""
        return self.tech.sram_device.i_on * self.tech.min_width

    @property
    def _sense_swing(self) -> float:  # repro: dim[return: v]
        return max(_SWING_FLOOR_V, _SWING_FRACTION * self.tech.vdd)

    @cached_property
    def _decoder_depth(self) -> int:
        """Logic depth of the row decoder in gate stages."""
        address_bits = max(1, math.ceil(math.log2(self.rows)))
        # Predecode in pairs, then a final NAND; ~1 stage per 2 bits + 2.
        return 2 + math.ceil(address_bits / 2)

    @cached_property
    def _decoder_gate(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)

    # -- timing ----------------------------------------------------------------

    @cached_property
    def decoder_delay(self) -> float:  # repro: dim[return: s]
        """Row-decode delay up to the wordline driver input (s)."""
        stage = self._decoder_gate.delay(4 * self._decoder_gate.input_capacitance)
        return self._decoder_depth * stage

    @cached_property
    def wordline_delay(self) -> float:  # repro: dim[return: s]
        """Wordline driver + wire delay (s)."""
        wire_rc = 0.38 * (
            self.tech.wire_local.rc_per_length_squared
            * self.cell_block_width**2
        )
        return self._wordline_driver.delay + wire_rc

    @cached_property
    def bitline_delay(self) -> float:  # repro: dim[return: s]
        """Time for a cell to develop the sense swing (s).

        SRAM cells actively discharge the bitline; eDRAM reads are
        charge-sharing events whose speed is set by the access-transistor
        RC rather than a static discharge current.
        """
        wire_r = (
            self.tech.wire_local.resistance_per_length
            * self.cell_block_height
        )
        distributed_rc = 0.38 * wire_r * self._bitline_capacitance
        if self.is_edram:
            access_r = transistor.on_resistance(
                self.tech, self.tech.min_width
            )
            share = 0.69 * access_r * self._bitline_capacitance
            return share + distributed_rc
        discharge = (
            self._bitline_capacitance
            * self._sense_swing
            / self._cell_read_current
        )
        return discharge + distributed_rc

    @cached_property
    def senseamp_delay(self) -> float:  # repro: dim[return: s]
        """Sense amplifier resolution time (s)."""
        return _SENSEAMP_DELAY_FO4 * self.tech.fo4_delay

    @cached_property
    def access_delay(self) -> float:  # repro: dim[return: s]
        """Address-in to data-at-subarray-edge delay (s)."""
        mux_delay = self.tech.fo4_delay if self.column_mux_degree > 1 else 0.0
        return (
            self.decoder_delay
            + self.wordline_delay
            + self.bitline_delay
            + self.senseamp_delay
            + mux_delay
        )

    @cached_property
    def cycle_time(self) -> float:  # repro: dim[return: s]
        """Minimum random-access cycle: develop swing then precharge (s)."""
        precharge = self.bitline_delay  # symmetric restore
        return self.wordline_delay + self.bitline_delay + precharge

    # -- energy ------------------------------------------------------------------

    @cached_property
    def decoder_energy(self) -> float:  # repro: dim[return: j]
        """Dynamic energy of one row decode (J)."""
        gate = self._decoder_gate
        per_stage = gate.switching_energy(4 * gate.input_capacitance)
        # Address buffers + predecode fan-out: ~2 gates toggle per stage.
        return 2.0 * self._decoder_depth * per_stage

    @cached_property
    def wordline_energy(self) -> float:  # repro: dim[return: j]
        """Dynamic energy of firing one wordline (J)."""
        return self._wordline_driver.energy_per_transition

    @cached_property
    def bitline_read_energy(self) -> float:  # repro: dim[return: j]
        """Energy of a read: all columns swing by the sense margin (J)."""
        per_line = self._bitline_capacitance * self.tech.vdd * self._sense_swing
        return self.cols * per_line

    def bitline_write_energy(self, bits_written: int) -> float:  # repro: dim[return: j]
        """Energy of a write driving ``bits_written`` columns rail-to-rail (J)."""
        if bits_written < 0 or bits_written > self.cols:
            raise ValueError(
                f"bits_written must be in [0, {self.cols}], got {bits_written}"
            )
        per_pair = (
            _WRITE_SWING_FACTOR * self._bitline_capacitance * self.tech.vdd**2
        )
        return bits_written * per_pair

    @cached_property
    def senseamp_energy(self) -> float:  # repro: dim[return: j]
        """Energy of the sense amps that fire on one read (J)."""
        amps = self.cols // self.column_mux_degree
        per_amp = (
            _SENSEAMP_CAP_EQUIV
            * self.tech.c_inverter_min_input
            * self.tech.vdd**2
        )
        return amps * per_amp

    @cached_property
    def _restore_energy(self) -> float:  # repro: dim[return: j]
        """Row-restore energy after a destructive eDRAM read (J)."""
        if not self.is_edram:
            return 0.0
        # The sense amps drive every open column back rail-to-rail; on
        # average half the lines move.
        return 0.5 * self.cols * self._bitline_capacitance * self.tech.vdd**2

    @cached_property
    def read_energy(self) -> float:  # repro: dim[return: j]
        """Total dynamic energy of one read access (J)."""
        return (
            self.decoder_energy
            + self.wordline_energy
            + self.bitline_read_energy
            + self.senseamp_energy
            + self._restore_energy
        )

    @cached_property
    def write_energy(self) -> float:  # repro: dim[return: j]
        """Total dynamic energy of one write access (J)."""
        bits = self.cols // self.column_mux_degree
        return (
            self.decoder_energy
            + self.wordline_energy
            + self.bitline_write_energy(bits)
        )

    # -- leakage -------------------------------------------------------------------

    @cached_property
    def cell_leakage_power(self) -> float:  # repro: dim[return: w]
        """Static power of the storage cells (W).

        SRAM cells use longer-channel, leakage-optimized devices; two
        devices leak per cell, and extra ports add access-device leakage.
        A 1T1C eDRAM cell has a single (off) access device — its standing
        leakage is far lower, with refresh carried separately.
        """
        per_device = transistor.subthreshold_leakage_power(
            self.tech, self.tech.min_width, long_channel=True
        )
        if self.is_edram:
            per_cell = 0.5 * per_device  # stacked off access transistor
            return self.rows * self.cols * per_cell
        port_devices = 2.0 + 1.0 * (self.ports.total - 1)
        per_cell = per_device * port_devices + transistor.gate_leakage_power(
            self.tech, 6 * self.tech.min_width
        ) * self.tech.device.long_channel_leakage_reduction
        return self.rows * self.cols * per_cell

    @cached_property
    def refresh_power(self) -> float:  # repro: dim[return: w]
        """Average power to rewrite every eDRAM row each retention (W)."""
        if not self.is_edram:
            return 0.0
        row_energy = self.wordline_energy + self.bitline_write_energy(
            self.cols
        )
        return self.rows * row_energy / EDRAM_RETENTION_TIME_S

    @cached_property
    def peripheral_leakage_power(self) -> float:  # repro: dim[return: w]
        """Static power of decoder, drivers, sense amps, precharge (W)."""
        decoder = self.rows * self._decoder_gate.leakage_power * 0.5
        drivers = self._wordline_driver.leakage_power * min(self.rows, 8)
        inv = Gate(self.tech)
        senseamps = (
            (self.cols // self.column_mux_degree)
            * _SENSEAMP_LEAK_EQUIV
            * inv.leakage_power
        )
        precharge = self.cols * inv.leakage_power
        return decoder + drivers + senseamps + precharge

    @cached_property
    def leakage_power(self) -> float:  # repro: dim[return: w]
        """Total static power (W)."""
        return self.cell_leakage_power + self.peripheral_leakage_power

    # -- area -----------------------------------------------------------------------

    @cached_property
    def decoder_area(self) -> float:  # repro: dim[return: m2]
        """Area of the row-decode strip (m^2)."""
        return (
            self.rows * self._decoder_gate.area
            + self._wordline_driver.area * min(self.rows, 16)
        )

    @cached_property
    def senseamp_area(self) -> float:  # repro: dim[return: m2]
        """Area of the precharge + sense-amp + mux strip (m^2)."""
        inv = Gate(self.tech)
        amps = self.cols // self.column_mux_degree
        return (
            amps * _SENSEAMP_AREA_EQUIV * inv.area
            + self.cols * inv.area  # precharge devices
        )

    @cached_property
    def width(self) -> float:  # repro: dim[return: m]
        """Physical width of the subarray including the decode strip (m)."""
        decode_strip = self.decoder_area / max(self.cell_block_height, 1e-9)
        return self.cell_block_width + decode_strip

    @cached_property
    def height(self) -> float:  # repro: dim[return: m]
        """Physical height including the sense-amp strip (m)."""
        sa_strip = self.senseamp_area / max(self.cell_block_width, 1e-9)
        return self.cell_block_height + sa_strip

    @cached_property
    def area(self) -> float:  # repro: dim[return: m2]
        """Total footprint (m^2)."""
        return self.width * self.height
