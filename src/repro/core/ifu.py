"""Instruction Fetch Unit: I-cache, branch prediction, fetch buffer, decode.

The IFU owns the instruction cache, the branch-predictor arrays
(tournament predictor: global/local/chooser tables + BTB + RAS), the
instruction buffer between fetch and decode, and the instruction decoders.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity import CoreActivity
from repro.array import (
    ArraySpec,
    Cache,
    CacheAccessMode,
    CacheSpec,
    CellType,
    build_array,
)
from repro.array.array_model import SramArray
from repro.chip.results import ComponentResult
from repro.config.schema import CoreConfig
from repro.core.common import array_result
from repro.fastpath import cached_property
from repro.logic import InstructionDecoder
from repro.tech import Technology


@dataclass(frozen=True)
class InstructionFetchUnit:
    """Front end of one core."""

    tech: Technology
    config: CoreConfig

    # -- structures -----------------------------------------------------------

    @cached_property
    def icache(self) -> Cache:
        """The L1 instruction cache."""
        geom = self.config.icache
        return Cache.build(self.tech, CacheSpec(
            name="icache",
            capacity_bytes=geom.capacity_bytes,
            block_bytes=geom.block_bytes,
            associativity=geom.associativity,
            n_banks=geom.banks,
            access_mode=CacheAccessMode.NORMAL,
            physical_address_bits=self.config.physical_address_bits,
        ))

    @cached_property
    def instruction_buffer(self) -> SramArray:
        """The fetch-to-decode buffer (per-thread partitions)."""
        entries = max(
            2, self.config.instruction_buffer_entries
            * self.config.hardware_threads
        )
        instruction_bits = 32 if not self.config.is_x86 else 64
        return build_array(self.tech, ArraySpec(
            name="instruction_buffer",
            entries=entries,
            width_bits=instruction_bits * self.config.fetch_width,
            cell_type=CellType.DFF if entries <= 64 else CellType.SRAM,
        ))

    @cached_property
    def btb(self) -> SramArray | None:
        """The branch target buffer."""
        bp = self.config.branch_predictor
        if bp is None:
            return None
        return build_array(self.tech, ArraySpec(
            name="btb",
            entries=bp.btb_entries,
            width_bits=bp.btb_tag_bits + self.config.virtual_address_bits,
        ))

    @cached_property
    def predictor_tables(self) -> list[SramArray]:
        """Tournament-predictor counter tables."""
        bp = self.config.branch_predictor
        if bp is None:
            return []
        tables = []
        for label, entries in (
            ("global_predictor", bp.global_entries),
            ("local_predictor", bp.local_entries),
            ("chooser", bp.chooser_entries),
        ):
            tables.append(build_array(self.tech, ArraySpec(
                name=label,
                entries=entries,
                width_bits=max(8, bp.counter_bits * 4),
            )))
        return tables

    @cached_property
    def return_address_stack(self) -> SramArray | None:
        """The RAS (per-thread)."""
        bp = self.config.branch_predictor
        if bp is None:
            return None
        return build_array(self.tech, ArraySpec(
            name="ras",
            entries=max(2, bp.ras_entries * self.config.hardware_threads),
            width_bits=self.config.virtual_address_bits,
            cell_type=CellType.DFF,
        ))

    @cached_property
    def decoder(self) -> InstructionDecoder:
        """The instruction decoders."""
        return InstructionDecoder(
            self.tech,
            decode_width=self.config.decode_width,
            is_x86=self.config.is_x86,
        )

    # -- activity mapping --------------------------------------------------------

    def _fetches_per_cycle(self, activity: CoreActivity) -> float:
        """I-cache line fetches per cycle."""
        instructions = activity.ipc * activity.fetch_factor
        return min(1.0, instructions / self.config.fetch_width) * (
            activity.duty_cycle
        )

    def result(
        self,
        clock_hz: float,
        activity: CoreActivity | None = None,
    ) -> ComponentResult:
        """Report the IFU subtree.

        Args:
            clock_hz: Core clock.
            activity: Runtime stats; ``None`` leaves runtime power at zero.
        """
        peak = CoreActivity.peak(self.config.issue_width)
        run = activity
        children: list[ComponentResult] = []

        def rates(act: CoreActivity | None, kind: str) -> tuple[float, float]:
            """(reads, writes) per cycle for each front-end structure."""
            if act is None:
                return 0.0, 0.0
            fetches = self._fetches_per_cycle(act)
            instructions = act.ipc * act.fetch_factor * act.duty_cycle
            branches = instructions * act.branch_fraction
            if kind == "icache":
                return fetches, fetches * act.icache_miss_rate
            if kind == "ibuf":
                return instructions, instructions
            if kind == "bpred":
                return branches, branches  # read at fetch, updated at commit
            if kind == "btb":
                return branches, 0.1 * branches
            if kind == "ras":
                call_rate = 0.15 * branches
                return call_rate, call_rate
            raise ValueError(f"unknown structure kind {kind!r}")

        icache_result = ComponentResult(
            name="icache",
            area=self.icache.area,
            peak_dynamic_power=(
                rates(peak, "icache")[0] * self.icache.read_hit_energy
                + rates(peak, "icache")[1] * self.icache.fill_energy
            ) * clock_hz,
            runtime_dynamic_power=(
                rates(run, "icache")[0] * self.icache.read_hit_energy
                + rates(run, "icache")[1] * self.icache.fill_energy
            ) * clock_hz,
            leakage_power=self.icache.leakage_power,
        )
        children.append(icache_result)

        children.append(array_result(
            "instruction_buffer", self.instruction_buffer, clock_hz,
            *rates(peak, "ibuf"), *rates(run, "ibuf"),
        ))

        if self.btb is not None:
            children.append(array_result(
                "btb", self.btb, clock_hz,
                *rates(peak, "btb"), *rates(run, "btb"),
            ))
        predictor_children = [
            array_result(table.name, table, clock_hz,
                         *rates(peak, "bpred"), *rates(run, "bpred"))
            for table in self.predictor_tables
        ]
        if self.return_address_stack is not None:
            predictor_children.append(array_result(
                "ras", self.return_address_stack, clock_hz,
                *rates(peak, "ras"), *rates(run, "ras"),
            ))
        if predictor_children:
            children.append(ComponentResult(
                name="branch_predictor", children=tuple(predictor_children),
            ))

        def decode_power(act: CoreActivity | None) -> float:
            if act is None:
                return 0.0
            instructions = act.ipc * act.fetch_factor * act.duty_cycle
            return (instructions * clock_hz
                    * self.decoder.energy_per_instruction)

        children.append(ComponentResult(
            name="instruction_decoder",
            area=self.decoder.area,
            peak_dynamic_power=decode_power(peak),
            runtime_dynamic_power=decode_power(run),
            leakage_power=self.decoder.leakage_power,
        ))

        return ComponentResult(
            name="Instruction Fetch Unit", children=tuple(children)
        )
