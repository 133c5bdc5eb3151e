"""Renaming Unit (out-of-order cores): RATs, free lists, dependency check.

The register alias tables are small, heavily multiported arrays; the free
lists are FIFOs of physical-register tags; the intra-group dependency
check is the quadratic comparator block from :mod:`repro.logic`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity import CoreActivity
from repro.array import ArraySpec, CellType, PortCounts, build_array
from repro.array.array_model import SramArray
from repro.chip.results import ComponentResult
from repro.config.schema import CoreConfig
from repro.core.common import array_result
from repro.fastpath import cached_property
from repro.logic import DependencyCheck
from repro.tech import Technology


@dataclass(frozen=True)
class RenamingUnit:
    """Rename stage of an OOO core."""

    tech: Technology
    config: CoreConfig

    def __post_init__(self) -> None:
        if not self.config.is_ooo:
            raise ValueError("RenamingUnit only applies to OOO cores")

    @cached_property
    def _rat_ports(self) -> PortCounts:
        width = self.config.decode_width
        return PortCounts(
            read_write=0,
            read=max(1, 2 * width),
            write=max(1, width),
        )

    @cached_property
    def int_rat(self) -> SramArray:
        """Integer register alias table."""
        return build_array(self.tech, ArraySpec(
            name="int_rat",
            entries=self.config.arch_int_regs * self.config.hardware_threads,
            width_bits=self.config.register_tag_bits,
            ports=self._rat_ports,
            cell_type=CellType.DFF,
        ))

    @cached_property
    def fp_rat(self) -> SramArray:
        """FP register alias table."""
        return build_array(self.tech, ArraySpec(
            name="fp_rat",
            entries=self.config.arch_fp_regs * self.config.hardware_threads,
            width_bits=self.config.register_tag_bits,
            ports=self._rat_ports,
            cell_type=CellType.DFF,
        ))

    @cached_property
    def int_free_list(self) -> SramArray:
        """Integer physical-register free list."""
        return build_array(self.tech, ArraySpec(
            name="int_free_list",
            entries=max(2, self.config.phys_int_regs),
            width_bits=self.config.register_tag_bits,
        ))

    @cached_property
    def fp_free_list(self) -> SramArray:
        """FP physical-register free list."""
        return build_array(self.tech, ArraySpec(
            name="fp_free_list",
            entries=max(2, self.config.phys_fp_regs or
                        self.config.phys_int_regs),
            width_bits=self.config.register_tag_bits,
        ))

    @cached_property
    def dependency_check(self) -> DependencyCheck:
        """Intra-group dependency comparators."""
        return DependencyCheck(
            self.tech,
            width=self.config.decode_width,
            tag_bits=self.config.register_tag_bits,
        )

    def result(
        self,
        clock_hz: float,
        activity: CoreActivity | None = None,
    ) -> ComponentResult:
        """Report the renaming subtree."""
        peak = CoreActivity.peak(self.config.issue_width)

        def rename_rate(act: CoreActivity | None) -> float:
            if act is None:
                return 0.0
            return min(
                float(self.config.decode_width),
                act.ipc * act.fetch_factor,
            ) * act.duty_cycle

        p_rate, r_rate = rename_rate(peak), rename_rate(activity)

        children = [
            array_result("int_rat", self.int_rat, clock_hz,
                         peak_reads=2 * p_rate, peak_writes=p_rate,
                         runtime_reads=2 * r_rate, runtime_writes=r_rate),
            array_result("fp_rat", self.fp_rat, clock_hz,
                         peak_reads=0.6 * p_rate, peak_writes=0.3 * p_rate,
                         runtime_reads=0.6 * r_rate,
                         runtime_writes=0.3 * r_rate),
            array_result("int_free_list", self.int_free_list, clock_hz,
                         peak_reads=p_rate, peak_writes=p_rate,
                         runtime_reads=r_rate, runtime_writes=r_rate),
            array_result("fp_free_list", self.fp_free_list, clock_hz,
                         peak_reads=0.3 * p_rate, peak_writes=0.3 * p_rate,
                         runtime_reads=0.3 * r_rate,
                         runtime_writes=0.3 * r_rate),
            ComponentResult(
                name="dependency_check",
                area=self.dependency_check.area,
                peak_dynamic_power=(
                    p_rate * clock_hz
                    * self.dependency_check.energy_per_cycle
                    / max(1, self.config.decode_width)
                ),
                runtime_dynamic_power=(
                    r_rate * clock_hz
                    * self.dependency_check.energy_per_cycle
                    / max(1, self.config.decode_width)
                ),
                leakage_power=self.dependency_check.leakage_power,
            ),
        ]
        return ComponentResult(name="Renaming Unit", children=tuple(children))
