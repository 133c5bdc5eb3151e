"""Execution Unit: register files, functional units, result/bypass buses.

The register files are multiported SRAM arrays sized by the issue width;
ALU/FPU/MDU come from the empirical functional-unit models; the bypass
network is a set of result-broadcast buses whose length follows from the
datapath footprint — the quadratic port/bypass growth with issue width is
the core of McPAT's OOO-cost story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.activity import CoreActivity
from repro.array import ArraySpec, PortCounts, build_array
from repro.array.array_model import SramArray
from repro.chip.results import ComponentResult
from repro.config.schema import CoreConfig
from repro.core.common import array_result
from repro.circuit.repeater import RepeatedWire
from repro.fastpath import cached_property
from repro.logic import FunctionalUnit, FunctionalUnitKind
from repro.tech import Technology
from repro.tech.wire import WireType


@dataclass(frozen=True)
class ExecutionUnit:
    """Datapath of one core."""

    tech: Technology
    config: CoreConfig

    # -- register files --------------------------------------------------------

    def _regfile_entries(self, architectural: int, physical: int) -> int:
        if self.config.is_ooo and physical > 0:
            return physical
        return architectural * self.config.hardware_threads

    @cached_property
    def _regfile_ports(self) -> PortCounts:
        width = self.config.issue_width
        return PortCounts(
            read_write=0,
            read=max(1, 2 * width),
            write=max(1, width),
        )

    @cached_property
    def int_regfile(self) -> SramArray:
        """The integer register file."""
        return build_array(self.tech, ArraySpec(
            name="int_regfile",
            entries=self._regfile_entries(
                self.config.arch_int_regs, self.config.phys_int_regs
            ),
            width_bits=self.config.machine_bits,
            ports=self._regfile_ports,
        ))

    @cached_property
    def fp_regfile(self) -> SramArray:
        """The floating-point register file."""
        return build_array(self.tech, ArraySpec(
            name="fp_regfile",
            entries=self._regfile_entries(
                self.config.arch_fp_regs, self.config.phys_fp_regs
            ),
            width_bits=self.config.machine_bits,
            ports=self._regfile_ports,
        ))

    # -- functional units ---------------------------------------------------------

    @cached_property
    def alus(self) -> FunctionalUnit:
        """The integer ALU bank."""
        return FunctionalUnit(
            self.tech, FunctionalUnitKind.INT_ALU,
            count=self.config.int_alus,
            width_bits=self.config.machine_bits,
        )

    @cached_property
    def fpus(self) -> FunctionalUnit:
        """The FPU bank."""
        return FunctionalUnit(
            self.tech, FunctionalUnitKind.FPU,
            count=self.config.fpus,
            width_bits=self.config.machine_bits,
        )

    @cached_property
    def mul_divs(self) -> FunctionalUnit:
        """The multiplier/divider bank."""
        return FunctionalUnit(
            self.tech, FunctionalUnitKind.MUL_DIV,
            count=self.config.mul_divs,
            width_bits=self.config.machine_bits,
        )

    # -- bypass network ----------------------------------------------------------

    @cached_property
    def _datapath_area(self) -> float:
        return (
            self.int_regfile.area
            + self.fp_regfile.area
            + self.alus.area
            + self.fpus.area
            + self.mul_divs.area
        )

    @cached_property
    def _bypass_wire(self) -> RepeatedWire:
        return RepeatedWire(self.tech, WireType.SEMI_GLOBAL)

    @cached_property
    def _bypass_length(self) -> float:
        """One result bus spans the datapath twice (there and back)."""
        return 2.0 * math.sqrt(self._datapath_area)

    @property
    def _bypass_bus_count(self) -> int:
        return self.config.issue_width

    @cached_property
    def bypass_energy_per_result(self) -> float:
        """Broadcasting one result across the bypass network (J)."""
        bits_toggling = 0.5 * self.config.machine_bits
        return bits_toggling * self._bypass_wire.energy(self._bypass_length)

    @cached_property
    def _bypass_leakage(self) -> float:
        return (
            self._bypass_bus_count
            * self.config.machine_bits
            * self._bypass_wire.leakage_power(self._bypass_length)
        )

    @cached_property
    def _bypass_area(self) -> float:
        return (
            self._bypass_bus_count
            * self.config.machine_bits
            * self._bypass_wire.repeater_area(self._bypass_length)
        )

    # -- report ----------------------------------------------------------------------

    def result(
        self,
        clock_hz: float,
        activity: CoreActivity | None = None,
    ) -> ComponentResult:
        """Report the EXU subtree."""
        peak = CoreActivity.peak(self.config.issue_width)

        def ops(act: CoreActivity | None) -> dict[str, float]:
            if act is None:
                return {"int": 0.0, "fp": 0.0, "mul": 0.0, "all": 0.0}
            total = act.ipc * act.duty_cycle
            fp = total * act.fp_fraction
            mul = total * act.mul_fraction
            return {
                "int": max(0.0, total - fp - mul),
                "fp": fp,
                "mul": mul,
                "all": total,
            }

        peak_ops, run_ops = ops(peak), ops(activity)

        children = [
            array_result(
                "int_regfile", self.int_regfile, clock_hz,
                peak_reads=2 * peak_ops["int"], peak_writes=peak_ops["int"],
                runtime_reads=2 * run_ops["int"],
                runtime_writes=run_ops["int"],
            ),
            array_result(
                "fp_regfile", self.fp_regfile, clock_hz,
                peak_reads=2 * peak_ops["fp"], peak_writes=peak_ops["fp"],
                runtime_reads=2 * run_ops["fp"],
                runtime_writes=run_ops["fp"],
            ),
        ]

        for label, bank, key in (
            ("integer_alus", self.alus, "int"),
            ("fpus", self.fpus, "fp"),
            ("mul_div", self.mul_divs, "mul"),
        ):
            children.append(ComponentResult(
                name=label,
                area=bank.area,
                peak_dynamic_power=(
                    peak_ops[key] * clock_hz * bank.energy_per_op
                ),
                runtime_dynamic_power=(
                    run_ops[key] * clock_hz * bank.energy_per_op
                ),
                leakage_power=bank.leakage_power,
            ))

        children.append(ComponentResult(
            name="bypass_network",
            area=self._bypass_area,
            peak_dynamic_power=(
                peak_ops["all"] * clock_hz * self.bypass_energy_per_result
            ),
            runtime_dynamic_power=(
                run_ops["all"] * clock_hz * self.bypass_energy_per_result
            ),
            leakage_power=self._bypass_leakage,
        ))

        return ComponentResult(name="Execution Unit", children=tuple(children))
