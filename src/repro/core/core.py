"""Core assembly: all units plus pipeline-register overhead.

A :class:`Core` owns one of each unit (renaming/scheduler only when
out-of-order), adds the pipeline registers, and reports one subtree. The
unit areas are summed with a placement overhead; the core footprint is
assumed square for floorplanning at the chip level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.activity import CoreActivity
from repro.chip.results import ComponentResult
from repro.config.schema import CoreConfig
from repro.core.exu import ExecutionUnit
from repro.core.ifu import InstructionFetchUnit
from repro.core.lsu import LoadStoreUnit
from repro.core.mmu import MemoryManagementUnit
from repro.core.renaming import RenamingUnit
from repro.core.scheduler import DynamicScheduler
from repro.fastpath import cached_property
from repro.logic import ControlLogic, PipelineRegisters
from repro.tech import Technology

#: Floorplanning overhead over the sum of unit areas: routing channels
#: between units, clock spines, whitespace.
_CORE_PLACEMENT_OVERHEAD = 1.45

#: Latched bits per pipeline stage per superscalar lane (datapath plus
#: control state; real stage boundaries carry far more than a machine
#: word).
_PIPELINE_BITS_PER_STAGE = 1024

#: Sleep-transistor (header switch) area overhead of a power-gated core.
_POWER_GATE_AREA_OVERHEAD = 0.04

#: Leakage retained by a gated block (virtual-rail and retention cells).
_POWER_GATE_RETAINED_LEAKAGE = 0.10


@dataclass(frozen=True)
class Core:
    """One processor core."""

    tech: Technology
    config: CoreConfig

    @cached_property
    def ifu(self) -> InstructionFetchUnit:
        """The front end."""
        return InstructionFetchUnit(self.tech, self.config)

    @cached_property
    def mmu(self) -> MemoryManagementUnit:
        """The TLBs."""
        return MemoryManagementUnit(self.tech, self.config)

    @cached_property
    def exu(self) -> ExecutionUnit:
        """The datapath."""
        return ExecutionUnit(self.tech, self.config)

    @cached_property
    def lsu(self) -> LoadStoreUnit:
        """The memory pipeline."""
        return LoadStoreUnit(self.tech, self.config)

    @cached_property
    def renaming(self) -> RenamingUnit | None:
        """The rename stage (OOO cores only)."""
        if not self.config.is_ooo:
            return None
        return RenamingUnit(self.tech, self.config)

    @cached_property
    def scheduler(self) -> DynamicScheduler | None:
        """The issue logic (OOO cores only)."""
        if not self.config.is_ooo:
            return None
        return DynamicScheduler(self.tech, self.config)

    @cached_property
    def control_logic(self) -> ControlLogic:
        """The random control-logic census."""
        return ControlLogic.for_core(self.tech, self.config)

    @cached_property
    def pipeline(self) -> PipelineRegisters:
        """The pipeline-stage registers."""
        return PipelineRegisters(
            self.tech,
            stages=self.config.pipeline_stages,
            bits_per_stage=_PIPELINE_BITS_PER_STAGE,
            lanes=self.config.issue_width,
        )

    def result(
        self,
        clock_hz: float,
        activity: CoreActivity | None = None,
    ) -> ComponentResult:
        """Report the whole-core subtree (one core)."""
        children = [
            self.ifu.result(clock_hz, activity),
            self.mmu.result(clock_hz, activity),
            self.exu.result(clock_hz, activity),
            self.lsu.result(clock_hz, activity),
        ]
        if self.renaming is not None:
            children.append(self.renaming.result(clock_hz, activity))
        if self.scheduler is not None:
            children.append(self.scheduler.result(clock_hz, activity))

        peak_pipeline = self.pipeline.dynamic_power(clock_hz, activity=1.0)
        if activity is None:
            runtime_pipeline = 0.0
        else:
            runtime_pipeline = activity.duty_cycle * (
                self.pipeline.dynamic_power(
                    clock_hz,
                    activity=min(
                        1.0, activity.ipc / self.config.issue_width
                    ),
                )
            )
        children.append(ComponentResult(
            name="pipeline_registers",
            area=self.pipeline.area,
            peak_dynamic_power=peak_pipeline,
            runtime_dynamic_power=runtime_pipeline,
            leakage_power=self.pipeline.leakage_power,
        ))

        if activity is None:
            runtime_control = 0.0
        else:
            control_duty = activity.duty_cycle * min(
                1.0, activity.ipc * activity.fetch_factor
                / self.config.issue_width
            )
            runtime_control = self.control_logic.dynamic_power(
                clock_hz, duty=control_duty
            )
        children.append(ComponentResult(
            name="control_logic",
            area=self.control_logic.area,
            peak_dynamic_power=self.control_logic.dynamic_power(clock_hz),
            runtime_dynamic_power=runtime_control,
            leakage_power=self.control_logic.leakage_power,
        ))

        if self.config.power_gating and activity is not None:
            # When the core idles, sleep transistors cut the rails; only
            # the retention share of the leakage survives.
            retained = activity.duty_cycle + (
                (1.0 - activity.duty_cycle) * _POWER_GATE_RETAINED_LEAKAGE
            )
            children = [c.with_leakage_gating(retained) for c in children]

        units_area = sum(c.total_area for c in children)
        overhead = _CORE_PLACEMENT_OVERHEAD - 1.0
        if self.config.power_gating:
            overhead += _POWER_GATE_AREA_OVERHEAD
        return ComponentResult(
            name=f"Core ({self.config.name})",
            area=units_area * overhead,
            children=tuple(children),
        )

    @cached_property
    def area(self) -> float:
        """Core footprint (m^2)."""
        return self.result(clock_hz=1e9).total_area

    @cached_property
    def side(self) -> float:
        """Side of the (assumed square) core floorplan tile (m)."""
        return math.sqrt(self.area)
