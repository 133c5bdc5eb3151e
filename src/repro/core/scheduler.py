"""Dynamic scheduler (out-of-order cores): issue windows, ROB, selection.

The issue window is a CAM (wakeup tag broadcast searches every entry) with
an SRAM payload; the reorder buffer is a wide multiported SRAM; selection
is the radix-4 arbitration tree from :mod:`repro.logic`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity import CoreActivity
from repro.array import ArraySpec, CamArray, PortCounts, build_array
from repro.array.array_model import SramArray
from repro.chip.results import ComponentResult
from repro.config.schema import CoreConfig
from repro.core.common import array_result, cam_result
from repro.fastpath import cached_property
from repro.logic import SelectionLogic
from repro.tech import Technology

#: Payload bits per window entry (opcode, operands state, immediates).
_WINDOW_PAYLOAD_BITS = 80

#: Bits per ROB entry (PC, dest tags, exception/state bits).
_ROB_ENTRY_BITS = 76


@dataclass(frozen=True)
class DynamicScheduler:
    """Issue logic of an OOO core."""

    tech: Technology
    config: CoreConfig

    def __post_init__(self) -> None:
        if not self.config.is_ooo:
            raise ValueError("DynamicScheduler only applies to OOO cores")

    @cached_property
    def int_window_cam(self) -> CamArray:
        """Wakeup tag-match CAM of the integer window."""
        return CamArray(
            tech=self.tech,
            entries=self.config.issue_window_entries,
            tag_bits=2 * self.config.register_tag_bits,
            search_ports=max(1, self.config.issue_width),
        )

    @cached_property
    def int_window_payload(self) -> SramArray:
        """Issue-window payload RAM."""
        return build_array(self.tech, ArraySpec(
            name="int_window_payload",
            entries=max(2, self.config.issue_window_entries),
            width_bits=_WINDOW_PAYLOAD_BITS,
            ports=PortCounts(
                read_write=0,
                read=max(1, self.config.issue_width),
                write=max(1, self.config.decode_width),
            ),
        ))

    @cached_property
    def fp_window_cam(self) -> CamArray | None:
        """FP window wakeup CAM (when split)."""
        if self.config.fp_issue_window_entries == 0:
            return None
        return CamArray(
            tech=self.tech,
            entries=self.config.fp_issue_window_entries,
            tag_bits=2 * self.config.register_tag_bits,
            search_ports=max(1, self.config.issue_width // 2),
        )

    @cached_property
    def rob(self) -> SramArray:
        """The reorder buffer."""
        return build_array(self.tech, ArraySpec(
            name="rob",
            entries=max(2, self.config.rob_entries),
            width_bits=_ROB_ENTRY_BITS,
            ports=PortCounts(
                read_write=0,
                read=max(1, self.config.commit_width),
                write=max(1, self.config.decode_width),
            ),
        ))

    @cached_property
    def selection(self) -> SelectionLogic:
        """The select trees."""
        return SelectionLogic(
            self.tech,
            window_entries=self.config.issue_window_entries,
            issue_width=self.config.issue_width,
        )

    def result(
        self,
        clock_hz: float,
        activity: CoreActivity | None = None,
    ) -> ComponentResult:
        """Report the scheduler subtree."""
        peak = CoreActivity.peak(self.config.issue_width)

        def rate(act: CoreActivity | None) -> float:
            """Instructions flowing through the window per cycle."""
            if act is None:
                return 0.0
            return act.ipc * act.fetch_factor * act.duty_cycle

        p, r = rate(peak), rate(activity)

        children = [
            cam_result(
                "int_window_wakeup", self.int_window_cam, clock_hz,
                peak_searches=p, peak_writes=p,
                runtime_searches=r, runtime_writes=r,
            ),
            array_result(
                "int_window_payload", self.int_window_payload, clock_hz,
                peak_reads=p, peak_writes=p,
                runtime_reads=r, runtime_writes=r,
            ),
            array_result(
                "rob", self.rob, clock_hz,
                peak_reads=p, peak_writes=p,
                runtime_reads=r, runtime_writes=r,
            ),
        ]
        if self.fp_window_cam is not None:
            def fp_rate(act: CoreActivity | None) -> float:
                if act is None:
                    return 0.0
                return act.ipc * act.fp_fraction * act.duty_cycle

            children.append(cam_result(
                "fp_window_wakeup", self.fp_window_cam, clock_hz,
                peak_searches=fp_rate(peak), peak_writes=fp_rate(peak),
                runtime_searches=fp_rate(activity),
                runtime_writes=fp_rate(activity),
            ))

        def select_power(value: float) -> float:
            selections = min(value, float(self.config.issue_width))
            return (selections * clock_hz
                    * self.selection.energy_per_selection)

        children.append(ComponentResult(
            name="selection_logic",
            area=self.selection.area,
            peak_dynamic_power=select_power(p),
            runtime_dynamic_power=select_power(r),
            leakage_power=self.selection.leakage_power,
        ))

        return ComponentResult(
            name="Dynamic Scheduler", children=tuple(children)
        )
