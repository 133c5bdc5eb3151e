"""Top-level processor assembly — the chip McPAT reports on.

A :class:`Processor` instantiates one core model (replicated ``n_cores``
times), the shared cache levels, the interconnect, the memory controllers,
and the clock network, floorplans them into a square die, and produces the
hierarchical power/area report for TDP and (optionally) runtime activity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.activity import (
    CacheActivity,
    CoreActivity,
    SystemActivity,
)
from repro.chip.results import ComponentResult
from repro.clocking import ClockNetwork
from repro.config.schema import SystemConfig
from repro.core import Core
from repro.fastpath import cached_property
from repro.mc import MemoryController
from repro.memsys import SharedCache
from repro.noc import NetworkOnChip
from repro.tech import Technology


@dataclass(frozen=True)
class Processor:
    """One modeled chip."""

    config: SystemConfig

    @cached_property
    def tech(self) -> Technology:
        """The chip-wide technology operating point."""
        cfg = self.config
        return Technology(
            node_nm=cfg.node_nm,
            temperature_k=cfg.temperature_k,
            device_type=cfg.device_type,
            vdd_override=cfg.vdd_v,
        )

    # -- building blocks ----------------------------------------------------

    @cached_property
    def core(self) -> Core:
        """The (big) core model, built once and replicated."""
        return Core(self.tech, self.config.core)

    @cached_property
    def little_core(self) -> Core | None:
        """The little-core model on heterogeneous chips."""
        if self.config.little_core is None or not self.config.n_little_cores:
            return None
        return Core(self.tech, self.config.little_core)

    @cached_property
    def l2(self) -> SharedCache | None:
        """One L2 instance model (replicated per instance)."""
        if self.config.l2 is None:
            return None
        return SharedCache(
            self.tech, self.config.l2,
            physical_address_bits=self.config.core.physical_address_bits,
        )

    @cached_property
    def l3(self) -> SharedCache | None:
        """One L3 instance model."""
        if self.config.l3 is None:
            return None
        return SharedCache(
            self.tech, self.config.l3,
            physical_address_bits=self.config.core.physical_address_bits,
        )

    @cached_property
    def memory_controller(self) -> MemoryController:
        """All off-chip memory channels."""
        return MemoryController(self.tech, self.config.memory_controller)

    @cached_property
    def niu(self):
        """The on-die Ethernet NIU, if configured."""
        if self.config.niu is None:
            return None
        from repro.io import NetworkInterfaceUnit

        return NetworkInterfaceUnit(self.tech, self.config.niu)

    @cached_property
    def pcie(self):
        """The on-die PCIe controller, if configured."""
        if self.config.pcie is None:
            return None
        from repro.io import PcieController

        return PcieController(self.tech, self.config.pcie)

    @property
    def noc_endpoints(self) -> int:
        """Network endpoints.

        Router-based fabrics (mesh/ring) connect clusters — cores sharing
        an L2 instance reach it over their intra-cluster bus, so the
        endpoint count is the L2 instance count. Crossbars and buses
        connect every core to the cache banks directly.
        """
        from repro.config.schema import NocTopology

        l2 = self.config.l2
        router_based = self.config.noc.topology in (
            NocTopology.MESH_2D, NocTopology.TORUS_2D,
            NocTopology.CMESH_2D, NocTopology.RING,
        )
        if (router_based and l2 is not None
                and l2.instances <= self.config.n_cores):
            return l2.instances
        return self.config.n_cores

    @cached_property
    def _blocks_area(self) -> float:
        """Area of cores + caches + MC (before NoC and clocking) (m^2)."""
        area = self.config.n_cores * self.core.area
        if self.little_core is not None:
            area += self.config.n_little_cores * self.little_core.area
        if self.l2 is not None:
            area += (
                self.config.l2.instances
                * self.l2.result(self.config.clock_hz).total_area
            )
        if self.l3 is not None:
            area += (
                self.config.l3.instances
                * self.l3.result(self.config.clock_hz).total_area
            )
        area += self.memory_controller.result(
            self.config.clock_hz
        ).total_area
        return area

    @cached_property
    def noc(self) -> NetworkOnChip:
        """The interconnect fabric, floorplan-aware."""
        endpoints = self.noc_endpoints
        pitch = math.sqrt(self._blocks_area / max(1, endpoints))
        return NetworkOnChip(
            tech=self.tech,
            config=self.config.noc,
            n_endpoints=endpoints,
            endpoint_pitch=pitch,
        )

    @cached_property
    def clock_network(self) -> ClockNetwork:
        """The global clock distribution."""
        side = math.sqrt(self._blocks_area)
        return ClockNetwork(self.tech, chip_width=side, chip_height=side)

    # -- derived activity ----------------------------------------------------------

    def _derive_l2_activity(self, core_activity: CoreActivity) -> CacheActivity:
        """Estimate L2 traffic from the cores' L1 miss streams."""
        per_core = core_activity.ipc * core_activity.duty_cycle * (
            (core_activity.load_fraction + core_activity.store_fraction)
            * core_activity.dcache_miss_rate
            + core_activity.icache_miss_rate / max(
                1, self.config.core.fetch_width
            )
        )
        instances = self.config.l2.instances if self.config.l2 else 1
        per_instance = per_core * self.config.n_cores / max(1, instances)
        return CacheActivity(
            accesses_per_cycle=min(
                per_instance,
                float(self.config.l2.banks if self.config.l2 else 1),
            ),
            miss_rate=0.2,
            write_fraction=0.3,
        )

    def _derive_l3_activity(self, l2_activity: CacheActivity) -> CacheActivity:
        instances_l2 = self.config.l2.instances if self.config.l2 else 1
        traffic = (
            l2_activity.accesses_per_cycle * l2_activity.miss_rate
            * instances_l2
        )
        return CacheActivity(
            accesses_per_cycle=traffic, miss_rate=0.3, write_fraction=0.3,
        )

    # -- reports -----------------------------------------------------------------------

    def report(
        self,
        activity: SystemActivity | None = None,
        *,
        clock_hz: float | None = None,
    ) -> ComponentResult:
        """Build the full chip result tree.

        Args:
            activity: Runtime statistics. ``None`` reports TDP only
                (runtime powers are zero). If the cache/NoC/MC activities
                inside are ``None``, they are derived from the core
                activity via the L1 miss streams.
            clock_hz: Evaluate the built structure at this clock instead
                of the config's. Construction (array organization,
                repeater sizing, floorplan) is clock-free, so the result
                is bit-identical to rebuilding the processor with the
                other clock — this is the split between *construction*
                and *numeric evaluation* the batch backend compiles
                sweeps through (see :mod:`repro.batch`).
        """
        with obs.span("chip.report", chip=self.config.name):
            return self._build_report(activity, clock_hz=clock_hz)

    def _build_report(
        self,
        activity: SystemActivity | None,
        clock_hz: float | None = None,
    ) -> ComponentResult:
        clock = self.config.clock_hz if clock_hz is None else clock_hz
        core_activity = activity.core if activity else None

        with obs.span("chip.cores"):
            core_result = self.core.result(clock, core_activity)
        children = [
            ComponentResult(
                name=f"Cores (x{self.config.n_cores})",
                children=(core_result.scaled(self.config.n_cores),),
            )
        ]
        if self.little_core is not None:
            little_activity = (
                activity.little_core if activity is not None else None
            )
            with obs.span("chip.little_cores"):
                little_result = self.little_core.result(
                    clock, little_activity
                )
            children.append(ComponentResult(
                name=f"Little cores (x{self.config.n_little_cores})",
                children=(
                    little_result.scaled(self.config.n_little_cores),
                ),
            ))

        l2_activity = None
        if activity is not None and self.l2 is not None:
            l2_activity = activity.l2 or self._derive_l2_activity(
                activity.core
            )
        if self.l2 is not None:
            instances = self.config.l2.instances
            with obs.span("chip.l2"):
                single = self.l2.result(clock, l2_activity)
            children.append(ComponentResult(
                name=f"L2 (x{instances})",
                children=(single.scaled(instances),),
            ))

        if self.l3 is not None:
            l3_activity = None
            if activity is not None:
                l3_activity = activity.l3 or self._derive_l3_activity(
                    l2_activity or CacheActivity(accesses_per_cycle=0.1)
                )
            instances = self.config.l3.instances
            with obs.span("chip.l3"):
                single = self.l3.result(clock, l3_activity)
            children.append(ComponentResult(
                name=f"L3 (x{instances})",
                children=(single.scaled(instances),),
            ))

        with obs.span("chip.noc"):
            children.append(self.noc.result(
                clock, activity.noc if activity else None
            ))
        with obs.span("chip.memory_controller"):
            children.append(self.memory_controller.result(
                clock, activity.memory_controller if activity else None
            ))
        if self.niu is not None:
            with obs.span("chip.niu"):
                children.append(self.niu.result(
                    clock,
                    activity.niu_utilization
                    if activity is not None else None,
                ))
        if self.pcie is not None:
            with obs.span("chip.pcie"):
                children.append(self.pcie.result(
                    clock,
                    activity.pcie_utilization
                    if activity is not None else None,
                ))
        with obs.span("chip.clock_network"):
            children.append(self.clock_network.result(
                clock,
                duty_cycle=(
                    activity.core.duty_cycle
                    if activity is not None else None
                ),
            ))

        modeled_area = sum(c.total_area for c in children)
        io_fraction = self.config.io_area_fraction
        if io_fraction > 0 or self.config.io_peak_power_w > 0:
            io_area = modeled_area * io_fraction / (1.0 - io_fraction)
            io_power = self.config.io_peak_power_w
            children.append(ComponentResult(
                name="I/O and pads",
                area=io_area,
                peak_dynamic_power=io_power,
                runtime_dynamic_power=(
                    0.7 * io_power if activity is not None else 0.0
                ),
                leakage_power=0.0,
            ))

        white_fraction = self.config.whitespace_fraction
        if white_fraction > 0:
            placed = sum(c.total_area for c in children)
            children.append(ComponentResult(
                name="floorplan whitespace",
                area=placed * white_fraction / (1.0 - white_fraction),
            ))

        return ComponentResult(
            name=f"Processor: {self.config.name}",
            children=tuple(children),
        )

    # -- headline numbers -----------------------------------------------------------------

    @cached_property
    def _tdp_report(self) -> ComponentResult:
        return self.report(activity=None)

    @property
    def area(self) -> float:
        """Total die area (m^2)."""
        return self._tdp_report.total_area

    @property
    def tdp(self) -> float:
        """Thermal design power: peak dynamic + leakage (W)."""
        return self._tdp_report.total_peak_power

    @property
    def peak_dynamic_power(self) -> float:
        """Peak dynamic power (W)."""
        return self._tdp_report.total_peak_dynamic_power

    @property
    def leakage_power(self) -> float:
        """Total leakage at the design temperature (W)."""
        return self._tdp_report.total_leakage_power

    def runtime_power(self, activity: SystemActivity) -> float:
        """Runtime dynamic + leakage power under ``activity`` (W)."""
        report = self.report(activity)
        return report.total_runtime_power

    # -- timing --------------------------------------------------------------------------

    def max_feasible_clock(
        self,
        l1_pipeline_cycles: float = 3.0,
        regfile_pipeline_cycles: float = 1.5,
        fo4_per_stage: float = 18.0,
    ) -> float:
        """Highest clock the timing-critical structures support (Hz).

        A structure is feasible when it fits its pipeline allocation
        (e.g. an L1 hit within ``l1_pipeline_cycles``); the logic depth
        per stage bounds the clock via ``fo4_per_stage`` fanout-of-4
        delays per cycle — McPAT's timing-feasibility check.
        """
        if min(l1_pipeline_cycles, regfile_pipeline_cycles,
               fo4_per_stage) <= 0:
            raise ValueError("pipeline allocations must be positive")
        limits = [
            l1_pipeline_cycles / self.core.ifu.icache.access_time,
            l1_pipeline_cycles / self.core.lsu.dcache.access_time,
            regfile_pipeline_cycles
            / self.core.exu.int_regfile.access_time,
            1.0 / (fo4_per_stage * self.tech.fo4_delay),
        ]
        return min(limits)

    def timing_summary(self) -> dict[str, float]:
        """Access times of the timing-critical arrays, in cycles.

        A value is the component's access time divided by the target cycle
        time — the pipeline depth it needs. Architects use this to check
        the clock target is reachable (McPAT's timing output).
        """
        cycle = self.config.cycle_time
        summary = {
            "icache_cycles": self.core.ifu.icache.access_time / cycle,
            "dcache_cycles": self.core.lsu.dcache.access_time / cycle,
            "int_regfile_cycles": (
                self.core.exu.int_regfile.access_time / cycle
            ),
        }
        if self.l2 is not None:
            summary["l2_cycles"] = self.l2.cache.access_time / cycle
        if self.l3 is not None:
            summary["l3_cycles"] = self.l3.cache.access_time / cycle
        return summary
