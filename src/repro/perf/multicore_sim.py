"""Analytical multicore simulation: contention, sharing, and rooflines.

The simulator couples the per-core CPI model with three chip-level
effects, iterating to a fixed point:

* **Shared-cache contention** — each L2 instance is an M/M/1-ish server;
  queueing delay grows with the offered load of the cores sharing it.
* **Sharing locality** — the fraction of traffic to shared data hits the
  local L2 instance when producer and consumer share it (larger clusters
  convert NoC round trips into local hits and deduplicate misses).
* **Memory bandwidth roofline** — aggregate DRAM demand beyond the
  channels' peak bandwidth throttles every core proportionally.

It emits both the performance numbers and a
:class:`~repro.activity.SystemActivity` bundle, so results plug directly
into :meth:`repro.chip.processor.Processor.report` — the same division of
labor as McPAT paired with an external simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity import (
    CacheActivity,
    CoreActivity,
    MemoryControllerActivity,
    NocActivity,
    SystemActivity,
)
from repro.chip.processor import Processor
from repro.fastpath import cached_property
from repro.perf.cpi_model import CpiBreakdown, estimate_cpi
from repro.perf.workload import Workload

#: DRAM core latency (closed page, device only), seconds.
_DRAM_LATENCY_S = 60e-9

#: Router pipeline depth in NoC cycles.
_ROUTER_PIPELINE_CYCLES = 2.0

#: Queueing utilization is capped here to keep the M/M/1 term finite.
_MAX_UTILIZATION = 0.95

#: Fixed-point iterations (converges in a handful).
_ITERATIONS = 12


@dataclass(frozen=True)
class SimulationResult:
    """Output of one simulated run.

    Attributes:
        workload: The simulated workload.
        cpi: Converged per-core CPI breakdown.
        l2_hit_latency_cycles: Converged L1-miss service latency.
        l2_miss_rate: Converged effective L2 miss rate.
        throughput_ips: Chip-wide committed instructions per second.
        runtime_s: Time for every thread to finish its task.
        bandwidth_utilization: Fraction of peak DRAM bandwidth used.
        activity: Activity bundle for McPAT-style power analysis.
    """

    workload: Workload
    cpi: CpiBreakdown
    l2_hit_latency_cycles: float
    l2_miss_rate: float
    throughput_ips: float
    runtime_s: float
    bandwidth_utilization: float
    activity: SystemActivity

    @property
    def ipc_per_core(self) -> float:
        """Committed IPC of one core."""
        return self.cpi.ipc


@dataclass(frozen=True)
class MulticoreSimulator:
    """Analytical performance model of one
    :class:`~repro.chip.processor.Processor`."""

    processor: Processor

    @property
    def _config(self):
        return self.processor.config

    @cached_property
    def _cores_per_l2(self) -> int:
        cfg = self._config
        if cfg.l2 is None:
            return cfg.n_cores
        return max(1, cfg.n_cores // cfg.l2.instances)

    @cached_property
    def _noc_hop_cycles(self) -> float:
        """Latency of one NoC hop in core cycles."""
        noc = self.processor.noc
        if noc.link is None:
            return 1.0
        link_cycles = noc.link.delay * self._config.clock_hz
        return _ROUTER_PIPELINE_CYCLES + link_cycles

    @cached_property
    def _l2_base_latency_cycles(self) -> float:
        """Uncontended L1-miss-to-L2-hit latency in core cycles."""
        cfg = self._config
        if self.processor.l2 is None:
            return 10.0
        array = self.processor.l2.cache.access_time * cfg.clock_hz
        return 2.0 + array  # request/response sequencing overhead

    def _l2_effective_miss_rate(self, workload: Workload) -> float:
        """Capacity- and sharing-adjusted L2 miss rate."""
        cfg = self._config
        if cfg.l2 is None:
            return 1.0
        threads = cfg.core.hardware_threads
        capacity_per_thread = cfg.l2.capacity_bytes / (
            self._cores_per_l2 * threads
        )
        base = workload.l2_miss_rate(capacity_per_thread)
        sharers = self._cores_per_l2
        if sharers > 1:
            # One sharer's fetch of shared data serves the others.
            dedup = workload.sharing_fraction * (1.0 - 1.0 / sharers)
            base *= 1.0 - dedup
        return min(1.0, base)

    def run(self, workload: Workload) -> SimulationResult:
        """Simulate ``workload`` on the chip to a fixed point."""
        cfg = self._config
        clock = cfg.clock_hz
        core = cfg.core

        l2_miss_rate = self._l2_effective_miss_rate(workload)
        avg_hops = self.processor.noc.average_hops
        hop_cycles = self._noc_hop_cycles

        memory_latency = (
            _DRAM_LATENCY_S * clock
            + (avg_hops / 2.0) * hop_cycles
        )

        peak_bw = (
            self.processor.memory_controller.peak_bandwidth_bits_per_second
            / 8.0
        )
        line_bytes = cfg.l2.block_bytes if cfg.l2 else 64

        cpi = CpiBreakdown(pipeline=1.0, l1_miss_stall=0.0, l2_miss_stall=0.0)
        l2_latency = self._l2_base_latency_cycles
        bw_utilization = 0.0
        throttle = 1.0

        for _ in range(_ITERATIONS):
            cpi = estimate_cpi(
                core, workload,
                l2_hit_latency_cycles=l2_latency,
                l2_miss_rate=l2_miss_rate,
                memory_latency_cycles=memory_latency,
            )
            ipc = cpi.ipc * throttle

            # Offered L2 load per instance, accesses per core cycle.
            accesses_per_instr = (
                (workload.load_fraction + workload.store_fraction)
                * workload.dcache_miss_rate
                + workload.icache_miss_rate / max(1, core.fetch_width)
            )
            offered = ipc * accesses_per_instr * self._cores_per_l2
            if self.processor.l2 is not None:
                capacity = self.processor.l2.max_accesses_per_cycle(clock)
            else:
                capacity = 1.0
            rho = min(_MAX_UTILIZATION, offered / max(capacity, 1e-12))
            service = self._l2_base_latency_cycles
            queueing = service * rho / (1.0 - rho)

            # Every access pays the intra-cluster crossbar/arbitration to
            # reach the shared instance; this grows with the sharer count
            # and is the cost side of clustering.
            sharers = self._cores_per_l2
            intra_cluster = 0.5 * (sharers - 1)

            # Shared data whose producer lives in another cluster crosses
            # the NoC; larger clusters keep more of it local.
            local_probability = (
                (sharers - 1) / max(1, cfg.n_cores - 1)
            )
            remote_fraction = workload.sharing_fraction * (
                1.0 - local_probability
            )
            noc_cycles = remote_fraction * avg_hops * hop_cycles
            l2_latency = service + queueing + intra_cluster + noc_cycles

            # Bandwidth roofline.
            misses_per_s = (
                cfg.n_cores * ipc * clock
                * accesses_per_instr * l2_miss_rate
            )
            demanded_bw = misses_per_s * line_bytes
            bw_utilization = demanded_bw / max(peak_bw, 1.0)
            throttle = min(1.0, 1.0 / max(bw_utilization, 1e-12))
            throttle = min(1.0, max(throttle, 0.05))

        ipc = cpi.ipc * min(1.0, throttle)
        throughput = cfg.n_cores * ipc * clock
        threads = core.hardware_threads
        per_thread_rate = ipc * clock / threads
        runtime = workload.instructions_per_task / per_thread_rate

        activity = self._build_activity(workload, ipc, l2_miss_rate)
        return SimulationResult(
            workload=workload,
            cpi=cpi,
            l2_hit_latency_cycles=l2_latency,
            l2_miss_rate=l2_miss_rate,
            throughput_ips=throughput,
            runtime_s=runtime,
            bandwidth_utilization=min(1.0, bw_utilization),
            activity=activity,
        )

    def _build_activity(
        self,
        workload: Workload,
        ipc: float,
        l2_miss_rate: float,
    ) -> SystemActivity:
        cfg = self._config
        core_activity = CoreActivity(
            ipc=min(ipc, float(cfg.core.issue_width)),
            duty_cycle=1.0,
            load_fraction=workload.load_fraction,
            store_fraction=workload.store_fraction,
            branch_fraction=workload.branch_fraction,
            fp_fraction=workload.fp_fraction,
            mul_fraction=workload.mul_fraction,
            icache_miss_rate=workload.icache_miss_rate,
            dcache_miss_rate=workload.dcache_miss_rate,
            speculation_overhead=0.05 if not cfg.core.is_ooo else 0.2,
        )

        accesses_per_instr = (
            (workload.load_fraction + workload.store_fraction)
            * workload.dcache_miss_rate
            + workload.icache_miss_rate / max(1, cfg.core.fetch_width)
        )
        l2_activity = None
        if cfg.l2 is not None:
            per_instance = (
                ipc * accesses_per_instr * self._cores_per_l2
            )
            l2_activity = CacheActivity(
                accesses_per_cycle=per_instance,
                miss_rate=l2_miss_rate,
                write_fraction=workload.store_fraction
                / max(1e-9, workload.load_fraction + workload.store_fraction),
            )

        # NoC: each request/response packet traverses avg_hops routers, so
        # per-router utilization is traffic x hops / routers.
        miss_flits_per_cycle = (
            cfg.n_cores * ipc * accesses_per_instr * l2_miss_rate
        )
        routers = max(1, self.processor.noc.n_routers or cfg.n_cores)
        traversals = (
            2.0 * miss_flits_per_cycle * self.processor.noc.average_hops
        )
        noc_activity = NocActivity(
            flits_per_cycle_per_router=min(1.0, traversals / routers),
        )

        mc_activity = MemoryControllerActivity(
            reads_per_cycle=miss_flits_per_cycle * 0.7,
            writes_per_cycle=miss_flits_per_cycle * 0.3,
        )

        return SystemActivity(
            core=core_activity,
            l2=l2_activity,
            noc=noc_activity,
            memory_controller=mc_activity,
        )
