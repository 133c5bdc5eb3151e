"""Load/Store Unit: D-cache and the load/store queues.

The queues are CAM-searched (every load checks older stores for
forwarding; every store checks younger loads for ordering violations),
with an SRAM payload holding address + data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity import CoreActivity
from repro.array import (
    ArraySpec,
    Cache,
    CacheAccessMode,
    CacheSpec,
    CamArray,
    CellType,
    PortCounts,
    build_array,
)
from repro.array.array_model import SramArray
from repro.chip.results import ComponentResult
from repro.config.schema import CoreConfig
from repro.core.common import array_result, cam_result
from repro.fastpath import cached_property
from repro.tech import Technology


@dataclass(frozen=True)
class LoadStoreUnit:
    """Memory pipeline of one core."""

    tech: Technology
    config: CoreConfig

    @cached_property
    def dcache(self) -> Cache:
        """The L1 data cache."""
        geom = self.config.dcache
        ports = PortCounts(read_write=max(1, self.config.issue_width // 2))
        return Cache.build(self.tech, CacheSpec(
            name="dcache",
            capacity_bytes=geom.capacity_bytes,
            block_bytes=geom.block_bytes,
            associativity=geom.associativity,
            n_banks=geom.banks,
            ports=ports,
            access_mode=CacheAccessMode.NORMAL,
            physical_address_bits=self.config.physical_address_bits,
        ))

    @cached_property
    def mshrs(self) -> SramArray | None:
        """Outstanding-miss registers."""
        entries = self.config.dcache.mshr_entries
        if entries == 0:
            return None
        return build_array(self.tech, ArraySpec(
            name="mshrs",
            entries=max(2, entries),
            width_bits=self.config.physical_address_bits + 16,
            cell_type=CellType.DFF,
        ))

    @cached_property
    def load_queue(self) -> CamArray | None:
        """Load queue (address-searched)."""
        if self.config.load_queue_entries == 0:
            return None
        return CamArray(
            tech=self.tech,
            entries=self.config.load_queue_entries,
            tag_bits=self.config.physical_address_bits,
        )

    @cached_property
    def store_queue(self) -> CamArray | None:
        """Store queue (address-searched)."""
        if self.config.store_queue_entries == 0:
            return None
        return CamArray(
            tech=self.tech,
            entries=self.config.store_queue_entries,
            tag_bits=self.config.physical_address_bits,
        )

    @cached_property
    def store_data(self) -> SramArray | None:
        """Store-queue data payload."""
        if self.config.store_queue_entries == 0:
            return None
        return build_array(self.tech, ArraySpec(
            name="store_data",
            entries=max(2, self.config.store_queue_entries),
            width_bits=self.config.machine_bits,
            cell_type=CellType.DFF
            if self.config.store_queue_entries <= 32 else CellType.SRAM,
        ))

    def result(
        self,
        clock_hz: float,
        activity: CoreActivity | None = None,
    ) -> ComponentResult:
        """Report the LSU subtree."""
        peak = CoreActivity.peak(self.config.issue_width)

        def mem_rates(act: CoreActivity | None) -> dict[str, float]:
            if act is None:
                return {"loads": 0.0, "stores": 0.0, "misses": 0.0}
            loads = act.ipc * act.load_fraction * act.duty_cycle
            stores = act.ipc * act.store_fraction * act.duty_cycle
            misses = (loads + stores) * act.dcache_miss_rate
            return {"loads": loads, "stores": stores, "misses": misses}

        p, r = mem_rates(peak), mem_rates(activity)
        children: list[ComponentResult] = []

        def dcache_power(rates: dict[str, float]) -> float:
            per_cycle = (
                rates["loads"] * self.dcache.read_hit_energy
                + rates["stores"] * self.dcache.write_energy
                + rates["misses"] * self.dcache.fill_energy
            )
            return per_cycle * clock_hz

        children.append(ComponentResult(
            name="dcache",
            area=self.dcache.area,
            peak_dynamic_power=dcache_power(p),
            runtime_dynamic_power=dcache_power(r),
            leakage_power=self.dcache.leakage_power,
        ))

        if self.mshrs is not None:
            children.append(array_result(
                "mshrs", self.mshrs, clock_hz,
                peak_reads=p["misses"], peak_writes=p["misses"],
                runtime_reads=r["misses"], runtime_writes=r["misses"],
            ))

        if self.load_queue is not None:
            children.append(cam_result(
                "load_queue", self.load_queue, clock_hz,
                peak_searches=p["stores"], peak_writes=p["loads"],
                runtime_searches=r["stores"], runtime_writes=r["loads"],
            ))
        if self.store_queue is not None:
            children.append(cam_result(
                "store_queue", self.store_queue, clock_hz,
                peak_searches=p["loads"], peak_writes=p["stores"],
                runtime_searches=r["loads"], runtime_writes=r["stores"],
            ))
        if self.store_data is not None:
            children.append(array_result(
                "store_data", self.store_data, clock_hz,
                peak_reads=p["stores"], peak_writes=p["stores"],
                runtime_reads=r["stores"], runtime_writes=r["stores"],
            ))

        return ComponentResult(
            name="Load Store Unit", children=tuple(children)
        )
