"""Shared cache (L2/L3) model with in-cache coherence directory.

A shared level is a banked sequential-access cache; coherence state is
held as extra tag bits per line (an in-cache directory, the Niagara/Tulsa
arrangement), plus MSHRs and a small cache-controller gate census.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity import CacheActivity
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
from repro.circuit.gates import Gate, GateKind
from repro.config.schema import SharedCacheConfig
from repro.fastpath import cached_property
from repro.tech import Technology

#: Gate census of the cache/coherence controller state machines per bank.
_CONTROLLER_GATES_PER_BANK = 20_000

#: Fraction of controller gates toggling per transaction.
_CONTROLLER_ACTIVITY = 0.2

#: TDP utilization of the bank-limited throughput: thermal design traffic
#: sustains ~70% of the theoretical bank ceiling.
_PEAK_UTILIZATION = 0.7


@dataclass(frozen=True)
class SharedCache:
    """One instance of a shared cache level."""

    tech: Technology
    config: SharedCacheConfig
    physical_address_bits: int = 40

    @cached_property
    def cache(self) -> Cache:
        """The tag+data arrays of this level."""
        cfg = self.config
        return Cache.build(self.tech, CacheSpec(
            name=cfg.name,
            capacity_bytes=cfg.capacity_bytes,
            block_bytes=cfg.block_bytes,
            associativity=cfg.associativity,
            n_banks=cfg.banks,
            access_mode=CacheAccessMode.SEQUENTIAL,
            physical_address_bits=self.physical_address_bits,
            extra_tag_bits=max(0, cfg.directory_sharers),
            ecc=True,  # server-class shared levels store SECDED bits
        ))

    @cached_property
    def mshrs(self) -> SramArray | None:
        """Outstanding-miss registers."""
        if self.config.mshr_entries == 0:
            return None
        return build_array(self.tech, ArraySpec(
            name=f"{self.config.name}.mshrs",
            entries=max(2, self.config.mshr_entries),
            width_bits=self.physical_address_bits + 16,
            cell_type=CellType.DFF,
        ))

    @cached_property
    def _controller_gate(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)

    @property
    def _controller_gates(self) -> int:
        return _CONTROLLER_GATES_PER_BANK * self.config.banks

    @cached_property
    def controller_energy_per_access(self) -> float:
        """Controller FSM energy per transaction (J)."""
        per_gate = self._controller_gate.switching_energy(
            2 * self._controller_gate.input_capacitance
        )
        return (
            self._controller_gates / self.config.banks
            * _CONTROLLER_ACTIVITY * per_gate
        )

    def max_accesses_per_cycle(self, clock_hz: float) -> float:
        """Bank-cycle-limited throughput in accesses per core cycle.

        A sequential-access shared cache occupies a bank for the whole
        tag-then-data access, so TDP traffic is ``banks / access_time``
        rather than one access per core clock per bank.
        """
        if clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive, got {clock_hz}")
        occupancy = max(self.cache.access_time, self.cache.cycle_time,
                        1.0 / clock_hz)
        per_bank_rate = 1.0 / occupancy
        return self.config.banks * per_bank_rate / clock_hz

    def result(
        self,
        clock_hz: float,
        activity: CacheActivity | None = None,
    ) -> ComponentResult:
        """Report one instance of this cache level."""
        ceiling = self.max_accesses_per_cycle(clock_hz)
        peak = CacheActivity(
            accesses_per_cycle=_PEAK_UTILIZATION * ceiling,
            miss_rate=0.1,
            write_fraction=0.3,
        )

        def rates(act: CacheActivity | None) -> dict[str, float]:
            if act is None:
                return {"reads": 0.0, "writes": 0.0, "misses": 0.0}
            accesses = min(act.accesses_per_cycle, ceiling)
            writes = accesses * act.write_fraction
            reads = accesses - writes
            return {
                "reads": reads,
                "writes": writes,
                "misses": accesses * act.miss_rate,
            }

        def cache_power(r: dict[str, float]) -> float:
            per_cycle = (
                r["reads"] * self.cache.read_hit_energy
                + r["writes"] * self.cache.write_energy
                + r["misses"] * self.cache.fill_energy
                + (r["reads"] + r["writes"])
                * self.controller_energy_per_access
            )
            return per_cycle * clock_hz

        p, r = rates(peak), rates(activity)

        children = [ComponentResult(
            name=f"{self.config.name}_arrays",
            area=self.cache.area,
            peak_dynamic_power=cache_power(p),
            runtime_dynamic_power=cache_power(r),
            leakage_power=self.cache.leakage_power,
        )]

        if self.mshrs is not None:
            def mshr_power(rr: dict[str, float]) -> float:
                if rr["reads"] <= 0.0 and rr["writes"] <= 0.0:
                    return 0.0  # idle / no stats: clock-gated
                per_cycle = rr["misses"] * (
                    self.mshrs.read_energy + self.mshrs.write_energy
                )
                return (per_cycle + self.mshrs.clock_energy_per_cycle) * (
                    clock_hz
                )

            children.append(ComponentResult(
                name=f"{self.config.name}_mshrs",
                area=self.mshrs.area,
                peak_dynamic_power=mshr_power(p),
                runtime_dynamic_power=mshr_power(r),
                leakage_power=self.mshrs.leakage_power,
            ))

        controller_leak = (
            self._controller_gates * self._controller_gate.leakage_power
        )
        controller_area = self._controller_gates * self._controller_gate.area
        children.append(ComponentResult(
            name=f"{self.config.name}_controller",
            area=controller_area,
            peak_dynamic_power=0.0,
            runtime_dynamic_power=0.0,
            leakage_power=controller_leak,
        ))

        return ComponentResult(
            name=f"{self.config.name} (shared cache)",
            children=tuple(children),
        )
