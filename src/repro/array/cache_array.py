"""Cache assembly: tag array + data array + hit logic.

A set-associative cache is two coupled arrays — tags and data — plus the
way comparators and output way-mux. The access mode determines how they
are coupled:

* ``NORMAL``     tag and data in parallel; all ways of data read, the way
                 mux selects after compare. Fast, energy-hungry.
* ``SEQUENTIAL`` tag first, then only the hitting way of data. Slow, cheap.
* ``FAST``       like NORMAL but the whole set is also forwarded before the
                 compare resolves (lowest latency, highest energy).

Fully associative caches (``associativity=0`` by CACTI convention) use a
CAM for tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.array.array_model import SramArray, build_array
from repro.array.cam import CamArray
from repro.array.spec import ArraySpec, CellType, PortCounts
from repro.circuit.gates import Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology

#: Physical address width assumed for tag sizing (bits).
DEFAULT_PHYSICAL_ADDRESS_BITS = 40

#: Valid/dirty/coherence-state bits stored with each tag.
_STATUS_BITS = 2


class CacheAccessMode(str, Enum):
    """Tag/data coupling policy."""

    NORMAL = "normal"
    SEQUENTIAL = "sequential"
    FAST = "fast"


@dataclass(frozen=True)
class CacheSpec:
    """Architecture-level description of a cache.

    Attributes:
        name: Label used in reports.
        capacity_bytes: Total data capacity.
        block_bytes: Cache-line size.
        associativity: Ways per set; 0 means fully associative.
        ports: Port configuration (applied to both arrays).
        n_banks: Number of independent banks.
        access_mode: Tag/data coupling policy.
        physical_address_bits: Address width for tag sizing.
        extra_tag_bits: Additional per-line metadata (e.g. directory state).
        ecc: Store SECDED check bits with the data (1 byte per 8), as
            server-class shared caches do.
        target_cycle_time: Optional cycle-time requirement passed to the
            organization search (s).
    """

    name: str
    capacity_bytes: int
    block_bytes: int
    associativity: int
    ports: PortCounts = field(default_factory=PortCounts)
    n_banks: int = 1
    access_mode: CacheAccessMode = CacheAccessMode.NORMAL
    physical_address_bits: int = DEFAULT_PHYSICAL_ADDRESS_BITS
    extra_tag_bits: int = 0
    ecc: bool = False
    target_cycle_time: float | None = None

    def __post_init__(self) -> None:
        if self.capacity_bytes < self.block_bytes:
            raise ValueError("capacity must be at least one block")
        if self.block_bytes < 1 or self.block_bytes & (self.block_bytes - 1):
            raise ValueError("block size must be a positive power of two")
        if self.associativity < 0:
            raise ValueError("associativity must be >= 0 (0 = fully assoc)")
        blocks = self.capacity_bytes // self.block_bytes
        if self.associativity > 0 and blocks % self.associativity:
            raise ValueError("capacity/block must be divisible by ways")

    @property
    def is_fully_associative(self) -> bool:
        """Whether tags are CAM-searched (associativity == 0)."""
        return self.associativity == 0

    @property
    def n_blocks(self) -> int:
        """Total cache lines."""
        return self.capacity_bytes // self.block_bytes

    @property
    def n_sets(self) -> int:
        """Sets (1 when fully associative)."""
        if self.is_fully_associative:
            return 1
        return self.n_blocks // self.associativity

    @property
    def ways(self) -> int:
        """Ways per set (all blocks when fully associative)."""
        return self.n_blocks if self.is_fully_associative else self.associativity

    def _with_ecc(self, data_bits: int) -> int:
        """Widen a data width by the SECDED overhead if ECC is enabled."""
        if not self.ecc:
            return data_bits
        return data_bits // 8 * 9 if data_bits % 8 == 0 else (
            math.ceil(data_bits * 9 / 8)
        )

    @property
    def tag_bits(self) -> int:
        """Stored tag width incl. status and extra metadata bits."""
        index_bits = 0 if self.n_sets <= 1 else int(math.log2(self.n_sets))
        offset_bits = int(math.log2(self.block_bytes))
        tag = self.physical_address_bits - index_bits - offset_bits
        return max(1, tag) + _STATUS_BITS + self.extra_tag_bits


@dataclass(frozen=True)
class Cache:
    """A built cache: coupled tag and data arrays plus hit logic.

    Build with :meth:`Cache.build`; all cost properties are derived from
    the two member arrays and the access mode.
    """

    tech: Technology
    spec: CacheSpec
    data_array: SramArray
    tag_array: SramArray | None
    tag_cam: CamArray | None

    @classmethod
    def build(cls, tech: Technology, spec: CacheSpec) -> "Cache":
        """Run the organization searches and assemble the cache."""
        if spec.is_fully_associative:
            data_spec = ArraySpec(
                name=f"{spec.name}.data",
                entries=spec.n_blocks,
                width_bits=spec._with_ecc(8 * spec.block_bytes),
                ports=spec.ports,
                n_banks=spec.n_banks,
                target_cycle_time=spec.target_cycle_time,
            )
            cam = CamArray(
                tech=tech,
                entries=spec.n_blocks,
                tag_bits=spec.tag_bits,
                ports=spec.ports,
            )
            return cls(tech=tech, spec=spec, data_array=build_array(tech, data_spec),
                       tag_array=None, tag_cam=cam)

        if spec.access_mode is CacheAccessMode.SEQUENTIAL:
            data_width = spec._with_ecc(8 * spec.block_bytes)
            data_entries = spec.n_sets * spec.ways
        else:
            data_width = spec._with_ecc(8 * spec.block_bytes) * spec.ways
            data_entries = spec.n_sets
        data_spec = ArraySpec(
            name=f"{spec.name}.data",
            entries=data_entries,
            width_bits=data_width,
            ports=spec.ports,
            n_banks=spec.n_banks,
            output_bits=spec._with_ecc(8 * spec.block_bytes),
            target_cycle_time=spec.target_cycle_time,
        )
        # Pseudo-LRU replacement state: ways-1 bits per set.
        lru_bits = max(0, spec.ways - 1)
        tag_spec = ArraySpec(
            name=f"{spec.name}.tag",
            entries=spec.n_sets,
            width_bits=spec.tag_bits * spec.ways + lru_bits,
            ports=spec.ports,
            n_banks=spec.n_banks,
            cell_type=(CellType.SRAM if spec.n_sets >= 4 else CellType.DFF),
            target_cycle_time=spec.target_cycle_time,
        )
        return cls(
            tech=tech,
            spec=spec,
            data_array=build_array(tech, data_spec),
            tag_array=build_array(tech, tag_spec),
            tag_cam=None,
        )

    # -- hit logic ------------------------------------------------------------

    @cached_property
    def _comparator_gate(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)

    @cached_property
    def _compare_delay(self) -> float:
        depth = max(1, math.ceil(math.log2(max(2, self.spec.tag_bits))))
        gate = self._comparator_gate
        return depth * gate.delay(4 * gate.input_capacitance)

    @cached_property
    def _compare_energy(self) -> float:
        gate = self._comparator_gate
        per_bit = gate.switching_energy(2 * gate.input_capacitance)
        return self.spec.ways * self.spec.tag_bits * per_bit * 0.5

    # -- timing ------------------------------------------------------------------

    @cached_property
    def _tag_access_time(self) -> float:
        if self.tag_cam is not None:
            return self.tag_cam.search_delay
        assert self.tag_array is not None
        return self.tag_array.access_time + self._compare_delay

    @cached_property
    def access_time(self) -> float:
        """Hit latency (s)."""
        if self.spec.is_fully_associative:
            return self._tag_access_time + self.data_array.access_time
        if self.spec.access_mode is CacheAccessMode.SEQUENTIAL:
            return self._tag_access_time + self.data_array.access_time
        if self.spec.access_mode is CacheAccessMode.FAST:
            return max(self._tag_access_time, self.data_array.access_time)
        way_mux = self._comparator_gate.delay(
            4 * self._comparator_gate.input_capacitance
        )
        return max(self._tag_access_time, self.data_array.access_time) + way_mux

    @cached_property
    def cycle_time(self) -> float:
        """Minimum random-access period (s)."""
        times = [self.data_array.cycle_time]
        if self.tag_array is not None:
            times.append(self.tag_array.cycle_time)
        if self.tag_cam is not None:
            times.append(self.tag_cam.cycle_time)
        return max(times)

    # -- energy ---------------------------------------------------------------------

    @cached_property
    def read_hit_energy(self) -> float:
        """Dynamic energy of a read hit (J)."""
        if self.tag_cam is not None:
            tag = self.tag_cam.search_energy
        else:
            assert self.tag_array is not None
            tag = self.tag_array.read_energy + self._compare_energy
        return tag + self.data_array.read_energy

    @cached_property
    def read_miss_energy(self) -> float:
        """Dynamic energy of a read miss: tag probe only (J)."""
        if self.tag_cam is not None:
            return self.tag_cam.search_energy
        assert self.tag_array is not None
        if self.spec.access_mode is CacheAccessMode.SEQUENTIAL:
            return self.tag_array.read_energy + self._compare_energy
        # Parallel modes burn the data read regardless.
        return (self.tag_array.read_energy + self._compare_energy
                + self.data_array.read_energy)

    @cached_property
    def write_energy(self) -> float:
        """Dynamic energy of a write (tag probe + data write) (J)."""
        if self.tag_cam is not None:
            tag = self.tag_cam.search_energy
        else:
            assert self.tag_array is not None
            tag = self.tag_array.read_energy + self._compare_energy
        return tag + self.data_array.write_energy

    @cached_property
    def fill_energy(self) -> float:
        """Installing a line after a miss: tag write + data write (J)."""
        if self.tag_cam is not None:
            tag = self.tag_cam.write_energy
        else:
            assert self.tag_array is not None
            tag = self.tag_array.write_energy
        return tag + self.data_array.write_energy

    # -- statics -----------------------------------------------------------------------

    @cached_property
    def leakage_power(self) -> float:
        """Total static power (W)."""
        total = self.data_array.leakage_power
        if self.tag_array is not None:
            total += self.tag_array.leakage_power
        if self.tag_cam is not None:
            total += self.tag_cam.leakage_power
        return total

    @cached_property
    def clock_energy_per_cycle(self) -> float:
        """Always-on clock energy (J/cycle), from DFF-based tag arrays."""
        total = self.data_array.clock_energy_per_cycle
        if self.tag_array is not None:
            total += self.tag_array.clock_energy_per_cycle
        return total

    @cached_property
    def area(self) -> float:
        """Total footprint (m^2)."""
        total = self.data_array.area
        if self.tag_array is not None:
            total += self.tag_array.area
        if self.tag_cam is not None:
            total += self.tag_cam.area
        return total
