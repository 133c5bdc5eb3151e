"""NoC router model built from first-class primitives (Orion-style).

A wormhole/VC router = per-port input buffers (SRAM), a port x port
crossbar, per-port VC allocators, and a switch allocator. Energy per flit
traversal is one buffer write + one buffer read + one crossbar transit +
the two arbitrations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.array import ArraySpec, CellType, build_array
from repro.array.array_model import SramArray
from repro.circuit import Arbiter, Crossbar
from repro.config.schema import NocConfig
from repro.fastpath import cached_property
from repro.tech import Technology


@dataclass(frozen=True)
class Router:
    """One router.

    Attributes:
        tech: Technology operating point.
        config: NoC parameters (flit width, VCs, buffer depth).
        n_ports: Router radix (5 for a 2D mesh, 3 for a ring).
    """

    tech: Technology
    config: NocConfig
    n_ports: int = 5

    def __post_init__(self) -> None:
        if self.n_ports < 2:
            raise ValueError("a router needs at least two ports")

    @cached_property
    def input_buffer(self) -> SramArray:
        """Buffer of one input port (all VCs)."""
        entries = self.config.virtual_channels * self.config.buffer_depth
        return build_array(self.tech, ArraySpec(
            name="router_input_buffer",
            entries=max(2, entries),
            width_bits=self.config.flit_bits,
            cell_type=CellType.DFF if entries <= 16 else CellType.SRAM,
        ))

    @cached_property
    def crossbar(self) -> Crossbar:
        return Crossbar(
            self.tech,
            n_inputs=self.n_ports,
            n_outputs=self.n_ports,
            width_bits=self.config.flit_bits,
        )

    @cached_property
    def vc_arbiter(self) -> Arbiter | None:
        if self.config.virtual_channels < 2:
            return None
        return Arbiter(self.tech, self.config.virtual_channels)

    @cached_property
    def switch_arbiter(self) -> Arbiter:
        return Arbiter(self.tech, max(2, self.n_ports))

    # -- per-event costs ---------------------------------------------------------

    @cached_property
    def energy_per_flit(self) -> float:  # repro: dim[return: j]
        """Dynamic energy of one flit traversing the router (J)."""
        buffer_energy = (
            self.input_buffer.write_energy + self.input_buffer.read_energy
        )
        arbitration = self.switch_arbiter.energy_per_arbitration
        if self.vc_arbiter is not None:
            arbitration += self.vc_arbiter.energy_per_arbitration
        return buffer_energy + self.crossbar.energy_per_transfer + arbitration

    @cached_property
    def clock_energy_per_cycle(self) -> float:  # repro: dim[return: j]
        """Always-on clocking of buffers and arbiter state (J/cycle)."""
        total = self.n_ports * self.input_buffer.clock_energy_per_cycle
        total += self.switch_arbiter.clock_energy_per_cycle
        if self.vc_arbiter is not None:
            total += self.n_ports * self.vc_arbiter.clock_energy_per_cycle
        return total

    @cached_property
    def leakage_power(self) -> float:  # repro: dim[return: w]
        """Static power of the whole router (W)."""
        total = self.n_ports * self.input_buffer.leakage_power
        total += self.crossbar.leakage_power
        total += self.switch_arbiter.leakage_power
        if self.vc_arbiter is not None:
            total += self.n_ports * self.vc_arbiter.leakage_power
        return total

    @cached_property
    def area(self) -> float:  # repro: dim[return: m2]
        """Router footprint (m^2)."""
        total = self.n_ports * self.input_buffer.area
        total += self.crossbar.area
        total += self.switch_arbiter.area
        if self.vc_arbiter is not None:
            total += self.n_ports * self.vc_arbiter.area
        return total
