"""Bank model: a grid of subarrays stitched together by an H-tree.

A bank is ``Ndwl x Ndbl`` subarrays. On an access, one horizontal stripe of
``Ndwl`` subarrays activates (each contributes ``width / Ndwl`` of the data
after column muxing); the address is broadcast down an H-tree and the data
returns on a matching tree, both on repeated semi-global wires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.array.mat import Subarray
from repro.array.organization import ArrayOrganization
from repro.array.spec import ArraySpec
from repro.circuit.repeater import RepeatedWire
from repro.fastpath import cached_property
from repro.tech import Technology
from repro.tech.wire import WireType

#: Extra area factor for intra-bank routing channels, redundancy rows, and
#: BIST — the gap between cell-array math and shipped macros.
_ROUTING_OVERHEAD = 1.22


@dataclass(frozen=True)
class Bank:
    """One bank of an SRAM array under a specific organization.

    Attributes:
        tech: Technology operating point.
        spec: The full array spec (entries here are per-bank).
        organization: Chosen (Ndwl, Ndbl, Nspd).
    """

    tech: Technology
    spec: ArraySpec
    organization: ArrayOrganization

    def __post_init__(self) -> None:
        org = self.organization
        if not org.fits(self.spec):
            raise ValueError(
                f"organization {org} does not tile {self.spec.name!r}"
            )

    # -- structure ----------------------------------------------------------

    @cached_property
    def subarray(self) -> Subarray:
        org = self.organization
        return Subarray(
            tech=self.tech,
            rows=org.rows_per_subarray(self.spec),
            cols=org.cols_per_subarray(self.spec),
            ports=self.spec.ports,
            column_mux_degree=org.nspd,
            cell_type=self.spec.cell_type,
        )

    @property
    def subarray_count(self) -> int:
        return self.organization.ndwl * self.organization.ndbl

    @property
    def active_subarrays(self) -> int:
        """Subarrays that fire on each access (one horizontal stripe)."""
        return self.organization.ndwl

    # -- geometry -----------------------------------------------------------

    @cached_property
    def width(self) -> float:  # repro: dim[return: m]
        """Bank width (m)."""
        return self.organization.ndwl * self.subarray.width * _ROUTING_OVERHEAD

    @cached_property
    def height(self) -> float:  # repro: dim[return: m]
        """Bank height (m)."""
        return self.organization.ndbl * self.subarray.height * _ROUTING_OVERHEAD

    @cached_property
    def area(self) -> float:  # repro: dim[return: m2]
        """Bank footprint (m^2)."""
        return self.width * self.height

    # -- H-tree -------------------------------------------------------------

    @cached_property
    def _htree_wire(self) -> RepeatedWire:
        return RepeatedWire(self.tech, WireType.SEMI_GLOBAL)

    @cached_property
    def htree_length(self) -> float:  # repro: dim[return: m]
        """Average one-way routing distance, edge to active stripe (m)."""
        return 0.25 * (self.width + self.height)

    @cached_property
    def htree_delay(self) -> float:  # repro: dim[return: s]
        """Address-in plus data-out tree traversal (s)."""
        return 2.0 * self._htree_wire.delay(self.htree_length)

    @cached_property
    def _htree_energy_per_access(self) -> float:  # repro: dim[return: j]
        """Address broadcast + data return energy, random data (J)."""
        address_bits = self.spec.address_bits
        data_bits = self.spec.routed_bits
        toggling = 0.5 * (address_bits + data_bits)
        return toggling * self._htree_wire.energy(self.htree_length)

    # -- timing ---------------------------------------------------------------

    @cached_property
    def access_time(self) -> float:  # repro: dim[return: s]
        """Address-at-bank to data-at-bank-edge (s)."""
        return self.subarray.access_delay + self.htree_delay

    @cached_property
    def cycle_time(self) -> float:  # repro: dim[return: s]
        """Minimum time between random accesses to the bank (s)."""
        return self.subarray.cycle_time

    # -- energy -----------------------------------------------------------------

    @cached_property
    def read_energy(self) -> float:  # repro: dim[return: j]
        """Dynamic energy of one read (J)."""
        return (
            self.active_subarrays * self.subarray.read_energy
            + self._htree_energy_per_access
        )

    @cached_property
    def write_energy(self) -> float:  # repro: dim[return: j]
        """Dynamic energy of one write (J)."""
        return (
            self.active_subarrays * self.subarray.write_energy
            + self._htree_energy_per_access
        )

    # -- leakage -------------------------------------------------------------------

    @cached_property
    def leakage_power(self) -> float:  # repro: dim[return: w]
        """Static power of the whole bank (W)."""
        subarrays = self.subarray_count * self.subarray.leakage_power
        htree = 2.0 * self._htree_wire.leakage_power(self.htree_length) * (
            self.spec.routed_bits / 2
        )
        return subarrays + htree

    @cached_property
    def refresh_power(self) -> float:  # repro: dim[return: w]
        """Average eDRAM refresh power of the bank (W); zero for SRAM."""
        return self.subarray_count * self.subarray.refresh_power
