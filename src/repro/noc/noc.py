"""Whole-network assembly for the supported topologies.

* ``MESH_2D`` — one 5-port router per endpoint plus 2 links per endpoint.
* ``RING``    — one 3-port router per endpoint plus 1 link per endpoint.
* ``CROSSBAR``— a single chip-level crossbar (the Niagara arrangement)
  with endpoint-length wires on both sides.
* ``BUS``     — a shared repeated-wire bus with a central arbiter.
* ``NONE``    — no interconnect (single-core chips).

Link lengths derive from the endpoint tile pitch, which the chip level
computes from the floorplan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.activity import NocActivity
from repro.chip.results import ComponentResult
from repro.circuit import Arbiter, Crossbar
from repro.circuit.repeater import RepeatedWire
from repro.config.schema import NocConfig, NocTopology
from repro.fastpath import cached_property
from repro.noc.link import Link
from repro.noc.router import Router
from repro.tech import Technology
from repro.tech.wire import WireType


@dataclass(frozen=True)
class NetworkOnChip:
    """The chip's interconnect fabric.

    Attributes:
        tech: Technology operating point.
        config: NoC parameters.
        n_endpoints: Network endpoints (cores or clusters).
        endpoint_pitch: Center-to-center tile distance (m).
    """

    tech: Technology
    config: NocConfig
    n_endpoints: int
    endpoint_pitch: float

    def __post_init__(self) -> None:
        if self.n_endpoints < 1:
            raise ValueError("n_endpoints must be >= 1")
        if self.endpoint_pitch < 0:
            raise ValueError("endpoint_pitch must be non-negative")

    @property
    def topology(self) -> NocTopology:
        """Effective topology (NONE for isolated single endpoints)."""
        if self.n_endpoints == 1 and self.config.external_ports == 0:
            return NocTopology.NONE
        return self.config.topology

    # -- structures -------------------------------------------------------------

    #: Endpoints concentrated onto each router in a concentrated mesh.
    CMESH_CONCENTRATION = 4

    @cached_property
    def router(self) -> Router | None:
        """The per-endpoint router for router-based fabrics."""
        extra = self.config.external_ports
        if self.topology in (NocTopology.MESH_2D, NocTopology.TORUS_2D):
            return Router(self.tech, self.config, n_ports=5 + extra)
        if self.topology is NocTopology.CMESH_2D:
            # 4 network ports + one local port per concentrated endpoint.
            ports = 4 + self.CMESH_CONCENTRATION + extra
            return Router(self.tech, self.config, n_ports=ports)
        if self.topology is NocTopology.RING:
            return Router(self.tech, self.config, n_ports=3 + extra)
        return None

    @property
    def n_routers(self) -> int:
        """Routers instantiated across the fabric."""
        if self.router is None:
            return 0
        if self.topology is NocTopology.CMESH_2D:
            return max(1, math.ceil(
                self.n_endpoints / self.CMESH_CONCENTRATION))
        return self.n_endpoints

    @property
    def links_per_endpoint(self) -> float:
        """Unidirectional links amortized per endpoint."""
        extra = self.config.external_ports
        if self.topology in (NocTopology.MESH_2D, NocTopology.TORUS_2D):
            return 2.0 + extra
        if self.topology is NocTopology.CMESH_2D:
            # 2 links per router, shared by the concentrated endpoints.
            return 2.0 / self.CMESH_CONCENTRATION + extra
        if self.topology is NocTopology.RING:
            return 1.0 + extra
        return 0.0

    @property
    def _link_length(self) -> float:
        """Physical link span; folded tori and concentrated meshes span
        two tile pitches."""
        pitch = max(self.endpoint_pitch, 1e-4)
        if self.topology in (NocTopology.TORUS_2D, NocTopology.CMESH_2D):
            return 2.0 * pitch
        return pitch

    @cached_property
    def link(self) -> Link | None:
        """One representative link (length from the floorplan pitch)."""
        if self.links_per_endpoint == 0:
            return None
        return Link(
            self.tech,
            flit_bits=self.config.flit_bits,
            length=self._link_length,
            signaling=self.config.link_signaling,
        )

    @cached_property
    def crossbar(self) -> Crossbar | None:
        """The chip-level crossbar (CROSSBAR topology)."""
        if self.topology is not NocTopology.CROSSBAR:
            return None
        return Crossbar(
            self.tech,
            n_inputs=self.n_endpoints,
            n_outputs=max(2, self.n_endpoints + 1),
            width_bits=self.config.flit_bits,
        )

    @cached_property
    def bus_wire(self) -> RepeatedWire | None:
        """The shared bus wire (BUS topology)."""
        if self.topology is not NocTopology.BUS:
            return None
        return RepeatedWire(self.tech, WireType.GLOBAL)

    @cached_property
    def bus_arbiter(self) -> Arbiter | None:
        """The central bus arbiter (BUS topology)."""
        if self.topology is not NocTopology.BUS:
            return None
        return Arbiter(self.tech, max(2, self.n_endpoints))

    @property
    def _bus_length(self) -> float:
        return self.n_endpoints * self.endpoint_pitch

    # -- per-event costs ------------------------------------------------------------

    @cached_property
    def average_hops(self) -> float:
        """Mean router hops per packet for router-based topologies."""
        if self.topology is NocTopology.MESH_2D:
            side = math.sqrt(self.n_endpoints)
            return max(1.0, 2.0 * side / 3.0)
        if self.topology is NocTopology.TORUS_2D:
            # Wraparound halves the mean per-dimension distance.
            side = math.sqrt(self.n_endpoints)
            return max(1.0, side / 2.0)
        if self.topology is NocTopology.CMESH_2D:
            side = math.sqrt(max(1, self.n_routers))
            return max(1.0, 2.0 * side / 3.0)
        if self.topology is NocTopology.RING:
            return max(1.0, self.n_endpoints / 4.0)
        return 1.0

    @cached_property
    def energy_per_flit_hop(self) -> float:
        """Energy of one hop: router traversal + one link (J)."""
        if self.router is not None and self.link is not None:
            return self.router.energy_per_flit + self.link.energy_per_flit
        if self.crossbar is not None:
            wire = RepeatedWire(self.tech, WireType.GLOBAL)
            approach = (
                0.5 * self.config.flit_bits
                * wire.energy(self.endpoint_pitch)
            )
            return self.crossbar.energy_per_transfer + approach
        if self.bus_wire is not None:
            assert self.bus_arbiter is not None
            bus = (
                0.5 * self.config.flit_bits
                * self.bus_wire.energy(self._bus_length)
            )
            return bus + self.bus_arbiter.energy_per_arbitration
        return 0.0

    # -- report -----------------------------------------------------------------------

    def result(
        self,
        clock_hz: float,
        activity: NocActivity | None = None,
    ) -> ComponentResult:
        """Report the interconnect subtree (whole network)."""
        if self.topology is NocTopology.NONE:
            return ComponentResult(name="NoC")

        noc_clock = (
            self.config.clock_hz
            if self.config.has_separate_clock else clock_hz
        )
        peak = NocActivity.peak()

        def dynamic(act: NocActivity | None) -> float:
            if act is None:
                return 0.0
            flit_rate = act.flits_per_cycle_per_router
            per_cycle = (
                self.max_concurrent_transfers
                * flit_rate
                * self.energy_per_flit_hop
            )
            clocking = 0.0
            if self.router is not None:
                clocking = self.n_routers * self.router.clock_energy_per_cycle
            return (per_cycle + clocking) * noc_clock

        if self.router is not None and self.link is not None:
            area = self.n_routers * self.router.area + (
                self.n_endpoints * self.links_per_endpoint * self.link.area
            )
            leakage = self.n_routers * self.router.leakage_power + (
                self.n_endpoints
                * self.links_per_endpoint
                * self.link.leakage_power
            )
        elif self.crossbar is not None:
            area = self.crossbar.area
            leakage = self.crossbar.leakage_power
        else:
            assert self.bus_wire is not None and self.bus_arbiter is not None
            area = (
                self.config.flit_bits
                * self.bus_wire.repeater_area(self._bus_length)
                + self.bus_arbiter.area
            )
            leakage = (
                self.config.flit_bits
                * self.bus_wire.leakage_power(self._bus_length)
                + self.bus_arbiter.leakage_power
            )

        return ComponentResult(
            name="NoC",
            area=area,
            peak_dynamic_power=dynamic(peak),
            runtime_dynamic_power=dynamic(activity),
            leakage_power=leakage,
        )

    @property
    def max_concurrent_transfers(self) -> int:
        """Transfers the fabric can carry per cycle (for peak power)."""
        if self.router is not None:
            return self.n_routers
        if self.crossbar is not None:
            return self.n_endpoints
        return 1  # a bus serializes
