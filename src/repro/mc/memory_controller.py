"""Memory controller: frontend queues, transaction engine, PHY.

McPAT splits the MC into a *frontend engine* (request/response queues and
scheduling), a *transaction engine* (command sequencing FSMs), and the
*PHY* (the mixed-signal I/O drivers). The queues are arrays; the engines
are gate censuses; the PHY is an empirical per-bit energy that scales
poorly with technology, as analog circuits do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity import MemoryControllerActivity
from repro.array import ArraySpec, CellType, build_array
from repro.array.array_model import SramArray
from repro.chip.results import ComponentResult
from repro.circuit.gates import Gate, GateKind
from repro.config.schema import MemoryControllerConfig
from repro.fastpath import cached_property
from repro.tech import Technology

#: Gate census of the scheduling frontend per channel.
_FRONTEND_GATES = 50_000

#: Gate census of the transaction (command) engine per channel.
_TRANSACTION_GATES = 30_000

#: PHY energy per transferred bit at the 90 nm reference (J/bit); DDR-class
#: single-ended I/O burns ~15-25 pJ/bit, dominated by termination.
_PHY_ENERGY_PER_BIT_90NM = 18e-12

#: PHY area per channel at 90 nm (m^2): drivers, DLLs, and the pad-facing
#: analog of one DDR-class channel.
_PHY_AREA_90NM = 10.0e-6

#: Analog scaling exponent: PHY energy/area shrink much slower than logic.
_PHY_SCALING_EXPONENT = 0.5


@dataclass(frozen=True)
class MemoryController:
    """All memory-controller channels of the chip."""

    tech: Technology
    config: MemoryControllerConfig

    @property
    def n_channels(self) -> int:
        return self.config.channels

    @cached_property
    def request_queue(self) -> SramArray | None:
        """Read-request queue of one channel."""
        if self.n_channels == 0:
            return None
        entry_bits = self.config.address_bus_bits + 16
        return build_array(self.tech, ArraySpec(
            name="mc_request_queue",
            entries=max(2, self.config.request_queue_entries),
            width_bits=entry_bits,
            cell_type=CellType.DFF
            if self.config.request_queue_entries <= 32 else CellType.SRAM,
        ))

    @cached_property
    def write_buffer(self) -> SramArray | None:
        """Write-data buffer of one channel."""
        if self.n_channels == 0:
            return None
        return build_array(self.tech, ArraySpec(
            name="mc_write_buffer",
            entries=max(2, self.config.request_queue_entries),
            width_bits=self.config.data_bus_bits * 4,
        ))

    @cached_property
    def _gate(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)

    @cached_property
    def _phy_scale(self) -> float:
        return (self.tech.node_nm / 90.0) ** _PHY_SCALING_EXPONENT

    @cached_property
    def phy_energy_per_bit(self) -> float:
        """PHY energy per transferred bit at this node (J)."""
        return _PHY_ENERGY_PER_BIT_90NM * self._phy_scale

    @cached_property
    def peak_bandwidth_bits_per_second(self) -> float:
        """Aggregate off-chip bandwidth across channels (bit/s)."""
        return (
            self.n_channels
            * self.config.data_bus_bits
            * self.config.peak_transfer_rate_mts
            * 1e6
        )

    def result(
        self,
        clock_hz: float,
        activity: MemoryControllerActivity | None = None,
    ) -> ComponentResult:
        """Report all channels of the memory controller.

        Peak power is bounded by the off-chip bus bandwidth, not the core
        clock: a saturated channel moves ``peak_transfer_rate`` regardless
        of how fast the cores run.
        """
        if self.n_channels == 0:
            return ComponentResult(name="Memory Controller")
        assert self.request_queue is not None
        assert self.write_buffer is not None

        line_bits = self.config.data_bus_bits * 8  # one burst
        peak_transactions_per_s = (
            self.peak_bandwidth_bits_per_second / line_bits
        )

        def dynamic(transactions_per_s: float) -> dict[str, float]:
            reads = writes = transactions_per_s / 2.0
            queues = (
                reads * (self.request_queue.read_energy
                         + self.request_queue.write_energy)
                + writes * (self.write_buffer.read_energy
                            + self.write_buffer.write_energy)
                + self.n_channels * clock_hz * (
                    self.request_queue.clock_energy_per_cycle
                    + self.write_buffer.clock_energy_per_cycle
                )
            )
            per_gate = self._gate.switching_energy(
                2 * self._gate.input_capacitance
            )
            engines = (
                transactions_per_s
                * 0.2
                * (_FRONTEND_GATES + _TRANSACTION_GATES)
                * per_gate
            )
            phy = (
                transactions_per_s * line_bits * self.phy_energy_per_bit
            )
            return {"queues": queues, "engines": engines, "phy": phy}

        if activity is None:
            runtime_transactions = 0.0
        else:
            requested = (
                (activity.reads_per_cycle + activity.writes_per_cycle)
                * clock_hz
            )
            runtime_transactions = min(requested, peak_transactions_per_s)

        p = dynamic(peak_transactions_per_s)
        r = dynamic(runtime_transactions) if activity is not None else {
            "queues": 0.0, "engines": 0.0, "phy": 0.0,
        }

        logic_gates = (
            (_FRONTEND_GATES + _TRANSACTION_GATES) * self.n_channels
        )
        queue_area = self.n_channels * (
            self.request_queue.area + self.write_buffer.area
        )
        queue_leak = self.n_channels * (
            self.request_queue.leakage_power + self.write_buffer.leakage_power
        )

        children = [
            ComponentResult(
                name="mc_frontend",
                area=queue_area + logic_gates * self._gate.area * 0.6,
                peak_dynamic_power=p["queues"] + 0.6 * p["engines"],
                runtime_dynamic_power=r["queues"] + 0.6 * r["engines"],
                leakage_power=(
                    queue_leak
                    + 0.6 * logic_gates * self._gate.leakage_power
                ),
            ),
            ComponentResult(
                name="mc_transaction_engine",
                area=logic_gates * self._gate.area * 0.4,
                peak_dynamic_power=0.4 * p["engines"],
                runtime_dynamic_power=0.4 * r["engines"],
                leakage_power=(
                    0.4 * logic_gates * self._gate.leakage_power
                ),
            ),
        ]
        if self.config.has_phy:
            children.append(ComponentResult(
                name="mc_phy",
                area=self.n_channels * _PHY_AREA_90NM * self._phy_scale**2,
                peak_dynamic_power=p["phy"],
                runtime_dynamic_power=r["phy"],
                leakage_power=0.1 * p["phy"] + 1e-6,  # bias currents
            ))

        return ComponentResult(
            name="Memory Controller", children=tuple(children)
        )
