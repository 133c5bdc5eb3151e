"""Issue-selection logic: a radix-4 arbitration tree over window requests.

The select stage of a dynamic scheduler picks ``issue_width`` ready
instructions from ``window_entries`` requesters. McPAT (following
Palacharla's analysis) models it as a tree of radix-4 arbiter cells, one
tree per issue slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuit.gates import Gate, GateKind
from repro.fastpath import cached_property
from repro.tech import Technology

#: Gate-equivalents of one radix-4 arbiter tree cell.
_CELL_GATES = 12.0


@dataclass(frozen=True)
class SelectionLogic:
    """Selection trees of a dynamic scheduler.

    Attributes:
        tech: Technology operating point.
        window_entries: Requesting issue-window entries.
        issue_width: Parallel selection trees.
    """

    tech: Technology
    window_entries: int
    issue_width: int = 1

    def __post_init__(self) -> None:
        if self.window_entries < 1:
            raise ValueError("window_entries must be >= 1")
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")

    @property
    def tree_depth(self) -> int:
        """Radix-4 levels from leaves to the root."""
        return max(1, math.ceil(math.log(max(2, self.window_entries), 4)))

    @property
    def cell_count(self) -> int:
        """Arbiter cells in one tree."""
        cells = 0
        level = self.window_entries
        while level > 1:
            level = math.ceil(level / 4)
            cells += level
        return max(1, cells)

    @cached_property
    def _gate(self) -> Gate:
        return Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)

    @cached_property
    def delay(self) -> float:
        """Root-ward grant propagation (request + grant = 2 traversals) (s)."""
        per_level = self._gate.delay(4 * self._gate.input_capacitance)
        return 2 * self.tree_depth * 3 * per_level

    @cached_property
    def energy_per_selection(self) -> float:
        """Dynamic energy of one issue-slot selection (J)."""
        per_cell = _CELL_GATES * 0.4 * self._gate.switching_energy(
            2 * self._gate.input_capacitance
        )
        return self.cell_count * per_cell

    @cached_property
    def leakage_power(self) -> float:
        """Static power of all trees (W)."""
        return (
            self.issue_width
            * self.cell_count
            * _CELL_GATES
            * self._gate.leakage_power
        )

    @cached_property
    def area(self) -> float:
        """Layout area of all trees (m^2)."""
        return (
            self.issue_width
            * self.cell_count
            * _CELL_GATES
            * self._gate.area
        )
