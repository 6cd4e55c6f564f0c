"""Node-expansion budgets for the backtracking searches.

Budgets count search-node expansions, never wall time, so identical
inputs always explore identical trees and fail at identical points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExhausted

DEFAULT_NODES = 2_000_000


@dataclass
class Budget:
    """A spendable allowance of search-node expansions."""

    max_nodes: int = DEFAULT_NODES
    label: str = ""
    used: int = field(default=0, compare=False)

    def spend(self) -> None:
        self.used += 1
        if self.used > self.max_nodes:
            raise BudgetExhausted(
                f"search budget exhausted ({self.label or 'unlabelled'}): "
                f"{self.used} > {self.max_nodes} nodes",
                used=self.used,
                limit=self.max_nodes,
            )

