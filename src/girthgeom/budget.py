"""Node-expansion budgets for the backtracking searches.

Budgets count search-node expansions, never wall time, so identical
inputs always explore identical trees and fail at identical points.
"""

from __future__ import annotations

from .errors import BudgetExhausted

DEFAULT_NODES = 2_000_000


class Budget:
    """A spendable allowance of search-node expansions."""

    def __init__(self, max_nodes: int = DEFAULT_NODES, label: str = "", used: int = 0):
        self.max_nodes, self.label, self.used = max_nodes, label, used

    def spend(self) -> None:
        self.used += 1
        if self.used > self.max_nodes:
            raise BudgetExhausted(
                f"search budget exhausted ({self.label or 'unlabelled'}): "
                f"{self.used} > {self.max_nodes} nodes",
                used=self.used,
                limit=self.max_nodes,
            )

