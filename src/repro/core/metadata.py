"""Transformation-layer meta-data: row ids, column ids, and the
meta-data budget report.

Generic layouts (Universal/Pivot/Chunk) keep their own meta-data *in the
data* (the gray columns of Figure 4); the query-transformation layer
additionally needs bookkeeping that never reaches the database: per
logical row a ``Row`` id, per logical column a stable ``Col`` id, and a
running account of how much database meta-data memory each layout
consumes (the budget Chunk Folding tries to spend well).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class RowIdAllocator:
    """Monotonic row ids per (tenant, logical table).

    "For any insert, the application logic has to ... assign each
    inserted new row a unique row identifier." (Section 6.3)
    Not durable state: the first time a process meets a (tenant, table),
    ``seed(tenant_id, table)`` derives its next id from the stored rows.
    """

    def __init__(self, seed: Callable[[int, str], int]) -> None:
        self._seed = seed
        self._next: dict[tuple[int, str], int] = {}

    def _key(self, tenant_id: int, table_name: str) -> tuple[int, str]:
        key = (tenant_id, table_name.lower())
        if key not in self._next:
            self._next[key] = self._seed(*key)
        return key

    def allocate(self, tenant_id: int, table_name: str) -> int:
        key = self._key(tenant_id, table_name)
        self._next[key] += 1
        return self._next[key] - 1

    def observe(self, tenant_id: int, table_name: str, row_id: int) -> None:
        """Bump the counter past an externally-seen row id (migration)."""
        key = self._key(tenant_id, table_name)
        self._next[key] = max(self._next[key], row_id + 1)

    def forget_tenant(self, tenant_id: int) -> None:
        for key in [k for k in self._next if k[0] == tenant_id]:
            del self._next[key]


class ColumnIdAllocator:
    """Stable ``Col`` ids per base table.

    Base columns take their positional ids; extension columns receive
    globally allocated ids when the extension is registered, so all
    tenants sharing an extension agree on its column ids (required for
    Pivot Tables, where Col is part of the physical key).
    """

    def __init__(self) -> None:
        self._ids: dict[tuple[str, str], int] = {}
        self._next: dict[str, int] = {}

    def register_base(self, table_name: str, column_names: list[str]) -> None:
        table = table_name.lower()
        for i, name in enumerate(column_names):
            self._ids[(table, name.lower())] = i
        self._next[table] = len(column_names)

    def register_extension(self, table_name: str, column_names: list[str]) -> None:
        table = table_name.lower()
        start = self._next.get(table, 0)
        for offset, name in enumerate(column_names):
            self._ids.setdefault((table, name.lower()), start + offset)
        self._next[table] = start + len(column_names)

    def column_id(self, table_name: str, column_name: str) -> int:
        return self._ids[(table_name.lower(), column_name.lower())]

    def snapshot(self) -> dict:
        """Picklable id-assignment state (crash-recovery bookkeeping)."""
        return {"ids": dict(self._ids), "next": dict(self._next)}

    def restore(self, state: dict) -> None:
        self._ids = dict(state["ids"])
        self._next = dict(state["next"])


@dataclass
class MetadataReport:
    """How a layout spends the database's meta-data budget."""

    layout: str
    physical_tables: int
    physical_indexes: int
    metadata_bytes: int
    buffer_pool_pages: int

    def lines(self) -> list[str]:
        return [
            f"layout:            {self.layout}",
            f"physical tables:   {self.physical_tables}",
            f"physical indexes:  {self.physical_indexes}",
            f"meta-data bytes:   {self.metadata_bytes}",
            f"buffer pool pages: {self.buffer_pool_pages}",
        ]
