"""Chunk Folding — Figure 4(f), the paper's contribution.

Chunk Tables (Figure 4(e), :class:`~.chunk.ChunkTableLayout`) plus
conventional tables: the meta-data budget is split between
application-specific conventional tables and a fixed set of generic
Chunk Tables.  Each base table (the heavily-utilized part of every
tenant's schema) keeps its columns in one conventional shared table
à la the Extension Table Layout, while extensions are chunked and
*folded* into shared Chunk Tables exactly as in the Chunk layout.
Adding an extension to a tenant is pure bookkeeping — no DDL — so
logical schema changes happen while the database is online.

The paper's ongoing-work direction, a utilization-driven split that
folds cold base columns into Chunk Tables too, is not built: nothing
on a serving path measures column utilization to drive it.
"""

from __future__ import annotations

from ..folding import ChunkAssignment
from ..schema import LogicalTable
from .base import ColumnLoc, Fragment, ROW
from .chunk import ChunkTableLayout


class ChunkFoldingLayout(ChunkTableLayout):
    name = "chunk_folding"

    def __init__(
        self, db, schema, *, width: int = 6, soft_delete: bool = False
    ) -> None:
        super().__init__(db, schema, width=width, soft_delete=soft_delete)

    def base_physical(self, table_name: str) -> str:
        return f"{table_name.lower()}_cf"

    def _base_chunks(self, table: LogicalTable) -> list[ChunkAssignment]:
        """Create the conventional table of the base columns; none is
        chunked."""
        self._ensure_conventional(self.base_physical(table.name), table.columns)
        return []

    def fragments(self, tenant_id: int, table_name: str) -> list[Fragment]:
        conventional = Fragment(
            table=self.base_physical(table_name),
            meta=(("tenant", tenant_id),),
            columns=tuple(
                (c.lname, ColumnLoc(c.lname))
                for c in self.schema.table(table_name).columns
            ),
            row_column=ROW,
        )
        return [conventional, *super().fragments(tenant_id, table_name)]
