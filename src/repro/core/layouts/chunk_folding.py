"""Chunk Folding — Figure 4(f), the paper's contribution.

Chunk Tables (Figure 4(e), :class:`~.chunk.ChunkTableLayout`) plus
conventional tables: the meta-data budget is split between
application-specific conventional tables and a fixed set of generic
Chunk Tables.  Each base table (the heavily-utilized part of every
tenant's schema) keeps its hot columns in one conventional shared table
à la the Extension Table Layout, while extensions are chunked and
*folded* into shared Chunk Tables exactly as in the Chunk layout.
Adding an extension to a tenant is pure bookkeeping — no DDL — so
logical schema changes happen while the database is online.

Without a planner every base column is hot.  With a
:class:`~repro.core.folding.FoldingPlanner` the split is driven by
utilization statistics (the paper's ongoing-work direction): cold base
columns are folded into Chunk Tables too, as the base table's chunks.
"""

from __future__ import annotations

from ..folding import ChunkAssignment, FoldingPlanner
from ..schema import LogicalTable
from .base import ColumnLoc, Fragment, ROW
from .chunk import ChunkTableLayout


class ChunkFoldingLayout(ChunkTableLayout):
    name = "chunk_folding"

    def __init__(
        self,
        db,
        schema,
        *,
        width: int = 6,
        planner: FoldingPlanner | None = None,
        soft_delete: bool = False,
    ) -> None:
        super().__init__(db, schema, width=width, soft_delete=soft_delete)
        self.planner = planner

    def base_physical(self, table_name: str) -> str:
        return f"{table_name.lower()}_cf"

    def _base_chunks(self, table: LogicalTable) -> list[ChunkAssignment]:
        """Create the conventional table of the hot columns; only the
        cold ones are chunked."""
        if self.planner is None:
            hot, cold = list(table.columns), []
        else:
            decision = self.planner.plan(table.name, list(table.columns))
            hot, cold = decision.conventional, decision.chunked
        self._ensure_conventional(self.base_physical(table.name), hot)
        return cold

    def fragments(self, tenant_id: int, table_name: str) -> list[Fragment]:
        base = self.schema.table(table_name)
        cold = {
            name
            for chunk in self._table_chunks.get(base.lname, ())
            for name, _slot in chunk.slots
        }
        conventional = Fragment(
            table=self.base_physical(table_name),
            meta=(("tenant", tenant_id),),
            columns=tuple(
                (c.lname, ColumnLoc(c.lname))
                for c in base.columns
                if c.lname not in cold
            ),
            row_column=ROW,
        )
        return [conventional, *super().fragments(tenant_id, table_name)]
