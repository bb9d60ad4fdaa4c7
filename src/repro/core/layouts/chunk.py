"""Chunk Table Layout — Figure 4(e).

A Chunk Table is a Pivot Table generalized to a set of typed data
columns: each base table and each extension is cut into chunks of at
most ``width`` columns once, when it is defined, and every tenant's
rows of that column group live in the same chunks, identified by
(Tenant, Table, Chunk) and re-aligned on Row.  Chunk ids are numbered
per base table — its own chunks first, then each extension's in
definition order, an ALTER appending chunks for its new columns — and
a tenant's view is the base table's chunks followed by those of its
extensions.  Tenants with the same extensions therefore have the same
fragments whatever their history, and a grant or ALTER is bookkeeping
plus a NULL backfill.  Varying ``width`` spans the spectrum from Pivot
Tables (width 1) to Universal Tables (width = table width) — the axis
Figures 9–12 sweep.

``folded=False`` gives plain vertical partitioning (each chunk in its
own physical table, identified by table name instead of a Chunk
column) — the comparison baseline of Figure 12/Test 6.
"""

from __future__ import annotations

import dataclasses

from ...engine.errors import PlanError
from ..folding import (
    ChunkAssignment,
    ChunkShape,
    assign_cover,
    chunk_table_ddl,
    partition_columns,
)
from ..schema import Extension, LogicalTable
from .base import (
    ColumnLoc,
    Fragment,
    Layout,
    ROW,
    SLOT_DDL,
    slot_cast,
    slot_store,
)


class ChunkTableLayout(Layout):
    name = "chunk"
    shares_statements = True

    def __init__(
        self,
        db,
        schema,
        *,
        width: int = 6,
        folded: bool = True,
        cover_shapes: list[ChunkShape] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(db, schema, **kwargs)
        if width < 1:
            raise PlanError("chunk width must be >= 1")
        self.width = width
        self.folded = folded
        #: Optional pre-planned shape covers (see
        #: :func:`repro.core.folding.select_cover_shapes`): each chunk is
        #: stored in the cheapest cover table that fits it, bounding the
        #: number of distinct Chunk Tables at the price of NULL padding.
        self.cover_shapes = cover_shapes
        #: The chunks of every column group, shared by all tenants: per
        #: base table (only those with chunks) and per extension.
        self._table_chunks: dict[str, list[ChunkAssignment]] = {}
        self._extension_chunks: dict[str, list[ChunkAssignment]] = {}
        #: Next free chunk id per base table (only those with chunks).
        self._next_chunk: dict[str, int] = {}

    # -- cutting chunks ------------------------------------------------------

    def _base_chunks(self, table: LogicalTable) -> list[ChunkAssignment]:
        """The base table's columns cut into chunks, not yet numbered."""
        return partition_columns(list(table.columns), self.width)

    def _allocate(
        self, table_name: str, assignments: list[ChunkAssignment]
    ) -> list[ChunkAssignment]:
        """Number chunks after the base table's last one and create
        their physical tables."""
        if not assignments:
            return []
        table = table_name.lower()
        start = self._next_chunk.get(table, 0)
        chunks = [
            dataclasses.replace(a, chunk_id=start + i)
            for i, a in enumerate(assignments)
        ]
        self._next_chunk[table] = start + len(chunks)
        for chunk in chunks:
            self._ensure_chunk_table(table_name, chunk)
        return chunks

    def on_table_added(self, table: LogicalTable) -> None:
        super().on_table_added(table)
        chunks = self._allocate(table.name, self._base_chunks(table))
        if chunks:
            self._table_chunks[table.lname] = chunks

    def on_extension_added(self, extension: Extension) -> None:
        super().on_extension_added(extension)
        self._extension_chunks[extension.lname] = self._allocate(
            extension.base_table,
            partition_columns(list(extension.columns), self.width),
        )

    def on_extension_altered(self, extension: Extension, new_columns) -> None:
        """Online ALTER: the new columns get fresh chunks appended to
        the extension's; stored chunks stay where they are."""
        self._extension_chunks[extension.lname].extend(
            self._allocate(
                extension.base_table,
                partition_columns(list(new_columns), self.width),
            )
        )
        # Register ids and backfill after the fragments include the
        # appended chunks.
        super().on_extension_altered(extension, new_columns)

    def bookkeeping(self) -> dict:
        state = super().bookkeeping()
        state["table_chunks"] = {
            name: list(chunks) for name, chunks in self._table_chunks.items()
        }
        state["extension_chunks"] = {
            name: list(chunks)
            for name, chunks in self._extension_chunks.items()
        }
        state["next_chunk"] = dict(self._next_chunk)
        return state

    def restore_bookkeeping(self, state: dict) -> None:
        super().restore_bookkeeping(state)
        self._table_chunks = {
            name: list(chunks) for name, chunks in state["table_chunks"].items()
        }
        self._extension_chunks = {
            name: list(chunks)
            for name, chunks in state["extension_chunks"].items()
        }
        self._next_chunk = dict(state["next_chunk"])

    # -- physical tables ---------------------------------------------------------

    def _host_shape(self, chunk: ChunkAssignment) -> ChunkShape:
        if self.cover_shapes is not None and not chunk.indexed:
            # Host the chunk in its planned cover table; the slot names
            # stay valid because the cover has at least as many slots of
            # every family.
            return assign_cover(self.cover_shapes, chunk.shape)
        return chunk.shape

    def _chunk_table(self, table_name: str, chunk: ChunkAssignment) -> str:
        if self.folded:
            return self._host_shape(chunk).table_name(indexed=chunk.indexed)
        return f"vp_{table_name.lower()}_c{chunk.chunk_id}"

    def _ensure_chunk_table(self, table_name: str, chunk: ChunkAssignment) -> None:
        physical = self._chunk_table(table_name, chunk)
        if self.folded:
            ddl, indexes = chunk_table_ddl(
                self._host_shape(chunk),
                indexed=chunk.indexed,
                soft_delete=self.soft_delete,
            )
            self._ensure_table(physical, ddl, indexes)
            return
        # Vertical partitioning: one physical table per (table, chunk),
        # identified by name — no Chunk column (Test 6's baseline).
        columns = ["tenant INTEGER NOT NULL", f"{ROW} INTEGER NOT NULL"]
        if self.soft_delete:
            columns.append("alive INTEGER NOT NULL")
        for _logical, slot in chunk.slots:
            family = slot.rstrip("0123456789")
            columns.append(f"{slot} {SLOT_DDL[family]}")
        ddl = f"CREATE TABLE {physical} (" + ", ".join(columns) + ")"
        indexes = [
            f"CREATE UNIQUE INDEX {physical}_tr ON {physical} (tenant, {ROW})"
        ]
        if chunk.indexed and chunk.shape.ints:
            indexes.append(
                f"CREATE INDEX {physical}_vtr ON {physical} "
                f"(int1, tenant, {ROW})"
            )
        self._ensure_table(physical, ddl, indexes)

    # -- fragments -------------------------------------------------------------------

    def fragments(self, tenant_id: int, table_name: str) -> list[Fragment]:
        base = self.schema.table(table_name)
        table_id = self.schema.table_id(table_name)
        groups = [(base.columns, self._table_chunks.get(base.lname, ()))]
        groups += [
            (extension.columns, self._extension_chunks[extension.lname])
            for extension in self.schema.extensions_of(tenant_id, table_name)
        ]
        fragments = []
        for columns, chunks in groups:
            if not chunks:
                continue
            types = {c.lname: c.type for c in columns}
            for chunk in chunks:
                if self.folded:
                    meta = (
                        ("tenant", tenant_id),
                        ("tbl", table_id),
                        ("chunk", chunk.chunk_id),
                    )
                else:
                    meta = (("tenant", tenant_id),)
                fragments.append(
                    Fragment(
                        table=self._chunk_table(table_name, chunk),
                        meta=meta,
                        columns=tuple(
                            (
                                name,
                                ColumnLoc(
                                    slot,
                                    cast=slot_cast(types[name]),
                                    store=slot_store(types[name]),
                                ),
                            )
                            for name, slot in chunk.slots
                        ),
                        row_column=ROW,
                    )
                )
        return fragments
