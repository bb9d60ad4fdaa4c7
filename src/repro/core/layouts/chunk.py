"""Chunk Table Layout — Figure 4(e).

A Chunk Table is a Pivot Table generalized to a set of typed data
columns: logical tables are partitioned into chunks of at most
``width`` columns, each chunk identified by (Tenant, Table, Chunk) and
re-aligned on Row.  Varying ``width`` spans the spectrum from Pivot
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
from ..schema import Extension, TenantConfig
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
    # Shared chunk tables co-locate every tenant and are scanned with
    # selective tenant/tbl/chunk meta predicates: column-major pages let
    # those predicates run before row assembly.
    default_storage = "columnar"

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
        self._partitions: dict[tuple[int, str], list[ChunkAssignment]] = {}
        #: Tenants whose partitions were extended in place by an ALTER
        #: (appended chunks): their fragments diverge from fresh tenants
        #: with the same extension set, so they must not share cached
        #: statements with them.
        self._legacy_tenants: set[int] = set()

    # -- partitioning ------------------------------------------------------

    def partition(self, tenant_id: int, table_name: str) -> list[ChunkAssignment]:
        key = (tenant_id, table_name.lower())
        cached = self._partitions.get(key)
        if cached is None:
            logical = self.schema.logical_table(tenant_id, table_name)
            cached = partition_columns(list(logical.columns), self.width)
            self._partitions[key] = cached
        return cached

    def on_extension_granted(self, config: TenantConfig, extension: Extension) -> None:
        """Widen the tenant's partition in place.

        Partitioning is positional, so recomputing it from the new
        logical schema would shuffle existing columns between chunks and
        strand the tenant's rows in the old chunk tables.  A tenant with
        a cached partition therefore keeps it and gains the extension's
        columns as *appended* chunks (becoming a legacy tenant, like the
        ALTER path); fresh tenants compute their partition from the full
        schema on first use.
        """
        self._append_chunks(
            config.tenant_id, extension.base_table, extension.columns
        )
        super().on_extension_granted(config, extension)

    def on_extension_altered(self, extension, new_columns) -> None:
        """Pure bookkeeping — but the width-driven partitioning is
        positional, so re-partitioning would shuffle existing columns
        between chunks.  Existing subscribed tenants therefore keep
        their old partition and gain the new columns as *appended*
        chunks."""
        for tenant_id in self.schema.tenants_with_extension(extension.name):
            self._append_chunks(tenant_id, extension.base_table, new_columns)
        # Register ids and backfill AFTER the partitions include the
        # appended chunks.
        super().on_extension_altered(extension, new_columns)

    def _append_chunks(self, tenant_id: int, table_name: str, columns) -> None:
        """Append ``columns`` to a tenant's cached partition as chunks
        numbered after its last one, making the tenant a legacy tenant.
        A tenant with no cached partition is left alone: its partition
        is computed fresh from the schema on first use."""
        key = (tenant_id, table_name.lower())
        cached = self._partitions.get(key)
        if cached is None:
            return
        self._legacy_tenants.add(tenant_id)
        start = len(cached)
        self._partitions[key] = cached + [
            dataclasses.replace(a, chunk_id=start + a.chunk_id)
            for a in partition_columns(list(columns), self.width)
        ]

    def on_tenant_removed(self, config: TenantConfig) -> None:
        super().on_tenant_removed(config)
        self._legacy_tenants.discard(config.tenant_id)
        for key in [k for k in self._partitions if k[0] == config.tenant_id]:
            del self._partitions[key]

    def statement_shape(self, tenant_id: int) -> tuple:
        if tenant_id in self._legacy_tenants:
            return ("tenant", tenant_id)
        return super().statement_shape(tenant_id)

    def bookkeeping(self) -> dict:
        # Partitions must survive a crash verbatim: legacy tenants'
        # appended chunks cannot be recomputed from the current schema.
        state = super().bookkeeping()
        state["partitions"] = {
            key: list(assignments)
            for key, assignments in self._partitions.items()
        }
        state["legacy_tenants"] = set(self._legacy_tenants)
        return state

    def restore_bookkeeping(self, state: dict) -> None:
        super().restore_bookkeeping(state)
        self._partitions = {
            key: list(assignments)
            for key, assignments in state["partitions"].items()
        }
        self._legacy_tenants = set(state["legacy_tenants"])

    # -- physical tables ---------------------------------------------------------

    def _ensure_folded(self, assignment: ChunkAssignment) -> str:
        shape = assignment.shape
        if self.cover_shapes is not None and not assignment.indexed:
            # Host the chunk in its planned cover table; the slot names
            # stay valid because the cover has at least as many slots of
            # every family.
            shape = assign_cover(self.cover_shapes, shape)
        ddl, indexes = chunk_table_ddl(
            shape,
            indexed=assignment.indexed,
            soft_delete=self.soft_delete,
        )
        name = shape.table_name(indexed=assignment.indexed)
        self._ensure_table(name, ddl, indexes)
        return name

    def _ensure_unfolded(
        self, table_name: str, assignment: ChunkAssignment
    ) -> str:
        """Vertical partitioning: one physical table per (table, chunk),
        identified by name — no Chunk column (Test 6's baseline)."""
        physical = f"vp_{table_name.lower()}_c{assignment.chunk_id}"
        columns = ["tenant INTEGER NOT NULL", f"{ROW} INTEGER NOT NULL"]
        if self.soft_delete:
            columns.append("alive INTEGER NOT NULL")
        for _logical, slot in assignment.slots:
            family = slot.rstrip("0123456789")
            columns.append(f"{slot} {SLOT_DDL[family]}")
        ddl = f"CREATE TABLE {physical} (" + ", ".join(columns) + ")"
        indexes = [
            f"CREATE UNIQUE INDEX {physical}_tr ON {physical} (tenant, {ROW})"
        ]
        if assignment.indexed and assignment.shape.ints:
            indexes.append(
                f"CREATE INDEX {physical}_vtr ON {physical} "
                f"(int1, tenant, {ROW})"
            )
        self._ensure_table(physical, ddl, indexes)
        return physical

    # -- fragments -------------------------------------------------------------------

    def fragments(self, tenant_id: int, table_name: str) -> list[Fragment]:
        logical = self.schema.logical_table(tenant_id, table_name)
        types = {c.lname: c.type for c in logical.columns}
        table_id = self.schema.table_id(table_name)
        fragments = []
        for assignment in self.partition(tenant_id, table_name):
            if self.folded:
                physical = self._ensure_folded(assignment)
                meta = (
                    ("tenant", tenant_id),
                    ("tbl", table_id),
                    ("chunk", assignment.chunk_id),
                )
            else:
                physical = self._ensure_unfolded(table_name, assignment)
                meta = (("tenant", tenant_id),)
            columns = tuple(
                (
                    name,
                    ColumnLoc(
                        slot,
                        cast=slot_cast(types[name]),
                        store=slot_store(types[name]),
                    ),
                )
                for name, slot in assignment.slots
            )
            fragments.append(
                Fragment(
                    table=physical,
                    meta=meta,
                    columns=columns,
                    row_column=ROW,
                )
            )
        return fragments
