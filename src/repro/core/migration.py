"""On-the-fly migration between representations.

"Because these factors can vary over time, it should be possible to
migrate data from one representation to another on-the-fly."
(Sections 3 and 7.)

:class:`Migrator` moves one tenant's data from its current layout to a
target layout table-by-table, preserving Row ids so in-flight references
stay valid.  The :class:`~repro.core.api.MultiTenantDatabase` keeps a
per-tenant layout override map, so reads and writes follow the tenant to
its new representation immediately — other tenants are untouched.
"""

from __future__ import annotations

from ..engine.plan.logical import conjoin
from ..engine.sql import ast
from .layouts.base import Layout
from .schema import MultiTenantSchema
from .transform.dml import DmlTransformer
from .transform.query import ROW_ALIAS, build_reconstruction


def read_tenant_rows(
    db, schema: MultiTenantSchema, layout: Layout, tenant_id: int, table_name: str
) -> tuple[list[str], bool, list[tuple]]:
    """Reconstruct every logical row of one tenant's table.

    Returns ``(column_names, has_row, rows)``: each row carries the
    logical column values in ``column_names`` order, followed by the
    Row id when ``has_row`` (layouts without a Row column — Private
    Tables — have no stored row identity).  Shared by the migrator, the
    cluster rebalancer's snapshot copy, and
    :meth:`~repro.core.api.MultiTenantDatabase.export_rows`.
    """
    logical = schema.logical_table(tenant_id, table_name)
    column_names = [c.lname for c in logical.columns]
    binding = table_name.lower()
    fragments = layout.fragments(tenant_id, table_name)
    has_row = fragments[0].row_column is not None
    recon = build_reconstruction(
        fragments,
        column_names,
        binding,
        include_row=has_row,
        soft_delete=layout.soft_delete,
    )
    items = [
        ast.SelectItem(ast.ColumnRef(binding, c), c) for c in column_names
    ]
    if has_row:
        items.append(
            ast.SelectItem(ast.ColumnRef(binding, ROW_ALIAS), ROW_ALIAS)
        )
    select = ast.Select(items=tuple(items), sources=(recon,))
    return column_names, has_row, db.execute(select.sql()).rows


class Migrator:
    """Copies tenants between layouts sharing one database + schema."""

    def __init__(self, schema: MultiTenantSchema) -> None:
        self.schema = schema

    def migrate_tenant(
        self, tenant_id: int, source: Layout, target: Layout
    ) -> dict[str, int]:
        """Move all of a tenant's rows; returns rows moved per table."""
        moved: dict[str, int] = {}
        target_dml = DmlTransformer(target, self.schema)
        for table in self.schema.tables():
            moved[table.name] = self._migrate_table(
                tenant_id, table.name, source, target, target_dml
            )
        return moved

    def _migrate_table(
        self,
        tenant_id: int,
        table_name: str,
        source: Layout,
        target: Layout,
        target_dml: DmlTransformer,
    ) -> int:
        column_names, has_row, rows = read_tenant_rows(
            source.db, self.schema, source, tenant_id, table_name
        )

        # Purge BEFORE re-inserting: source and target may share
        # physical structures (e.g. two chunk layouts of different
        # widths fold into the same ChunkIndex tables), and the rows
        # are already buffered above.
        self._purge_source(tenant_id, table_name, source)
        # The nastiest possible failure point: rows deleted from the
        # source but not yet written to the target.  The enclosing
        # admin-op bracket makes a crash here invisible after recovery.
        source.db.crashpoint("migrate.after_purge")

        if not rows:
            return 0
        insert = target_dml.plan_row_insert(
            tenant_id, table_name, target.fragments(tenant_id, table_name)
        ).insert
        for row in rows:
            values = dict(zip(column_names, row[: len(column_names)]))
            insert(tenant_id, values, row[len(column_names)] if has_row else None)
        return len(rows)

    def _purge_source(
        self, tenant_id: int, table_name: str, source: Layout
    ) -> None:
        """Physically remove the tenant's rows from the old fragments."""
        for fragment in source.fragments(tenant_id, table_name):
            predicate = conjoin(DmlTransformer._meta_conjuncts(fragment, None))
            if predicate is None and fragment.row_column is None:
                # Private tables: dropping is cheaper than deleting.
                source._drop_table(fragment.table)
                continue
            source.db.execute(ast.Delete(fragment.table, predicate).sql())
