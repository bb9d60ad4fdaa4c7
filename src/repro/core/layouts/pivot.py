"""Pivot Table Layout — Figure 4(d).

Each field of each logical row becomes its own physical row, keyed by
(Tenant, Table, Col, Row), with one data-bearing column per Pivot
Table.  We keep typing by maintaining one Pivot Table per type family
("a better approach however, in that it does not circumvent typing, is
to have multiple Pivot Tables with different types"), and optionally a
second, value-indexed table per family for columns that request an
index ("two Pivot Tables can be created for each type: one with indexes
and one without").

Reconstruction of an n-column table costs (n-1) aligning joins — the
overhead Figure 9's narrowest configuration exhibits.
"""

from __future__ import annotations

from ..schema import LogicalColumn
from .base import (
    ColumnLoc,
    Fragment,
    Layout,
    ROW,
    SLOT_DDL,
    slot_cast,
    slot_family,
    slot_store,
)


class PivotTableLayout(Layout):
    name = "pivot"
    shares_statements = True

    def physical_name(self, family: str, *, indexed: bool) -> str:
        return f"pivot_{family}" + ("_ix" if indexed else "")

    def _ensure_pivot(self, family: str, *, indexed: bool) -> str:
        physical = self.physical_name(family, indexed=indexed)
        ddl = (
            f"CREATE TABLE {physical} ("
            "tenant INTEGER NOT NULL, tbl INTEGER NOT NULL, "
            f"col INTEGER NOT NULL, {ROW} INTEGER NOT NULL"
            f"{self._alive_ddl()}, val {SLOT_DDL[family]})"
        )
        indexes = [
            f"CREATE UNIQUE INDEX {physical}_tcr ON {physical} "
            f"(tenant, tbl, col, {ROW})"
        ]
        if indexed:
            indexes.append(
                f"CREATE INDEX {physical}_vtcr ON {physical} "
                f"(val, tenant, tbl, col, {ROW})"
            )
        self._ensure_table(physical, ddl, indexes)
        return physical

    def _fragment_for(
        self, tenant_id: int, table_name: str, column: LogicalColumn
    ) -> Fragment:
        family = slot_family(column.type)
        physical = self._ensure_pivot(family, indexed=column.indexed)
        return Fragment(
            table=physical,
            meta=(
                ("tenant", tenant_id),
                ("tbl", self.schema.table_id(table_name)),
                ("col", self.columns.column_id(table_name, column.name)),
            ),
            columns=(
                (
                    column.lname,
                    ColumnLoc(
                        "val",
                        cast=slot_cast(column.type),
                        store=slot_store(column.type),
                    ),
                ),
            ),
            row_column=ROW,
        )

    def fragments(self, tenant_id: int, table_name: str) -> list[Fragment]:
        logical = self.schema.logical_table(tenant_id, table_name)
        return [
            self._fragment_for(tenant_id, table_name, column)
            for column in logical.columns
        ]
