"""Universal Table Layout — Figure 4(c).

One giant shared table with Tenant and Table meta-data columns and
``width`` generic VARCHAR data columns; the n-th column of each logical
source table maps to the n-th data column.  Rows are kept whole (no
reconstruction joins) at the price of wide rows, many NULLs, the
VARCHAR type funnel, and no per-tenant indexing ("either all tenants
get an index on a column or none of them do").
"""

from __future__ import annotations

from ...engine.errors import PlanError
from ...engine.values import TypeKind
from .base import ColumnLoc, Fragment, Layout, ROW

#: Read-side casts out of the VARCHAR funnel, per logical type kind.
_CASTS = {
    TypeKind.INTEGER: "TO_INT",
    TypeKind.BIGINT: "TO_INT",
    TypeKind.DOUBLE: "TO_DOUBLE",
    TypeKind.DATE: "TO_DATE",
    TypeKind.BOOLEAN: "TO_BOOL",
    TypeKind.VARCHAR: None,
}


class UniversalTableLayout(Layout):
    name = "universal"
    shares_statements = True
    default_storage = "columnar"

    def __init__(self, db, schema, *, width: int = 60, **kwargs) -> None:
        super().__init__(db, schema, **kwargs)
        if width < 1:
            raise PlanError("universal width must be >= 1")
        self.width = width

    @property
    def physical(self) -> str:
        return "universal"

    def bootstrap(self) -> None:
        columns = [
            "tenant INTEGER NOT NULL",
            "tbl INTEGER NOT NULL",
            f"{ROW} INTEGER NOT NULL",
        ]
        columns += [f"col{i + 1} VARCHAR(255)" for i in range(self.width)]
        ddl = (
            f"CREATE TABLE {self.physical} ("
            + ", ".join(columns)
            + self._alive_ddl()
            + ")"
        )
        indexes = [
            f"CREATE UNIQUE INDEX {self.physical}_ttr ON {self.physical} "
            f"(tenant, tbl, {ROW})"
        ]
        self._ensure_table(self.physical, ddl, indexes)

    def check_widths(self, widths: dict[str, int]) -> None:
        for table_name, columns in widths.items():
            if columns > self.width:
                raise PlanError(
                    f"{table_name} would need {columns} data columns, the "
                    f"Universal Table has {self.width}"
                )

    def fragments(self, tenant_id: int, table_name: str) -> list[Fragment]:
        logical = self.schema.logical_table(tenant_id, table_name)
        columns = []
        for i, column in enumerate(logical.columns):
            # "The n-th column of each logical source table for each
            # tenant is mapped into the n-th data column."
            columns.append(
                (
                    column.lname,
                    ColumnLoc(
                        physical=f"col{i + 1}",
                        cast=_CASTS[column.type.kind],
                        store=column.type.to_varchar,
                    ),
                )
            )
        return [
            Fragment(
                table=self.physical,
                meta=(
                    ("tenant", tenant_id),
                    ("tbl", self.schema.table_id(table_name)),
                ),
                columns=tuple(columns),
                row_column=ROW,
            )
        ]
