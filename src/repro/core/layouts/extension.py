"""Extension Table Layout — Figure 4(b).

Base tables and extension tables are shared among tenants; both carry
the Tenant and Row meta-data columns (the two gray columns of Figure
4(b)), and logical rows are reconstructed by joining on Row.  Descended
from the Decomposed Storage Model, but partitioning stops at
"naturally-occurring groups" of columns rather than single columns.
"""

from __future__ import annotations

from functools import partial

from ..schema import Extension, LogicalTable
from .base import ColumnLoc, Fragment, Layout, ROW


class ExtensionTableLayout(Layout):
    name = "extension"
    shares_statements = True

    def base_physical(self, table_name: str) -> str:
        return f"{table_name.lower()}_ext"

    def extension_physical(self, extension_name: str) -> str:
        return f"ext_{extension_name.lower()}"

    # -- DDL ---------------------------------------------------------------

    def on_table_added(self, table: LogicalTable) -> None:
        super().on_table_added(table)
        self._ensure_conventional(self.base_physical(table.name), table.columns)

    def on_extension_added(self, extension: Extension) -> None:
        super().on_extension_added(extension)
        self._ensure_conventional(
            self.extension_physical(extension.name), extension.columns
        )

    def on_extension_altered(self, extension, new_columns) -> None:
        """Widen the shared extension table: recreate with the new
        columns and copy rows — the DDL-shaped cost conventional tables
        pay that generic layouts avoid."""
        super().on_extension_altered(extension, new_columns)
        physical = self.extension_physical(extension.name)
        self._rebuild_wider(
            physical,
            new_columns,
            partial(self._ensure_conventional, physical, extension.columns),
        )

    # -- fragments -------------------------------------------------------------

    def fragments(self, tenant_id: int, table_name: str) -> list[Fragment]:
        base = self.schema.table(table_name)
        fragments = [
            Fragment(
                table=self.base_physical(table_name),
                meta=(("tenant", tenant_id),),
                columns=tuple(
                    (c.lname, ColumnLoc(c.lname)) for c in base.columns
                ),
                row_column=ROW,
            )
        ]
        for extension in self.schema.extensions_of(tenant_id, table_name):
            fragments.append(
                Fragment(
                    table=self.extension_physical(extension.name),
                    meta=(("tenant", tenant_id),),
                    columns=tuple(
                        (c.lname, ColumnLoc(c.lname)) for c in extension.columns
                    ),
                    row_column=ROW,
                )
            )
        return fragments
