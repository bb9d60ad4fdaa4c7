"""Private Table Layout — Figure 4(a).

Each tenant owns private physical tables; the query-transformation
layer "needs only to rename tables and is very simple".  There is no
meta-data overhead in the data itself, but consolidation is poor: the
number of tables grows as tenants × tables — the regime Experiment 1
shows collapsing past ~50,000 tables.
"""

from __future__ import annotations

from functools import partial

from ..schema import Extension, LogicalTable, TenantConfig
from .base import ColumnLoc, Fragment, Layout


class PrivateTableLayout(Layout):
    name = "private"

    def physical_name(self, tenant_id: int, table_name: str) -> str:
        return f"{table_name.lower()}_t{tenant_id}"

    # -- DDL ---------------------------------------------------------------

    def _create_for(self, tenant_id: int, table_name: str) -> None:
        logical = self.schema.logical_table(tenant_id, table_name)
        physical = self.physical_name(tenant_id, table_name)
        columns = ", ".join(
            f"{c.lname} {c.type}" + (" NOT NULL" if c.not_null else "")
            for c in logical.columns
        )
        ddl = f"CREATE TABLE {physical} ({columns}{self._alive_ddl()})"
        indexes = [
            f"CREATE INDEX {physical}_{c.lname} ON {physical} ({c.lname})"
            for c in logical.columns
            if c.indexed
        ]
        self._ensure_table(physical, ddl, indexes)

    def on_tenant_added(self, config: TenantConfig) -> None:
        for table in self.schema.tables():
            self._create_for(config.tenant_id, table.name)

    def on_tenant_removed(self, config: TenantConfig) -> None:
        super().on_tenant_removed(config)
        for table in self.schema.tables():
            self._drop_table(self.physical_name(config.tenant_id, table.name))

    def on_table_added(self, table: LogicalTable) -> None:
        super().on_table_added(table)
        for config in self.schema.tenants():
            self._create_for(config.tenant_id, table.name)

    def on_extension_granted(self, config: TenantConfig, extension: Extension) -> None:
        """Widen the tenant's private table: recreate with the new
        columns and copy existing rows (our engine has no ALTER TABLE,
        and many databases cannot run such DDL online — the private
        layout's weakness the paper points out)."""
        self._rebuild_wider(
            self.physical_name(config.tenant_id, extension.base_table),
            extension.columns,
            partial(self._create_for, config.tenant_id, extension.base_table),
        )

    def on_extension_altered(self, extension, new_columns) -> None:
        """Every subscribed tenant's private table must be widened —
        the per-tenant DDL storm the Private layout implies."""
        super().on_extension_altered(extension, new_columns)
        for tenant_id in self.schema.tenants_with_extension(extension.name):
            physical = self.physical_name(tenant_id, extension.base_table)
            if self.db.catalog.has_table(physical):
                self._rebuild_wider(
                    physical,
                    new_columns,
                    partial(self._create_for, tenant_id, extension.base_table),
                )

    # -- fragments -------------------------------------------------------------

    def fragments(self, tenant_id: int, table_name: str) -> list[Fragment]:
        logical = self.schema.logical_table(tenant_id, table_name)
        return [
            Fragment(
                table=self.physical_name(tenant_id, table_name),
                meta=(),
                columns=tuple(
                    (c.lname, ColumnLoc(c.lname)) for c in logical.columns
                ),
                row_column=None,
            )
        ]
