"""Logical multi-tenant schema model.

The application layer of a hosted service (Section 1.1) presents each
tenant with *single-tenant logical schemas*: a shared base schema plus
optional extensions (e.g. health care or automotive additions to the
Account table of Figure 4).  A :class:`MultiTenantSchema` holds the base
tables, the extension definitions, and each tenant's chosen extensions;
every layout maps this one logical model to its own physical schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..engine.errors import CatalogError, UnknownObjectError
from ..engine.values import SqlType


@dataclass(frozen=True)
class LogicalColumn:
    """One column of a logical table as a tenant sees it.

    ``indexed`` requests per-tenant index support; generic layouts honor
    it by placing the column in an indexed generic table (Pivot/Chunk)
    or ignore it when the layout cannot index individually (Universal —
    "either all tenants get an index on a column or none of them do").
    """

    name: str
    type: SqlType
    indexed: bool = False
    not_null: bool = False

    @property
    def lname(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class LogicalTable:
    """A base table of the application schema."""

    name: str
    columns: tuple[LogicalColumn, ...]

    def __post_init__(self) -> None:
        names = [c.lname for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in {self.name}")

    @property
    def lname(self) -> str:
        return self.name.lower()

    def column(self, name: str) -> LogicalColumn:
        for col in self.columns:
            if col.lname == name.lower():
                return col
        raise UnknownObjectError(f"no column {name!r} in {self.name}")

    def has_column(self, name: str) -> bool:
        return any(c.lname == name.lower() for c in self.columns)


@dataclass(frozen=True)
class Extension:
    """Extra columns a group of tenants adds to one base table, e.g. the
    health-care extension of Figure 4 adding (Hospital, Beds)."""

    name: str
    base_table: str
    columns: tuple[LogicalColumn, ...]

    @property
    def lname(self) -> str:
        return self.name.lower()


@dataclass
class TenantConfig:
    """One tenant's subscription: which extensions it applies."""

    tenant_id: int
    extensions: set[str] = field(default_factory=set)


class MultiTenantSchema:
    """The logical model shared by all layouts.

    Tables and extensions get stable small integer ids; generic layouts
    store these ids in their ``tenant`` / ``tbl`` meta-data columns.
    """

    def __init__(self) -> None:
        self._tables: dict[str, LogicalTable] = {}
        self._table_ids: dict[str, int] = {}
        self._extensions: dict[str, Extension] = {}
        self._tenants: dict[int, TenantConfig] = {}

    # -- definition -------------------------------------------------------

    def add_table(self, table: LogicalTable) -> None:
        if table.lname in self._tables:
            raise CatalogError(f"base table {table.name!r} already defined")
        self._table_ids[table.lname] = len(self._table_ids)
        self._tables[table.lname] = table

    def add_extension(self, extension: Extension) -> None:
        if extension.lname in self._extensions:
            raise CatalogError(f"extension {extension.name!r} already defined")
        base = self.table(extension.base_table)
        for col in extension.columns:
            if base.has_column(col.name):
                raise CatalogError(
                    f"extension column {col.name!r} collides with base "
                    f"column of {base.name}"
                )
        self._extensions[extension.lname] = extension

    def add_tenant(self, tenant_id: int, extensions: tuple[str, ...] = ()) -> TenantConfig:
        if tenant_id in self._tenants:
            raise CatalogError(f"tenant {tenant_id} already exists")
        for name in extensions:
            self.extension(name)  # validate
        config = TenantConfig(tenant_id, {e.lower() for e in extensions})
        self._tenants[tenant_id] = config
        return config

    def remove_tenant(self, tenant_id: int) -> TenantConfig:
        try:
            return self._tenants.pop(tenant_id)
        except KeyError:
            raise UnknownObjectError(f"no tenant {tenant_id}") from None

    def grant_extension(self, tenant_id: int, extension_name: str) -> None:
        self.extension(extension_name)  # validate
        self.tenant(tenant_id).extensions.add(extension_name.lower())

    def alter_extension(
        self, extension_name: str, new_columns: tuple[LogicalColumn, ...]
    ) -> Extension:
        """Widen an extension in place (online ALTER, §6.3): existing
        rows read NULL for the new columns."""
        old = self.extension(extension_name)
        base = self.table(old.base_table)
        existing = {c.lname for c in old.columns}
        for col in new_columns:
            if base.has_column(col.name) or col.lname in existing:
                raise CatalogError(
                    f"column {col.name!r} already exists on "
                    f"{old.base_table}/{old.name}"
                )
        altered = Extension(
            old.name, old.base_table, old.columns + tuple(new_columns)
        )
        self._extensions[old.lname] = altered
        return altered

    # -- crash recovery ----------------------------------------------------

    def snapshot(self) -> dict:
        """The whole logical model as one picklable value sharing
        nothing mutable with this object (tables and extensions are
        frozen); :meth:`restore` takes exactly this."""
        return {
            "tables": dict(self._tables),
            "table_ids": dict(self._table_ids),
            "extensions": dict(self._extensions),
            "tenants": {
                tenant_id: tuple(sorted(config.extensions))
                for tenant_id, config in self._tenants.items()
            },
        }

    def restore(self, state: dict) -> None:
        self._tables = dict(state["tables"])
        self._table_ids = dict(state["table_ids"])
        self._extensions = dict(state["extensions"])
        self._tenants = {
            tenant_id: TenantConfig(tenant_id, set(extensions))
            for tenant_id, extensions in state["tenants"].items()
        }

    # -- lookup -------------------------------------------------------------

    def table(self, name: str) -> LogicalTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UnknownObjectError(f"no base table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_id(self, name: str) -> int:
        return self._table_ids[name.lower()]

    def extension(self, name: str) -> Extension:
        try:
            return self._extensions[name.lower()]
        except KeyError:
            raise UnknownObjectError(f"no extension {name!r}") from None

    def tenant(self, tenant_id: int) -> TenantConfig:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise UnknownObjectError(f"no tenant {tenant_id}") from None

    def tables(self) -> list[LogicalTable]:
        return list(self._tables.values())

    def extensions(self) -> list[Extension]:
        return list(self._extensions.values())

    def tenants(self) -> list[TenantConfig]:
        return list(self._tenants.values())

    def extensions_of(self, tenant_id: int, table_name: str) -> list[Extension]:
        """This tenant's extensions that apply to one base table."""
        config = self.tenant(tenant_id)
        return [
            self._extensions[name]
            for name in sorted(config.extensions)
            if self._extensions[name].base_table.lower() == table_name.lower()
        ]

    def tenants_with_extension(self, extension_name: str) -> list[int]:
        key = extension_name.lower()
        return [
            t.tenant_id for t in self._tenants.values() if key in t.extensions
        ]

    # -- the tenant's view ------------------------------------------------------

    def view_widths(self, extensions: Iterable[str]) -> dict[str, int]:
        """Column count of every base table as a tenant subscribed to
        ``extensions`` sees it — what a layout checks before a tenant
        gains that view."""
        widths = {name: len(table.columns) for name, table in self._tables.items()}
        for name in extensions:
            extension = self.extension(name)
            widths[extension.base_table.lower()] += len(extension.columns)
        return widths

    def logical_table(self, tenant_id: int, table_name: str) -> LogicalTable:
        """The table as this tenant sees it: base + its extensions."""
        base = self.table(table_name)
        columns = list(base.columns)
        for extension in self.extensions_of(tenant_id, table_name):
            columns.extend(extension.columns)
        return LogicalTable(base.name, tuple(columns))

    def logical_lookup(self, tenant_id: int):
        """The binder's column source for this tenant's logical SQL: a
        table's columns as the tenant sees them."""

        def lookup(table_name: str) -> tuple[LogicalColumn, ...]:
            return self.logical_table(tenant_id, table_name).columns

        return lookup
