"""The layout interface and the fragment model.

Every schema-mapping technique in the paper (Figure 4) decomposes a
tenant's logical table into one or more *fragments*: physical tables
holding a subset of the logical columns, selected by constant meta-data
predicates (Tenant / Table / Chunk / Col) and re-aligned through a Row
column.  Expressing each layout as a fragment list lets one generic
query-transformation engine (:mod:`repro.core.transform`) serve all of
them — the layouts differ only in how they produce fragments and
physical DDL.

Meta-data column naming: the paper's ``Table`` column is a reserved word
in SQL, so physical tables use ``tbl``; ``Tenant``, ``Chunk``, ``Col``
and ``Row`` keep their names (lower-cased).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ...engine.database import Database
from ...engine.errors import CatalogError, UnknownObjectError
from ...engine.sql.parser import parse_statement
from ...engine.values import SqlType, TypeKind
from ..metadata import ColumnIdAllocator, MetadataReport, RowIdAllocator
from ..schema import Extension, LogicalColumn, LogicalTable, MultiTenantSchema, TenantConfig

#: Name of the row-alignment meta-data column.
ROW = "row"
#: Name of the soft-delete marker column (Trashcan support, §6.3).
ALIVE = "alive"
#: Name of the tenant-identifying meta-data column.  Query
#: transformation replaces equality filters on this column with
#: parameters when building shape-shared cached statements.
TENANT_META = "tenant"


@dataclass(frozen=True)
class ColumnLoc:
    """Where one logical column lives inside a fragment.

    ``cast`` names an engine conversion function (``TO_INT`` ...) applied
    when reading — used by the Universal layout's VARCHAR funnel.
    ``store`` converts a Python value for writing (None = identity).
    """

    physical: str
    cast: str | None = None
    store: Callable[[object], object] | None = None

    def write(self, value: object) -> object:
        if self.store is None:
            return value
        return self.store(value)


@dataclass(frozen=True)
class Fragment:
    """One physical table holding a slice of a logical table's columns."""

    table: str
    meta: tuple[tuple[str, object], ...]  # (meta column, constant) filters
    columns: tuple[tuple[str, ColumnLoc], ...]  # logical name -> location
    row_column: str | None = ROW

    def column_map(self) -> dict[str, ColumnLoc]:
        return dict(self.columns)

    def covers(self, column: str) -> bool:
        return any(name == column for name, _ in self.columns)


class Layout(abc.ABC):
    """A schema-mapping technique."""

    #: Registry short name, e.g. ``"chunk_folding"``.
    name: str = "abstract"
    #: Whether the layout supports tenant-specific extensions at all.
    supports_extensions: bool = True
    #: Whether tenants with the same extension set produce structurally
    #: identical fragments, differing only in the ``TENANT_META`` value.
    #: Such layouts share cached transformed statements across tenants
    #: (Table 1: many tenants, few distinct schema shapes); layouts with
    #: per-tenant physical structure (Private Tables) must not.
    shares_statements: bool = False

    def __init__(
        self,
        db: Database,
        schema: MultiTenantSchema,
        *,
        soft_delete: bool = False,
    ) -> None:
        self.db = db
        self.schema = schema
        self.soft_delete = soft_delete
        self.rows = RowIdAllocator(self._next_row_id)
        self.columns = ColumnIdAllocator()
        self._created_tables: set[str] = set()
        #: Prepared anchor-fragment aggregates (:meth:`anchor_scalar`).
        self.anchor_statements: dict[tuple, object] = {}

    # -- physical lifecycle (online DDL / bookkeeping) ----------------------

    def bootstrap(self) -> None:
        """Create fixed generic structures (no-op for conventional layouts)."""

    def check_widths(self, widths: dict[str, int]) -> None:
        """Refuse a tenant view this layout cannot store — ``widths``
        maps each base table to its column count
        (:meth:`MultiTenantSchema.view_widths`).  The facade asks before
        an administrative call changes anything; no limit by default."""

    def on_table_added(self, table: LogicalTable) -> None:
        self.columns.register_base(table.name, [c.name for c in table.columns])

    def on_extension_added(self, extension: Extension) -> None:
        self.columns.register_extension(
            extension.base_table, [c.name for c in extension.columns]
        )

    def on_tenant_added(self, config: TenantConfig) -> None:
        """Per-tenant physical structures (Private layout creates tables)."""

    def on_tenant_removed(self, config: TenantConfig) -> None:
        self.rows.forget_tenant(config.tenant_id)

    def on_extension_granted(self, config: TenantConfig, extension: Extension) -> None:
        """React to a tenant subscribing to an extension at run time.

        Reconstruction inner-joins fragments on Row, so the tenant's
        existing rows need NULL rows in every fragment that holds only
        the newly granted columns — the same bookkeeping an ALTER
        performs, restricted to one tenant.
        """
        self._backfill_tenant(
            config.tenant_id,
            extension.base_table,
            {c.lname for c in extension.columns},
        )

    def on_extension_altered(
        self, extension: Extension, new_columns: tuple[LogicalColumn, ...]
    ) -> None:
        """React to an extension being widened online (§6.3: "Other
        operations like DROP or ALTER statements can be evaluated
        on-line as well ... only the application logic has to do the
        respective bookkeeping").

        Registers the new column ids and NULL-backfills any fragment
        that holds *only* new columns: reconstruction inner-joins on
        Row, so every logical row needs a row in every fragment.
        """
        self.columns.register_extension(
            extension.base_table, [c.name for c in new_columns]
        )
        self._backfill_new_fragments(extension, new_columns)

    def _backfill_new_fragments(
        self, extension: Extension, new_columns: tuple[LogicalColumn, ...]
    ) -> None:
        new_names = {c.lname for c in new_columns}
        for tenant_id in self.schema.tenants_with_extension(extension.name):
            self._backfill_tenant(tenant_id, extension.base_table, new_names)

    def _backfill_tenant(
        self, tenant_id: int, base_table: str, new_names: set[str]
    ) -> None:
        """NULL-backfill this tenant's fragments that hold only columns
        from ``new_names``, so row-alignment joins keep existing rows.
        Meta values are bound, not inlined: every tenant's backfill of a
        fragment shape is one text in the engine's plan cache."""
        fragments = self.fragments(tenant_id, base_table)
        anchor = fragments[0]
        if anchor.row_column is None:
            return  # conventional layouts rebuild tables themselves
        targets = [
            f
            for f in fragments
            if f.columns
            and all(name in new_names for name, _ in f.columns)
        ]
        if not targets:
            return
        where = " AND ".join(f"{col} = ?" for col, _ in anchor.meta) or "1 = 1"
        select_cols = anchor.row_column
        if self.soft_delete:
            select_cols += f", {ALIVE}"
        rows = self.db.execute(
            f"SELECT {select_cols} FROM {anchor.table} WHERE {where}",
            [value for _, value in anchor.meta],
        ).rows
        for fragment in targets:
            names = [col for col, _ in fragment.meta]
            names.append(fragment.row_column)
            if self.soft_delete:
                names.append(ALIVE)
            insert = (
                f"INSERT INTO {fragment.table} ({', '.join(names)}) "
                f"VALUES ({', '.join('?' * len(names))})"
            )
            meta = [value for _, value in fragment.meta]
            for row in rows:
                self.db.execute(insert, [*meta, *row])

    # -- crash-recovery bookkeeping -----------------------------------------

    def bookkeeping(self) -> dict:
        """Picklable snapshot of the layout's in-memory bookkeeping.

        Recorded at the end of every administrative operation (in the
        WAL's ``admin_end`` value) and the *only* source of a recovered
        layout's state — recovery constructs the layout and calls
        :meth:`restore_bookkeeping`, no ``on_*`` hook: the physical
        tables survive a crash through the engine's own recovery, but
        column ids and chunk assignments live only here (Row ids are
        derived from the rows: :meth:`_next_row_id`).  Subclasses extend the dict with copies (every checkpoint
        pickles the value again: it must not alias live state);
        :meth:`restore_bookkeeping` must accept exactly what this
        returns.
        """
        return {
            "columns": self.columns.snapshot(),
            "created_tables": set(self._created_tables),
        }

    def restore_bookkeeping(self, state: dict) -> None:
        expected = self.bookkeeping().keys()
        if state.keys() != expected:
            raise CatalogError(
                f"the {self.name} layout cannot restore the recorded state: "
                f"it holds {sorted(state)}, this version keeps "
                f"{sorted(expected)}"
            )
        self.columns.restore(state["columns"])
        self._created_tables = set(state["created_tables"])

    def _next_row_id(self, tenant_id: int, table_name: str) -> int:
        """Seed of :attr:`rows`: one past the tenant's largest stored
        Row id, Trashcan rows included.  Basic and Private Tables store
        no Row column and read nothing."""
        anchor = self.fragments(tenant_id, table_name)[0]
        if anchor.row_column is None:
            return 0
        top = self.anchor_scalar(f"MAX({anchor.row_column})", anchor)
        return 0 if top is None else top + 1

    def anchor_scalar(
        self, aggregate: str, anchor: Fragment, alive_only: bool = False
    ):
        """One aggregate over a tenant's rows of an anchor fragment.

        One statement is prepared per anchor shape — (aggregate, table,
        meta columns, Trashcan filter) — and the tenant's meta values
        are bound, so walking every tenant plans O(shapes) statements
        and evicts nothing from the engine's text-keyed plan cache.
        """
        columns = tuple(column for column, _ in anchor.meta)
        key = (aggregate, anchor.table, columns, alive_only)
        statement = self.anchor_statements.get(key)
        if statement is None:
            conjuncts = [f"{column} = ?" for column in columns]
            if alive_only:
                conjuncts.append(f"{ALIVE} = 1")
            where = " AND ".join(conjuncts) or "1 = 1"
            statement = self.anchor_statements[key] = self.db.prepare_ast(
                parse_statement(
                    f"SELECT {aggregate} FROM {anchor.table} WHERE {where}"
                )
            )
        return statement.execute([value for _, value in anchor.meta]).scalar()

    # -- the fragment model ---------------------------------------------------

    @abc.abstractmethod
    def fragments(self, tenant_id: int, table_name: str) -> list[Fragment]:
        """The physical fragments of this tenant's view of a table.

        Fragment order matters: the first fragment is the *anchor* used
        when a query touches no columns at all (e.g. ``COUNT(*)``), and
        row-alignment joins chain off it.
        """

    def statement_shape(self, tenant_id: int) -> tuple:
        """Cache identity of this tenant's transformed statements.

        Tenants returning equal shapes reuse each other's cached
        physical statements, with the tenant id bound as a parameter at
        execution time.  Shape-sharing layouts collapse onto the
        tenant's extension set — the paper's observation that thousands
        of tenants exhibit only a handful of schema shapes; the default
        is the always-safe per-tenant key.
        """
        if self.shares_statements:
            return ("shape", frozenset(self.schema.tenant(tenant_id).extensions))
        return ("tenant", tenant_id)

    # -- helpers shared by concrete layouts --------------------------------------

    def _ensure_table(self, name: str, ddl: str, indexes: Iterable[str] = ()) -> bool:
        """Create a physical table once; True when created now."""
        key = name.lower()
        if key in self._created_tables or self.db.catalog.has_table(name):
            self._created_tables.add(key)
            return False
        self.db.execute(ddl)
        for index_sql in indexes:
            self.db.execute(index_sql)
        self._created_tables.add(key)
        return True

    def _ensure_conventional(
        self, physical: str, columns: Sequence[LogicalColumn]
    ) -> None:
        """A conventional table shared by tenants: Tenant and Row
        meta-data columns, then ``columns`` as declared, a unique
        (tenant, row) index and a (tenant, column) index per indexed
        column — Figure 4(b)'s AccountExt and Figure 4(f)'s AccountRow."""
        parts = ["tenant INTEGER NOT NULL", f"{ROW} INTEGER NOT NULL"]
        parts += [
            f"{c.lname} {c.type}" + (" NOT NULL" if c.not_null else "")
            for c in columns
        ]
        ddl = (
            f"CREATE TABLE {physical} ("
            + ", ".join(parts)
            + self._alive_ddl()
            + ")"
        )
        indexes = [
            f"CREATE UNIQUE INDEX {physical}_tr ON {physical} (tenant, {ROW})"
        ] + [
            f"CREATE INDEX {physical}_{c.lname} ON {physical} (tenant, {c.lname})"
            for c in columns
            if c.indexed
        ]
        self._ensure_table(physical, ddl, indexes)

    def _drop_table(self, name: str) -> None:
        self._created_tables.discard(name.lower())
        if self.db.catalog.has_table(name):
            self.db.execute(f"DROP TABLE {name}")

    def _rebuild_wider(
        self,
        physical: str,
        new_columns: Iterable[LogicalColumn],
        create: Callable[[], None],
    ) -> None:
        """Widen a conventional table by ``new_columns``: the engine has
        no ALTER TABLE, so drop it, ``create()`` it again and copy the
        rows back NULL-padded.  A missing table is just created; one
        that already has the columns (shared across layout instances)
        is left alone.  The texts name one tenant's table, so they run
        as ASTs and stay out of the engine's text-keyed plan cache."""
        if not self.db.catalog.has_table(physical):
            create()
            return
        old_columns = [c.lname for c in self.db.catalog.table(physical).columns]
        added = [c.lname for c in new_columns]
        if all(name in old_columns for name in added):
            return
        rows = self.db.execute_ast(
            parse_statement(f"SELECT * FROM {physical}")
        ).rows
        self._drop_table(physical)
        create()
        names = ", ".join(old_columns + added)
        placeholders = ", ".join("?" * (len(old_columns) + len(added)))
        insert = self.db.prepare_ast(
            parse_statement(
                f"INSERT INTO {physical} ({names}) VALUES ({placeholders})"
            )
        )
        pad = (None,) * len(added)
        for row in rows:
            insert.execute(row + pad)

    def _alive_ddl(self) -> str:
        return f", {ALIVE} INTEGER NOT NULL" if self.soft_delete else ""

    def report(self) -> MetadataReport:
        return MetadataReport(
            layout=self.name,
            physical_tables=self.db.catalog.table_count,
            physical_indexes=self.db.catalog.index_count,
            metadata_bytes=self.db.catalog.metadata_bytes,
            buffer_pool_pages=self.db.buffer_pool_pages,
        )


# ---------------------------------------------------------------------------
# Slot typing shared by Pivot / Chunk layouts
# ---------------------------------------------------------------------------

#: Generic slot families: a logical type maps to one of these.
SLOT_FAMILIES = ("int", "str", "date", "dbl")

#: Declared SQL type of each slot family in generic tables.
SLOT_DDL = {
    "int": "BIGINT",
    "str": "VARCHAR(255)",
    "date": "DATE",
    "dbl": "DOUBLE",
}


def slot_family(sql_type: SqlType) -> str:
    """Which generic slot family stores values of this logical type."""
    kind = sql_type.kind
    if kind in (TypeKind.INTEGER, TypeKind.BIGINT, TypeKind.BOOLEAN):
        return "int"
    if kind is TypeKind.VARCHAR:
        return "str"
    if kind is TypeKind.DATE:
        return "date"
    if kind is TypeKind.DOUBLE:
        return "dbl"
    raise UnknownObjectError(f"no slot family for {sql_type}")


def slot_store(sql_type: SqlType) -> Callable[[object], object] | None:
    """Write-side conversion into a slot (bools become 0/1 ints)."""
    if sql_type.kind is TypeKind.BOOLEAN:
        return lambda v: None if v is None else int(v)
    return None


def slot_cast(sql_type: SqlType) -> str | None:
    """Read-side cast out of a slot."""
    if sql_type.kind is TypeKind.BOOLEAN:
        return "TO_BOOL"
    return None
