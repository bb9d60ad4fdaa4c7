"""DML transformation: Section 6.3.

A single logical INSERT / UPDATE / DELETE generally fans out into
multiple statements over the layout's fragments.  A write that changes
one fragment — an UPDATE whose SET columns one fragment holds, a DELETE
on a table that has one fragment — and reads there only columns the
fragment stores natively is one physical statement on it, guarded by
the meta-data columns.  Every other update (and delete, which becomes an
update under the Trashcan / soft-delete option) runs in two phases:

* **phase (a)** — a query, built with the §6.1 transformation, collects
  the Row ids (and the column values SET expressions read) of every
  affected logical row;
* **phase (b)** — per affected fragment, an UPDATE/DELETE with local
  conditions on the meta-data columns and ``row`` only.

The paper describes two variants of phase (b).  This module builds the
buffered one: the affected row ids are buffered in the application and
bound into per-row statements, which also supports SET expressions that
span fragments.  The other variant pastes the phase-(a) query into an
``IN`` predicate of every per-fragment statement; it is not built,
because it can only SET fragment-local expressions and makes every
statement it runs unique to one call's parameter values.

The transformation is a pure function of (logical statement, layout,
tenant schema shape), so the transformer *plans*: it returns an object
holding the one direct statement, or the prepared phase-(a) SELECT, the
compiled SET closures and one prepared physical template per target
fragment, and running the plan only binds values.  The tenant id is a
parameter of every template, so one plan serves every tenant of a
shape; who keeps the plan (the shape-keyed statement cache, or nobody)
is the caller's business.
"""

from __future__ import annotations

from ...engine.database import Result
from ...engine.errors import PlanError, UnknownObjectError
from ...engine.expr import ExprCompiler, Schema, Slot
from ...engine.plan.bind import bind_statement
from ...engine.plan.logical import conjoin, rewrite_refs
from ...engine.sql import ast
from ...engine.statement_cache import count_params
from ..layouts.base import ALIVE, TENANT_META, Fragment
from ..schema import MultiTenantSchema
from .query import (
    ROW_ALIAS,
    QueryTransformer,
    TenantParamAllocator,
    build_reconstruction,
)

#: Batch size for ``row IN (...)`` lists of a logical DELETE.
IN_BATCH = 200

#: Parameter layout of every per-fragment template: the tenant id, then
#: the Row id(s), then — in the templates that name one row, INSERT and
#: the buffered UPDATE — the column values.
TENANT_SLOT = ast.Param(0)
ROW_SLOT = 1
FIRST_VALUE_SLOT = 2


def _column_refs(expr: ast.Expr) -> list[str]:
    """Column names referenced in ``expr``, in first-use order."""
    return list(
        dict.fromkeys(
            node.column.lower()
            for node in ast.walk(expr)
            if isinstance(node, ast.ColumnRef)
        )
    )


# -- plans -------------------------------------------------------------------


class DmlPlan:
    """A transformed logical write, runnable for any tenant of the
    shape it was planned for: ``execute(tenant_id, params)`` returns the
    logical :class:`Result` (no rows, ``rowcount`` logical rows)."""

    #: What the statement cache compares entries by; unlike a SELECT, a
    #: write is never flattened for the SIMPLE optimizer.
    context = ()


class TenantBound(DmlPlan):
    """A prepared physical statement taking the logical statement's own
    parameters, then the tenant id in its allocator slots: phase (a),
    and the whole plan on the direct path."""

    def __init__(self, prepared, tenant_params: TenantParamAllocator) -> None:
        self.prepared = prepared
        self.tenant_params = tenant_params

    def execute(self, tenant_id: int, params) -> Result:
        return self.prepared.execute(self.tenant_params.bind(params, tenant_id))


class RowInsert(DmlPlan):
    """The INSERT fan-out of one logical table: one prepared template
    per fragment ("a single source DML statement generally has to be
    mapped into multiple statements over Chunk Tables")."""

    def __init__(self, layout, logical, templates) -> None:
        self._rows = layout.rows
        self._table = logical.name
        self._checkers = [(c.lname, c.type.checker) for c in logical.columns]
        self._known = frozenset(name for name, _ in self._checkers)
        #: ``(prepared INSERT, the fragment's (logical name, ColumnLoc))``
        self._templates = templates

    def insert(
        self, tenant_id: int, values: dict, row_id: int | None = None
    ) -> int:
        """Insert one logical row given a {column: value} mapping.
        Returns the allocated Row id (pass ``row_id`` to keep an
        existing identity, e.g. during migration)."""
        provided = {k.lower(): v for k, v in values.items()}
        unknown = set(provided) - self._known
        if unknown:
            raise UnknownObjectError(
                f"unknown columns {sorted(unknown)} for {self._table}"
            )
        # Type-check through the logical schema before fan-out.
        checked = {
            name: check(provided.get(name)) for name, check in self._checkers
        }
        if row_id is None:
            row_id = self._rows.allocate(tenant_id, self._table)
        else:
            self._rows.observe(tenant_id, self._table, row_id)
        # Every fragment receives a row, NULL-padded where the logical
        # value is absent: reconstruction uses inner joins on Row, so
        # fragment rows must exist for every logical row.
        for prepared, columns in self._templates:
            prepared.execute(
                (
                    tenant_id,
                    row_id,
                    *[loc.write(checked.get(name)) for name, loc in columns],
                )
            )
        return row_id


class SqlInsert(DmlPlan):
    """A parsed logical INSERT: its VALUES rows compiled, over the
    table's :class:`RowInsert`."""

    def __init__(self, rows, row_insert: RowInsert) -> None:
        #: per VALUES row, ``(column name, compiled expression)``
        self._rows = rows
        self._row_insert = row_insert

    def execute(self, tenant_id: int, params) -> Result:
        for row in self._rows:
            self._row_insert.insert(
                tenant_id, {name: fn((), params) for name, fn in row}
            )
        return Result([], [], len(self._rows))


class BufferedUpdate(DmlPlan):
    """Phase (a) buffers Row ids and SET inputs; phase (b) binds each
    row's new values into the template of every target fragment."""

    def __init__(self, phase_a: TenantBound, compiled: dict, targets) -> None:
        self._phase_a = phase_a
        #: assigned column -> (closure over (phase-(a) row, params),
        #: the logical type's ``checker``)
        self._compiled = compiled
        #: ``(prepared UPDATE, its (column, ColumnLoc) in SET order)``
        self._targets = targets

    def execute(self, tenant_id: int, params) -> Result:
        affected = self._phase_a.execute(tenant_id, params).rows
        for row in affected:
            # SET expressions all see the pre-update row, per SQL; their
            # values are type-checked through the logical schema before
            # fan-out, like an INSERT's.
            new_values = {
                name: check(fn(row, params))
                for name, (fn, check) in self._compiled.items()
            }
            for prepared, columns in self._targets:
                prepared.execute(
                    (
                        tenant_id,
                        row[0],
                        *[loc.write(new_values[name]) for name, loc in columns],
                    )
                )
        return Result([], [], len(affected))


class BufferedDelete(DmlPlan):
    """Phase (a) buffers Row ids; phase (b) removes them from *every*
    fragment, in batches of up to :data:`IN_BATCH`.  How many rows a
    predicate matches varies from call to call, so a batch is padded
    (its last id repeated, which an ``IN`` list ignores) to the next
    power of two: a fragment needs nine templates at most, not two
    hundred."""

    def __init__(self, phase_a: TenantBound, fragments, prepare_rows) -> None:
        self._phase_a = phase_a
        self._fragments = fragments
        self._prepare_rows = prepare_rows
        #: (fragment index, batch width) -> prepared statement
        self._templates: dict[tuple[int, int], object] = {}

    def execute(self, tenant_id: int, params) -> Result:
        row_ids = [row[0] for row in self._phase_a.execute(tenant_id, params).rows]
        batches = []
        for start in range(0, len(row_ids), IN_BATCH):
            batch = row_ids[start : start + IN_BATCH]
            width = min(IN_BATCH, 1 << (len(batch) - 1).bit_length())
            batches.append(batch + batch[-1:] * (width - len(batch)))
        for index, fragment in enumerate(self._fragments):
            for batch in batches:
                prepared = self._templates.get((index, len(batch)))
                if prepared is None:
                    prepared = self._prepare_rows(fragment, len(batch))
                    self._templates[index, len(batch)] = prepared
                prepared.execute((tenant_id, *batch))
        return Result([], [], len(row_ids))


# -- the transformer ---------------------------------------------------------


class DmlTransformer:
    """Plans logical DML over a layout's fragments."""

    def __init__(self, layout, schema: MultiTenantSchema) -> None:
        self.layout = layout
        self.schema = schema
        self._queries = QueryTransformer(layout, schema)

    @property
    def db(self):
        return self.layout.db

    def plan(
        self, tenant_id: int, stmt: ast.Statement, fragments: list[Fragment]
    ) -> DmlPlan:
        """The plan of one parsed logical INSERT / UPDATE / DELETE over
        the tenant's already-listed ``fragments``: direct when the write
        changes one fragment (:meth:`_single_fragment`), else buffered.
        Its names bind against the tenant's logical schema first, so an
        unknown or misused name raises what the engine raises for it, and
        every reference below is qualified with the table's binding."""
        bound = bind_statement(stmt, self.schema.logical_lookup(tenant_id)).checked()
        if isinstance(stmt, ast.Insert):
            return self._plan_sql_insert(tenant_id, stmt, fragments)
        tenant_params = TenantParamAllocator(count_params(stmt))
        where = conjoin(bound.block.conjuncts)
        if where is not None:
            where = self._queries.transform_predicate(
                tenant_id, where, tenant_params
            )
        # An UPDATE's (column, expression) pairs; None for a DELETE.
        assignments = (
            [(name.lower(), expr) for name, expr in bound.assignments]
            if isinstance(stmt, ast.Update)
            else None
        )
        logical = self.schema.logical_table(tenant_id, stmt.table)
        target = self._single_fragment(logical, fragments, assignments, where)
        if target is not None:
            statement = self._direct_statement(
                target, assignments, where, tenant_params.allocate()
            )
            return TenantBound(self.db.prepare_ast(statement), tenant_params)
        if assignments is None:
            extra: list[str] = []
        else:
            extra = list(
                dict.fromkeys(
                    c for _, expr in assignments for c in _column_refs(expr)
                )
            )
        phase_a = TenantBound(
            self.db.prepare_ast(
                self._phase_a(stmt.table, where, extra, fragments, tenant_params)
            ),
            tenant_params,
        )
        if assignments is None:
            return BufferedDelete(phase_a, fragments, self._prepare_rows)
        compiler = ExprCompiler(
            Schema([Slot(None, ROW_ALIAS)] + [Slot(None, c) for c in extra])
        )
        compiled = {
            name: (compiler.compile(expr), logical.column(name).type.checker)
            for name, expr in assignments
        }
        targets = []
        for fragment in fragments:
            column_map = fragment.column_map()
            columns = [
                (name, column_map[name]) for name in compiled if name in column_map
            ]
            if columns:
                sets = tuple(
                    (loc.physical, ast.Param(FIRST_VALUE_SLOT + i))
                    for i, (_, loc) in enumerate(columns)
                )
                update = ast.Update(
                    fragment.table, sets, self._rows_predicate(fragment, 1)
                )
                targets.append((self.db.prepare_ast(update), columns))
        return BufferedUpdate(phase_a, compiled, targets)

    # -- INSERT ------------------------------------------------------------

    def plan_row_insert(
        self, tenant_id: int, table_name: str, fragments: list[Fragment]
    ) -> RowInsert:
        templates = []
        for fragment in fragments:
            names: list[str] = []
            exprs: list[ast.Expr] = []
            for meta_col, value in fragment.meta:
                names.append(meta_col)
                exprs.append(
                    TENANT_SLOT if meta_col == TENANT_META else ast.Literal(value)
                )
            if fragment.row_column is not None:
                names.append(fragment.row_column)
                exprs.append(ast.Param(ROW_SLOT))
            if self.layout.soft_delete:
                names.append(ALIVE)
                exprs.append(ast.Literal(1))
            for i, (_, loc) in enumerate(fragment.columns):
                names.append(loc.physical)
                exprs.append(ast.Param(FIRST_VALUE_SLOT + i))
            insert = ast.Insert(fragment.table, tuple(names), (tuple(exprs),))
            templates.append((self.db.prepare_ast(insert), fragment.columns))
        logical = self.schema.logical_table(tenant_id, table_name)
        return RowInsert(self.layout, logical, templates)

    def _plan_sql_insert(
        self, tenant_id: int, stmt: ast.Insert, fragments: list[Fragment]
    ) -> SqlInsert:
        logical = self.schema.logical_table(tenant_id, stmt.table)
        columns = (
            list(stmt.columns)
            if stmt.columns
            else [c.name for c in logical.columns]
        )
        compiler = ExprCompiler(Schema([]))
        rows = [
            [(name, compiler.compile(expr)) for name, expr in zip(columns, row)]
            for row in stmt.rows
        ]
        return SqlInsert(
            rows, self.plan_row_insert(tenant_id, stmt.table, fragments)
        )

    # -- phase (a) ------------------------------------------------------------

    def _phase_a(
        self,
        table_name: str,
        where: ast.Expr | None,
        extra_columns: list[str],
        fragments: list[Fragment],
        tenant: TenantParamAllocator,
    ) -> ast.Select:
        """The query collecting affected Row ids plus the requested
        column values; ``where`` is bound (every reference qualified with
        the table's binding) and already physical below the top."""
        binding = table_name.lower()
        where_columns = _column_refs(where) if where is not None else []
        needed = list(dict.fromkeys(where_columns + extra_columns))
        recon = build_reconstruction(
            fragments,
            needed,
            binding,
            include_row=True,
            soft_delete=self.layout.soft_delete,
            tenant=tenant,
        )
        items = [
            ast.SelectItem(ast.ColumnRef(binding, ROW_ALIAS), ROW_ALIAS)
        ] + [ast.SelectItem(ast.ColumnRef(binding, c), c) for c in extra_columns]
        return ast.Select(items=tuple(items), sources=(recon,), where=where)

    # -- direct path: a write that changes one fragment ------------------------

    def _single_fragment(
        self, logical, fragments: list[Fragment], assignments, where
    ) -> Fragment | None:
        """The one fragment a write changes — the holder of every SET
        column, or a DELETE's only fragment — when it also stores every
        column the write reads natively: no read cast, no write
        conversion, the logical type as declared, so the engine checks
        and compares values as the logical schema would.  ``None``: the
        write needs both phases."""
        if assignments is None:
            holders, read = (fragments if len(fragments) == 1 else []), []
        else:
            read = [name for name, _ in assignments]
            holders = [f for f in fragments if all(map(f.covers, read))]
            read += [c for _, expr in assignments for c in _column_refs(expr)]
        if not holders:
            return None
        fragment, stored = holders[0], holders[0].column_map()
        declared = {c.lname: c.type for c in self.db.catalog.columns(fragment.table)}
        for name in read + (_column_refs(where) if where is not None else []):
            loc = stored.get(name)
            if loc is None or loc.cast or loc.store or (
                declared[loc.physical] != logical.column(name).type
            ):
                return None
        return fragment

    def _direct_statement(
        self,
        fragment: Fragment,
        assignments: list | None,
        where: ast.Expr | None,
        tenant: ast.Param,
    ) -> ast.Statement:
        column_map = fragment.column_map()
        conjuncts = self._meta_conjuncts(fragment, tenant)
        if where is not None:
            conjuncts.append(self._localize(where, column_map))
        if self.layout.soft_delete:
            conjuncts.append(
                ast.BinaryOp("=", ast.ColumnRef(None, ALIVE), ast.Literal(1))
            )
        predicate = conjoin(conjuncts)
        if assignments is not None:
            sets = tuple(
                (column_map[name].physical, self._localize(expr, column_map))
                for name, expr in assignments
            )
            return ast.Update(fragment.table, sets, predicate)
        if self.layout.soft_delete:
            return ast.Update(
                fragment.table, ((ALIVE, ast.Literal(0)),), predicate
            )
        return ast.Delete(fragment.table, predicate)

    @staticmethod
    def _localize(expr: ast.Expr, column_map) -> ast.Expr:
        """Rename logical column refs to the fragment's physical names
        (the direct path's one fragment stores every column the write
        reads)."""
        return rewrite_refs(
            expr,
            lambda ref: ast.ColumnRef(None, column_map[ref.column.lower()].physical),
        )

    # -- the Trashcan ---------------------------------------------------------------

    def purge_trashcan(self, tenant_id: int, table_name: str) -> int:
        """Physically delete everything the Trashcan holds for one
        tenant's table; returns logical rows purged."""
        if not self.layout.soft_delete:
            raise PlanError("purge_trashcan requires soft_delete layouts")
        fragments = self.layout.fragments(tenant_id, table_name)
        dead = ast.BinaryOp("=", ast.ColumnRef(None, ALIVE), ast.Literal(0))
        counts = [
            self.db.execute_ast(
                ast.Delete(
                    fragment.table,
                    conjoin(self._meta_conjuncts(fragment, TENANT_SLOT) + [dead]),
                ),
                (tenant_id,),
            ).rowcount
            for fragment in fragments
        ]
        return counts[0] if counts else 0

    def restore(self, tenant_id: int, table_name: str, row_ids: list[int]) -> int:
        """Undo soft deletes (the Trashcan's purpose)."""
        if not self.layout.soft_delete:
            raise PlanError("restore requires soft_delete layouts")
        for fragment in self.layout.fragments(tenant_id, table_name):
            for start in range(0, len(row_ids), IN_BATCH):
                batch = row_ids[start : start + IN_BATCH]
                self.db.execute_ast(
                    self._rows_statement(fragment, len(batch), alive=1),
                    (tenant_id, *batch),
                )
        return len(row_ids)

    # -- per-fragment templates ------------------------------------------------------

    @staticmethod
    def _meta_conjuncts(
        fragment: Fragment, tenant: ast.Param | None
    ) -> list[ast.Expr]:
        """The fragment's meta-data guards; the Tenant one compares with
        the ``tenant`` slot (``None``: the fragment's own id, inlined)."""
        return [
            ast.BinaryOp(
                "=",
                ast.ColumnRef(None, meta_col),
                tenant
                if meta_col == TENANT_META and tenant is not None
                else ast.Literal(value),
            )
            for meta_col, value in fragment.meta
        ]

    def _rows_predicate(self, fragment: Fragment, width: int) -> ast.Expr:
        """Meta guards plus ``row = ?`` / ``row IN (?, ...)`` over
        ``width`` Row-id slots."""
        conjuncts = self._meta_conjuncts(fragment, TENANT_SLOT)
        if fragment.row_column is not None:
            row = ast.ColumnRef(None, fragment.row_column)
            slots = tuple(ast.Param(ROW_SLOT + i) for i in range(width))
            conjuncts.append(
                ast.BinaryOp("=", row, slots[0])
                if width == 1
                else ast.InList(row, slots)
            )
        elif not conjuncts:
            raise PlanError(
                f"fragment {fragment.table} has neither meta filters nor "
                "row identity"
            )
        return conjoin(conjuncts)

    def _rows_statement(
        self, fragment: Fragment, width: int, alive: int | None = None
    ) -> ast.Statement:
        """Set the Trashcan marker of ``width`` rows of one fragment —
        or, with no marker given, delete them."""
        predicate = self._rows_predicate(fragment, width)
        if alive is None:
            return ast.Delete(fragment.table, predicate)
        return ast.Update(
            fragment.table, ((ALIVE, ast.Literal(alive)),), predicate
        )

    def _prepare_rows(self, fragment: Fragment, width: int):
        """Phase (b) of a logical DELETE.  Trashcan: "mark the tuples as
        invisible instead of physically deleting them" — and a delete
        must mark *all* fragments, unlike a normal update."""
        return self.db.prepare_ast(
            self._rows_statement(
                fragment, width, alive=0 if self.layout.soft_delete else None
            )
        )
