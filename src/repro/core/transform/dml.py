"""DML transformation: Section 6.3.

A single logical INSERT / UPDATE / DELETE generally fans out into
multiple statements over the layout's fragments.  Updates (and deletes,
which become updates under the Trashcan / soft-delete option) run in two
phases:

* **phase (a)** — a query, built with the §6.1 transformation, collects
  the Row ids (and, in buffered mode, current column values) of every
  affected logical row;
* **phase (b)** — per affected fragment, an UPDATE/DELETE with local
  conditions on the meta-data columns and ``row`` only.

Phase (b) comes in the paper's two variants: ``SUBQUERY`` pushes the
phase-(a) query into an ``IN`` predicate and lets the database do all
the work (re-evaluating it per fragment); ``BUFFERED`` (the default)
buffers the affected row ids in the application and issues per-row
statements with literal values — which also supports SET expressions
that span fragments.
"""

from __future__ import annotations

import enum

from ...engine.errors import PlanError, UnknownObjectError
from ...engine.expr import ExprCompiler, Schema, Slot
from ...engine.plan.logical import rewrite_refs
from ...engine.sql import ast
from ..layouts.base import ALIVE, Fragment
from ..schema import MultiTenantSchema
from .query import ROW_ALIAS, build_reconstruction

#: Batch size for ``row IN (...)`` literal lists in buffered mode.
IN_BATCH = 200


class UpdateMode(enum.Enum):
    BUFFERED = "buffered"
    SUBQUERY = "subquery"


def substitute_params(expr: ast.Expr, params) -> ast.Expr:
    """Replace ``?`` parameters with literals so generated statements
    are self-contained (parameter positions would otherwise shift when
    one logical statement becomes many physical ones)."""
    if isinstance(expr, ast.Param):
        return ast.Literal(params[expr.index])
    if isinstance(expr, ast.InSubquery):
        return ast.InSubquery(
            substitute_params(expr.operand, params),
            _substitute_select(expr.subquery, params),
            expr.negated,
        )
    return ast.map_children(expr, lambda child: substitute_params(child, params))


def _substitute_select(select: ast.Select, params) -> ast.Select:
    return ast.Select(
        items=tuple(
            ast.SelectItem(
                item.expr
                if isinstance(item.expr, ast.Star)
                else substitute_params(item.expr, params),
                item.alias,
            )
            for item in select.items
        ),
        sources=tuple(
            ast.SubquerySource(_substitute_select(s.select, params), s.alias)
            if isinstance(s, ast.SubquerySource)
            else s
            for s in select.sources
        ),
        where=substitute_params(select.where, params)
        if select.where is not None
        else None,
        group_by=tuple(substitute_params(e, params) for e in select.group_by),
        having=substitute_params(select.having, params)
        if select.having is not None
        else None,
        order_by=tuple(
            ast.OrderItem(substitute_params(o.expr, params), o.descending)
            for o in select.order_by
        ),
        limit=select.limit,
        distinct=select.distinct,
    )


def _column_refs(expr: ast.Expr) -> list[str]:
    """Column names referenced in ``expr``, in first-use order."""
    return list(
        dict.fromkeys(
            node.column.lower()
            for node in ast.walk(expr)
            if isinstance(node, ast.ColumnRef)
        )
    )


def _qualify_to_binding(expr: ast.Expr, binding: str) -> ast.Expr:
    """DML statements name one table; give every bare ref that binding."""
    return rewrite_refs(expr, lambda ref: ast.ColumnRef(binding, ref.column))


class DmlTransformer:
    """Executes logical DML through a layout's fragments."""

    def __init__(self, layout, schema: MultiTenantSchema) -> None:
        self.layout = layout
        self.schema = schema
        from .query import QueryTransformer

        self._queries = QueryTransformer(layout, schema)

    def _prepare_where(
        self, tenant_id: int, where: ast.Expr | None, params
    ) -> ast.Expr | None:
        """Inline parameters and transform IN-subqueries over logical
        tables into physical form."""
        if where is None:
            return None
        where = substitute_params(where, params)
        return self._queries.transform_predicate(tenant_id, where)

    @property
    def db(self):
        return self.layout.db

    # -- INSERT ------------------------------------------------------------

    def insert_values(
        self,
        tenant_id: int,
        table_name: str,
        values: dict,
        *,
        row_id: int | None = None,
        fragments: list[Fragment] | None = None,
    ) -> int:
        """Insert one logical row given a {column: value} mapping.

        Returns the allocated Row id (pass ``row_id`` to keep an existing
        identity, e.g. during migration).  Fan-out: one INSERT per
        fragment ("a single source DML statement generally has to be
        mapped into multiple statements over Chunk Tables").  A caller
        that already listed the tenant's ``fragments`` passes them in.
        """
        logical = self.schema.logical_table(tenant_id, table_name)
        known = {c.lname for c in logical.columns}
        provided = {k.lower(): v for k, v in values.items()}
        unknown = set(provided) - known
        if unknown:
            raise UnknownObjectError(
                f"unknown columns {sorted(unknown)} for {table_name}"
            )
        # Type-check through the logical schema before fan-out.
        checked = {
            c.lname: c.type.check(provided.get(c.lname))
            for c in logical.columns
        }
        if row_id is None:
            row_id = self.layout.rows.allocate(tenant_id, table_name)
        else:
            self.layout.rows.observe(tenant_id, table_name, row_id)
        if fragments is None:
            fragments = self.layout.fragments(tenant_id, table_name)
        for fragment in fragments:
            names: list[str] = []
            exprs: list[ast.Expr] = []
            for meta_col, value in fragment.meta:
                names.append(meta_col)
                exprs.append(ast.Literal(value))
            if fragment.row_column is not None:
                names.append(fragment.row_column)
                exprs.append(ast.Literal(row_id))
            if self.layout.soft_delete:
                names.append(ALIVE)
                exprs.append(ast.Literal(1))
            # Every fragment receives a row, NULL-padded where the
            # logical value is absent: reconstruction uses inner joins
            # on Row, so fragment rows must exist for every logical row.
            for logical_name, loc in fragment.columns:
                value = loc.write(checked.get(logical_name))
                names.append(loc.physical)
                exprs.append(ast.Literal(value))
            stmt = ast.Insert(fragment.table, tuple(names), (tuple(exprs),))
            self.db.execute_ast(stmt)
        return row_id

    def insert(self, tenant_id: int, stmt: ast.Insert, params=()) -> int:
        """Insert from a parsed logical INSERT statement."""
        logical = self.schema.logical_table(tenant_id, stmt.table)
        columns = (
            list(stmt.columns)
            if stmt.columns
            else [c.name for c in logical.columns]
        )
        compiler = ExprCompiler(Schema([]))
        count = 0
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(columns):
                raise PlanError("INSERT arity mismatch")
            values = {
                name: compiler.compile(expr)((), params)
                for name, expr in zip(columns, row_exprs)
            }
            self.insert_values(tenant_id, stmt.table, values)
            count += 1
        return count

    # -- phase (a) ------------------------------------------------------------

    def _affected_rows(
        self,
        tenant_id: int,
        table_name: str,
        where: ast.Expr | None,
        extra_columns: list[str],
    ) -> list[dict]:
        """Collect affected Row ids plus requested column values."""
        binding = table_name.lower()
        where_columns = _column_refs(where) if where is not None else []
        needed = list(dict.fromkeys(where_columns + extra_columns))
        logical = self.schema.logical_table(tenant_id, table_name)
        for column in needed:
            logical.column(column)  # validates
        fragments = self.layout.fragments(tenant_id, table_name)
        recon = build_reconstruction(
            fragments,
            needed,
            binding,
            include_row=True,
            soft_delete=self.layout.soft_delete,
        )
        items = [
            ast.SelectItem(ast.ColumnRef(binding, ROW_ALIAS), ROW_ALIAS)
        ] + [ast.SelectItem(ast.ColumnRef(binding, c), c) for c in extra_columns]
        outer_where = (
            _qualify_to_binding(where, binding) if where is not None else None
        )
        select = ast.Select(
            items=tuple(items), sources=(recon,), where=outer_where
        )
        result = self.db.execute_ast(select)
        rows = []
        for values in result.rows:
            record = {ROW_ALIAS: values[0]}
            for name, value in zip(extra_columns, values[1:]):
                record[name] = value
            rows.append(record)
        return rows

    def _phase_a_subquery(
        self, tenant_id: int, table_name: str, where: ast.Expr | None
    ) -> ast.Select:
        binding = table_name.lower()
        where_columns = _column_refs(where) if where is not None else []
        fragments = self.layout.fragments(tenant_id, table_name)
        recon = build_reconstruction(
            fragments,
            where_columns,
            binding,
            include_row=True,
            soft_delete=self.layout.soft_delete,
        )
        outer_where = (
            _qualify_to_binding(where, binding) if where is not None else None
        )
        return ast.Select(
            items=(ast.SelectItem(ast.ColumnRef(binding, ROW_ALIAS), ROW_ALIAS),),
            sources=(recon,),
            where=outer_where,
        )

    # -- UPDATE -------------------------------------------------------------------

    def update(
        self,
        tenant_id: int,
        stmt: ast.Update,
        params=(),
        mode: UpdateMode = UpdateMode.BUFFERED,
    ) -> int:
        where = self._prepare_where(tenant_id, stmt.where, params)
        assignments = [
            (name.lower(), substitute_params(expr, params))
            for name, expr in stmt.assignments
        ]
        logical = self.schema.logical_table(tenant_id, stmt.table)
        for name, _ in assignments:
            logical.column(name)
        direct = self._direct_fragment(tenant_id, stmt.table)
        if direct is not None:
            return self._direct_update(direct, assignments, where)
        if mode is UpdateMode.SUBQUERY:
            return self._update_subquery(tenant_id, stmt.table, assignments, where)
        return self._update_buffered(tenant_id, stmt.table, assignments, where)

    # -- direct path (Private / Basic: one fragment, no Row column) -------------

    def _direct_fragment(self, tenant_id: int, table_name: str) -> Fragment | None:
        fragments = self.layout.fragments(tenant_id, table_name)
        if len(fragments) == 1 and fragments[0].row_column is None:
            return fragments[0]
        return None

    def _direct_where(
        self, fragment: Fragment, where: ast.Expr | None
    ) -> ast.Expr | None:
        column_map = fragment.column_map()
        predicate = self._fragment_meta_predicate(fragment)
        if where is not None:
            localized = self._localize(where, column_map)
            predicate = (
                localized
                if predicate is None
                else ast.BinaryOp("AND", predicate, localized)
            )
        if self.layout.soft_delete:
            live = ast.BinaryOp("=", ast.ColumnRef(None, ALIVE), ast.Literal(1))
            predicate = (
                live if predicate is None else ast.BinaryOp("AND", predicate, live)
            )
        return predicate

    def _direct_update(self, fragment: Fragment, assignments, where) -> int:
        column_map = fragment.column_map()
        sets = tuple(
            (column_map[name].physical, self._localize(expr, column_map))
            for name, expr in assignments
        )
        update = ast.Update(fragment.table, sets, self._direct_where(fragment, where))
        return self.db.execute_ast(update).rowcount

    def _direct_delete(self, fragment: Fragment, where) -> int:
        predicate = self._direct_where(fragment, where)
        if self.layout.soft_delete:
            statement: ast.Statement = ast.Update(
                fragment.table, ((ALIVE, ast.Literal(0)),), predicate
            )
        else:
            statement = ast.Delete(fragment.table, predicate)
        return self.db.execute_ast(statement).rowcount

    def _fragments_with(self, tenant_id: int, table_name: str, columns: set[str]):
        return [
            f
            for f in self.layout.fragments(tenant_id, table_name)
            if any(f.covers(c) for c in columns)
        ]

    def _update_buffered(
        self, tenant_id, table_name, assignments, where
    ) -> int:
        set_inputs = list(
            dict.fromkeys(
                c for _, expr in assignments for c in _column_refs(expr)
            )
        )
        affected = self._affected_rows(tenant_id, table_name, where, set_inputs)
        if not affected:
            return 0
        schema = Schema(
            [Slot(None, ROW_ALIAS)] + [Slot(None, c) for c in set_inputs]
        )
        compiler = ExprCompiler(schema)
        compiled = [(name, compiler.compile(expr)) for name, expr in assignments]
        targets = self._fragments_with(
            tenant_id, table_name, {name for name, _ in assignments}
        )
        count = 0
        for record in affected:
            row_tuple = tuple(record[k] for k in [ROW_ALIAS] + set_inputs)
            new_values = {name: fn(row_tuple, ()) for name, fn in compiled}
            for fragment in targets:
                column_map = fragment.column_map()
                sets = tuple(
                    (column_map[name].physical,
                     ast.Literal(column_map[name].write(value)))
                    for name, value in new_values.items()
                    if name in column_map
                )
                if not sets:
                    continue
                update = ast.Update(
                    fragment.table,
                    sets,
                    self._fragment_row_predicate(fragment, [record[ROW_ALIAS]]),
                )
                self.db.execute_ast(update)
            count += 1
        return count

    def _update_subquery(self, tenant_id, table_name, assignments, where) -> int:
        phase_a = self._phase_a_subquery(tenant_id, table_name, where)
        count = self.db.execute_ast(phase_a).rowcount
        if count == 0:
            return 0
        targets = self._fragments_with(
            tenant_id, table_name, {name for name, _ in assignments}
        )
        for fragment in targets:
            column_map = fragment.column_map()
            sets = []
            for name, expr in assignments:
                if name not in column_map:
                    continue
                sets.append(
                    (column_map[name].physical, self._localize(expr, column_map))
                )
            if not sets:
                continue
            predicate = self._fragment_meta_predicate(fragment)
            membership = ast.InSubquery(
                ast.ColumnRef(None, fragment.row_column), phase_a
            )
            predicate = (
                membership
                if predicate is None
                else ast.BinaryOp("AND", predicate, membership)
            )
            update = ast.Update(fragment.table, tuple(sets), predicate)
            self.db.execute_ast(update)
        return count

    def _localize(self, expr: ast.Expr, column_map) -> ast.Expr:
        """Rewrite logical column refs to one fragment's physical names;
        SUBQUERY mode requires SET expressions to stay fragment-local."""

        def localize(ref: ast.ColumnRef) -> ast.Expr:
            name = ref.column.lower()
            if name not in column_map:
                raise PlanError(
                    f"SET expression references {name!r} outside the updated "
                    "fragment; use UpdateMode.BUFFERED"
                )
            return ast.ColumnRef(None, column_map[name].physical)

        return rewrite_refs(expr, localize)

    # -- DELETE ----------------------------------------------------------------------

    def delete(
        self,
        tenant_id: int,
        stmt: ast.Delete,
        params=(),
        mode: UpdateMode = UpdateMode.BUFFERED,
    ) -> int:
        where = self._prepare_where(tenant_id, stmt.where, params)
        direct = self._direct_fragment(tenant_id, stmt.table)
        if direct is not None:
            return self._direct_delete(direct, where)
        affected = self._affected_rows(tenant_id, stmt.table, where, [])
        if not affected:
            return 0
        row_ids = [record[ROW_ALIAS] for record in affected]
        fragments = self.layout.fragments(tenant_id, stmt.table)
        for fragment in fragments:
            for start in range(0, len(row_ids), IN_BATCH):
                batch = row_ids[start : start + IN_BATCH]
                predicate = self._fragment_row_predicate(fragment, batch)
                if self.layout.soft_delete:
                    # Trashcan: "mark the tuples as invisible instead of
                    # physically deleting them" — and a delete must mark
                    # *all* fragments, unlike a normal update.
                    statement: ast.Statement = ast.Update(
                        fragment.table,
                        ((ALIVE, ast.Literal(0)),),
                        predicate,
                    )
                else:
                    statement = ast.Delete(fragment.table, predicate)
                self.db.execute_ast(statement)
        return len(row_ids)

    def purge_trashcan(self, tenant_id: int, table_name: str) -> int:
        """Physically delete everything the Trashcan holds for one
        tenant's table; returns logical rows purged."""
        if not self.layout.soft_delete:
            raise PlanError("purge_trashcan requires soft_delete layouts")
        fragments = self.layout.fragments(tenant_id, table_name)
        purged = 0
        for i, fragment in enumerate(fragments):
            predicate = self._fragment_meta_predicate(fragment)
            dead = ast.BinaryOp("=", ast.ColumnRef(None, ALIVE), ast.Literal(0))
            predicate = (
                dead
                if predicate is None
                else ast.BinaryOp("AND", predicate, dead)
            )
            count = self.db.execute_ast(
                ast.Delete(fragment.table, predicate)
            ).rowcount
            if i == 0:
                purged = count
        return purged

    def restore(self, tenant_id: int, table_name: str, row_ids: list[int]) -> int:
        """Undo soft deletes (the Trashcan's purpose)."""
        if not self.layout.soft_delete:
            raise PlanError("restore requires soft_delete layouts")
        for fragment in self.layout.fragments(tenant_id, table_name):
            for start in range(0, len(row_ids), IN_BATCH):
                batch = row_ids[start : start + IN_BATCH]
                update = ast.Update(
                    fragment.table,
                    ((ALIVE, ast.Literal(1)),),
                    self._fragment_row_predicate(fragment, batch),
                )
                self.db.execute_ast(update)
        return len(row_ids)

    # -- predicates over fragments -------------------------------------------------

    @staticmethod
    def _fragment_meta_predicate(fragment: Fragment) -> ast.Expr | None:
        predicate: ast.Expr | None = None
        for meta_col, value in fragment.meta:
            conjunct = ast.BinaryOp(
                "=", ast.ColumnRef(None, meta_col), ast.Literal(value)
            )
            predicate = (
                conjunct
                if predicate is None
                else ast.BinaryOp("AND", predicate, conjunct)
            )
        return predicate

    def _fragment_row_predicate(
        self, fragment: Fragment, row_ids: list[int]
    ) -> ast.Expr:
        predicate = self._fragment_meta_predicate(fragment)
        if fragment.row_column is None:
            if predicate is None:
                raise PlanError(
                    f"fragment {fragment.table} has neither meta filters nor "
                    "row identity"
                )
            return predicate
        if len(row_ids) == 1:
            membership: ast.Expr = ast.BinaryOp(
                "=", ast.ColumnRef(None, fragment.row_column), ast.Literal(row_ids[0])
            )
        else:
            membership = ast.InList(
                ast.ColumnRef(None, fragment.row_column),
                tuple(ast.Literal(r) for r in row_ids),
            )
        if predicate is None:
            return membership
        return ast.BinaryOp("AND", predicate, membership)
