"""Pass 1 — semantic analysis of SQL ASTs against a schema.

A name/type resolver over :mod:`repro.engine.sql.ast` nodes: unknown
tables and columns, ambiguous references, duplicate bindings, INSERT
shape mismatches, unknown functions, and type-incompatible comparisons
and assignments.  The checks mirror the engine's (lenient) runtime
coercion rules — ints compare against doubles and booleans, ISO strings
against DATEs — so anything the analyzer rejects would also misbehave
or raise at execution time, just later and less legibly.

Names resolve through a :class:`SchemaProvider`;
:class:`CatalogProvider` resolves against a physical
:class:`~repro.engine.catalog.Catalog` (used by ``Database.prepare``).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, Protocol

from ..engine.errors import TypeMismatchError, UnsupportedSyntaxError
from ..engine.plan.logical import output_name
from ..engine.sql import ast
from ..engine.sql.parser import parse_statement
from ..engine.values import SqlType, TypeKind
from .findings import AnalysisReport, Finding

#: Scalar functions the engine compiles, with (min, max) arity.
SCALAR_FUNCTIONS: dict[str, tuple[int, int | None]] = {
    "LENGTH": (1, 1),
    "UPPER": (1, 1),
    "LOWER": (1, 1),
    "COALESCE": (1, None),
    "ABS": (1, 1),
    "TO_INT": (1, 1),
    "TO_DOUBLE": (1, 1),
    "TO_DATE": (1, 1),
    "TO_BOOL": (1, 1),
    "TO_STR": (1, 1),
}

AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

#: Kinds that compare against each other without surprises.  Booleans
#: are stored as ints by the generic layouts, and the engine coerces ISO
#: strings to DATEs, so those pairs are compatible by design.
_NUMERIC = {TypeKind.INTEGER, TypeKind.BIGINT, TypeKind.DOUBLE, TypeKind.BOOLEAN}


def comparable(left: SqlType | None, right: SqlType | None) -> bool:
    """Whether a comparison between these types is meaningful."""
    if left is None or right is None:
        return True  # unknown (parameters, unresolved) — stay permissive
    a, b = left.kind, right.kind
    if a == b:
        return True
    if a in _NUMERIC and b in _NUMERIC:
        return True
    pair = {a, b}
    if pair == {TypeKind.DATE, TypeKind.VARCHAR}:
        return True  # engine coerces ISO strings for DATE comparisons
    return False


class SchemaProvider(Protocol):
    """Name resolution surface the analyzer resolves tables through."""

    def has_table(self, name: str) -> bool: ...

    def table_columns(self, name: str) -> list[tuple[str, SqlType, bool]]:
        """``(lname, type, not_null)`` per column, in declaration order."""
        ...


class CatalogProvider:
    """Resolve against the engine's physical catalog."""

    def __init__(self, catalog: Any) -> None:
        self.catalog = catalog

    def has_table(self, name: str) -> bool:
        return self.catalog.has_table(name)

    def table_columns(self, name: str) -> list[tuple[str, SqlType, bool]]:
        table = self.catalog.table(name)
        return [(c.lname, c.type, c.not_null) for c in table.columns]


class _Scope:
    """The bindings visible to one SELECT block (plus outer blocks)."""

    def __init__(self, parent: _Scope | None = None) -> None:
        self.parent = parent
        #: binding -> column lname -> type (None for unresolvable types).
        self.bindings: dict[str, dict[str, SqlType | None]] = {}
        #: Bindings whose table was unknown: suppress cascading errors.
        self.opaque: set[str] = set()

    def add(self, binding: str, columns: dict[str, SqlType | None]) -> bool:
        key = binding.lower()
        if key in self.bindings or key in self.opaque:
            return False
        self.bindings[key] = columns
        return True

    def add_opaque(self, binding: str) -> None:
        self.opaque.add(binding.lower())

    def resolve(
        self, ref: ast.ColumnRef
    ) -> tuple[SqlType | None, str | None]:
        """``(type, error)`` where error is a rule id or None."""
        column = ref.column.lower()
        if ref.table is not None:
            binding = ref.table.lower()
            scope: _Scope | None = self
            while scope is not None:
                if binding in scope.opaque:
                    return None, None
                columns = scope.bindings.get(binding)
                if columns is not None:
                    if column in columns:
                        return columns[column], None
                    return None, "SEM002"
                scope = scope.parent
            return None, "SEM002"
        matches: list[SqlType | None] = []
        scope = self
        while scope is not None:
            if scope.opaque:
                return None, None  # could resolve into the unknown table
            for columns in scope.bindings.values():
                if column in columns:
                    matches.append(columns[column])
            if matches:
                # Ambiguity is judged per block; outer blocks only apply
                # when no inner binding matches (correlation).
                break
            scope = scope.parent
        if not matches:
            return None, "SEM002"
        if len(matches) > 1:
            return None, "SEM003"
        return matches[0], None


class SemanticAnalyzer:
    """Resolves and type-checks one statement, producing findings."""

    def __init__(self, provider: SchemaProvider) -> None:
        self.provider = provider

    def analyze(self, stmt: ast.Statement, locus: str = "") -> AnalysisReport:
        report = AnalysisReport(checked=1)
        self._locus = locus
        self._report = report
        if isinstance(stmt, ast.Select):
            self._analyze_select(stmt, None)
        elif isinstance(stmt, ast.Insert):
            self._analyze_insert(stmt)
        elif isinstance(stmt, ast.Update):
            self._analyze_update(stmt)
        elif isinstance(stmt, ast.Delete):
            self._analyze_delete(stmt)
        # DDL is checked by the catalog itself.
        return report

    def analyze_sql(self, sql: str, locus: str = "") -> AnalysisReport:
        """Parse and analyze SQL text.  A construct the parser refuses
        by name (an outer join) is a finding, not an exception; any
        other parse error propagates."""
        try:
            stmt = parse_statement(sql)
        except UnsupportedSyntaxError as exc:
            report = AnalysisReport(checked=1)
            report.add(Finding(exc.rule_id, str(exc), locus or sql))
            return report
        return self.analyze(stmt, locus or sql)

    # -- helpers -----------------------------------------------------------

    def _flag(self, rule_id: str, message: str) -> None:
        self._report.add(Finding(rule_id, message, self._locus))

    def _table_scope_columns(self, name: str) -> dict[str, SqlType | None]:
        return {
            lname: sql_type
            for lname, sql_type, _ in self.provider.table_columns(name)
        }

    def _single_table_scope(self, name: str) -> _Scope | None:
        scope = _Scope()
        if not self.provider.has_table(name):
            self._flag("SEM001", f"unknown table {name!r}")
            return None
        scope.add(name, self._table_scope_columns(name))
        return scope

    # -- SELECT ------------------------------------------------------------

    def _analyze_select(
        self, select: ast.Select, parent: _Scope | None
    ) -> list[tuple[str, SqlType | None]]:
        """Analyze one block; returns its output columns ``(name, type)``."""
        scope = _Scope(parent)
        for source in select.sources:
            if isinstance(source, ast.SubquerySource):
                outputs = self._analyze_select(source.select, parent)
                added = scope.add(source.alias, dict(outputs))
            else:
                binding = source.binding
                if not self.provider.has_table(source.name):
                    self._flag("SEM001", f"unknown table {source.name!r}")
                    scope.add_opaque(binding)
                    continue
                added = scope.add(
                    binding, self._table_scope_columns(source.name)
                )
            if not added:
                self._flag(
                    "SEM004", f"duplicate source binding {source.binding!r}"
                )

        outputs: list[tuple[str, SqlType | None]] = []
        for position, item in enumerate(select.items):
            if isinstance(item.expr, ast.Star):
                if item.expr.table is not None:
                    binding = item.expr.table.lower()
                    columns = scope.bindings.get(binding)
                    if columns is None:
                        if binding not in scope.opaque:
                            self._flag(
                                "SEM002", f"unknown binding {binding!r} in *"
                            )
                        continue
                    outputs.extend(columns.items())
                else:
                    for columns in scope.bindings.values():
                        outputs.extend(columns.items())
                continue
            item_type = self._infer(item.expr, scope, aggregates_ok=True)
            outputs.append((output_name(item, position).lower(), item_type))

        if select.where is not None:
            where_type = self._infer(select.where, scope, aggregates_ok=False)
            self._check_predicate_type(where_type, "WHERE")
        alias_types = dict(outputs)
        for expr in select.group_by:
            self._infer(expr, scope, aggregates_ok=False, aliases=alias_types)
        if select.having is not None:
            having_type = self._infer(
                select.having, scope, aggregates_ok=True, aliases=alias_types
            )
            self._check_predicate_type(having_type, "HAVING")
        for order_item in select.order_by:
            self._infer(
                order_item.expr, scope, aggregates_ok=True, aliases=alias_types
            )
        return outputs

    def _check_predicate_type(self, inferred: SqlType | None, clause: str) -> None:
        if inferred is not None and inferred.kind is not TypeKind.BOOLEAN:
            self._flag(
                "SEM010",
                f"{clause} predicate has type {inferred.kind.value}, "
                "expected BOOLEAN",
            )

    # -- DML ---------------------------------------------------------------

    def _analyze_insert(self, insert: ast.Insert) -> None:
        if not self.provider.has_table(insert.table):
            self._flag("SEM001", f"unknown table {insert.table!r}")
            return
        table_columns = self.provider.table_columns(insert.table)
        by_name = {lname: (sql_type, nn) for lname, sql_type, nn in table_columns}
        if insert.columns:
            targets = []
            seen: set[str] = set()
            for name in insert.columns:
                lname = name.lower()
                if lname not in by_name:
                    self._flag(
                        "SEM002",
                        f"unknown column {name!r} in INSERT INTO {insert.table}",
                    )
                    targets.append((lname, None, False))
                    continue
                if lname in seen:
                    self._flag(
                        "SEM005", f"column {name!r} named twice in INSERT"
                    )
                seen.add(lname)
                sql_type, nn = by_name[lname]
                targets.append((lname, sql_type, nn))
            for lname, _sql_type, nn in table_columns:
                if nn and lname not in seen:
                    self._flag(
                        "SEM008",
                        f"NOT NULL column {lname!r} missing from INSERT "
                        f"INTO {insert.table}",
                    )
        else:
            targets = list(table_columns)
        for row in insert.rows:
            if len(row) != len(targets):
                self._flag(
                    "SEM005",
                    f"INSERT arity mismatch: {len(targets)} column(s), "
                    f"{len(row)} value(s)",
                )
                continue
            scope = _Scope()
            for (lname, sql_type, nn), value in zip(targets, row):
                value_type = self._infer(value, scope, aggregates_ok=False)
                self._check_assignment(insert.table, lname, sql_type, nn, value, value_type)

    def _check_assignment(
        self,
        table: str,
        column: str,
        sql_type: SqlType | None,
        not_null: bool,
        value: ast.Expr,
        value_type: SqlType | None,
    ) -> None:
        if sql_type is None:
            return
        if isinstance(value, ast.Literal):
            if value.value is None:
                if not_null:
                    self._flag(
                        "SEM008",
                        f"NULL assigned to NOT NULL column {table}.{column}",
                    )
                return
            try:
                sql_type.check(value.value)
            except TypeMismatchError as exc:
                self._flag("SEM008", f"{table}.{column}: {exc}")
            return
        if not comparable(sql_type, value_type):
            assert value_type is not None
            self._flag(
                "SEM008",
                f"{table}.{column} is {sql_type.kind.value} but value has "
                f"type {value_type.kind.value}",
            )

    def _analyze_update(self, update: ast.Update) -> None:
        scope = self._single_table_scope(update.table)
        if scope is None:
            return
        by_name = {
            lname: (sql_type, nn)
            for lname, sql_type, nn in self.provider.table_columns(update.table)
        }
        for name, value in update.assignments:
            lname = name.lower()
            value_type = self._infer(value, scope, aggregates_ok=False)
            if lname not in by_name:
                self._flag(
                    "SEM002",
                    f"unknown column {name!r} in UPDATE {update.table}",
                )
                continue
            sql_type, nn = by_name[lname]
            self._check_assignment(update.table, lname, sql_type, nn, value, value_type)
        if update.where is not None:
            where_type = self._infer(update.where, scope, aggregates_ok=False)
            self._check_predicate_type(where_type, "WHERE")

    def _analyze_delete(self, delete: ast.Delete) -> None:
        scope = self._single_table_scope(delete.table)
        if scope is None:
            return
        if delete.where is not None:
            where_type = self._infer(delete.where, scope, aggregates_ok=False)
            self._check_predicate_type(where_type, "WHERE")

    # -- expression typing -------------------------------------------------

    def _infer(
        self,
        expr: ast.Expr,
        scope: _Scope,
        *,
        aggregates_ok: bool,
        aliases: dict[str, SqlType | None] | None = None,
        in_aggregate: bool = False,
    ) -> SqlType | None:
        from ..engine import values

        recur = lambda e, **kw: self._infer(
            e,
            scope,
            aggregates_ok=aggregates_ok,
            aliases=aliases,
            in_aggregate=kw.get("in_aggregate", in_aggregate),
        )
        if isinstance(expr, ast.Literal):
            return _literal_type(expr.value)
        if isinstance(expr, ast.Param):
            return None
        if isinstance(expr, ast.ColumnRef):
            if (
                aliases is not None
                and expr.table is None
                and expr.column.lower() in aliases
            ):
                return aliases[expr.column.lower()]
            inferred, error = scope.resolve(expr)
            if error == "SEM002":
                name = (
                    f"{expr.table}.{expr.column}" if expr.table else expr.column
                )
                self._flag("SEM002", f"unknown column {name!r}")
            elif error == "SEM003":
                self._flag(
                    "SEM003", f"ambiguous column reference {expr.column!r}"
                )
            return inferred
        if isinstance(expr, ast.UnaryOp):
            operand = recur(expr.operand)
            op = expr.op.upper()
            if op == "NOT":
                return values.BOOLEAN
            if operand is not None and operand.kind not in _NUMERIC:
                self._flag(
                    "SEM007",
                    f"unary {op} applied to {operand.kind.value}",
                )
            return operand
        if isinstance(expr, ast.IsNull):
            recur(expr.operand)
            return values.BOOLEAN
        if isinstance(expr, ast.BinaryOp):
            return self._infer_binary(expr, recur)
        if isinstance(expr, ast.FuncCall):
            return self._infer_func(
                expr, recur, aggregates_ok=aggregates_ok, in_aggregate=in_aggregate
            )
        if isinstance(expr, ast.InList):
            operand = recur(expr.operand)
            for item in expr.items:
                item_type = recur(item)
                if not comparable(operand, item_type):
                    self._flag(
                        "SEM007",
                        f"IN list compares {operand.kind.value} with "
                        f"{item_type.kind.value}",
                    )
            return values.BOOLEAN
        if isinstance(expr, ast.InSubquery):
            operand = recur(expr.operand)
            outputs = self._analyze_select(expr.subquery, scope)
            if len(outputs) == 1 and not comparable(operand, outputs[0][1]):
                self._flag(
                    "SEM007",
                    f"IN subquery compares {operand.kind.value} with "
                    f"{outputs[0][1].kind.value}",
                )
            return values.BOOLEAN
        return None

    def _infer_binary(
        self,
        expr: ast.BinaryOp,
        recur: Callable[[Any], SqlType | None],
    ) -> SqlType | None:
        from ..engine import values

        op = expr.op.upper()
        left = recur(expr.left)
        right = recur(expr.right)
        if op in ("AND", "OR"):
            return values.BOOLEAN
        if op == "LIKE":
            if right is not None and right.kind is not TypeKind.VARCHAR:
                self._flag(
                    "SEM007",
                    f"LIKE pattern has type {right.kind.value}, "
                    "expected VARCHAR",
                )
            return values.BOOLEAN
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if not comparable(left, right):
                assert left is not None and right is not None
                self._flag(
                    "SEM007",
                    f"comparison {op} between {left.kind.value} and "
                    f"{right.kind.value}",
                )
            return values.BOOLEAN
        if op == "||":
            return values.varchar(255)
        if op in ("+", "-", "*", "/"):
            for side in (left, right):
                if side is not None and side.kind not in _NUMERIC:
                    self._flag(
                        "SEM007",
                        f"arithmetic {op} applied to {side.kind.value}",
                    )
            if left is None or right is None:
                return None
            if TypeKind.DOUBLE in (left.kind, right.kind):
                return values.DOUBLE
            return values.BIGINT
        return None

    def _infer_func(
        self,
        expr: ast.FuncCall,
        recur: Callable[[Any], SqlType | None],
        *,
        aggregates_ok: bool,
        in_aggregate: bool,
    ) -> SqlType | None:
        from ..engine import values

        name = expr.name.upper()
        if name in AGGREGATE_FUNCTIONS:
            if not aggregates_ok:
                self._flag(
                    "SEM009", f"aggregate {name} not allowed in this clause"
                )
            if in_aggregate:
                self._flag("SEM009", f"nested aggregate {name}")
            if expr.star:
                if name != "COUNT":
                    self._flag("SEM006", f"{name}(*) is not valid")
                return values.BIGINT
            if len(expr.args) != 1:
                self._flag(
                    "SEM006",
                    f"aggregate {name} takes 1 argument, got {len(expr.args)}",
                )
                return None
            arg = recur(expr.args[0], in_aggregate=True)
            if name == "COUNT":
                return values.BIGINT
            if name == "AVG":
                return values.DOUBLE
            if name == "SUM":
                if arg is not None and arg.kind not in _NUMERIC:
                    self._flag(
                        "SEM007", f"SUM over {arg.kind.value} values"
                    )
                return arg
            return arg  # MIN/MAX keep the argument type
        arity = SCALAR_FUNCTIONS.get(name)
        if arity is None:
            self._flag("SEM006", f"unknown function {name}")
            for arg in expr.args:
                recur(arg)
            return None
        low, high = arity
        if len(expr.args) < low or (high is not None and len(expr.args) > high):
            self._flag(
                "SEM006",
                f"function {name} takes "
                f"{low if high == low else f'{low}+'} argument(s), "
                f"got {len(expr.args)}",
            )
        arg_types = [recur(arg) for arg in expr.args]
        if name == "LENGTH":
            return values.BIGINT
        if name in ("UPPER", "LOWER", "TO_STR"):
            return values.varchar(255)
        if name == "COALESCE":
            for arg_type in arg_types:
                if arg_type is not None:
                    return arg_type
            return None
        if name == "ABS":
            return arg_types[0] if arg_types else None
        if name == "TO_INT":
            return values.BIGINT
        if name == "TO_DOUBLE":
            return values.DOUBLE
        if name == "TO_DATE":
            return values.DATE
        if name == "TO_BOOL":
            return values.BOOLEAN
        return None


def _literal_type(value: object) -> SqlType | None:
    import datetime

    from ..engine import values

    if value is None:
        return None
    if isinstance(value, bool):
        return values.BOOLEAN
    if isinstance(value, int):
        return values.BIGINT
    if isinstance(value, float):
        return values.DOUBLE
    if isinstance(value, datetime.date):
        return values.DATE
    if isinstance(value, str):
        return values.varchar(max(len(value), 1))
    return None
