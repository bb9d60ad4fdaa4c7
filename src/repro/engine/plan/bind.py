"""The binder: what every name in a statement means, and its type.

One pass over a parsed statement against a *column source*: a callable
from a table name to its columns (anything with ``lname``, ``type`` and
``not_null``) that raises :class:`UnknownObjectError` for an unknown
table.  The planner and ``Database.prepare`` bind against the physical
catalog (:meth:`Catalog.columns <repro.engine.catalog.Catalog.columns>`),
the schema-mapping layer's transformers against a tenant's logical
schema.  A bind pass qualifies every column reference with the binding
of its source, expands ``*`` and ``alias.*``, infers each expression's
:class:`~repro.engine.values.SqlType`, and records findings under the
SEM rule ids of ``docs/analysis_rules.md``.

Its rules are the planner's, so binding decides what runs:

* FROM subqueries and ``IN (SELECT ...)`` are uncorrelated: each binds
  against its own sources, and an ``IN`` subquery returns one column;
* WHERE, GROUP BY and HAVING see source columns; in an aggregating block
  the select list and HAVING read columns only inside GROUP BY
  expressions and aggregates;
* ORDER BY also sees select-list aliases (a bare alias names the output
  column, as in SQLite), and each key must compile where the planner
  sorts: on an output column, on source columns before the projection,
  or on output names after it.

A finding carries the error class execution raises for it, and
:meth:`Bound.checked` raises that error with the rule id attached, so
``execute`` refuses what ``prepare`` refuses and says why the same way.
Type findings (SEM007, SEM008, SEM010), a column named twice in an
INSERT and ``SUM(*)`` carry none: execution is lenient there, and only
``prepare`` refuses them.  Where a DATE meets a string, the binder
alone decides what is compared (:meth:`_Binder._compared`), so a scan,
an index probe and an IN set answer alike and no evaluator converts.
"""

from __future__ import annotations

import datetime
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import EngineError, PlanError, TypeMismatchError, UnknownObjectError
from ..sql import ast
from ..values import BIGINT, BOOLEAN, DATE, DOUBLE, SqlType, TypeKind, varchar
from .logical import (
    QueryBlock,
    block_to_select,
    build_block,
    output_name,
    output_position,
)

#: Table name -> its columns, each with ``lname``, ``type`` and
#: ``not_null``; raises :class:`UnknownObjectError` for an unknown table.
ColumnSource = Callable[[str], Sequence[Any]]

#: The MTSQL function naming the tenant dimension.  It binds only in a
#: statement carrying a ``FOR TENANTS`` clause, which the cross-tenant
#: transformer rewrites into a column read; the engine compiles neither.
TENANT_FUNC = "TENANT_ID"

#: Scalar functions the engine compiles: (min, max) arity and the result
#: type (``None``: the first known argument type).
_FUNCTIONS: dict[str, tuple[int, int | None, SqlType | None]] = {
    "LENGTH": (1, 1, BIGINT),
    "UPPER": (1, 1, varchar(255)),
    "LOWER": (1, 1, varchar(255)),
    "COALESCE": (1, None, None),
    "ABS": (1, 1, None),
    "TO_INT": (1, 1, BIGINT),
    "TO_DOUBLE": (1, 1, DOUBLE),
    "TO_DATE": (1, 1, DATE),
    "TO_BOOL": (1, 1, BOOLEAN),
    "TO_STR": (1, 1, varchar(255)),
    "ISO_DATE": (1, 1, DATE),
}

#: What execution raises for each rule it refuses by; rules not here
#: refuse only at ``prepare``.
_ERRORS: dict[str, type[EngineError]] = {
    "SEM001": UnknownObjectError,
    "SEM002": UnknownObjectError,
    "SEM003": PlanError,
    "SEM004": PlanError,
    "SEM005": PlanError,
    "SEM006": PlanError,
    "SEM009": PlanError,
}

#: Rule ids that warn without refusing the statement.
WARNINGS = frozenset({"SEM010"})

#: Kinds that compare against each other without surprises.  Booleans
#: are stored as ints by the generic layouts, and the binder converts
#: DATE/VARCHAR pairs (``_compared``), so those are compatible by design.
_NUMERIC = {TypeKind.INTEGER, TypeKind.BIGINT, TypeKind.DOUBLE, TypeKind.BOOLEAN}


def comparable(left: SqlType | None, right: SqlType | None) -> bool:
    """Whether a comparison between these types is meaningful."""
    if left is None or right is None:
        return True  # unknown (parameters, unresolved) — stay permissive
    a, b = left.kind, right.kind
    if a == b or (a in _NUMERIC and b in _NUMERIC):
        return True
    return {a, b} == {TypeKind.DATE, TypeKind.VARCHAR}


_LITERAL_TYPES = {bool: BOOLEAN, int: BIGINT, float: DOUBLE, datetime.date: DATE}


def _literal_type(value: object) -> SqlType | None:
    if isinstance(value, str):
        return varchar(max(len(value), 1))
    return _LITERAL_TYPES.get(type(value))


_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})


def compared_as(sql_type: SqlType, value: object) -> object:
    """``value`` as compared with a ``sql_type`` operand: a string naming
    a date as a DATE, a date as its ISO text, any other as it is."""
    if sql_type.kind is TypeKind.VARCHAR and type(value) is datetime.date:
        return value.isoformat()
    if sql_type.kind is TypeKind.DATE:
        with suppress(TypeMismatchError):
            return DATE.check(value)
    return value


def cast_params(casts: dict[int, SqlType], params: Sequence[object]) -> Sequence:
    """``params``, each slot of ``casts`` through :func:`compared_as`."""
    if not casts:
        return params
    cast = list(params)
    for index, sql_type in casts.items():
        if index < len(cast):
            cast[index] = compared_as(sql_type, cast[index])
    return cast


@dataclass(frozen=True)
class BindFinding:
    """One rule a statement breaks."""

    rule_id: str
    message: str
    #: What execution raises for it; ``None``: only ``prepare`` refuses.
    error: type[EngineError] | None = None


@dataclass
class Bound:
    """A statement with its names resolved."""

    stmt: ast.Statement
    findings: list[BindFinding] = field(default_factory=list)
    #: SELECT: the qualified block, stars expanded.  UPDATE / DELETE:
    #: the FROM and WHERE of the rows the write finds, no select list.
    block: QueryBlock | None = None
    #: UPDATE: ``(column, qualified SET expression)`` in SET order.
    assignments: list[tuple[str, ast.Expr]] = field(default_factory=list)
    #: Parameter slot -> the operand type it is read as (:func:`cast_params`).
    param_casts: dict[int, SqlType] = field(default_factory=dict)

    @property
    def errors(self) -> list[BindFinding]:
        """The findings that refuse the statement at ``prepare``."""
        return [f for f in self.findings if f.rule_id not in WARNINGS]

    def checked(self) -> "Bound":
        """``self``, or the error execution raises for the first finding
        that has one, its ``rule_id`` set."""
        for finding in self.findings:
            if finding.error is not None:
                error = finding.error(f"{finding.message} [{finding.rule_id}]")
                error.rule_id = finding.rule_id
                raise error
        return self


def bind_statement(stmt: ast.Statement, columns: ColumnSource) -> Bound:
    """Bind a SELECT, INSERT, UPDATE or DELETE against ``columns``."""
    dialect = isinstance(stmt, ast.Select) and stmt.tenants is not None
    binder = _Binder(columns, dialect)
    bound = Bound(stmt, binder.findings, param_casts=binder.param_casts)
    if isinstance(stmt, ast.Select):
        bound.block = binder.select(stmt)[0]
    elif isinstance(stmt, ast.Insert):
        binder.insert(stmt)
    elif isinstance(stmt, (ast.Update, ast.Delete)):
        bound.block, bound.assignments = binder.write(stmt)
    return bound


class _Sources:
    """The bindings one block's expressions resolve against: each
    binding's ``(column, type)`` list, and the bindings whose table is
    unknown (reported once; references into them report nothing)."""

    def __init__(self) -> None:
        self.columns: dict[str, list[tuple[str, SqlType | None]]] = {}
        self.types: dict[str, dict[str, SqlType | None]] = {}
        #: binding -> column names its source outputs more than once.
        self.twice: dict[str, set[str]] = {}
        self.opaque: set[str] = set()

    def add(self, binding: str, columns) -> None:
        if columns is None:
            self.opaque.add(binding)
            return
        self.columns[binding] = columns
        self.types[binding] = dict(columns)
        if len(self.types[binding]) < len(columns):
            counts = Counter(name for name, _ in columns)
            self.twice[binding] = {n for n, c in counts.items() if c > 1}

    def names(self) -> Counter:
        """How many source slots carry each column name."""
        return Counter(n for columns in self.columns.values() for n, _ in columns)


def _rebuilt(expr: ast.Expr, children: list) -> ast.Expr:
    """``expr`` over ``children``; ``expr`` itself when they are its own,
    so a bound block shares every node binding left unchanged."""
    if all(new is old for new, old in zip(children, ast.children(expr))):
        return expr
    rest = iter(children)
    return ast.map_children(expr, lambda _: next(rest))


def _ungrouped(expr: ast.Expr, keys: list[ast.Expr]) -> ast.ColumnRef | None:
    """The first column ``expr`` reads outside a GROUP BY expression or
    an aggregate (what :class:`~repro.engine.expr.GroupedScope` cannot
    evaluate), or ``None``."""
    if expr in keys or (isinstance(expr, ast.FuncCall) and expr.is_aggregate):
        return None
    if isinstance(expr, ast.ColumnRef):
        return expr
    for child in ast.children(expr):
        found = _ungrouped(child, keys)
        if found is not None:
            return found
    return None


def _unresolved(
    expr: ast.Expr, names: Counter, *, bound: bool = False
) -> tuple[str, str] | None:
    """Why ``expr`` does not compile against slots named ``names``, as
    ``(rule id, message)``, or ``None`` when it does.  Qualified
    references resolve when ``bound`` (source slots), by name alone
    otherwise (output slots)."""
    for node in ast.walk(expr):
        if isinstance(node, ast.FuncCall) and node.is_aggregate:
            return "SEM009", f"aggregate {node.sql()} not allowed here"
        if isinstance(node, ast.ColumnRef) and not (bound and node.table):
            count = names[node.column.lower()]
            if count == 0:
                return "SEM002", f"ORDER BY names no column {node.sql()!r}"
            if count > 1:
                return "SEM003", f"ambiguous ORDER BY column {node.column!r}"
    return None


class _Binder:
    def __init__(self, columns: ColumnSource, tenant_dialect: bool) -> None:
        self._columns = columns
        #: Whether ``TENANT_ID()`` binds (a ``FOR TENANTS`` statement).
        self._tenant_dialect = tenant_dialect
        self.findings: list[BindFinding] = []
        self.param_casts: dict[int, SqlType] = {}

    def flag(self, rule_id: str, message: str, *, lenient: bool = False) -> None:
        """Record a finding; ``lenient``: execution runs it anyway."""
        error = None if lenient else _ERRORS.get(rule_id)
        self.findings.append(BindFinding(rule_id, message, error))

    def _table(self, name: str):
        try:
            return self._columns(name)
        except UnknownObjectError:
            self.flag("SEM001", f"unknown table {name!r}")
            return None

    # -- SELECT ----------------------------------------------------------------

    def select(
        self, select: ast.Select
    ) -> tuple[QueryBlock, list[tuple[str, SqlType | None]]]:
        """The bound block, and its ``(output name, type)`` columns."""
        block = build_block(select)
        if not block.sources:
            self.flag("SEM005", "SELECT without FROM is not supported")
        # Derived tables bind first, each against its own sources.
        sources: list[tuple[ast.Source, list | None]] = []
        for source in block.sources:
            outputs = None
            if isinstance(source, ast.SubquerySource):
                inner, outputs = self.select(source.select)
                source = ast.SubquerySource(block_to_select(inner), source.alias)
            sources.append((source, outputs))
        scope = _Sources()
        for source, outputs in sources:
            binding = source.binding.lower()
            if binding in scope.columns or binding in scope.opaque:
                self.flag("SEM004", f"duplicate table binding {binding!r}")
                continue
            if isinstance(source, ast.TableSource):
                columns = self._table(source.name)
                if columns is not None:
                    outputs = [(c.lname, c.type) for c in columns]
            scope.add(binding, outputs)

        items, outputs = [], []
        aliases: dict[str, SqlType | None] = {}
        for position, item in enumerate(block.items):
            if isinstance(item.expr, ast.Star):
                for ref in self._star(item.expr, scope):
                    expr, sql_type = self._ref(ref, scope)
                    items.append(ast.SelectItem(expr))
                    outputs.append((ref.column, sql_type))
                continue
            expr, sql_type = self.expr(item.expr, scope, aggregates=True)
            if expr is not item.expr:
                item = ast.SelectItem(expr, item.alias)
            items.append(item)
            outputs.append((output_name(item, position), sql_type))
            if item.alias is not None:
                aliases[item.alias.lower()] = sql_type

        typed = [self.expr(c, scope, aggregates=False) for c in block.conjuncts]
        if len(typed) == 1:
            self._predicate(typed[0][1], "WHERE")
        group_by = [self.expr(e, scope, aggregates=False)[0] for e in block.group_by]
        having = None
        if block.having is not None:
            having, sql_type = self.expr(block.having, scope, aggregates=True)
            self._predicate(sql_type, "HAVING")
        # ORDER BY: a bare key naming an alias is that output column;
        # inside an expression a source column of the same name wins.
        source_names = scope.names() if block.order_by else Counter()
        hidden = {n: t for n, t in aliases.items() if n not in source_names}
        order_by = []
        for order in block.order_by:
            expr = order.expr
            bare = isinstance(expr, ast.ColumnRef) and expr.table is None
            if not (bare and expr.column.lower() in aliases):
                expr = self.expr(expr, scope, aggregates=True, aliases=hidden)[0]
            order_by.append(
                order if expr is order.expr else ast.OrderItem(expr, order.descending)
            )

        bound = QueryBlock(
            items=items,
            sources=[source for source, _ in sources],
            conjuncts=[expr for expr, _ in typed],
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=block.limit,
            distinct=block.distinct,
        )
        if bound.is_aggregating:
            grouped = [item.expr for item in bound.items]
            if bound.having is not None:
                grouped.append(bound.having)
            for expr in grouped:
                column = _ungrouped(expr, bound.group_by)
                # An unqualified column did not bind: already reported.
                if column is not None and column.table is not None:
                    self.flag(
                        "SEM009",
                        f"column {column.sql()} must appear in GROUP BY or "
                        "an aggregate",
                    )
        self._order(bound, source_names)
        return bound, outputs

    def _star(self, star: ast.Star, scope: _Sources) -> list[ast.ColumnRef]:
        targets = list(scope.columns)
        if star.table is not None:
            binding = star.table.lower()
            if binding not in scope.columns:
                if binding not in scope.opaque:
                    self.flag("SEM002", f"unknown binding {binding!r} in *")
                return []
            targets = [binding]
        return [
            ast.ColumnRef(binding, name)
            for binding in targets
            for name, _ in scope.columns[binding]
        ]

    def _order(self, block: QueryBlock, source_names: Counter) -> None:
        """Each ORDER BY key must compile where ``Planner._plan_order``
        sorts it."""
        if not block.order_by:
            return
        outputs = Counter(block.output_names())
        keys = [order.expr for order in block.order_by]
        placed = [output_position(block, key) is not None for key in keys]
        if block.is_aggregating:
            # A key sorts on an output column, on the visible row, or on
            # the (group keys, aggregates) row.
            for key, done in zip(keys, placed):
                qualified = isinstance(key, ast.ColumnRef) and key.table
                if not (
                    done
                    or (not qualified and _unresolved(key, outputs) is None)
                    or _ungrouped(key, block.group_by) is None
                ):
                    self.flag(
                        "SEM009",
                        f"ORDER BY {key.sql()} must reference output columns, "
                        "GROUP BY expressions, or aggregates",
                    )
            return
        # Sorted after the projection on output columns, else before it
        # on source columns, else after it by output name.
        if all(
            done or _unresolved(key, source_names, bound=True) is None
            for key, done in zip(keys, placed)
        ):
            return
        for key in keys:
            problem = _unresolved(key, outputs)
            if problem is not None:
                self.flag(*problem)

    def _predicate(self, sql_type: SqlType | None, clause: str) -> None:
        if sql_type is not None and sql_type.kind is not TypeKind.BOOLEAN:
            self.flag(
                "SEM010",
                f"{clause} predicate has type {sql_type.kind.value}, "
                "expected BOOLEAN",
            )

    # -- INSERT / UPDATE / DELETE -------------------------------------------------

    def insert(self, stmt: ast.Insert) -> None:
        columns = self._table(stmt.table)
        if columns is None:
            return
        by_name = {c.lname: c for c in columns}
        targets = (
            [by_name.get(name.lower()) for name in stmt.columns]
            if stmt.columns
            else list(columns)
        )
        for row in stmt.rows:
            if len(row) != len(targets):
                self.flag(
                    "SEM005",
                    f"INSERT arity mismatch: {len(targets)} column(s), "
                    f"{len(row)} value(s)",
                )
                continue
            for target, value in zip(targets, row):
                if any(isinstance(n, ast.InSubquery) for n in ast.walk(value)):
                    self.flag("SEM005", "IN (SELECT ...) is not allowed in VALUES")
                    continue
                _, value_type = self.expr(value, _Sources(), aggregates=False)
                if target is not None:
                    self._assignment(stmt.table, target, value, value_type)
        seen: set[str] = set()
        for name in stmt.columns:
            lname = name.lower()
            if lname not in by_name:
                self.flag("SEM002", f"unknown column {name!r} in {stmt.table}")
            elif lname in seen:
                self.flag(
                    "SEM005", f"column {name!r} named twice in INSERT", lenient=True
                )
            seen.add(lname)
        for column in columns if stmt.columns else ():
            if column.not_null and column.lname not in seen:
                self.flag(
                    "SEM008",
                    f"NOT NULL column {column.lname!r} missing from "
                    f"INSERT INTO {stmt.table}",
                )

    def write(
        self, stmt: ast.Update | ast.Delete
    ) -> tuple[QueryBlock | None, list[tuple[str, ast.Expr]]]:
        columns = self._table(stmt.table)
        if columns is None:
            return None, []
        by_name = {c.lname: c for c in columns}
        scope = _Sources()
        scope.add(stmt.table.lower(), [(c.lname, c.type) for c in columns])
        assignments = []
        for name, value in getattr(stmt, "assignments", ()):
            target = by_name.get(name.lower())
            if target is None:
                self.flag("SEM002", f"unknown column {name!r} in {stmt.table}")
            expr, value_type = self.expr(value, scope, aggregates=False)
            if target is not None:
                self._assignment(stmt.table, target, value, value_type)
            assignments.append((name, expr))
        rows = ast.Select((), (ast.TableSource(stmt.table),), stmt.where)
        return self.select(rows)[0], assignments

    def _assignment(
        self, table: str, target, value: ast.Expr, value_type: SqlType | None
    ) -> None:
        where = f"{table}.{target.lname}"
        if isinstance(value, ast.Literal):
            if value.value is None:
                if target.not_null:
                    self.flag("SEM008", f"NULL assigned to NOT NULL column {where}")
                return
            try:
                target.type.check(value.value)
            except TypeMismatchError as exc:
                self.flag("SEM008", f"{where}: {exc}")
        elif not comparable(target.type, value_type):
            self.flag(
                "SEM008",
                f"{where} is {target.type.kind.value} but value has type "
                f"{value_type.kind.value}",
            )

    # -- expressions ------------------------------------------------------------------

    def _ref(
        self, ref: ast.ColumnRef, scope: _Sources
    ) -> tuple[ast.Expr, SqlType | None]:
        column = ref.column.lower()
        if ref.table is not None:
            binding = ref.table.lower()
            types = scope.types.get(binding)
            if types is None:
                if binding not in scope.opaque:
                    self.flag("SEM002", f"unknown table binding {ref.table!r}")
                return ref, None
            if column not in types:
                self.flag("SEM002", f"no column {ref.column!r} in {ref.table}")
                return ref, None
        else:
            owners = [b for b, types in scope.types.items() if column in types]
            if len(owners) != 1:
                if owners:
                    self.flag("SEM003", f"ambiguous column {ref.column!r}")
                elif not scope.opaque:  # else it may be the unknown table's
                    self.flag("SEM002", f"unknown column {ref.column!r}")
                return ref, None
            binding = owners[0]
        if column in scope.twice.get(binding, ()):
            self.flag("SEM003", f"{binding} outputs column {column!r} twice")
        if ref.table != binding or ref.column != column:
            ref = ast.ColumnRef(binding, column)
        return ref, scope.types[binding][column]

    def expr(
        self,
        expr: ast.Expr,
        scope: _Sources,
        *,
        aggregates: bool,
        aliases: dict[str, SqlType | None] | None = None,
        in_aggregate: bool = False,
    ) -> tuple[ast.Expr, SqlType | None]:
        """``expr`` qualified, and its type (``None``: unknown)."""
        if isinstance(expr, ast.Literal):
            return expr, _literal_type(expr.value)
        if isinstance(expr, ast.Param):
            return expr, None
        if isinstance(expr, ast.ColumnRef):
            if aliases and expr.table is None and expr.column.lower() in aliases:
                return expr, aliases[expr.column.lower()]
            return self._ref(expr, scope)

        def sub(child: ast.Expr, inside: bool = in_aggregate):
            return self.expr(
                child, scope, aggregates=aggregates, aliases=aliases,
                in_aggregate=inside,
            )

        if isinstance(expr, ast.FuncCall):
            return self._call(expr, sub, aggregates, in_aggregate)
        if isinstance(expr, ast.InSubquery):
            operand, operand_type = sub(expr.operand)
            outputs = self.select(expr.subquery)[1]
            if len(outputs) != 1:
                self.flag(
                    "SEM005", f"IN subquery returns {len(outputs)} columns, not 1"
                )
            elif not comparable(operand_type, outputs[0][1]):
                self.flag(
                    "SEM007",
                    f"IN subquery compares {operand_type.kind.value} with "
                    f"{outputs[0][1].kind.value}",
                )
            return _rebuilt(expr, [operand]), BOOLEAN
        typed = [sub(child) for child in ast.children(expr)]
        if isinstance(expr, ast.InList) or (
            isinstance(expr, ast.BinaryOp) and expr.op in _COMPARISONS
        ):
            typed = self._compared(typed)
        rebuilt = _rebuilt(expr, [child for child, _ in typed])
        return rebuilt, self._type(expr, [sql_type for _, sql_type in typed])

    def _compared(self, typed: list) -> list:
        """The one DATE/string rule over ``(expr, type)`` operands, the
        first compared with each of the rest: a string literal met by a
        DATE is cast to DATE now, a parameter is read as what it meets
        (DATE before VARCHAR) at each execution, and any other VARCHAR
        met by a DATE becomes the lenient ``ISO_DATE``."""
        for i, (expr, sql_type) in enumerate(typed):
            others = typed[1:] if i == 0 else typed[:1]
            kinds = {t.kind: t for _, t in others if t is not None}
            target = kinds.get(TypeKind.DATE) or kinds.get(TypeKind.VARCHAR)
            if isinstance(expr, ast.Param):
                if target is not None:
                    self.param_casts[expr.index] = target
            elif isinstance(expr, ast.Literal) and target == DATE:
                value = compared_as(DATE, expr.value)
                if value is not expr.value:
                    typed[i] = ast.Literal(value), DATE
            elif getattr(sql_type, "kind", None) is TypeKind.VARCHAR and target == DATE:
                typed[i] = ast.FuncCall("ISO_DATE", (expr,)), DATE
        return typed

    def _type(self, expr: ast.Expr, types: list) -> SqlType | None:
        """The type of a unary, IS NULL, binary or IN-list node whose
        operands have ``types``; flags SEM007 mismatches."""
        if isinstance(expr, ast.UnaryOp):
            if expr.op.upper() == "NOT":
                return BOOLEAN
            if types[0] is not None and types[0].kind not in _NUMERIC:
                self.flag("SEM007", f"unary {expr.op} applied to {types[0].kind.value}")
            return types[0]
        if isinstance(expr, ast.InList):
            for item in types[1:]:
                if not comparable(types[0], item):
                    self.flag(
                        "SEM007",
                        f"IN list compares {types[0].kind.value} with "
                        f"{item.kind.value}",
                    )
            return BOOLEAN
        if not isinstance(expr, ast.BinaryOp):
            return BOOLEAN  # IS [NOT] NULL
        op = expr.op.upper()
        left, right = types
        if op in ("AND", "OR"):
            return BOOLEAN
        if op == "LIKE":
            if right is not None and right.kind is not TypeKind.VARCHAR:
                self.flag(
                    "SEM007",
                    f"LIKE pattern has type {right.kind.value}, expected VARCHAR",
                )
            return BOOLEAN
        if op in _COMPARISONS:
            if not comparable(left, right):
                self.flag(
                    "SEM007",
                    f"comparison {op} between {left.kind.value} and "
                    f"{right.kind.value}",
                )
            return BOOLEAN
        if op == "||":
            return varchar(255)
        for side in (left, right):
            if side is not None and side.kind not in _NUMERIC:
                self.flag("SEM007", f"arithmetic {op} applied to {side.kind.value}")
        if left is None or right is None:
            return None
        return DOUBLE if TypeKind.DOUBLE in (left.kind, right.kind) else BIGINT

    def _call(
        self, expr: ast.FuncCall, sub, aggregates: bool, in_aggregate: bool
    ) -> tuple[ast.Expr, SqlType | None]:
        name = expr.name.upper()
        if expr.is_aggregate:
            if not aggregates:
                self.flag("SEM009", f"aggregate {name} not allowed in this clause")
            if in_aggregate:
                self.flag("SEM009", f"nested aggregate {name}")
            if expr.star:
                if name != "COUNT":  # runs as COUNT(*)
                    self.flag("SEM006", f"{name}(*) is not valid", lenient=True)
                return expr, BIGINT
        typed = [sub(arg, in_aggregate or expr.is_aggregate) for arg in expr.args]
        types = [sql_type for _, sql_type in typed]
        bound = _rebuilt(expr, [arg for arg, _ in typed])
        if expr.is_aggregate:
            if len(typed) != 1:
                self.flag("SEM006", f"aggregate {name} takes 1 argument")
                return bound, None
            if name in ("COUNT", "AVG"):
                return bound, BIGINT if name == "COUNT" else DOUBLE
            if name == "SUM" and types[0] is not None and types[0].kind not in _NUMERIC:
                self.flag("SEM007", f"SUM over {types[0].kind.value} values")
            return bound, types[0]  # SUM, MIN and MAX keep the argument type
        spec = _FUNCTIONS.get(name)
        if name == TENANT_FUNC and self._tenant_dialect:
            spec = (0, 0, BIGINT)
        if spec is None:
            self.flag("SEM006", f"unknown function {name}")
            return bound, None
        low, high, result = spec
        if expr.star or len(typed) < low or (high is not None and len(typed) > high):
            arity = low if high == low else f"{low}+"
            self.flag(
                "SEM006", f"function {name} takes {arity} argument(s), got {len(typed)}"
            )
        return bound, result or next((t for t in types if t is not None), None)
