"""Abstract syntax trees for the SQL subset.

The same expression nodes are reused by the logical-query layer in
:mod:`repro.core.transform`, which builds ASTs programmatically during
query transformation and renders them back to SQL text (so that the
generated queries in tests/benchmarks are real SQL, exactly as the
paper's query-transformation layer emits SQL to DB2/MySQL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Union

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: object

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, (int, float)):
            return repr(self.value)
        text = str(self.value).replace("'", "''")
        return f"'{text}'"


@dataclass(frozen=True)
class Param:
    """A positional ``?`` parameter."""

    index: int  # 0-based position among the statement's parameters

    def sql(self) -> str:
        return "?"


@dataclass(frozen=True)
class ColumnRef:
    table: str | None  # alias or table name, None when unqualified
    column: str

    def sql(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column


@dataclass(frozen=True)
class BinaryOp:
    op: str  # AND OR = <> < <= > >= + - * / ||
    left: "Expr"
    right: "Expr"

    def sql(self) -> str:
        op = self.op.upper()
        if op in ("AND", "OR"):
            # Render AND/OR chains n-ary: reconstruction queries build
            # conjunctions with hundreds of terms, and nested parens
            # would make the (recursive-descent) parser's stack depth
            # proportional to the term count.
            parts: list[str] = []

            def collect(expr: "Expr") -> None:
                if isinstance(expr, BinaryOp) and expr.op.upper() == op:
                    collect(expr.left)
                    collect(expr.right)
                else:
                    parts.append(expr.sql())

            collect(self)
            return "(" + f" {op} ".join(parts) + ")"
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # NOT, -
    operand: "Expr"

    def sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"(NOT {self.operand.sql()})"
        return f"({self.op}{self.operand.sql()})"


@dataclass(frozen=True)
class IsNull:
    operand: "Expr"
    negated: bool = False

    def sql(self) -> str:
        tail = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {tail})"


@dataclass(frozen=True)
class FuncCall:
    """Aggregate or scalar function call.  ``COUNT(*)`` has star=True."""

    name: str
    args: tuple["Expr", ...] = ()
    star: bool = False
    distinct: bool = False

    def sql(self) -> str:
        if self.star:
            return f"{self.name}(*)"
        inner = ", ".join(a.sql() for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclass(frozen=True)
class InList:
    operand: "Expr"
    items: tuple["Expr", ...]
    negated: bool = False

    def sql(self) -> str:
        inner = ", ".join(i.sql() for i in self.items)
        op = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {op} ({inner}))"


@dataclass(frozen=True)
class InSubquery:
    operand: "Expr"
    subquery: "Select"
    negated: bool = False

    def sql(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {op} ({self.subquery.sql()}))"


Expr = Union[
    Literal, Param, ColumnRef, BinaryOp, UnaryOp, IsNull, FuncCall, InList, InSubquery
]


# The two functions below are the only code that knows which fields of
# which node kind hold sub-expressions; every traversal and rewrite in
# the engine and the transformation layer is written on them, so a new
# node kind is taught to the system here and nowhere else.  An
# ``InSubquery``'s nested ``Select`` is a statement, not a
# sub-expression: both leave it alone (it resolves against its own
# sources), and callers that transform subqueries handle that node
# themselves.  Anything that is not an ``Expr`` (a ``Star``, a node kind
# added to the union but not here) raises ``TypeError``, which is what
# lets proof-carrying walks fail closed.


def children(expr: Expr) -> tuple[Expr, ...]:
    """The direct sub-expressions of ``expr``, left to right."""
    if isinstance(expr, (ColumnRef, Literal, Param)):
        return ()
    if isinstance(expr, BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, (UnaryOp, IsNull, InSubquery)):
        return (expr.operand,)
    if isinstance(expr, FuncCall):
        return expr.args
    if isinstance(expr, InList):
        return (expr.operand, *expr.items)
    raise TypeError(f"not an expression node: {expr!r}")


def map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """``expr`` rebuilt with ``fn`` applied to each direct sub-expression."""
    if isinstance(expr, (ColumnRef, Literal, Param)):
        return expr
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, fn(expr.operand))
    if isinstance(expr, IsNull):
        return IsNull(fn(expr.operand), expr.negated)
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name, tuple(fn(a) for a in expr.args), expr.star, expr.distinct
        )
    if isinstance(expr, InList):
        return InList(
            fn(expr.operand), tuple(fn(i) for i in expr.items), expr.negated
        )
    if isinstance(expr, InSubquery):
        return InSubquery(fn(expr.operand), expr.subquery, expr.negated)
    raise TypeError(f"not an expression node: {expr!r}")


def walk(expr: Expr) -> Iterator[Expr]:
    """``expr`` and every sub-expression below it, in pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


# --------------------------------------------------------------------------
# FROM sources
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TableSource:
    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name

    def sql(self) -> str:
        if self.alias:
            return f"{self.name} AS {self.alias}"
        return self.name


@dataclass(frozen=True)
class SubquerySource:
    """A nested FROM subquery — the construct the paper's transformation
    emits (Section 6.1) and that simple optimizers fail to unnest."""

    select: "Select"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias

    def sql(self) -> str:
        return f"({self.select.sql()}) AS {self.alias}"


Source = Union[TableSource, SubquerySource]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Star:
    """``*`` or ``alias.*`` in a select list."""

    table: str | None = None

    def sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class SelectItem:
    expr: Expr | Star
    alias: str | None = None

    def sql(self) -> str:
        text = self.expr.sql()
        if self.alias:
            text += f" AS {self.alias}"
        return text


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False

    def sql(self) -> str:
        return self.expr.sql() + (" DESC" if self.descending else "")


@dataclass(frozen=True)
class TenantClause:
    """The MTSQL tenant-scope clause: ``FOR TENANTS IN (t1, ...)`` or
    ``FOR ALL TENANTS``.

    A SELECT carrying this clause is a *cross-tenant* statement: it is
    evaluated once over the union of the named tenants' data instead of
    inside one tenant's scope, with the tenant dimension addressable in
    the query via ``TENANT_ID()``.  ``all_tenants`` defers resolution of
    the concrete id set to execution time (every tenant then present).
    """

    all_tenants: bool = False
    ids: tuple[int, ...] = ()

    def sql(self) -> str:
        if self.all_tenants:
            return "FOR ALL TENANTS"
        return "FOR TENANTS IN (" + ", ".join(str(i) for i in self.ids) + ")"


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    sources: tuple[Source, ...]
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False
    #: MTSQL tenant-scope clause; None = ordinary single-tenant SELECT.
    tenants: TenantClause | None = None

    def sql(self) -> str:
        head = "SELECT DISTINCT" if self.distinct else "SELECT"
        parts = [f"{head} " + ", ".join(i.sql() for i in self.items)]
        if self.sources:
            parts.append("FROM " + ", ".join(s.sql() for s in self.sources))
        if self.where is not None:
            parts.append("WHERE " + self.where.sql())
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.sql() for e in self.group_by))
        if self.having is not None:
            parts.append("HAVING " + self.having.sql())
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.tenants is not None:
            parts.append(self.tenants.sql())
        return " ".join(parts)


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]  # empty = all columns in table order
    rows: tuple[tuple[Expr, ...], ...]

    def sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        rows = ", ".join(
            "(" + ", ".join(e.sql() for e in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.table}{cols} VALUES {rows}"


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None

    def sql(self) -> str:
        sets = ", ".join(f"{c} = {e.sql()}" for c, e in self.assignments)
        text = f"UPDATE {self.table} SET {sets}"
        if self.where is not None:
            text += " WHERE " + self.where.sql()
        return text


@dataclass(frozen=True)
class Delete:
    table: str
    where: Expr | None = None

    def sql(self) -> str:
        text = f"DELETE FROM {self.table}"
        if self.where is not None:
            text += " WHERE " + self.where.sql()
        return text


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_text: str
    not_null: bool = False

    def sql(self) -> str:
        tail = " NOT NULL" if self.not_null else ""
        return f"{self.name} {self.type_text}{tail}"


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple[ColumnDef, ...]
    #: Storage format from ``USING <format>`` (None = engine default, heap).
    storage: str | None = None

    def sql(self) -> str:
        text = (
            f"CREATE TABLE {self.table} ("
            + ", ".join(c.sql() for c in self.columns)
            + ")"
        )
        if self.storage is not None:
            text += f" USING {self.storage}"
        return text


@dataclass(frozen=True)
class CreateIndex:
    index: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False

    def sql(self) -> str:
        head = "CREATE UNIQUE INDEX" if self.unique else "CREATE INDEX"
        return f"{head} {self.index} ON {self.table} ({', '.join(self.columns)})"


@dataclass(frozen=True)
class DropTable:
    table: str

    def sql(self) -> str:
        return f"DROP TABLE {self.table}"


@dataclass(frozen=True)
class DropIndex:
    index: str
    table: str

    def sql(self) -> str:
        return f"DROP INDEX {self.index} ON {self.table}"


Statement = Union[
    Select,
    Insert,
    Update,
    Delete,
    CreateTable,
    CreateIndex,
    DropTable,
    DropIndex,
]
