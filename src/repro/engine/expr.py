"""Compilation of expression ASTs into Python callables.

Expressions are compiled once at plan time against a *schema* — an
ordered list of ``(binding, column_name)`` slots describing the tuples
that flow through the plan — so evaluation is a closure call with no
name resolution at runtime.

Semantics follow SQL three-valued logic: comparisons involving NULL
yield ``None``; ``AND``/``OR`` propagate unknowns; filters keep a row
only when the predicate is exactly ``True``.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import ExecutionError, PlanError, UnknownObjectError
from .sql import ast
from .values import sort_key

if TYPE_CHECKING:
    from .plan.logical import QueryBlock

#: A compiled expression: (row, params) -> value.
Compiled = Callable[[tuple, Sequence[object]], object]


@dataclass(frozen=True)
class Slot:
    """One column of the tuples flowing through a plan node."""

    binding: str | None  # table alias (lowered); None for computed columns
    name: str  # column name (lowered)


class Schema:
    """Slot list with name resolution (qualified and unqualified)."""

    def __init__(self, slots: Sequence[Slot]):
        self.slots = list(slots)

    def __len__(self) -> int:
        return len(self.slots)

    def extend(self, other: "Schema") -> "Schema":
        return Schema(self.slots + other.slots)

    def resolve(self, table: str | None, column: str) -> int:
        column = column.lower()
        table = table.lower() if table else None
        matches = [
            i
            for i, slot in enumerate(self.slots)
            if slot.name == column and (table is None or slot.binding == table)
        ]
        if not matches and table is not None:
            # Qualified reference against a computed/output schema whose
            # slots have no binding: fall back to name-only resolution.
            matches = [
                i
                for i, slot in enumerate(self.slots)
                if slot.name == column and slot.binding is None
            ]
        if not matches:
            raise UnknownObjectError(
                f"column {table + '.' if table else ''}{column} not in scope"
            )
        if len(matches) > 1:
            raise PlanError(f"ambiguous column reference {column!r}")
        return matches[0]

    def bindings(self) -> set[str]:
        return {s.binding for s in self.slots if s.binding is not None}


def referenced_bindings(expr: ast.Expr) -> set[str]:
    """Table bindings (lowercased) an expression refers to.

    Unqualified column references yield the pseudo-binding ``"?"`` so the
    caller knows resolution needs the full schema.
    """
    # An ``IN (SELECT ...)`` contributes its operand only: correlated
    # subqueries are not supported, so the subquery's own references
    # resolve against its own sources.
    return {
        node.table.lower() if node.table else "?"
        for node in ast.walk(expr)
        if isinstance(node, ast.ColumnRef)
    }


def contains_aggregate(expr: ast.Expr | ast.Star) -> bool:
    return not isinstance(expr, ast.Star) and any(
        isinstance(node, ast.FuncCall) and node.is_aggregate
        for node in ast.walk(expr)
    )


def _like_matcher(pattern: str) -> Callable[[str], bool]:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    compiled = re.compile(f"^{regex}$", re.IGNORECASE)
    return lambda text: compiled.match(text) is not None


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if isinstance(a, float) or isinstance(b, float) else a // b,
    "||": lambda a, b: str(a) + str(b),
}

def _coerce_pair(a: object, b: object) -> tuple[object, object]:
    """Mild cross-type coercion for comparisons, mirroring the lenient
    behaviour of the paper's databases: ISO strings compare against
    DATEs, ints against floats (native in Python)."""
    if type(a) is type(b):
        return a, b
    if isinstance(a, datetime.date) and isinstance(b, str):
        try:
            return a, datetime.date.fromisoformat(b)
        except ValueError:
            return a, b
    if isinstance(b, datetime.date) and isinstance(a, str):
        try:
            return datetime.date.fromisoformat(a), b
        except ValueError:
            return a, b
    return a, b


_MISSING_CONST = object()


def _row_independent(compiled: Compiled) -> bool:
    """Whether a compiled expression ignores its row operand (literal or
    parameter read) — safe to evaluate once per batch with ``row=None``."""
    return (
        getattr(compiled, "const", _MISSING_CONST) is not _MISSING_CONST
        or getattr(compiled, "param", None) is not None
    )


_COMPARE = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _to_date_value(value):
    if isinstance(value, datetime.date):
        return value
    return datetime.date.fromisoformat(str(value))


#: NULL-strict unary scalar functions: each maps one non-NULL value;
#: the shared wrapper handles NULL propagation.  The conversion family
#: exists for the Universal Table layout, which funnels every logical
#: type through VARCHAR data columns.
_UNARY_FUNCS = {
    "LENGTH": lambda v: len(str(v)),
    "UPPER": lambda v: str(v).upper(),
    "LOWER": lambda v: str(v).lower(),
    "ABS": abs,
    "TO_INT": int,
    "TO_DOUBLE": float,
    "TO_DATE": _to_date_value,
    "TO_BOOL": lambda v: v in (1, "1", True),
    "TO_STR": str,
}


def _tag_unary(fn, arg: Compiled) -> Compiled:
    """Wrap a NULL-strict unary function, carrying batch metadata.

    When the argument is a slot read (directly or through another
    tagged unary), the closure gets ``map1 = (slot, value_fn)`` so the
    batch compiler can map the stored column without assembling row
    tuples — this is what keeps fused cross-tenant aggregates over the
    Universal Table's ``TO_INT(colN)`` casts on the columnar fast path.
    """

    def unary(row, params):
        value = arg(row, params)
        if value is None:
            return None
        return fn(value)

    slot = getattr(arg, "slot", None)
    if slot is not None:
        unary.map1 = (slot, fn)
    else:
        inner = getattr(arg, "map1", None)
        if inner is not None:
            inner_slot, inner_fn = inner
            unary.map1 = (inner_slot, lambda v: fn(inner_fn(v)))
    return unary


class ExprCompiler:
    """Compiles expression ASTs against a fixed schema.

    ``subquery_executor`` is a callback used for uncorrelated ``IN
    (SELECT ...)`` predicates; it receives the subquery AST plus the
    statement parameters and returns the set of values the subquery
    produced; it is called per row and owns the memoization (once per
    statement execution).
    """

    def __init__(
        self,
        schema: Schema,
        subquery_executor: "Callable[[ast.Select, Sequence[object]], set] | None" = None,
    ) -> None:
        self._schema = schema
        self._subquery_executor = subquery_executor

    def compile(self, expr: ast.Expr) -> Compiled:
        if isinstance(expr, ast.Literal):
            value = expr.value
            def read_literal(row, params, value=value):
                return value
            # Metadata for the batch compiler (expr_batch): a constant
            # needs no per-row evaluation at all.
            read_literal.const = value
            return read_literal
        if isinstance(expr, ast.Param):
            index = expr.index
            def read_param(row, params, index=index):
                if index >= len(params):
                    raise ExecutionError(
                        f"statement needs parameter {index + 1}, "
                        f"got {len(params)}"
                    )
                return params[index]
            # Metadata for the batch compiler: a parameter read is
            # row-independent, so comparisons against it can evaluate
            # once per batch against a stored column.
            read_param.param = index
            return read_param
        if isinstance(expr, ast.ColumnRef):
            slot = self._schema.resolve(expr.table, expr.column)
            def read_slot(row, params, slot=slot):
                return row[slot]
            # Metadata for the batch compiler: plain slot reads vectorize
            # into a single ``operator.itemgetter`` call per batch.
            read_slot.slot = slot
            return read_slot
        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            inner = self.compile(expr.operand)
            if expr.op.upper() == "NOT":
                def negate(row, params):
                    value = inner(row, params)
                    if value is None:
                        return None
                    return not value
                return negate
            return lambda row, params: None if (v := inner(row, params)) is None else -v
        if isinstance(expr, ast.IsNull):
            inner = self.compile(expr.operand)
            if expr.negated:
                return lambda row, params: inner(row, params) is not None
            return lambda row, params: inner(row, params) is None
        if isinstance(expr, ast.FuncCall):
            return self._compile_scalar_func(expr)
        if isinstance(expr, ast.InList):
            operand = self.compile(expr.operand)
            negated = expr.negated
            if all(isinstance(i, ast.Literal) for i in expr.items):
                # All-literal lists (the shape of fused cross-tenant
                # ``tenant IN (...)`` pushdowns) probe one frozenset in
                # O(1) instead of evaluating k item closures per row.
                values = frozenset(i.value for i in expr.items)
                def in_set(row, params):
                    value = operand(row, params)
                    if value is None:
                        return None
                    found = value in values
                    return (not found) if negated else found
                # Metadata for the batch compiler: a slot membership
                # test vectorizes into one probe per stored value.
                slot = getattr(operand, "slot", None)
                if slot is not None:
                    in_set.inset = (slot, values, negated)
                return in_set
            items = [self.compile(i) for i in expr.items]
            def in_list(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                found = any(item(row, params) == value for item in items)
                return (not found) if negated else found
            # Metadata for the batch compiler: ``slot IN (?, ...)`` with
            # row-independent items evaluates them once per batch.
            slot = getattr(operand, "slot", None)
            if slot is not None and all(map(_row_independent, items)):
                in_list.inlist = (slot, items, negated)
            return in_list
        if isinstance(expr, ast.InSubquery):
            if self._subquery_executor is None:
                raise PlanError("IN (SELECT ...) is not allowed in this context")
            operand = self.compile(expr.operand)
            executor = self._subquery_executor
            subquery = expr.subquery
            negated = expr.negated
            def in_subquery(row, params):
                # Asked per row: the executor runs the subquery once per
                # statement execution.  Nothing is kept here, a compiled
                # expression outlives the execution it was built for.
                members = executor(subquery, params)
                value = operand(row, params)
                if value is None:
                    return None
                found = value in members
                return (not found) if negated else found
            return in_subquery
        raise PlanError(f"cannot compile expression {expr!r}")

    def _compile_binary(self, expr: ast.BinaryOp) -> Compiled:
        op = expr.op.upper()
        if op == "AND":
            left, right = self.compile(expr.left), self.compile(expr.right)
            def and_(row, params):
                a = left(row, params)
                if a is False:
                    return False
                b = right(row, params)
                if b is False:
                    return False
                if a is None or b is None:
                    return None
                return True
            return and_
        if op == "OR":
            left, right = self.compile(expr.left), self.compile(expr.right)
            def or_(row, params):
                a = left(row, params)
                if a is True:
                    return True
                b = right(row, params)
                if b is True:
                    return True
                if a is None or b is None:
                    return None
                return False
            return or_
        if op == "LIKE":
            left = self.compile(expr.left)
            if isinstance(expr.right, ast.Literal) and isinstance(
                expr.right.value, str
            ):
                matcher = _like_matcher(expr.right.value)
                def like_const(row, params):
                    value = left(row, params)
                    if value is None:
                        return None
                    return matcher(str(value))
                return like_const
            right = self.compile(expr.right)
            def like_dyn(row, params):
                value, pattern = left(row, params), right(row, params)
                if value is None or pattern is None:
                    return None
                return _like_matcher(str(pattern))(str(value))
            return like_dyn
        if op in _COMPARE:
            left, right = self.compile(expr.left), self.compile(expr.right)
            fn = _COMPARE[op]
            def compare(row, params):
                a, b = left(row, params), right(row, params)
                if a is None or b is None:
                    return None
                a, b = _coerce_pair(a, b)
                try:
                    return fn(a, b)
                except TypeError:
                    # Incompatible types: fall back to the engine's total
                    # order so queries never crash mid-scan.
                    return fn(sort_key(a), sort_key(b))
            # Metadata for the batch compiler: <column> <op> <row-
            # independent value> (or mirrored) evaluates against a
            # stored column without assembling row tuples.  ``cmp`` is
            # (slot, fn, other_side, swapped): swapped means the column
            # is the *right* operand of ``fn``.
            slot = getattr(left, "slot", None)
            if slot is not None and _row_independent(right):
                compare.cmp = (slot, fn, right, False)
            else:
                slot = getattr(right, "slot", None)
                if slot is not None and _row_independent(left):
                    compare.cmp = (slot, fn, left, True)
            return compare
        if op in _ARITH:
            left, right = self.compile(expr.left), self.compile(expr.right)
            fn = _ARITH[op]
            def arith(row, params):
                a, b = left(row, params), right(row, params)
                if a is None or b is None:
                    return None
                return fn(a, b)
            return arith
        raise PlanError(f"unsupported operator {expr.op!r}")

    def _compile_scalar_func(self, expr: ast.FuncCall) -> Compiled:
        name = expr.name.upper()
        if expr.is_aggregate:
            raise PlanError(
                f"aggregate {name} not allowed here (handled by GRPBY)"
            )
        args = [self.compile(a) for a in expr.args]
        if len(args) == 1 and name in _UNARY_FUNCS:
            return _tag_unary(_UNARY_FUNCS[name], args[0])
        if name == "COALESCE" and args:
            def coalesce(row, params):
                for arg in args:
                    value = arg(row, params)
                    if value is not None:
                        return value
                return None
            return coalesce
        raise PlanError(f"unknown function {name}")


class GroupedScope:
    """What an expression can see after grouping: the GROUP BY keys and
    the aggregate results, nothing else.

    HAVING, select items and ORDER BY keys of a grouped ``statement`` (a
    ``Select`` or its ``QueryBlock``) are evaluated over the pseudo-row
    ``(key values..., aggregate values...)``.  ``aggregates`` lists the
    distinct aggregate calls those clauses reach, in first-use order —
    the order of the pseudo-row's aggregate slots; whoever produces the
    pseudo-rows (the engine's GRPBY operator, the cross-tenant merge)
    computes them in that order.
    """

    def __init__(
        self,
        statement: "ast.Select | QueryBlock",
        subquery_executor: "Callable[[ast.Select, Sequence[object]], set] | None" = None,
    ) -> None:
        self.group_by = list(statement.group_by)
        self.aggregates: list[ast.FuncCall] = []
        self._agg_slot: dict[ast.FuncCall, int] = {}
        for item in statement.items:
            self._register(item.expr)
        if statement.having is not None:
            self._register(statement.having)
        for order_item in statement.order_by:
            self._register(order_item.expr)
        slots = [Slot(None, f"__g{i}") for i in range(len(self.group_by))]
        slots += [Slot(None, f"__a{i}") for i in range(len(self.aggregates))]
        self._compiler = ExprCompiler(Schema(slots), subquery_executor)

    def _register(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
            if expr not in self._agg_slot:
                self._agg_slot[expr] = len(self.aggregates)
                self.aggregates.append(expr)
            return
        for child in ast.children(expr):
            self._register(child)

    def rewrite(self, expr: ast.Expr) -> ast.Expr:
        """``expr`` over the pseudo-row: whole GROUP BY expressions and
        aggregate calls become slot reads."""
        for i, key in enumerate(self.group_by):
            if expr == key:
                return ast.ColumnRef(None, f"__g{i}")
        if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
            return ast.ColumnRef(None, f"__a{self._agg_slot[expr]}")
        if isinstance(expr, ast.ColumnRef):
            raise PlanError(
                f"column {expr.sql()} must appear in GROUP BY or an aggregate"
            )
        return ast.map_children(expr, self.rewrite)

    def compile(self, expr: ast.Expr) -> Compiled:
        return self._compiler.compile(self.rewrite(expr))
