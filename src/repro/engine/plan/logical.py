"""Logical query blocks: normalization, qualification, and flattening.

A :class:`QueryBlock` is the optimizer's working form of a SELECT: the
WHERE clause split into an ordered conjunct list, sources in textual
order, and every column reference fully qualified.

:func:`flatten_block` implements the subquery unnesting the paper leans
on (Section 6.1): Fegaras & Maier's rule N8 guarantees that a FROM
subquery with only conjunctive predicates can be merged into its parent.
The ADVANCED optimizer profile applies it; the SIMPLE profile does not —
reproducing the DB2/MySQL split of Test 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import PlanError, UnknownObjectError
from ..expr import contains_aggregate
from ..sql import ast

#: Resolves a physical table name to its column names (lowered).
ColumnLookup = Callable[[str], list[str]]


@dataclass
class QueryBlock:
    """Normalized SELECT."""

    items: list[ast.SelectItem]
    sources: list[ast.Source]
    conjuncts: list[ast.Expr]
    group_by: list[ast.Expr]
    having: ast.Expr | None
    order_by: list[ast.OrderItem]
    limit: int | None
    distinct: bool

    @property
    def is_aggregating(self) -> bool:
        return bool(self.group_by) or any(
            contains_aggregate(i.expr) for i in self.items
        )

    def output_names(self) -> list[str]:
        names = []
        for i, item in enumerate(self.items):
            names.append(output_name(item, i))
        return names

    def expressions(self) -> Iterator[ast.Expr | ast.Star]:
        """Every top-level expression of the block, in clause order."""
        for item in self.items:
            yield item.expr
        yield from self.conjuncts
        yield from self.group_by
        if self.having is not None:
            yield self.having
        for order_item in self.order_by:
            yield order_item.expr


def output_name(item: ast.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias.lower()
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.column.lower()
    return f"c{position}"


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Split a predicate on top-level ANDs, preserving textual order."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op.upper() == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = ast.BinaryOp("AND", result, conjunct)
    return result


def build_block(select: ast.Select) -> QueryBlock:
    return QueryBlock(
        items=list(select.items),
        sources=list(select.sources),
        conjuncts=split_conjuncts(select.where),
        group_by=list(select.group_by),
        having=select.having,
        order_by=list(select.order_by),
        limit=select.limit,
        distinct=select.distinct,
    )


def block_to_select(block: QueryBlock) -> ast.Select:
    return ast.Select(
        items=tuple(block.items),
        sources=tuple(block.sources),
        where=conjoin(block.conjuncts),
        group_by=tuple(block.group_by),
        having=block.having,
        order_by=tuple(block.order_by),
        limit=block.limit,
        distinct=block.distinct,
    )


# ---------------------------------------------------------------------------
# Qualification: give every column reference an explicit binding and
# expand ``*`` / ``alias.*`` select items.
# ---------------------------------------------------------------------------


def source_output_columns(source: ast.Source, lookup: ColumnLookup) -> list[str]:
    if isinstance(source, ast.TableSource):
        return lookup(source.name)
    names = []
    inner = build_block(source.select)
    for i, item in enumerate(inner.items):
        if isinstance(item.expr, ast.Star):
            raise PlanError(
                "nested subqueries must name their output columns "
                "(no * inside derived tables)"
            )
        names.append(output_name(item, i))
    return names


def qualify_block(block: QueryBlock, lookup: ColumnLookup) -> QueryBlock:
    """Qualify every column reference and expand stars, recursively."""
    sources = []
    for source in block.sources:
        if isinstance(source, ast.SubquerySource):
            inner = qualify_block(build_block(source.select), lookup)
            sources.append(ast.SubquerySource(block_to_select(inner), source.alias))
        else:
            sources.append(source)
    scope: dict[str, list[str]] = {}
    for source in sources:
        binding = source.binding.lower()
        if binding in scope:
            raise PlanError(f"duplicate table binding {binding!r}")
        scope[binding] = source_output_columns(source, lookup)

    def qualify_expr(expr: ast.Expr) -> ast.Expr:
        return rewrite_refs(expr, lambda ref: _qualify_ref(ref, scope))

    items: list[ast.SelectItem] = []
    for item in block.items:
        if isinstance(item.expr, ast.Star):
            targets = (
                [item.expr.table.lower()] if item.expr.table else list(scope.keys())
            )
            for binding in targets:
                if binding not in scope:
                    raise UnknownObjectError(f"unknown binding {binding!r} in *")
                for column in scope[binding]:
                    items.append(
                        ast.SelectItem(ast.ColumnRef(binding, column), None)
                    )
        else:
            items.append(ast.SelectItem(qualify_expr(item.expr), item.alias))

    # ORDER BY may reference select-list aliases; leave those unqualified
    # (the planner resolves them against the output schema).
    alias_names = {
        item.alias.lower() for item in block.items if item.alias is not None
    }

    def qualify_order(expr: ast.Expr) -> ast.Expr:
        if (
            isinstance(expr, ast.ColumnRef)
            and expr.table is None
            and expr.column.lower() in alias_names
        ):
            return expr
        return qualify_expr(expr)

    return QueryBlock(
        items=items,
        sources=sources,
        conjuncts=[qualify_expr(c) for c in block.conjuncts],
        group_by=[qualify_expr(e) for e in block.group_by],
        having=qualify_expr(block.having) if block.having is not None else None,
        order_by=[
            ast.OrderItem(qualify_order(o.expr), o.descending)
            for o in block.order_by
        ],
        limit=block.limit,
        distinct=block.distinct,
    )


def _qualify_ref(ref: ast.ColumnRef, scope: dict[str, list[str]]) -> ast.ColumnRef:
    if ref.table is not None:
        binding = ref.table.lower()
        if binding not in scope:
            raise UnknownObjectError(f"unknown table binding {ref.table!r}")
        if ref.column.lower() not in scope[binding]:
            raise UnknownObjectError(f"no column {ref.column!r} in {ref.table}")
        return ast.ColumnRef(binding, ref.column.lower())
    column = ref.column.lower()
    owners = [b for b, cols in scope.items() if column in cols]
    if not owners:
        raise UnknownObjectError(f"unknown column {ref.column!r}")
    if len(owners) > 1:
        raise PlanError(f"ambiguous column {ref.column!r}")
    return ast.ColumnRef(owners[0], column)


def rewrite_refs(
    expr: ast.Expr, on_ref: Callable[[ast.ColumnRef], ast.Expr]
) -> ast.Expr:
    """Rebuild an expression, applying ``on_ref`` to every column ref."""
    if isinstance(expr, ast.ColumnRef):
        return on_ref(expr)
    return ast.map_children(expr, lambda child: rewrite_refs(child, on_ref))


# ---------------------------------------------------------------------------
# Flattening (Fegaras–Maier rule N8)
# ---------------------------------------------------------------------------


def can_flatten(select: ast.Select) -> bool:
    """A derived table is mergeable when it is a plain conjunctive
    select-project-join block."""
    block = build_block(select)
    return (
        not block.group_by
        and block.having is None
        and not block.order_by
        and block.limit is None
        and not block.distinct
        and not block.is_aggregating
    )


def flatten_block(block: QueryBlock) -> QueryBlock:
    """Merge every mergeable FROM-subquery into ``block``.

    ``block`` must already be qualified (see :func:`qualify_block`).
    Non-mergeable subqueries (aggregating, LIMIT, DISTINCT) are kept and
    later materialized by the planner.  Colliding inner bindings are
    renamed ``<binding>_u<n>``, ``n`` counting from 1 in each call: the
    flattened text depends on the statement alone.
    """
    return _flatten(block, itertools.count(1))


def _flatten(block: QueryBlock, numbers: Iterator[int]) -> QueryBlock:
    sources: list[ast.Source] = []
    conjuncts = list(block.conjuncts)
    mapping: dict[tuple[str, str], ast.Expr] = {}
    taken = {s.binding.lower() for s in block.sources}
    changed = False

    for source in block.sources:
        if not isinstance(source, ast.SubquerySource) or not can_flatten(
            source.select
        ):
            sources.append(source)
            continue
        changed = True
        inner = _flatten(build_block(source.select), numbers)
        inner = _rename_inner(inner, taken, source.alias.lower(), numbers)
        taken.update(s.binding.lower() for s in inner.sources)
        alias = source.alias.lower()
        for i, item in enumerate(inner.items):
            mapping[(alias, output_name(item, i))] = item.expr
        sources.extend(inner.sources)
        conjuncts.extend(inner.conjuncts)

    if not changed:
        return block

    def substitute(ref: ast.ColumnRef) -> ast.Expr:
        key = (ref.table.lower() if ref.table else "", ref.column.lower())
        return mapping.get(key, ref)

    new_items = []
    for i, item in enumerate(block.items):
        new_expr = rewrite_refs(item.expr, substitute)
        alias = item.alias
        if alias is None and new_expr != item.expr:
            # Substitution must not change the statement's output names.
            alias = output_name(item, i)
        new_items.append(ast.SelectItem(new_expr, alias))
    return QueryBlock(
        items=new_items,
        sources=sources,
        conjuncts=[rewrite_refs(c, substitute) for c in conjuncts],
        group_by=[rewrite_refs(e, substitute) for e in block.group_by],
        having=(
            rewrite_refs(block.having, substitute)
            if block.having is not None
            else None
        ),
        order_by=[
            ast.OrderItem(rewrite_refs(o.expr, substitute), o.descending)
            for o in block.order_by
        ],
        limit=block.limit,
        distinct=block.distinct,
    )


def _rename_inner(
    inner: QueryBlock, taken: set[str], dropped_alias: str, numbers: Iterator[int]
) -> QueryBlock:
    """Rename inner bindings that would collide with outer bindings to
    fresh names numbered from ``numbers`` (skipping any already in use,
    e.g. from an earlier flatten of the same statement)."""
    bindings = [source.binding.lower() for source in inner.sources]
    renames: dict[str, str] = {}
    for binding in bindings:
        if binding in taken and binding != dropped_alias:
            fresh = f"{binding}_u{next(numbers)}"
            while fresh in taken or fresh in bindings:
                fresh = f"{binding}_u{next(numbers)}"
            renames[binding] = fresh
    if not renames:
        return inner

    def rebind(ref: ast.ColumnRef) -> ast.Expr:
        binding = ref.table.lower() if ref.table else None
        if binding in renames:
            return ast.ColumnRef(renames[binding], ref.column)
        return ref

    renamed_sources: list[ast.Source] = []
    for source in inner.sources:
        binding = source.binding.lower()
        fresh = renames.get(binding)
        if fresh is None:
            renamed_sources.append(source)
        elif isinstance(source, ast.TableSource):
            renamed_sources.append(ast.TableSource(source.name, fresh))
        else:
            renamed_sources.append(ast.SubquerySource(source.select, fresh))

    return QueryBlock(
        items=[
            ast.SelectItem(rewrite_refs(i.expr, rebind), i.alias)
            for i in inner.items
        ],
        sources=renamed_sources,
        conjuncts=[rewrite_refs(c, rebind) for c in inner.conjuncts],
        group_by=list(inner.group_by),
        having=inner.having,
        order_by=list(inner.order_by),
        limit=inner.limit,
        distinct=inner.distinct,
    )
