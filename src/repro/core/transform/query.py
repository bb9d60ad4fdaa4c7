"""SELECT transformation: the four-step compilation scheme of §6.1.

Given a tenant's logical query, the transformer

1. collects all table names and their used columns,
2. looks up, per table, the fragments and meta-data identifiers that
   represent those columns,
3. generates, per table, a reconstruction query that filters on the
   meta-data identifiers and aligns fragments on their Row columns
   (flat, conjunctive-only — so a sophisticated optimizer can always
   unnest it, Fegaras & Maier rule N8), and
4. patches each reconstruction into the FROM clause of the logical
   query as a nested subquery.

The output is ordinary SQL text over physical tables; callers hand it
to the engine (or, via :mod:`repro.core.transform.flatten`, flatten it
first for SIMPLE-optimizer databases).
"""

from __future__ import annotations

from typing import Sequence

from ...engine.errors import PlanError, UnknownObjectError
from ...engine.plan.logical import (
    QueryBlock,
    build_block,
    conjoin,
    qualify_block,
)
from ...engine.sql import ast
from ..layouts.base import ALIVE, Fragment, TENANT_META
from ..schema import MultiTenantSchema

#: Output column name carrying the logical Row id in reconstructions
#: built for DML (phase (a) of §6.3).
ROW_ALIAS = "__row"
#: Output column a reconstruction over a tenant *set* exposes the
#: tenant id as.
TENANT_COLUMN = "__tenant"


class TenantParamAllocator:
    """Allocates parameter slots for tenant-identity meta values.

    When a transformed statement is built for the statement cache, every
    ``tenant = <id>`` meta-data filter takes a fresh ``?`` slot instead
    of a literal, so one cached statement serves every tenant of the
    same shape.  Slots start after the logical statement's own
    parameters; at execution time the tenant id is appended ``count``
    times to the caller's parameter list.
    """

    def __init__(self, base_params: int) -> None:
        self.base_params = base_params
        self.count = 0

    def allocate(self) -> ast.Param:
        param = ast.Param(self.base_params + self.count)
        self.count += 1
        return param

    def bind(self, params, tenant_id: int) -> tuple:
        """The physical parameter list for one execution."""
        return tuple(params[: self.base_params]) + (tenant_id,) * self.count


def used_columns(block: QueryBlock) -> dict[str, list[str]]:
    """Columns referenced per binding, in first-use order.

    ``block`` must be qualified.  First-use order keeps generated
    reconstruction queries deterministic.
    """
    order: dict[str, list[str]] = {}
    for expr in block.expressions():
        for node in ast.walk(expr):
            if isinstance(node, ast.ColumnRef) and node.table is not None:
                bucket = order.setdefault(node.table.lower(), [])
                column = node.column.lower()
                if column not in bucket:
                    bucket.append(column)
    return order


def select_needed_fragments(
    fragments: list[Fragment],
    used: list[str],
    binding: str,
    *,
    all_fragments: bool = False,
) -> list[Fragment]:
    """Which fragments a reconstruction must read ("if a query does not
    reference one of the tables, then there is no need to read it in").

    The selection is also what makes two tenants' reconstructions
    differ structurally, i.e. what the cross-tenant path groups on.
    """
    if not fragments:
        raise PlanError(f"no fragments for source {binding!r}")
    covered: set[str] = set()
    needed: list[Fragment] = []
    for fragment in fragments:
        wanted = [c for c in used if fragment.covers(c) and c not in covered]
        if wanted or all_fragments:
            needed.append(fragment)
            covered.update(wanted)
    missing = [c for c in used if c not in covered]
    if missing:
        raise UnknownObjectError(
            f"columns {missing} of {binding!r} not stored by any fragment"
        )
    if not needed:
        needed = [fragments[0]]
    return needed


def tenant_set_predicate(
    column: ast.ColumnRef, tenant_ids: Sequence[int]
) -> ast.Expr:
    """The pushed-down tenant-set filter: ``= t`` or ``IN (t1, ...)``."""
    if len(tenant_ids) == 1:
        return ast.BinaryOp("=", column, ast.Literal(tenant_ids[0]))
    return ast.InList(column, tuple(ast.Literal(t) for t in tenant_ids))


def build_reconstruction(
    fragments: list[Fragment],
    used: list[str],
    binding: str,
    *,
    include_row: bool = False,
    soft_delete: bool = False,
    all_fragments: bool = False,
    tenant: TenantParamAllocator | Sequence[int] | None = None,
) -> ast.SubquerySource:
    """The table-reconstruction query for one logical source (step 3).

    Only fragments contributing used columns participate; ``include_row``
    additionally exposes the anchor's Row id as ``__row``;
    ``all_fragments`` forces every fragment in (DML over all chunks,
    e.g. soft deletes).

    ``tenant`` says how the Tenant meta-data filter is guarded.  ``None``
    keeps the fragment's own tenant id as a literal; a
    :class:`TenantParamAllocator` takes a hidden ``?`` slot per filter
    (shape-shared cached statements); a sequence of tenant ids widens
    the filter to that *set* — a single-tenant query is the |set| = 1
    case of a cross-tenant one.  The set form also exposes the tenant
    identity as the :data:`TENANT_COLUMN` output column and aligns
    fragments on (tenant, row) so rows of different tenants never align.
    """
    needed = select_needed_fragments(
        fragments, used, binding, all_fragments=all_fragments
    )
    tenant_set = (
        None
        if tenant is None or isinstance(tenant, TenantParamAllocator)
        else tuple(tenant)
    )

    aliases = {id(f): f"f{i}" for i, f in enumerate(needed)}
    anchor = needed[0]
    anchor_alias = aliases[id(anchor)]
    if len(needed) > 1 and any(f.row_column is None for f in needed):
        raise PlanError(
            f"source {binding!r} needs row alignment but a fragment has no row column"
        )

    def has_tenant(fragment: Fragment) -> bool:
        return any(c == TENANT_META for c, _ in fragment.meta)

    items: list[ast.SelectItem] = []
    emitted = set()
    for column in used:
        if column in emitted:
            continue
        emitted.add(column)
        for fragment in needed:
            if fragment.covers(column):
                loc = fragment.column_map()[column]
                expr: ast.Expr = ast.ColumnRef(aliases[id(fragment)], loc.physical)
                if loc.cast:
                    expr = ast.FuncCall(loc.cast, (expr,))
                items.append(ast.SelectItem(expr, column))
                break
    if include_row:
        if anchor.row_column is None:
            raise PlanError(f"source {binding!r} has no row identity for DML")
        items.append(
            ast.SelectItem(
                ast.ColumnRef(anchor_alias, anchor.row_column), ROW_ALIAS
            )
        )
    if tenant_set is not None:
        if has_tenant(anchor):
            tenant_expr: ast.Expr = ast.ColumnRef(anchor_alias, TENANT_META)
        elif len(tenant_set) == 1:
            # No tenant meta column (Private Tables): the physical table
            # IS the tenant scope, so the identity is a constant.
            tenant_expr = ast.Literal(tenant_set[0])
        else:
            raise PlanError(
                f"source {binding!r} has per-tenant physical tables; "
                "it cannot fuse multiple tenants into one statement"
            )
        items.append(ast.SelectItem(tenant_expr, TENANT_COLUMN))
    if not items:
        # Anchor-only reconstruction for queries that touch no columns
        # (COUNT(*)): expose the row id or the first physical column.
        if anchor.row_column is not None:
            items.append(
                ast.SelectItem(
                    ast.ColumnRef(anchor_alias, anchor.row_column), ROW_ALIAS
                )
            )
        else:
            name, loc = anchor.columns[0]
            items.append(
                ast.SelectItem(ast.ColumnRef(anchor_alias, loc.physical), name)
            )

    sources = [ast.TableSource(f.table, aliases[id(f)]) for f in needed]

    conjuncts: list[ast.Expr] = []
    for fragment in needed:
        alias = aliases[id(fragment)]
        for meta_col, value in fragment.meta:
            column = ast.ColumnRef(alias, meta_col)
            if meta_col != TENANT_META or tenant is None:
                conjuncts.append(ast.BinaryOp("=", column, ast.Literal(value)))
            elif tenant_set is None:
                conjuncts.append(ast.BinaryOp("=", column, tenant.allocate()))
            else:
                conjuncts.append(tenant_set_predicate(column, tenant_set))
        if soft_delete:
            conjuncts.append(
                ast.BinaryOp("=", ast.ColumnRef(alias, ALIVE), ast.Literal(1))
            )
    for fragment in needed[1:]:
        alias = aliases[id(fragment)]
        if tenant_set is not None and has_tenant(anchor) and has_tenant(fragment):
            conjuncts.append(
                ast.BinaryOp(
                    "=",
                    ast.ColumnRef(anchor_alias, TENANT_META),
                    ast.ColumnRef(alias, TENANT_META),
                )
            )
        conjuncts.append(
            ast.BinaryOp(
                "=",
                ast.ColumnRef(anchor_alias, anchor.row_column),
                ast.ColumnRef(alias, fragment.row_column),
            )
        )

    select = ast.Select(
        items=tuple(items), sources=tuple(sources), where=conjoin(conjuncts)
    )
    return ast.SubquerySource(select, binding)


class QueryTransformer:
    """Transforms logical SELECTs into physical SELECTs for one layout."""

    def __init__(self, layout, schema: MultiTenantSchema) -> None:
        self.layout = layout
        self.schema = schema

    def transform_predicate(
        self,
        tenant_id: int,
        expr: ast.Expr,
        tenant_params: TenantParamAllocator | None = None,
    ) -> ast.Expr:
        """Transform ``IN (SELECT ...)`` subqueries inside a predicate."""

        def transform(node: ast.Expr) -> ast.Expr:
            if isinstance(node, ast.InSubquery):
                return ast.InSubquery(
                    transform(node.operand),
                    self.transform_select(
                        tenant_id, node.subquery, tenant_params=tenant_params
                    ),
                    node.negated,
                )
            return ast.map_children(node, transform)

        return transform(expr)

    def patch_sources(
        self,
        tenant_id: int,
        sources: Sequence[ast.Source],
        usage: dict[str, list[str]],
        *,
        include_row: bool = False,
        tenant: TenantParamAllocator | Sequence[int] | None = None,
    ) -> list[ast.Source]:
        """Step 4: a qualified statement's FROM clause with every
        tenant-mapped logical table replaced by its reconstruction
        (``usage`` is :func:`used_columns` of the statement's block).
        ``tenant_id`` picks whose fragments are read — any member, when
        ``tenant`` is a set of structurally identical tenants.  Logical
        FROM subqueries recurse (single-tenant statements only: ``FOR
        TENANTS`` statements reject them before they get here)."""
        patched: list[ast.Source] = []
        for source in sources:
            if isinstance(source, ast.SubquerySource):
                inner = self.transform_select(
                    tenant_id, source.select, tenant_params=tenant
                )
                patched.append(ast.SubquerySource(inner, source.alias))
            elif not self.schema.has_table(source.name):
                # Physical / passthrough table (layout internals, results
                # tables, ...): leave untouched.
                patched.append(source)
            else:
                binding = source.binding.lower()
                patched.append(
                    build_reconstruction(
                        self.layout.fragments(tenant_id, source.name),
                        usage.get(binding, []),
                        binding,
                        include_row=include_row,
                        soft_delete=self.layout.soft_delete,
                        tenant=tenant,
                    )
                )
        return patched

    def transform_select(
        self,
        tenant_id: int,
        select: ast.Select,
        *,
        include_row: bool = False,
        tenant_params: TenantParamAllocator | None = None,
    ) -> ast.Select:
        """Steps 1–4 for one statement (recursing into logical FROM
        subqueries)."""
        lookup = self.schema.logical_lookup(tenant_id)
        block = qualify_block(build_block(select), lookup)
        sources = self.patch_sources(
            tenant_id,
            block.sources,
            used_columns(block),
            include_row=include_row,
            tenant=tenant_params,
        )
        where = conjoin(block.conjuncts)
        return ast.Select(
            items=tuple(block.items),
            sources=tuple(sources),
            where=self.transform_predicate(tenant_id, where, tenant_params)
            if where is not None
            else None,
            group_by=tuple(block.group_by),
            having=self.transform_predicate(tenant_id, block.having, tenant_params)
            if block.having is not None
            else None,
            order_by=tuple(block.order_by),
            limit=block.limit,
            distinct=block.distinct,
        )
