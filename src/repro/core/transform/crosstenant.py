"""Cross-tenant SELECT transformation: the MTSQL ``FOR TENANTS`` path.

A statement carrying a :class:`~repro.engine.sql.ast.TenantClause` is
evaluated once over the union of the declared tenants' data.  Instead of
re-running the §6.1 single-tenant transformation N times (the fan-out
loop every SaaS report degenerates into), the transformer fuses the
tenant dimension into the physical statement itself, MTBase-style:

* the per-fragment meta-data filter widens from ``tenant = t`` to
  ``tenant IN (t1, ..., tk)``, pushed into the shared scan;
* every table reconstruction exposes the tenant identity as a visible
  ``__tenant`` output column, row-alignment joins widen to the compound
  (tenant, row) key, and join queries gain cross-source tenant-equality
  conjuncts so joins never pair rows of different tenants;
* ``TENANT_ID()`` in the select list / WHERE / GROUP BY becomes a
  reference to that column, so a grouped-by-tenant rollup runs as ONE
  grouped scan over the shared physical tables.

Tenants whose physical representation differs (per-tenant Private
Tables, a tenant migrated to another layout, a granted-extension set that
changes which fragments the queried columns live in) cannot share one
statement.  The transformer groups the tenant set by *reconstruction
signature* — the physical SQL the tenant needs, modulo the tenant
filter — and emits one fused statement per structure group.  Shared
layouts collapse to a single group (true fusion); only structurally
distinct stragglers pay an extra statement, and only *their* physical
tables are read at all (tenant-set pruning).  Multi-group results are
merged here: plain rows are concatenated, aggregates are decomposed
into mergeable partials (``AVG`` ships as ``SUM`` + ``COUNT``) and
recombined per group key, and HAVING / select items / ORDER BY are then
evaluated over the merged rows by the engine's own expression compiler
(:class:`~repro.engine.expr.GroupedScope`, the scope the optimizer's
GRPBY uses) — so a multi-group answer cannot differ from a fused one.

Tenant identities are inlined as literals, not parameters: the declared
tenant set is part of the statement's identity (the isolation prover
checks literal domination — every tenant guard must stay inside the
declared set) and of the statement-cache key.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

from ...engine.errors import PlanError
from ...engine.expr import Compiled, GroupedScope
from ...engine.plan.logical import (
    QueryBlock,
    block_to_select,
    build_block,
    output_name,
    qualify_block,
)
from ...engine.sql import ast
from ...engine.values import sort_key
from ..schema import MultiTenantSchema
from .query import (
    TENANT_COLUMN,
    QueryTransformer,
    TenantParamAllocator,
    used_columns,
)

#: The dialect function addressing the tenant dimension.
TENANT_FUNC = "TENANT_ID"


def _is_tenant_fn(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.FuncCall) and expr.name.upper() == TENANT_FUNC


def _rewrite_tenant_fn(expr: ast.Expr, replacement: ast.Expr) -> ast.Expr:
    """Replace every ``TENANT_ID()`` call with ``replacement``."""
    if _is_tenant_fn(expr):
        if expr.args or expr.star:
            raise PlanError("TENANT_ID() takes no arguments")
        return replacement
    return ast.map_children(
        expr, lambda child: _rewrite_tenant_fn(child, replacement)
    )


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass
class MergeSpec:
    """How to combine per-group results into the final answer."""

    aggregated: bool
    distinct: bool = False
    limit: int | None = None
    # concat path: (output column index, descending) sort keys.
    order_indexes: tuple[tuple[int, bool], ...] = ()
    # aggregate path.  A partial statement returns (group keys ...,
    # partial aggregates ...); ``partial_ops`` says how each partial
    # column combines across groups (count | sum | min | max), and
    # ``aggs`` where each logical aggregate's partials sit in that row —
    # AVG carries two (its SUM and COUNT), everything else one.  The
    # expressions are compiled over (group keys ..., merged aggregates
    # ...), aggregates in ``aggs`` order.
    key_count: int = 0
    partial_ops: tuple[str, ...] = ()
    aggs: tuple[tuple[int, ...], ...] = ()
    items: tuple[Compiled, ...] = ()
    having: Compiled | None = None
    order: tuple[tuple[Compiled, bool], ...] = ()


@dataclass
class CrossGroup:
    """One structure group: the tenants and their fused statement."""

    tenant_ids: tuple[int, ...]
    select: ast.Select


@dataclass
class CrossPlan:
    """The transformed cross-tenant statement: one fused physical
    statement per structure group plus (for multiple groups) the merge
    recipe.  ``merge is None`` means the single group's statement IS the
    answer — ORDER BY / LIMIT / HAVING ran inside the engine."""

    tenant_ids: tuple[int, ...]
    groups: list[CrossGroup]
    merge: MergeSpec | None
    output_names: list[str]


# ---------------------------------------------------------------------------
# The transformer
# ---------------------------------------------------------------------------

_UNSUPPORTED = (
    "cross-tenant statements do not support {what}: the per-tenant "
    "fan-out loop is the escape hatch"
)


class CrossTenantTransformer:
    """Transforms ``FOR TENANTS`` SELECTs into fused physical plans.

    ``layout_for`` resolves a tenant id to its layout — per-tenant
    overrides from on-the-fly migration included, which is exactly what
    makes migrated tenants land in their own structure group.
    """

    def __init__(
        self,
        schema: MultiTenantSchema,
        layout_for: Callable[[int], object],
        physical_lookup: Callable[[str], list[str]] | None = None,
    ) -> None:
        self.schema = schema
        self.layout_for = layout_for
        self._physical_lookup = physical_lookup

    # -- validation ---------------------------------------------------------

    def _validate(self, select: ast.Select) -> None:
        for source in select.sources:
            if isinstance(source, ast.SubquerySource):
                raise PlanError(_UNSUPPORTED.format(what="FROM subqueries"))
        for expr in build_block(select).expressions():
            if isinstance(expr, ast.Star):
                continue
            for node in ast.walk(expr):
                if isinstance(node, ast.InSubquery):
                    raise PlanError(_UNSUPPORTED.format(what="IN (SELECT ...)"))
                if (
                    isinstance(node, ast.FuncCall)
                    and node.distinct
                    and node.is_aggregate
                ):
                    raise PlanError(
                        _UNSUPPORTED.format(what="DISTINCT aggregates")
                    )

    # -- entry point --------------------------------------------------------

    def transform(
        self, select: ast.Select, tenant_ids: Sequence[int]
    ) -> CrossPlan:
        if not tenant_ids:
            raise PlanError("cross-tenant statement over an empty tenant set")
        ids = tuple(sorted(set(tenant_ids)))
        self._validate(select)
        select = dataclasses.replace(select, tenants=None)

        lookup = self._lookup_for(ids[0])
        block = qualify_block(build_block(select), lookup)
        # Expand ORDER BY alias references into their select-item
        # expressions: the engine resolves aliases post-projection, but
        # flattening a fused reconstruction renames physical columns out
        # from under that resolution (generic layouts map ``name`` to
        # ``col2``), so only fully-expanded order expressions are safe.
        aliases = {
            item.alias.lower(): item.expr
            for item in block.items
            if item.alias is not None and not isinstance(item.expr, ast.Star)
        }
        if aliases and block.order_by:
            block.order_by = [
                ast.OrderItem(
                    aliases.get(order.expr.column.lower(), order.expr)
                    if isinstance(order.expr, ast.ColumnRef)
                    and order.expr.table is None
                    else order.expr,
                    order.descending,
                )
                for order in block.order_by
            ]
        # Steps 1-2 of §6.1 read the statement as the tenant wrote it;
        # the tenant dimension is patched in afterwards.
        usage = used_columns(block)
        fused = self._fuse_tenant_dimension(block)

        groups = self._group_tenants(ids, fused, usage)
        names = [output_name(i, n) for n, i in enumerate(fused.items)]
        # What every group runs, and how the group results recombine: a
        # single group's statement IS the answer.
        per_group, merge = fused, None
        if len(groups) > 1 and block.is_aggregating:
            per_group, merge = self._aggregate_merge(fused)
        elif len(groups) > 1:
            merge = self._concat_merge(fused, names)
        plans = [
            CrossGroup(members, self._group_select(per_group, usage, members))
            for members in groups
        ]
        return CrossPlan(ids, plans, merge, names)

    # -- tenant grouping ----------------------------------------------------

    def _lookup_for(self, tenant_id: int):
        logical = self.schema.logical_lookup(tenant_id)

        def lookup(table_name: str) -> list[str]:
            if self.schema.has_table(table_name):
                return logical(table_name)
            if self._physical_lookup is not None:
                return self._physical_lookup(table_name)
            return logical(table_name)  # raises UnknownObjectError

        return lookup

    def _sources_for(self, tenant_id: int, fused: ast.Select, usage, tenant):
        """Step 4 for one tenant's layout: the FROM clause with
        reconstructions patched in, tenant filter guarded by ``tenant``."""
        transformer = QueryTransformer(self.layout_for(tenant_id), self.schema)
        return transformer.patch_sources(
            tenant_id, fused.sources, usage, tenant=tenant
        )

    def _group_tenants(
        self, tenant_ids: tuple[int, ...], fused: ast.Select, usage
    ) -> list[tuple[int, ...]]:
        """Partition the tenant set into structure groups.

        The signature is the tenant's own FROM clause in the shape-shared
        form, tenant filters as hidden ``?`` slots: tenants producing
        byte-identical text read exactly the same physical tables and
        columns and can share one statement.  A tenant whose FROM clause
        took no slot has no tenant filter to widen (Private Tables: the
        physical table is the tenant scope) and stays on its own.
        """
        buckets: dict[tuple, list[int]] = {}
        for tenant_id in tenant_ids:
            slots = TenantParamAllocator(0)
            sources = self._sources_for(tenant_id, fused, usage, slots)
            signature = (
                *(source.sql() for source in sources),
                None if slots.count else tenant_id,
            )
            buckets.setdefault(signature, []).append(tenant_id)
        return [tuple(members) for members in buckets.values()]

    # -- fused statement assembly -------------------------------------------

    def _fuse_tenant_dimension(self, block: QueryBlock) -> ast.Select:
        """The logical statement with the tenant dimension made explicit:
        every ``TENANT_ID()`` reads the first tenant-mapped source's
        exposed tenant column, and cross-source tenant equalities keep
        joins within one tenant.  Bindings come from the logical
        statement, so the result is the same for every structure group;
        only the FROM clause differs (:meth:`_group_select`)."""
        tenant_refs = [
            ast.ColumnRef(source.binding.lower(), TENANT_COLUMN)
            for source in block.sources
            if isinstance(source, ast.TableSource)
            and self.schema.has_table(source.name)
        ]
        if not tenant_refs:
            raise PlanError(
                "cross-tenant statement references no tenant-mapped table"
            )

        def fuse(expr: ast.Expr) -> ast.Expr:
            return _rewrite_tenant_fn(expr, tenant_refs[0])

        equalities: list[ast.Expr] = [
            ast.BinaryOp("=", tenant_refs[0], other) for other in tenant_refs[1:]
        ]
        return block_to_select(
            QueryBlock(
                items=[
                    ast.SelectItem(
                        fuse(item.expr),
                        "tenant_id"
                        if item.alias is None and _is_tenant_fn(item.expr)
                        else item.alias,
                    )
                    for item in block.items
                ],
                sources=block.sources,
                conjuncts=equalities + [fuse(c) for c in block.conjuncts],
                group_by=[fuse(e) for e in block.group_by],
                having=fuse(block.having) if block.having is not None else None,
                order_by=[
                    ast.OrderItem(fuse(o.expr), o.descending)
                    for o in block.order_by
                ],
                limit=block.limit,
                distinct=block.distinct,
            )
        )

    def _group_select(
        self, fused: ast.Select, usage, members: tuple[int, ...]
    ) -> ast.Select:
        """``fused`` over one structure group's physical tables, the
        tenant-set filter pushed into every reconstruction."""
        sources = self._sources_for(members[0], fused, usage, members)
        return dataclasses.replace(fused, sources=tuple(sources))

    # -- multi-group plans ---------------------------------------------------

    def _concat_merge(self, fused: ast.Select, names: list[str]) -> MergeSpec:
        """Non-aggregating multi-group merge: per-group statements keep
        ORDER BY / LIMIT (a valid per-group top-k) and HAVING (without
        aggregation it behaves as a WHERE); the merge re-sorts and
        re-limits globally."""
        positions = {name: position for position, name in enumerate(names)}
        item_fps = [item.expr.sql() for item in fused.items]
        order_indexes: list[tuple[int, bool]] = []
        for order in fused.order_by:
            expr = order.expr
            index: int | None = None
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                index = positions.get(expr.column.lower())
            if index is None:
                fp = expr.sql()
                index = next(
                    (n for n, f in enumerate(item_fps) if f == fp), None
                )
            if index is None:
                raise PlanError(
                    _UNSUPPORTED.format(
                        what="ORDER BY on unselected expressions over "
                        "structurally heterogeneous tenant sets"
                    )
                )
            order_indexes.append((index, order.descending))
        return MergeSpec(
            aggregated=False,
            distinct=fused.distinct,
            limit=fused.limit,
            order_indexes=tuple(order_indexes),
        )

    def _aggregate_merge(
        self, fused: ast.Select
    ) -> tuple[ast.Select, MergeSpec]:
        """Aggregating multi-group plan: the partial statement every
        group runs (partial aggregates keyed by the GROUP BY exprs) and
        the merge that recombines partials, applies HAVING, evaluates
        the original select items, then sorts/limits."""
        # Compiling against the scope also proves every final expression
        # evaluable from key values and merged aggregates alone.
        scope = GroupedScope(fused)
        key_count = len(fused.group_by)

        # Decompose every distinct aggregate into mergeable partials.
        partial_items: list[ast.SelectItem] = [
            ast.SelectItem(expr, f"k{n}") for n, expr in enumerate(fused.group_by)
        ]
        partial_ops: list[str] = []
        aggs: list[tuple[int, ...]] = []

        def ship(call: ast.FuncCall, op: str) -> int:
            partial_items.append(ast.SelectItem(call, f"a{len(partial_ops)}"))
            partial_ops.append(op)
            return key_count + len(partial_ops) - 1

        for call in scope.aggregates:
            name = call.name.upper()
            if name == "AVG":
                aggs.append(
                    (
                        ship(ast.FuncCall("SUM", call.args), "sum"),
                        ship(ast.FuncCall("COUNT", call.args), "count"),
                    )
                )
            else:  # COUNT / SUM / MIN / MAX recombine under their own name
                aggs.append((ship(call, name.lower()),))

        partial = dataclasses.replace(
            fused,
            items=tuple(partial_items),
            having=None,
            order_by=(),
            limit=None,
            distinct=False,
        )
        merge = MergeSpec(
            aggregated=True,
            distinct=fused.distinct,
            limit=fused.limit,
            key_count=key_count,
            partial_ops=tuple(partial_ops),
            aggs=tuple(aggs),
            items=tuple(scope.compile(item.expr) for item in fused.items),
            having=scope.compile(fused.having)
            if fused.having is not None
            else None,
            order=tuple(
                (scope.compile(order.expr), order.descending)
                for order in fused.order_by
            ),
        )
        return partial, merge


# ---------------------------------------------------------------------------
# Merge-time evaluation
# ---------------------------------------------------------------------------


def _combine(op: str, a, b):
    if op == "count":
        return a + b
    if b is None:
        return a
    if a is None:
        return b
    if op == "sum":
        return a + b
    if op == "min":
        return b if sort_key(b) < sort_key(a) else a
    return b if sort_key(b) > sort_key(a) else a


def _finalize(columns: tuple[int, ...], partials: list):
    if len(columns) == 2:  # AVG from its SUM and COUNT
        total, count = partials[columns[0]], partials[columns[1]]
        return total / count if count else None
    return partials[columns[0]]


def _merged_groups(spec: MergeSpec, rows: list[tuple]) -> list[tuple]:
    """Partial rows recombined per group key into the rows a single
    GRPBY would have produced: (group keys ..., aggregates ...)."""
    merged: dict[tuple, list] = {}
    for row in rows:
        key = tuple(row[: spec.key_count])
        partials = merged.get(key)
        if partials is None:
            merged[key] = list(row)
        else:
            for n, op in enumerate(spec.partial_ops):
                index = spec.key_count + n
                partials[index] = _combine(op, partials[index], row[index])
    return [
        (*key, *(_finalize(columns, partials) for columns in spec.aggs))
        for key, partials in merged.items()
    ]


def merge_results(
    spec: MergeSpec,
    results: Sequence[Sequence[tuple]],
    params: Sequence[object] = (),
) -> list[tuple]:
    """Combine per-group result rows into the final answer, in the
    engine's own clause order: HAVING, ORDER BY, select items, DISTINCT,
    LIMIT."""
    rows = [row for group_rows in results for row in group_rows]
    if spec.aggregated:
        groups = _merged_groups(spec, rows)
        if spec.having is not None:
            groups = [g for g in groups if spec.having(g, params) is True]
        for key, descending in reversed(spec.order):
            groups.sort(
                key=lambda g: sort_key(key(g, params)), reverse=descending
            )
        rows = [tuple(item(g, params) for item in spec.items) for g in groups]
    else:
        for index, descending in reversed(spec.order_indexes):
            rows.sort(key=lambda r: sort_key(r[index]), reverse=descending)
    if spec.distinct:
        rows = list(dict.fromkeys(rows))
    if spec.limit is not None:
        rows = rows[: spec.limit]
    return rows
