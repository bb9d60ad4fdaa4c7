"""Public facade: a multi-tenant database behind one object.

>>> from repro import MultiTenantDatabase, LogicalTable, LogicalColumn, Extension
>>> from repro.engine.values import INTEGER, varchar
>>> mtd = MultiTenantDatabase(layout="chunk_folding")
>>> mtd.define_table(LogicalTable("account", (
...     LogicalColumn("aid", INTEGER, indexed=True, not_null=True),
...     LogicalColumn("name", varchar(50)),
... )))
>>> mtd.define_extension(Extension("healthcare", "account", (
...     LogicalColumn("hospital", varchar(50)),
...     LogicalColumn("beds", INTEGER),
... )))
>>> mtd.create_tenant(17, extensions=("healthcare",))
>>> _ = mtd.insert(17, "account", {"aid": 1, "name": "Acme",
...                                "hospital": "St. Mary", "beds": 135})
>>> mtd.execute(17, "SELECT beds FROM account WHERE hospital = ?",
...             ["St. Mary"]).rows
[(135,)]
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Sequence

from ..engine.database import Database, Result
from ..engine.errors import CatalogError, PlanError
from ..engine.optimizer import OptimizerProfile
from ..engine.plan.logical import conjoin
from ..engine.sql import ast
from ..engine.sql.parser import parse_statement
from ..engine.statement_cache import LruCache, count_params
from ..engine.values import parse_type, sort_key
from .layouts import make_layout
from .layouts.base import Layout
from .metadata import MetadataReport
from .migration import Migrator, read_tenant_rows
from .schema import Extension, LogicalColumn, LogicalTable, MultiTenantSchema
from .statement_cache import (
    CachedStatement,
    CrossTenantStatement,
    LogicalPreparedStatement,
    StatementCache,
)
from .transform.crosstenant import CrossPlan, CrossTenantTransformer
from .transform.dml import DmlPlan, DmlTransformer
from .transform.flatten import (
    PredicateOrder,
    flatten_transformed,
    order_predicates,
)
from .transform.query import QueryTransformer, TenantParamAllocator


class MultiTenantDatabase:
    """One multi-tenant database: a layout over an engine instance.

    ``layout`` picks the schema-mapping technique (see
    :mod:`repro.core.layouts`); extra keyword arguments are forwarded to
    the layout (e.g. ``width=6`` for chunked layouts).  When the engine
    runs the SIMPLE optimizer profile, transformed queries are flattened
    before execution (Test 1's workaround) using ``predicate_order``.
    """

    def __init__(
        self,
        layout: str = "chunk_folding",
        *,
        db: Database | None = None,
        predicate_order: PredicateOrder = PredicateOrder.ORIGINAL_FIRST,
        statement_cache_size: int = 256,
        _replay: bool = False,
        **layout_options,
    ) -> None:
        self.db = db if db is not None else Database()
        self.schema = MultiTenantSchema()
        #: True while :meth:`recover` builds the instance: the state is
        #: already in the log, so :meth:`_admin` opens no WAL bracket.
        self._replay = _replay
        #: (name, options): recovery rebuilds the same layout object.
        self._layout_spec = (layout, dict(layout_options))
        self.layout = make_layout(layout, self.db, self.schema, **layout_options)
        self.predicate_order = predicate_order
        self._overrides: dict[int, Layout] = {}
        #: tenant id -> (layout name, options) of its override layout.
        self._override_specs: dict[int, tuple[str, dict]] = {}
        self._migrator = Migrator(self.schema)
        with self._admin("mtd_init"):
            self.layout.bootstrap()
        #: Shape-keyed transformed statements; ``statement_cache_size=0``
        #: disables all caching at this layer (every call re-transforms).
        self._statements = StatementCache(statement_cache_size, self.db.metrics)
        self._parses = LruCache(statement_cache_size)
        #: One QueryTransformer/DmlTransformer per layout instance.
        self._transformers: dict[
            int, tuple[Layout, QueryTransformer, DmlTransformer]
        ] = {}

    # -- schema administration ------------------------------------------------
    #
    # Every administrative method runs inside a WAL admin-operation
    # bracket (:meth:`Database.admin_operation`): a crash mid-operation
    # leaves no partial effect after recovery (the op's records are
    # skipped), and the closing marker carries :meth:`_durable_state`,
    # the one value :meth:`recover` restores from.  In memory mode the
    # bracket is a no-op context.  A call that would widen some tenant's
    # view past what its layout can store (:meth:`Layout.check_widths`)
    # is refused before anything changes.

    def _admin(self, op: str):
        if self._replay:
            return nullcontext()
        return self.db.admin_operation(op, self._durable_state)

    def _durable_state(self) -> dict:
        """Everything of this layer that lives only in memory, as one
        picklable value aliasing nothing live: which layouts exist, the
        logical schema, and each layout's bookkeeping."""
        return {
            "layout": self._layout_spec,
            "schema": self.schema.snapshot(),
            "default": self.layout.bookkeeping(),
            "overrides": {
                tenant_id: (*self._override_specs[tenant_id], layout.bookkeeping())
                for tenant_id, layout in self._overrides.items()
            },
        }

    def define_table(self, table: LogicalTable) -> None:
        """Register (and physically provision) a base table."""
        with self._admin("define_table"):
            for layout in self._all_layouts():
                layout.check_widths({table.lname: len(table.columns)})
            self.schema.add_table(table)
            for layout in self._all_layouts():
                layout.on_table_added(table)
            self._invalidate_statements()

    def define_extension(self, extension: Extension) -> None:
        with self._admin("define_extension"):
            self.schema.add_extension(extension)
            for layout in self._all_layouts():
                layout.on_extension_added(extension)
            self._invalidate_statements()

    def create_tenant(self, tenant_id: int, extensions: Sequence[str] = ()) -> None:
        with self._admin("create_tenant"):
            self.layout.check_widths(self.schema.view_widths(extensions))
            config = self.schema.add_tenant(tenant_id, tuple(extensions))
            self.layout.on_tenant_added(config)

    def drop_tenant(self, tenant_id: int) -> None:
        """Remove a tenant and physically purge its data.

        Crash-atomic: the purge runs as one transaction inside an admin
        bracket, so recovery either replays the whole drop or none of
        it — never a tenant with half its fragments deleted.
        """
        with self._admin("drop_tenant"):
            layout = self.layout_for(tenant_id)
            # This tenant's transformer: a seeded drop-dml-guard
            # mutation then reaches the purge's guards too.
            _, dml = self._transformer_for(layout)
            # Enumerate fragments before the transaction: fragment
            # listing may lazily CREATE missing physical tables, and
            # DDL commits any open transaction.
            purges: list[tuple] = []
            for table in self.schema.tables():
                purges.append(
                    (table.name, layout.fragments(tenant_id, table.name))
                )
            with self.db.atomic():
                for _table_name, fragments in purges:
                    self.db.crashpoint("drop_tenant.table")
                    for fragment in fragments:
                        predicate = conjoin(dml._meta_conjuncts(fragment, None))
                        if predicate is not None:
                            self.db.execute_ast(
                                ast.Delete(fragment.table, predicate)
                            )
            config = self.schema.remove_tenant(tenant_id)
            layout.on_tenant_removed(config)
            self._overrides.pop(tenant_id, None)
            self._override_specs.pop(tenant_id, None)
            self._invalidate_statements()

    def grant_extension(self, tenant_id: int, extension_name: str) -> None:
        """Subscribe a tenant to an extension while the system is online."""
        with self._admin("grant_extension"):
            granted = self.schema.tenant(tenant_id).extensions | {
                extension_name.lower()
            }
            self.layout_for(tenant_id).check_widths(
                self.schema.view_widths(granted)
            )
            self.schema.grant_extension(tenant_id, extension_name)
            self.layout_for(tenant_id).on_extension_granted(
                self.schema.tenant(tenant_id),
                self.schema.extension(extension_name),
            )
            self._invalidate_statements()

    def alter_extension(
        self, extension_name: str, new_columns: Sequence[LogicalColumn]
    ) -> None:
        """Widen an extension online (§6.3 ALTER).  Existing rows read
        NULL for the new columns; generic layouts do this as pure
        bookkeeping (plus NULL backfill), conventional layouts rebuild
        their affected tables."""
        with self._admin("alter_extension"):
            base = self.schema.extension(extension_name).base_table.lower()
            for tenant_id in self.schema.tenants_with_extension(extension_name):
                widths = self.schema.view_widths(
                    self.schema.tenant(tenant_id).extensions
                )
                widths[base] += len(new_columns)
                self.layout_for(tenant_id).check_widths(widths)
            altered = self.schema.alter_extension(
                extension_name, tuple(new_columns)
            )
            for layout in self._all_layouts():
                layout.on_extension_altered(altered, tuple(new_columns))
            self._invalidate_statements()

    # -- per-tenant layout overrides (on-the-fly migration) ----------------------

    def layout_for(self, tenant_id: int) -> Layout:
        return self._overrides.get(tenant_id, self.layout)

    def _all_layouts(self) -> list[Layout]:
        seen: list[Layout] = [self.layout]
        for layout in self._overrides.values():
            if layout not in seen:
                seen.append(layout)
        return seen

    def migrate_tenant(self, tenant_id: int, layout_name: str, **options) -> dict:
        """Move one tenant to a different representation on-the-fly.

        Returns rows moved per table.  Other tenants keep the default
        layout; this tenant's queries follow it immediately.
        """
        with self._admin("migrate_tenant"):
            source = self.layout_for(tenant_id)
            target = make_layout(layout_name, self.db, self.schema, **options)
            target.check_widths(
                self.schema.view_widths(self.schema.tenant(tenant_id).extensions)
            )
            target.bootstrap()
            # Replay schema history into the new layout; physical structures
            # that already exist (shared chunk tables, ...) are reused.
            for table in self.schema.tables():
                target.on_table_added(table)
            for extension in self.schema.extensions():
                target.on_extension_added(extension)
            target.on_tenant_added(self.schema.tenant(tenant_id))
            moved = self._migrator.migrate_tenant(tenant_id, source, target)
            self._overrides[tenant_id] = target
            self._override_specs[tenant_id] = (layout_name, dict(options))
            self._invalidate_statements()
        return moved

    # -- statements -----------------------------------------------------------------

    def _invalidate_statements(self) -> None:
        """Schema administration changed tenant shapes or physical
        structure: drop every cached transformed statement (and the
        per-layout transformer memo — override layouts may be gone)."""
        self._statements.invalidate_all()
        self._transformers.clear()
        for layout in self._all_layouts():
            layout.anchor_statements.clear()

    def _transformer_for(
        self, layout: Layout
    ) -> tuple[QueryTransformer, DmlTransformer]:
        """The memoized transformer pair for one layout instance."""
        entry = self._transformers.get(id(layout))
        if entry is None or entry[0] is not layout:
            entry = (
                layout,
                QueryTransformer(layout, self.schema),
                DmlTransformer(layout, self.schema),
            )
            self._transformers[id(layout)] = entry
        return entry[1], entry[2]

    def _parse_logical(self, sql: str) -> ast.Statement:
        """Parse logical SQL, reusing the AST for repeated texts (the
        nodes are frozen dataclasses, safe to share)."""
        stmt = self._parses.get(sql)
        if stmt is None:
            stmt = parse_statement(sql)
            self._parses.put(sql, stmt)
        return stmt

    def transform_sql(self, tenant_id: int, sql: str) -> str:
        """The physical SQL a logical SELECT turns into (step 4 output,
        flattened when the engine optimizer is SIMPLE)."""
        stmt = parse_statement(sql)
        if not isinstance(stmt, ast.Select):
            raise PlanError("transform_sql takes a SELECT")
        return self._physical_select(tenant_id, stmt).sql()

    def _physical_select(
        self,
        tenant_id: int,
        stmt: ast.Select,
        tenant_params: TenantParamAllocator | None = None,
    ) -> ast.Select:
        transformer, _ = self._transformer_for(self.layout_for(tenant_id))
        return self._for_engine(
            transformer.transform_select(
                tenant_id, stmt, tenant_params=tenant_params
            )
        )

    def _for_engine(self, physical: ast.Select) -> ast.Select:
        """A transformed statement as the engine's optimizer needs it:
        a SIMPLE optimizer cannot unnest the reconstructions itself
        (Test 1), so they are flattened and the conjuncts ordered here."""
        if self.db.profile is OptimizerProfile.SIMPLE:
            physical = flatten_transformed(physical)
            physical = order_predicates(physical, self.predicate_order)
        return physical

    def _statement_context(self) -> tuple:
        """Everything besides (sql, layout, shape) that shapes the
        transformed statement; a cached entry built under a different
        context is rebuilt."""
        return (
            self.db.profile,
            self.predicate_order,
        )

    def _cached_select(
        self, tenant_id: int, sql: str, stmt: ast.Select, layout: Layout
    ) -> CachedStatement | None:
        """The shape-shared cache entry for one logical SELECT, built on
        demand; ``None`` when caching is disabled."""
        if not self._statements.enabled:
            return None
        key = (sql, id(layout), layout.statement_shape(tenant_id))
        context = self._statement_context()
        entry = self._statements.lookup(key, context)
        if entry is not None:
            return entry
        tenant_params = TenantParamAllocator(count_params(stmt))
        physical = self._physical_select(tenant_id, stmt, tenant_params)
        entry = CachedStatement(
            self.db.prepare_ast(physical), tenant_params, context
        )
        self._statements.store(key, entry)
        return entry

    def _cached_dml(
        self, tenant_id: int, text: object, layout: Layout, table: str, build
    ) -> DmlPlan:
        """The shape-shared plan of one logical write on ``table`` —
        ``text`` is the logical SQL, or ``("insert", table)`` for
        :meth:`insert` — kept beside the SELECTs in the statement cache.
        Only a miss (every call, with caching disabled) lists the
        tenant's fragments, and ``build(fragments)`` plans over them: a
        hit binds values into the stored plan and lists nothing."""
        key = (text, id(layout), layout.statement_shape(tenant_id))
        plan = self._statements.lookup(key, DmlPlan.context)
        if plan is None:
            plan = build(layout.fragments(tenant_id, table))
            self._statements.store(key, plan)
        return plan

    def prepare(self, sql: str) -> LogicalPreparedStatement:
        """Prepare a logical statement for repeated execution.

        The handle is tenant-agnostic: ``handle.execute(tenant_id,
        params)`` serves any tenant, reusing one transformed physical
        statement per schema shape underneath.
        """
        return LogicalPreparedStatement(self, sql, self._parse_logical(sql))

    def execute(
        self, tenant_id: int, sql: str, params: Sequence[object] = ()
    ) -> Result:
        """Run a logical statement on behalf of a tenant."""
        return self._execute_parsed(
            tenant_id, sql, self._parse_logical(sql), params
        )

    # -- cross-tenant statements (MTSQL FOR TENANTS) -------------------------

    def _resolve_tenant_set(self, clause: ast.TenantClause) -> tuple[int, ...]:
        """The concrete, validated, sorted tenant id set of a clause.

        ``FOR ALL TENANTS`` resolves at execution time, so tenants
        created after the statement was first cached are picked up (the
        resolved set is part of the cache key)."""
        if clause.all_tenants:
            return tuple(self.tenant_ids())
        for tenant_id in clause.ids:
            self.schema.tenant(tenant_id)  # validates
        return tuple(sorted(set(clause.ids)))

    def _cross_plan(self, stmt: ast.Select, ids: tuple[int, ...]) -> CrossPlan:
        """The transformed cross-tenant statement, each structure
        group's statement in the form handed to the engine."""
        transformer = CrossTenantTransformer(
            self.schema, self.layout_for, self.db.catalog.columns
        )
        plan = transformer.transform(stmt, ids)
        for group in plan.groups:
            group.select = self._for_engine(group.select)
        return plan

    def _build_cross(
        self, stmt: ast.Select, ids: tuple[int, ...], context: tuple
    ) -> CrossTenantStatement:
        plan = self._cross_plan(stmt, ids)
        return CrossTenantStatement(
            [self.db.prepare_ast(group.select) for group in plan.groups],
            plan.merge,
            plan.output_names,
            context,
        )

    def execute_cross(self, sql: str, params: Sequence[object] = ()) -> Result:
        """Run one ``SELECT ... FOR TENANTS IN (...)`` / ``FOR ALL
        TENANTS`` statement over the declared tenant set.

        The statement is fused: one physical statement per structure
        group (usually one total on shared layouts) with the tenant-set
        predicate pushed into the shared scans, instead of a per-tenant
        fan-out loop.  ``FOR ALL TENANTS`` over an empty database
        returns an empty result."""
        stmt = self._parse_logical(sql)
        if not isinstance(stmt, ast.Select) or stmt.tenants is None:
            raise PlanError(
                "execute_cross takes a SELECT with a FOR TENANTS clause"
            )
        ids = self._resolve_tenant_set(stmt.tenants)
        if not ids:
            return Result([], [], 0)
        context = self._statement_context()
        entry = None
        key = ("xt", sql, ids)
        if self._statements.enabled:
            entry = self._statements.lookup(key, context)
        if entry is None:
            entry = self._build_cross(stmt, ids, context)
            if self._statements.enabled:
                self._statements.store(key, entry)
        return entry.execute(params)

    def transform_cross_sql(self, sql: str) -> list[str]:
        """The fused physical SQL a cross-tenant SELECT turns into —
        one statement per structure group (flattened when the engine
        optimizer is SIMPLE)."""
        stmt = parse_statement(sql)
        if not isinstance(stmt, ast.Select) or stmt.tenants is None:
            raise PlanError(
                "transform_cross_sql takes a SELECT with a FOR TENANTS clause"
            )
        ids = self._resolve_tenant_set(stmt.tenants)
        return [g.select.sql() for g in self._cross_plan(stmt, ids).groups]

    def _execute_parsed(
        self,
        tenant_id: int,
        sql: str,
        stmt: ast.Statement,
        params: Sequence[object],
    ) -> Result:
        self.schema.tenant(tenant_id)  # validates
        layout = self.layout_for(tenant_id)
        if isinstance(stmt, ast.Select):
            if stmt.tenants is not None:
                raise PlanError(
                    "FOR TENANTS statements span tenants; run them "
                    "through execute_cross(), not a per-tenant execute()"
                )
            cached = self._cached_select(tenant_id, sql, stmt, layout)
            if cached is not None:
                return cached.execute(tenant_id, params)
            physical = self._physical_select(tenant_id, stmt)
            return self.db.execute_ast(physical, params)
        _, dml = self._transformer_for(layout)
        if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            # One logical statement fans out into several physical ones;
            # an atomic block keeps a crash from leaving a logical row
            # with only some of its fragments.  The plan is found (or,
            # on a miss, its fragments listed and planned) before the
            # transaction opens: listing may lazily CREATE physical
            # tables, and DDL commits any open transaction.
            plan = self._cached_dml(
                tenant_id,
                sql,
                layout,
                stmt.table,
                lambda fragments: dml.plan(tenant_id, stmt, fragments),
            )
            with self.db.atomic():
                return plan.execute(tenant_id, params)
        if isinstance(stmt, ast.CreateTable):
            table = LogicalTable(
                stmt.table,
                tuple(
                    LogicalColumn(
                        c.name, parse_type(c.type_text), not_null=c.not_null
                    )
                    for c in stmt.columns
                ),
            )
            self.define_table(table)
            return Result([], [], 0)
        raise PlanError(
            f"unsupported logical statement {type(stmt).__name__}"
        )

    def insert(
        self,
        tenant_id: int,
        table_name: str,
        values: dict,
        *,
        row_id: int | None = None,
    ) -> int:
        """Insert one logical row from a mapping; returns its Row id."""
        self.schema.tenant(tenant_id)
        layout = self.layout_for(tenant_id)
        _, dml = self._transformer_for(layout)
        # Planned before the transaction opens, as in _execute_parsed.
        plan = self._cached_dml(
            tenant_id,
            ("insert", table_name.lower()),
            layout,
            table_name,
            lambda fragments: dml.plan_row_insert(tenant_id, table_name, fragments),
        )
        with self.db.atomic():
            return plan.insert(tenant_id, values, row_id)

    def restore(self, tenant_id: int, table_name: str, row_ids: list[int]) -> int:
        """Bring soft-deleted rows back from the Trashcan."""
        _, dml = self._transformer_for(self.layout_for(tenant_id))
        with self.db.atomic():
            return dml.restore(tenant_id, table_name, row_ids)

    def purge_trashcan(self, tenant_id: int, table_name: str) -> int:
        """Physically delete a tenant's soft-deleted rows."""
        _, dml = self._transformer_for(self.layout_for(tenant_id))
        with self.db.atomic():
            return dml.purge_trashcan(tenant_id, table_name)

    # -- crash recovery -----------------------------------------------------------

    @classmethod
    def recover(cls, db: Database, **kwargs) -> "MultiTenantDatabase":
        """Rebuild the schema-mapping layer on a recovered database.

        The engine's own recovery (:func:`repro.engine.durability.
        recovery.recover`, run by ``Database(path=...)``) restores the
        physical tables and hands back the :meth:`_durable_state` of
        the last *completed* administrative operation (an incomplete
        one — a crash mid-``drop_tenant``/``migrate_tenant`` — was
        discarded wholesale).  That value is restored, not replayed: no
        ``Layout.on_*`` hook runs, so a call the live instance rejected
        cannot fail again here.  No statement runs either: Row-id
        counters seed from the data on first use.  ``kwargs`` override
        non-durable constructor options (``predicate_order``,
        ``statement_cache_size``).
        """
        state = db.recovered_admin_state
        if not state or "schema" not in state:
            raise CatalogError(
                "log records no multi-tenant schema (was this database "
                "created through MultiTenantDatabase?)"
            )
        name, options = state["layout"]
        mtd = cls(name, db=db, _replay=True, **{**options, **kwargs})
        mtd.schema.restore(state["schema"])
        mtd.layout.restore_bookkeeping(state["default"])
        for tenant_id, (name, options, bookkeeping) in state["overrides"].items():
            layout = make_layout(name, db, mtd.schema, **options)
            layout.restore_bookkeeping(bookkeeping)
            mtd._overrides[tenant_id] = layout
            mtd._override_specs[tenant_id] = (name, options)
        mtd._replay = False
        return mtd

    # -- introspection ------------------------------------------------------------

    def report(self) -> MetadataReport:
        return self.layout.report()

    def tenant_ids(self) -> list[int]:
        """All tenant ids, sorted — the public enumeration surface the
        placement catalog and rebalancer use (callers used to reach into
        ``schema._tenants``)."""
        return sorted(config.tenant_id for config in self.schema.tenants())

    def tenant_row_counts(self, tenant_id: int) -> dict[str, int]:
        """Live logical row count per base table for one tenant.

        Counts the anchor fragment under the tenant's meta-data
        predicate (plus the Trashcan's ``alive`` filter when soft delete
        is on), so the number matches what reconstruction returns —
        the invariant the rebalancer verifies after a move.
        """
        self.schema.tenant(tenant_id)  # validates
        layout = self.layout_for(tenant_id)
        counts: dict[str, int] = {}
        for table in self.schema.tables():
            anchor = layout.fragments(tenant_id, table.name)[0]
            counts[table.name] = int(
                layout.anchor_scalar("COUNT(*)", anchor, layout.soft_delete)
            )
        return counts

    def export_rows(
        self, tenant_id: int, table_name: str
    ) -> list[tuple[int | None, dict]]:
        """Every logical row of one tenant's table as ``(row_id,
        {column: value})``, reconstructed from the layout's fragments.
        ``row_id`` is ``None`` for layouts without a Row column
        (Private Tables).  This is the snapshot feed of the cluster
        rebalancer: re-inserting the pairs through :meth:`insert`
        (``row_id=`` preserved) reproduces the tenant bit-identically.
        """
        self.schema.tenant(tenant_id)  # validates
        layout = self.layout_for(tenant_id)
        columns, has_row, rows = read_tenant_rows(
            self.db, self.schema, layout, tenant_id, table_name
        )
        width = len(columns)
        # Stable (row-key, values) order: reconstruction row order is an
        # artifact of physical placement (join order, chunk partitions)
        # and differs across layouts, but snapshot feeds are compared
        # across replicas and before/after migrations.
        return sorted(
            (
                (row[width] if has_row else None, dict(zip(columns, row[:width])))
                for row in rows
            ),
            key=lambda pair: (
                sort_key(pair[0]),
                [sort_key(v) for v in pair[1].values()],
            ),
        )

    def explain(self, tenant_id: int, sql: str) -> str:
        """Engine plan for the transformed query."""
        return self.db.explain(self.transform_sql(tenant_id, sql))

    def explain_analyze(
        self, tenant_id: int, sql: str, params: Sequence[object] = ()
    ) -> str:
        """Run the transformed query and render the measured plan."""
        return self.db.explain_analyze(self.transform_sql(tenant_id, sql), params)

    def trace(
        self, tenant_id: int, sql: str, params: Sequence[object] = ()
    ):
        """Per-query engine trace of a logical SELECT (page-read deltas,
        operator timings) — see :meth:`repro.engine.Database.trace`."""
        return self.db.trace(self.transform_sql(tenant_id, sql), params)

    @property
    def metrics(self):
        """The underlying engine's metrics registry."""
        return self.db.metrics
