"""Drives all three passes over the Figure 5 CRM testbed.

For every requested layout × Table 1 variability level, the runner
builds a multi-tenant database over the CRM schema (every instance's
ten tables, extensions on instance 0), populates a few rows per tenant,
and then

1. checks the layout invariants over the data at rest,
2. walks the physical statements the transformers emit for the logical
   corpus — both the directly-executed shape (literal tenant guards)
   and the shape-shared cached shape (hidden parameter guards) — and
   hands each to the isolation verifier,
3. replays DML and administrative operations (grant, migrate, drop)
   through a recorder on the engine's statement path, verifying every
   statement that actually runs, with the parameters bound to it,
4. re-checks the invariants after the mutations of step 3.

Findings are counted into the engine's metrics registry under
``analysis.*``.  ``python -m repro.analysis`` is a thin CLI over
:func:`run_analysis`.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from ..core.api import MultiTenantDatabase
from ..engine.database import Database
from ..core.transform.query import TenantParamAllocator
from ..engine.sql import ast
from ..engine.sql.parser import parse_statement
from ..engine.statement_cache import count_params
from ..testbed.crm import crm_extensions, crm_tables, instance_table_name
from ..testbed.variability import VariabilityConfig, distribute_tenants
from . import invariants
from ..core.transform.crosstenant import CrossTenantTransformer
from .corpus import (
    cross_tenant_corpus,
    dml_corpus,
    extension_corpus,
    select_corpus,
)
from .findings import AnalysisReport
from .isolation import GuardContext, IsolationVerifier
from .mutation import apply_mutation

ALL_LAYOUTS = (
    "private",
    "basic",
    "extension",
    "universal",
    "pivot",
    "chunk",
    "chunk_folding",
)

#: Table 1's schema-variability levels (experiments/manytables.py).
PAPER_VARIABILITIES = (0.0, 0.5, 0.65, 0.8, 1.0)

#: Layouts that cannot express tenant-specific extensions.
NO_EXTENSIONS = ("basic",)


@dataclass
class AnalysisConfig:
    """One analysis run's scope."""

    layouts: tuple[str, ...] = ALL_LAYOUTS
    variabilities: tuple[float, ...] = PAPER_VARIABILITIES
    tenants: int = 4
    rows_per_table: int = 2
    #: Tables per instance to populate and query (all ten are defined
    #: and invariant-checked; the statement corpus covers this many).
    corpus_tables: int = 3
    width: int = 6
    #: Optional seeded defect (see :mod:`repro.analysis.mutation`).
    mutate: str | None = None
    #: Exercise administrative paths (grant / migrate / drop) too.
    admin_ops: bool = True
    #: Build each testbed on disk, abandon it mid-flight (simulated
    #: crash), recover, and run every pass against the *recovered*
    #: database — proving the invariants and isolation guarantees
    #: survive the durability path, not just a live process.
    crash_recover: bool = False


@contextlib.contextmanager
def record_statements(db: Any) -> Iterator[list[tuple[ast.Statement, tuple]]]:
    """Capture every statement the engine runs while active, each with
    the parameters bound to it.  Hooked at the one statement path, so
    SQL text, ``execute_ast`` and prepared handles are all seen — the
    DML fan-out runs through handles, whose tenant guard is a bound
    parameter."""
    recorded: list[tuple[ast.Statement, tuple]] = []
    original = db._run_statement

    def recording(
        stmt: ast.Statement, prepared: Any, params: Any, collector: Any = None
    ) -> Any:
        recorded.append((stmt, tuple(params)))
        return original(stmt, prepared, params, collector)

    db._run_statement = recording
    try:
        yield recorded
    finally:
        del db._run_statement


def verify_recorded(
    verifier: IsolationVerifier,
    recorded: list[tuple[ast.Statement, tuple]],
    tenant_id: int,
    locus: str,
) -> AnalysisReport:
    """Every recorded statement must be guarded for ``tenant_id``: by a
    literal, or by a parameter bound to that very id."""
    report = AnalysisReport()
    for stmt, params in recorded:
        report.extend(
            verifier.check_statement(
                stmt,
                GuardContext(expected_tenant=tenant_id, bound_params=params),
                locus,
            )
        )
    return report


def build_testbed(
    layout: str,
    config: AnalysisConfig,
    variability: float,
    *,
    db_path: str | None = None,
) -> MultiTenantDatabase:
    """A populated CRM multi-tenant database for one configuration."""
    vconfig = VariabilityConfig(variability=variability, tenants=config.tenants)
    options = {}
    if layout in ("chunk", "chunk_folding"):
        options["width"] = config.width
    db = Database(path=db_path) if db_path is not None else None
    mtd = MultiTenantDatabase(layout=layout, db=db, **options)
    for instance in range(vconfig.instances):
        for table in crm_tables(instance):
            mtd.define_table(table)
    extensions_enabled = layout not in NO_EXTENSIONS
    if extensions_enabled:
        for extension in crm_extensions(0):
            mtd.define_extension(extension)
    grants = (("healthcare",), ("automotive",), ("gdpr",), ())
    assignment = distribute_tenants(vconfig)
    for index, (tenant_id, instance) in enumerate(sorted(assignment.items())):
        extensions = (
            grants[index % len(grants)]
            if extensions_enabled and instance == 0
            else ()
        )
        mtd.create_tenant(tenant_id, extensions)
        _populate(mtd, tenant_id, instance, config)
    #: tenant -> CRM instance, consumed by :func:`analyze_testbed`.
    mtd.analysis_instances = dict(assignment)
    return mtd


def _populate(
    mtd: MultiTenantDatabase,
    tenant_id: int,
    instance: int,
    config: AnalysisConfig,
) -> None:
    bases = ["account", "contact", "opportunity", "campaign", "lead"]
    extensions = mtd.schema.tenant(tenant_id).extensions
    for base in bases[: config.corpus_tables]:
        table = instance_table_name(base, instance)
        for n in range(config.rows_per_table):
            row: dict[str, object] = {
                "id": n + 1,
                "name": f"{base}-{tenant_id}-{n}",
                "status": "open" if n % 2 == 0 else "closed",
                "quantity": n,
                "score": n * 10,
                "active": n % 2 == 0,
                "created": "2008-06-09",
            }
            if base in ("contact", "opportunity", "lead"):
                row["parent"] = 1
            if base == "account" and "healthcare" in extensions:
                row.update(hospital="St. Mary", beds=100 + n)
            if base == "account" and "automotive" in extensions:
                row.update(dealers=3 + n, fleet_size=40)
            if base == "contact" and "gdpr" in extensions:
                row.update(consent=True, consent_date="2018-05-25")
            mtd.insert(tenant_id, table, row)


def shared_table_map_from_catalog(catalog: Any) -> dict[str, frozenset[str]]:
    """Ground-truth shared-table map from the physical schema itself:
    any table carrying meta discriminator columns is shared and every
    one of them must be guarded.  Independent of the (possibly
    mutated) fragment lists."""
    meta_columns = ("tenant", "tbl", "chunk", "col")
    shared: dict[str, frozenset[str]] = {}
    for table in catalog.tables():
        present = frozenset(
            c for c in meta_columns if table.has_column(c)
        )
        if "tenant" in present:
            shared[table.name.lower()] = present
    return shared


def analyze_testbed(
    mtd: MultiTenantDatabase,
    config: AnalysisConfig,
    locus_prefix: str = "",
) -> AnalysisReport:
    """Passes 2 and 3 (plus admin-path replay) for one built testbed."""
    report = AnalysisReport()
    verifier = IsolationVerifier(
        shared_table_map_from_catalog(mtd.db.catalog)
    )
    if config.mutate is not None:
        apply_mutation(mtd, config.mutate)
        # Structural invariants read fragments + catalog without
        # executing the (now broken) transformed statements, so they
        # still run under mutation — LAY00x must catch layout defects.
        report.extend(invariants.check_fragments(mtd, locus_prefix))
    else:
        report.extend(invariants.check_all(mtd, locus_prefix))

    tenants = sorted(c.tenant_id for c in mtd.schema.tenants())

    # -- SELECT shapes: direct and shape-shared ---------------------------
    for tenant_id in tenants:
        instance = _tenant_instance(mtd, tenant_id)
        statements = list(select_corpus(instance, config.corpus_tables))
        statements += extension_corpus(
            mtd.schema.tenant(tenant_id).extensions, instance
        )
        layout = mtd.layout_for(tenant_id)
        for statement in statements:
            stmt = parse_statement(statement.sql)
            locus = f"{locus_prefix}tenant={tenant_id} sql={statement.sql}"
            physical = mtd._physical_select(tenant_id, stmt)
            report.extend(
                verifier.check_statement(
                    physical,
                    GuardContext(expected_tenant=tenant_id),
                    locus,
                )
            )
            if layout.shares_statements:
                allocator = TenantParamAllocator(count_params(stmt))
                shared_physical = mtd._physical_select(
                    tenant_id, stmt, allocator
                )
                report.extend(
                    verifier.check_statement(
                        shared_physical,
                        GuardContext(
                            expected_tenant=tenant_id,
                            tenant_param_range=(
                                allocator.base_params,
                                allocator.base_params + allocator.count,
                            ),
                        ),
                        locus + " [shape-shared]",
                    )
                )
            if config.mutate is None:
                mtd.execute(tenant_id, statement.sql, statement.params)

    # -- cross-tenant statements (MTSQL FOR TENANTS) ----------------------
    # The fused statements carry the declared tenant set as literals;
    # the verifier proves every tenant guard is dominated by the clause
    # (ISO006).  The explicit-set statement names a strict subset so a
    # widened resolution (the seeded widen-crosstenant mutation) has an
    # existing tenant to leak.
    if tenants:
        subset = tuple(tenants[:-1]) or (tenants[0],)
        for statement in cross_tenant_corpus(subset, 0):
            stmt = parse_statement(statement.sql)
            clause = stmt.tenants
            declared = (
                tuple(tenants)
                if clause.all_tenants
                else tuple(sorted(set(clause.ids)))
            )
            ids = mtd._resolve_tenant_set(clause)
            transformer = CrossTenantTransformer(
                mtd.schema, mtd.layout_for, mtd._physical_lookup
            )
            plan = transformer.transform(stmt, ids)
            locus = f"{locus_prefix}cross sql={statement.sql}"
            for group in plan.groups:
                report.extend(
                    verifier.check_statement(
                        group.select,
                        GuardContext(tenant_set=declared),
                        locus,
                    )
                )
            if config.mutate is None:
                mtd.execute_cross(statement.sql, statement.params)

    # -- DML and administrative paths (recorded at the engine) ------------
    # A mutated DML template still executes (it just writes too much),
    # so the corpus replays under that one mutation as well.
    if config.mutate in (None, "drop-dml-guard"):
        for tenant_id in tenants:
            instance = _tenant_instance(mtd, tenant_id)
            for statement in dml_corpus(instance):
                locus = f"{locus_prefix}tenant={tenant_id} sql={statement.sql}"
                with record_statements(mtd.db) as recorded:
                    mtd.execute(tenant_id, statement.sql, statement.params)
                report.extend(
                    verify_recorded(verifier, recorded, tenant_id, locus)
                )
    if config.mutate is None:
        if config.admin_ops:
            report.extend(
                _check_admin_ops(mtd, verifier, locus_prefix)
            )
        report.extend(invariants.check_all(mtd, locus_prefix))
    return report


def _tenant_instance(mtd: MultiTenantDatabase, tenant_id: int) -> int:
    """Which CRM instance the tenant was provisioned against (instance
    tables are named ``account``, ``account_i1``, ...)."""
    return getattr(mtd, "analysis_instances", {}).get(tenant_id, 0)


def _check_admin_ops(
    mtd: MultiTenantDatabase, verifier: IsolationVerifier, locus_prefix: str
) -> AnalysisReport:
    """Grant, migrate, and drop paths, each recorded and verified."""
    report = AnalysisReport()
    tenants = sorted(c.tenant_id for c in mtd.schema.tenants())
    if not tenants:
        return report
    subject = tenants[-1]

    # Online extension grant (the NULL-backfill path fixed in this PR).
    grantable = (
        mtd.layout.supports_extensions
        and _tenant_instance(mtd, subject) == 0
        and any(e.name == "automotive" for e in mtd.schema.extensions())
        and "automotive" not in mtd.schema.tenant(subject).extensions
    )
    if grantable:
        with record_statements(mtd.db) as recorded:
            mtd.grant_extension(subject, "automotive")
        report.extend(
            verify_recorded(
                verifier, recorded, subject,
                f"{locus_prefix}grant tenant={subject}",
            )
        )

    # Migration plan preservation + recorded movement.
    target_name = "private" if mtd.layout.name != "private" else "extension"
    source_layout = mtd.layout_for(subject)
    source_fragments = {
        table.name: source_layout.fragments(subject, table.name)
        for table in mtd.schema.tables()
    }
    with record_statements(mtd.db) as recorded:
        mtd.migrate_tenant(subject, target_name)
    report.extend(
        verify_recorded(
            verifier, recorded, subject,
            f"{locus_prefix}migrate tenant={subject}",
        )
    )
    target_layout = mtd.layout_for(subject)
    for table in mtd.schema.tables():
        logical = mtd.schema.logical_table(subject, table.name)
        report.extend(
            invariants.check_migration_plan(
                logical.columns,
                source_fragments[table.name],
                target_layout.fragments(subject, table.name),
                f"{locus_prefix}migration-plan tenant={subject} "
                f"table={table.name}",
            )
        )

    # Tenant removal purges only the tenant's own rows.
    victim = tenants[0]
    with record_statements(mtd.db) as recorded:
        mtd.drop_tenant(victim)
    report.extend(
        verify_recorded(
            verifier, recorded, victim,
            f"{locus_prefix}drop tenant={victim}",
        )
    )
    return report


def run_analysis(
    config: AnalysisConfig | None = None,
    log: Callable[[str], None] | None = None,
) -> AnalysisReport:
    """All passes over every layout × variability combination."""
    config = config or AnalysisConfig()
    emit = log or (lambda message: None)
    total = AnalysisReport()
    for layout in config.layouts:
        for variability in config.variabilities:
            prefix = f"layout={layout} v={variability} "
            if config.crash_recover:
                mtd, cleanup = _build_recovered(layout, config, variability)
                prefix += "recovered "
            else:
                mtd, cleanup = build_testbed(layout, config, variability), None
            try:
                report = analyze_testbed(mtd, config, prefix)
            finally:
                if cleanup is not None:
                    cleanup()
            report.count_into(mtd.db.metrics)
            emit(
                f"{layout:14s} v={variability:<5} "
                f"{report.checked:4d} checks, "
                f"{len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s)"
            )
            total.extend(report)
    return total


def _build_recovered(
    layout: str, config: AnalysisConfig, variability: float
) -> tuple[MultiTenantDatabase, Callable[[], None]]:
    """Build a durable testbed, abandon it without closing (the crash),
    and hand back the recovered instance plus a cleanup callback."""
    path = tempfile.mkdtemp(prefix=f"repro-analysis-{layout}-")
    mtd = build_testbed(layout, config, variability, db_path=path)
    instances = dict(getattr(mtd, "analysis_instances", {}))
    # No close(), no flush: whatever the WAL already made durable is
    # all recovery gets to work with — exactly the crash contract.
    del mtd
    recovered = MultiTenantDatabase.recover(Database(path=path))
    recovered.analysis_instances = instances
    return recovered, lambda: shutil.rmtree(path, ignore_errors=True)
