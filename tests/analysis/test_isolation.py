"""Tenant-isolation verifier across all seven layouts.

Covers both cache keyings: the directly-executed shape (tenant guards
inlined as literals) and the shape-shared cached shape (guards as
hidden parameters in the :class:`TenantParamAllocator` range), plus a
chunk-layout tenant that gained an extension online.
"""

import pytest

from repro import MultiTenantDatabase
from repro.analysis.isolation import GuardContext, IsolationVerifier
from repro.analysis.mutation import apply_mutation
from repro.analysis.runner import (
    ALL_LAYOUTS as RUNNER_LAYOUTS,
    record_statements,
    shared_table_map_from_catalog,
    verify_recorded,
)
from repro.core.transform.query import TenantParamAllocator
from repro.engine.sql.parser import parse_statement
from repro.engine.statement_cache import count_params

from ..core.conftest import ALL_LAYOUTS, build_running_example

LOGICAL = [
    "SELECT aid, name FROM account WHERE aid = ?",
    "SELECT COUNT(*) FROM account",
    "SELECT name FROM account WHERE opened > '2000-01-01' ORDER BY aid",
]


def make_verifier(mtd):
    return IsolationVerifier(shared_table_map_from_catalog(mtd.db.catalog))


def direct_findings(mtd, tenant_id, sql):
    verifier = make_verifier(mtd)
    physical = mtd._physical_select(tenant_id, parse_statement(sql))
    report = verifier.check_statement(
        physical, GuardContext(expected_tenant=tenant_id), sql
    )
    return report


def shared_findings(mtd, tenant_id, sql):
    verifier = make_verifier(mtd)
    stmt = parse_statement(sql)
    allocator = TenantParamAllocator(count_params(stmt))
    physical = mtd._physical_select(tenant_id, stmt, allocator)
    context = GuardContext(
        expected_tenant=tenant_id,
        tenant_param_range=(
            allocator.base_params,
            allocator.base_params + allocator.count,
        ),
    )
    return verifier.check_statement(physical, context, sql)


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
@pytest.mark.parametrize("sql", LOGICAL)
def test_direct_statements_are_guarded(layout, sql):
    mtd = build_running_example(layout)
    for tenant_id in (17, 35, 42):
        report = direct_findings(mtd, tenant_id, sql)
        assert report.ok, [f.message for f in report.findings]
        assert report.checked >= 1


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
@pytest.mark.parametrize("sql", LOGICAL)
def test_shape_shared_statements_are_guarded(layout, sql):
    mtd = build_running_example(layout)
    if not mtd.layout.shares_statements:
        pytest.skip(f"{layout} does not share cached statements")
    for tenant_id in (17, 35, 42):
        report = shared_findings(mtd, tenant_id, sql)
        assert report.ok, [f.message for f in report.findings]


def test_basic_layout_is_guarded():
    # ``basic`` cannot host extensions, so it gets its own testbed.
    mtd = MultiTenantDatabase(layout="basic")
    from ..core.conftest import account_table

    mtd.define_table(account_table())
    mtd.create_tenant(17)
    mtd.create_tenant(35)
    mtd.insert(17, "account", {"aid": 1, "name": "Acme"})
    for tenant_id in (17, 35):
        for sql in LOGICAL:
            assert direct_findings(mtd, tenant_id, sql).ok
            assert shared_findings(mtd, tenant_id, sql).ok


def test_cache_keying_private_vs_shared():
    private = build_running_example("private")
    shared = build_running_example("extension")
    assert private.layout.statement_shape(17)[0] == "tenant"
    assert private.layout.statement_shape(17) != private.layout.statement_shape(35)
    assert shared.layout.statement_shape(17)[0] == "shape"
    # Same extension set -> same shape; 17 and 42 differ.
    assert shared.layout.statement_shape(17) != shared.layout.statement_shape(42)


@pytest.mark.parametrize("layout", ["extension", "universal", "pivot", "chunk"])
def test_dropped_guard_is_caught(layout):
    mtd = build_running_example(layout)
    apply_mutation(mtd, "drop-tenant-guard")
    rules = set()
    for sql in LOGICAL:
        report = direct_findings(mtd, 17, sql)
        rules |= {f.rule_id for f in report.errors}
    assert "ISO001" in rules, rules


def test_wrong_tenant_literal_is_caught():
    mtd = build_running_example("extension")
    verifier = make_verifier(mtd)
    physical = mtd._physical_select(17, parse_statement(LOGICAL[0]))
    report = verifier.check_statement(
        physical, GuardContext(expected_tenant=35), "cross-tenant"
    )
    assert "ISO005" in {f.rule_id for f in report.errors}


def test_literal_guard_in_shared_statement_is_caught():
    # A statement destined for the shape-shared cache must not pin a
    # tenant id as a literal: every other tenant with the same shape
    # would replay it.
    mtd = build_running_example("extension")
    verifier = make_verifier(mtd)
    physical = mtd._physical_select(17, parse_statement(LOGICAL[0]))
    report = verifier.check_statement(
        physical,
        GuardContext(expected_tenant=17, tenant_param_range=(1, 2)),
        "literal-in-shared",
    )
    assert "ISO003" in {f.rule_id for f in report.errors}


def test_chunk_granted_tenant_shares_fresh_tenant_shape():
    mtd = build_running_example("chunk")
    mtd.grant_extension(35, "automotive")
    mtd.create_tenant(77, extensions=("automotive",))
    # Chunks are cut per column group, not per tenant: the granted
    # tenant's fragments are a fresh tenant's, so both share cached
    # statements and one fused cross-tenant statement.
    layout = mtd.layout
    assert layout.statement_shape(35) == layout.statement_shape(77)
    assert layout.statement_shape(35) == layout.statement_shape(42)
    assert len(mtd.transform_cross_sql(
        "SELECT aid, dealers FROM account FOR TENANTS IN (35, 42, 77)"
    )) == 1
    assert mtd.execute(35, "SELECT aid, name, dealers FROM account").rows == [
        (1, "Ball", None)
    ]
    # And the post-grant statements stay fully guarded for everyone.
    for tenant_id in (17, 35, 42):
        for sql in LOGICAL:
            assert direct_findings(mtd, tenant_id, sql).ok
    assert direct_findings(
        mtd, 35, "SELECT aid, dealers FROM account WHERE dealers IS NULL"
    ).ok


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_dml_statements_are_guarded(layout):
    mtd = build_running_example(layout)
    verifier = make_verifier(mtd)
    with record_statements(mtd.db) as recorded:
        mtd.execute(
            17, "INSERT INTO account (aid, name) VALUES (?, ?)", (9, "Probe")
        )
        mtd.execute(17, "UPDATE account SET name = 'P2' WHERE aid = ?", (9,))
        mtd.execute(17, "DELETE FROM account WHERE aid = ?", (9,))
    assert recorded
    report = verify_recorded(verifier, recorded, 17, "dml")
    assert report.ok, [f.message for f in report.findings]
    # The same executions, attributed to another tenant: every guard of
    # a shared table is bound to 17, whether literal or parameter.
    if verifier.shared:
        report = verify_recorded(verifier, recorded, 35, "dml")
        assert "ISO005" in {f.rule_id for f in report.errors}


@pytest.mark.parametrize("layout", RUNNER_LAYOUTS)
def test_dml_corpus_is_recorded_per_target_fragment(layout):
    """The gate is not vacuous: every DML corpus statement reaches the
    recorder as at least one write per fragment it must touch — an
    INSERT or DELETE every fragment of the table, an UPDATE those
    holding an assigned column."""
    from collections import Counter

    from repro.analysis.corpus import dml_corpus
    from repro.analysis.runner import AnalysisConfig, build_testbed
    from repro.engine.sql import ast

    mtd = build_testbed(layout, AnalysisConfig(tenants=2), 0.0)
    verifier = make_verifier(mtd)
    for tenant_id in mtd.tenant_ids():
        for statement in dml_corpus():
            logical = parse_statement(statement.sql)
            fragments = mtd.layout_for(tenant_id).fragments(
                tenant_id, logical.table
            )
            if isinstance(logical, ast.Update):
                assigned = {name.lower() for name, _ in logical.assignments}
                fragments = [
                    f for f in fragments if any(f.covers(c) for c in assigned)
                ]
            with record_statements(mtd.db) as recorded:
                mtd.execute(tenant_id, statement.sql, statement.params)
            writes = Counter(
                stmt.table.lower()
                for stmt, _ in recorded
                if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete))
            )
            needed = Counter(f.table.lower() for f in fragments)
            assert needed and not needed - writes, (statement.sql, writes)
            assert verify_recorded(verifier, recorded, tenant_id, "dml").ok


# -- fused cross-tenant statements (ISO006) -----------------------------------


def cross_groups(mtd, sql, ids):
    from repro.core.transform.crosstenant import CrossTenantTransformer

    transformer = CrossTenantTransformer(
        mtd.schema, mtd.layout_for, mtd._physical_lookup
    )
    return transformer.transform(parse_statement(sql), ids).groups


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_fused_statements_dominated_by_declared_set(layout):
    mtd = build_running_example(layout)
    verifier = make_verifier(mtd)
    declared = (17, 42)
    for group in cross_groups(
        mtd, "SELECT name FROM account FOR TENANTS IN (17, 42)", declared
    ):
        report = verifier.check_statement(
            group.select, GuardContext(tenant_set=declared), "fused"
        )
        assert report.ok, [f.message for f in report.findings]


def test_inlist_beyond_declared_set_is_iso006():
    mtd = build_running_example("extension")
    verifier = make_verifier(mtd)
    # Build the fused statement for {17, 35, 42} but declare only
    # {17, 42}: the tenant IN-list now includes an undeclared tenant.
    for group in cross_groups(
        mtd, "SELECT name FROM account FOR TENANTS IN (17, 35, 42)",
        (17, 35, 42),
    ):
        report = verifier.check_statement(
            group.select, GuardContext(tenant_set=(17, 42)), "widened"
        )
        assert "ISO006" in {f.rule_id for f in report.errors}


def test_literal_equality_outside_set_is_iso006():
    mtd = build_running_example("private")
    verifier = make_verifier(mtd)
    # private fuses per tenant with tenant = <literal> pushdowns; a
    # group built for an undeclared tenant must be refused.
    groups = cross_groups(
        mtd, "SELECT name FROM account FOR TENANTS IN (35)", (35,)
    )
    rules = set()
    for group in groups:
        report = verifier.check_statement(
            group.select, GuardContext(tenant_set=(17, 42)), "wrong-tenant"
        )
        rules |= {f.rule_id for f in report.errors}
    # private tables carry no shared meta columns, so domination is
    # trivially satisfied there; shared layouts carry the check.
    mtd2 = build_running_example("universal")
    verifier2 = make_verifier(mtd2)
    for group in cross_groups(
        mtd2, "SELECT name FROM account FOR TENANTS IN (35)", (35,)
    ):
        report = verifier2.check_statement(
            group.select, GuardContext(tenant_set=(17, 42)), "wrong-tenant"
        )
        rules |= {f.rule_id for f in report.errors}
    assert "ISO006" in rules, rules


def test_parameter_tenant_guard_in_cross_statement_is_iso006():
    mtd = build_running_example("extension")
    verifier = make_verifier(mtd)
    stmt = parse_statement(
        "SELECT name FROM account_ext WHERE tenant = ?"
    )
    report = verifier.check_statement(
        stmt, GuardContext(tenant_set=(17, 42)), "param-guard"
    )
    assert "ISO006" in {f.rule_id for f in report.errors}


def test_negated_or_non_literal_inlist_is_no_guard():
    mtd = build_running_example("extension")
    verifier = make_verifier(mtd)
    context = GuardContext(tenant_set=(17, 42))
    for sql in (
        "SELECT name FROM account_ext WHERE tenant NOT IN (17, 42)",
        "SELECT name FROM account_ext WHERE tenant IN (17, ?)",
    ):
        report = verifier.check_statement(parse_statement(sql), context, sql)
        assert "ISO001" in {f.rule_id for f in report.errors}, sql


def test_inlist_outside_cross_context_is_no_guard():
    # A tenant IN-list only dominates under a declared tenant set;
    # single-tenant disciplines must still refuse it.
    mtd = build_running_example("extension")
    verifier = make_verifier(mtd)
    report = verifier.check_statement(
        parse_statement("SELECT name FROM account_ext WHERE tenant IN (17)"),
        GuardContext(expected_tenant=17),
        "single-tenant-inlist",
    )
    assert "ISO001" in {f.rule_id for f in report.errors}


def test_widen_crosstenant_mutation_is_caught_end_to_end():
    from repro.analysis.runner import AnalysisConfig, run_analysis

    config = AnalysisConfig(
        layouts=("extension",),
        variabilities=(0.0,),
        tenants=2,
        rows_per_table=1,
        admin_ops=False,
        mutate="widen-crosstenant",
    )
    report = run_analysis(config)
    assert not report.ok
    assert "ISO006" in {f.rule_id for f in report.errors}
