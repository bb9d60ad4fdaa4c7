"""Fused cross-tenant analytics (MTSQL ``FOR TENANTS`` dialect).

The differential contract: a fused cross-tenant statement must return
exactly what the per-tenant fan-out loop returns — same rows, same
aggregates — on every layout, each fused physical statement doing its
pinned work.  The fan-out oracle is written independently of the fusion
code (plain per-tenant ``execute()`` calls plus Python merging), so the
two paths share no merge logic.
"""

import pytest

from repro import LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.engine.errors import PlanError, UnknownObjectError
from repro.engine.values import INTEGER, varchar

from ..conftest import assert_pinned_work
from .conftest import ALL_LAYOUTS, build_running_example

SEVEN_LAYOUTS = ["basic"] + ALL_LAYOUTS
#: The one executor: the parameter keeps each case's reported name.
ENGINES = ["vectorized"]

#: (tenant, rows) for the differential schema; tenant 4 stays empty.
_ROWS = {
    1: [(1, "a", 10), (2, "b", 20), (3, "a", None)],
    2: [(1, "b", 5)],
    3: [(1, "a", 7), (2, "c", 9)],
    4: [],
}


def build_plain(layout: str) -> MultiTenantDatabase:
    """Four tenants over an extension-free schema every layout (basic
    included) can represent, whose ``execute_cross`` first holds each
    fused physical statement to its pinned work."""
    mtd = MultiTenantDatabase(layout=layout)
    execute_cross = mtd.execute_cross

    def checked(sql, params=()):
        for physical in mtd.transform_cross_sql(sql):
            assert_pinned_work(mtd.db, f"crosstenant {layout}", physical, params)
        return execute_cross(sql, params)

    mtd.execute_cross = checked
    mtd.define_table(
        LogicalTable(
            "item",
            (
                LogicalColumn("id", INTEGER, indexed=True, not_null=True),
                LogicalColumn("cat", varchar(10)),
                LogicalColumn("val", INTEGER),
            ),
        )
    )
    for tenant, rows in _ROWS.items():
        mtd.create_tenant(tenant)
        for item_id, cat, val in rows:
            mtd.insert(tenant, "item", {"id": item_id, "cat": cat, "val": val})
    return mtd


# -- fan-out oracles (independent of the fusion/merge code) -------------------


def fanout_concat(mtd, ids, per_tenant_sql, params=()):
    """Per-tenant rows, each prefixed with its tenant id, concatenated
    in tenant order."""
    out = []
    for tenant in ids:
        for row in mtd.execute(tenant, per_tenant_sql, params).rows:
            out.append((tenant, *row))
    return out


def fanout_grouped(mtd, ids, per_tenant_sql, params=()):
    """Python-side merge of per-tenant ``GROUP BY key`` results: rows
    are (key, count, sum) per tenant; the oracle re-aggregates."""
    merged: dict = {}
    for tenant in ids:
        for key, count, total in mtd.execute(
            tenant, per_tenant_sql, params
        ).rows:
            have = merged.get(key)
            if have is None:
                merged[key] = [count, total]
            else:
                have[0] += count
                if total is not None:
                    have[1] = total if have[1] is None else have[1] + total
    return [
        (key, count, total)
        for key, (count, total) in sorted(merged.items(), key=lambda kv: repr(kv[0]))
    ]


@pytest.mark.parametrize("execution", ENGINES)
@pytest.mark.parametrize("layout", SEVEN_LAYOUTS)
class TestDifferential:
    def test_ordered_scan_matches_fanout(self, layout, execution):
        mtd = build_plain(layout)
        fused = mtd.execute_cross(
            "SELECT TENANT_ID() AS t, id, val FROM item "
            "ORDER BY t, id FOR ALL TENANTS"
        )
        assert fused.columns == ["t", "id", "val"]
        assert fused.rows == fanout_concat(
            mtd, (1, 2, 3, 4), "SELECT id, val FROM item ORDER BY id"
        )

    def test_subset_with_parameter_matches_fanout(self, layout, execution):
        mtd = build_plain(layout)
        fused = mtd.execute_cross(
            "SELECT TENANT_ID() AS t, id FROM item WHERE val >= ? "
            "ORDER BY t, id FOR TENANTS IN (1, 3)",
            (7,),
        )
        assert fused.rows == fanout_concat(
            mtd, (1, 3), "SELECT id FROM item WHERE val >= ? ORDER BY id", (7,)
        )

    def test_grouped_by_tenant_rollup_matches_fanout(self, layout, execution):
        mtd = build_plain(layout)
        fused = mtd.execute_cross(
            "SELECT TENANT_ID(), COUNT(*), SUM(val), MIN(val), MAX(val), "
            "AVG(val) FROM item GROUP BY TENANT_ID() ORDER BY TENANT_ID() "
            "FOR ALL TENANTS"
        )
        expected = []
        for tenant in (1, 2, 3, 4):
            row = mtd.execute(
                tenant,
                "SELECT COUNT(*), SUM(val), MIN(val), MAX(val), AVG(val) "
                "FROM item",
            ).rows[0]
            if row[0] == 0:
                continue  # GROUP BY produces no group for an empty tenant
            expected.append((tenant, *row))
        assert fused.rows == expected

    def test_global_rollup_matches_fanout(self, layout, execution):
        mtd = build_plain(layout)
        fused = mtd.execute_cross(
            "SELECT cat, COUNT(*), SUM(val) FROM item GROUP BY cat "
            "ORDER BY cat FOR ALL TENANTS"
        )
        assert fused.rows == fanout_grouped(
            mtd,
            (1, 2, 3, 4),
            "SELECT cat, COUNT(*), SUM(val) FROM item GROUP BY cat",
        )

    def test_having_matches_fanout(self, layout, execution):
        mtd = build_plain(layout)
        fused = mtd.execute_cross(
            "SELECT cat, COUNT(*), SUM(val) FROM item GROUP BY cat "
            "HAVING COUNT(*) >= 2 ORDER BY cat FOR ALL TENANTS"
        )
        merged = fanout_grouped(
            mtd,
            (1, 2, 3, 4),
            "SELECT cat, COUNT(*), SUM(val) FROM item GROUP BY cat",
        )
        assert fused.rows == [row for row in merged if row[1] >= 2]

    def test_post_aggregation_shapes_match_fanout(self, layout, execution):
        """HAVING / select-item / DISTINCT shapes over merged groups:
        the answer is a function of the data, never of whether the
        layout fused the tenants into one statement or merged several
        (``private`` merges one group per tenant)."""
        mtd = build_plain(layout)
        merged = fanout_grouped(
            mtd,
            (1, 2, 3, 4),
            "SELECT cat, COUNT(*), SUM(val) FROM item GROUP BY cat",
        )
        head = "SELECT cat, COUNT(*), SUM(val) FROM item GROUP BY cat "
        cases = [
            (
                head + "HAVING cat IN ('a', 'c') ORDER BY cat FOR ALL TENANTS",
                [row for row in merged if row[0] in ("a", "c")],
            ),
            (
                head + "HAVING cat LIKE 'a%' ORDER BY cat FOR ALL TENANTS",
                [row for row in merged if row[0].startswith("a")],
            ),
            (
                "SELECT cat, TO_STR(COUNT(*)) FROM item GROUP BY cat "
                "ORDER BY cat FOR ALL TENANTS",
                [(cat, str(count)) for cat, count, _ in merged],
            ),
        ]
        for sql, expected in cases:
            assert mtd.execute_cross(sql).rows == expected, sql
        # Over tenants 1 and 2 categories a and b tie at two rows each:
        # DISTINCT must collapse the tie after the merge as well.
        tied = fanout_grouped(
            mtd, (1, 2), "SELECT cat, COUNT(*), SUM(val) FROM item GROUP BY cat"
        )
        assert [count for _, count, _ in tied] == [2, 2]
        fused = mtd.execute_cross(
            "SELECT DISTINCT COUNT(*) FROM item GROUP BY cat "
            "FOR TENANTS IN (1, 2)"
        )
        assert fused.rows == [(2,)]

    def test_limit_applies_after_global_order(self, layout, execution):
        mtd = build_plain(layout)
        fused = mtd.execute_cross(
            "SELECT TENANT_ID() AS t, id FROM item ORDER BY t, id LIMIT 3 "
            "FOR ALL TENANTS"
        )
        full = fanout_concat(mtd, (1, 2, 3, 4), "SELECT id FROM item ORDER BY id")
        assert fused.rows == full[:3]


class TestDialect:
    def test_tenant_clause_round_trips(self):
        from repro.engine.sql.parser import parse_statement

        stmt = parse_statement(
            "SELECT name FROM account FOR TENANTS IN (17, 42)"
        )
        assert stmt.tenants is not None
        assert stmt.tenants.ids == (17, 42)
        assert not stmt.tenants.all_tenants
        assert "FOR TENANTS IN (17, 42)" in stmt.sql()
        stmt = parse_statement("SELECT name FROM account FOR ALL TENANTS")
        assert stmt.tenants.all_tenants
        assert stmt.sql().endswith("FOR ALL TENANTS")

    def test_tenant_id_function_parses_in_select_and_group_by(self):
        from repro.engine.sql import ast
        from repro.engine.sql.parser import parse_statement

        stmt = parse_statement(
            "SELECT TENANT_ID(), COUNT(*) FROM account "
            "GROUP BY TENANT_ID() FOR ALL TENANTS"
        )
        call = stmt.items[0].expr
        assert isinstance(call, ast.FuncCall) and call.name == "TENANT_ID"

    def test_per_tenant_execute_rejects_tenants_clause(self):
        mtd = build_running_example("extension")
        with pytest.raises(PlanError, match="execute_cross"):
            mtd.execute(17, "SELECT name FROM account FOR ALL TENANTS")

    def test_execute_cross_rejects_plain_select(self):
        mtd = build_running_example("extension")
        with pytest.raises(PlanError, match="FOR TENANTS"):
            mtd.execute_cross("SELECT name FROM account")

    def test_unknown_tenant_in_set_rejected(self):
        mtd = build_running_example("extension")
        with pytest.raises(UnknownObjectError):
            mtd.execute_cross("SELECT name FROM account FOR TENANTS IN (99)")

    def test_empty_database_for_all_tenants(self):
        mtd = MultiTenantDatabase(layout="extension")
        mtd.define_table(
            LogicalTable("t", (LogicalColumn("a", INTEGER),))
        )
        result = mtd.execute_cross("SELECT a FROM t FOR ALL TENANTS")
        assert result.rows == []


class TestPruning:
    def test_private_tables_outside_set_are_not_read(self):
        mtd = build_running_example("private")
        statements = mtd.transform_cross_sql(
            "SELECT name FROM account FOR TENANTS IN (17, 42)"
        )
        joined = " ".join(statements)
        assert "t17_" in joined or "17" in joined
        # Tenant 35's private table never appears in the fused plans.
        assert "t35" not in joined

    def test_shared_layout_fuses_to_one_statement(self):
        mtd = build_running_example("universal")
        statements = mtd.transform_cross_sql(
            "SELECT name FROM account FOR TENANTS IN (17, 35, 42)"
        )
        assert len(statements) == 1
        assert "tenant IN (17, 35, 42)" in statements[0]


class TestCacheInvalidation:
    SQL = (
        "SELECT TENANT_ID(), COUNT(*) FROM account "
        "GROUP BY TENANT_ID() ORDER BY TENANT_ID() FOR ALL TENANTS"
    )

    def _entry(self, mtd, ids):
        return mtd._statements.lookup(
            ("xt", self.SQL, ids), mtd._statement_context()
        )

    def test_repeat_execution_hits_the_cache(self):
        mtd = build_running_example("extension")
        first = mtd.execute_cross(self.SQL)
        entry = self._entry(mtd, (17, 35, 42))
        assert entry is not None
        assert mtd.execute_cross(self.SQL).rows == first.rows
        assert self._entry(mtd, (17, 35, 42)) is entry  # same object reused

    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_grant_invalidates_cross_statements(self, layout):
        mtd = build_running_example(layout)
        before = mtd.execute_cross(self.SQL)
        entry = self._entry(mtd, (17, 35, 42))
        mtd.grant_extension(35, "healthcare")
        assert self._entry(mtd, (17, 35, 42)) is None or entry is None
        assert mtd.execute_cross(self.SQL).rows == before.rows

    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_migrate_invalidates_and_refuses_stale_fusion(self, layout):
        mtd = build_running_example(layout)
        before = mtd.execute_cross(self.SQL)
        mtd.migrate_tenant(17, "universal" if layout != "universal" else "private")
        # The rebuilt statement fuses against the new layout mix and
        # still returns the same logical answer.
        assert mtd.execute_cross(self.SQL).rows == before.rows

    def test_drop_tenant_shrinks_for_all_tenants(self):
        mtd = build_running_example("extension")
        assert [r[0] for r in mtd.execute_cross(self.SQL).rows] == [17, 35, 42]
        mtd.drop_tenant(35)
        assert [r[0] for r in mtd.execute_cross(self.SQL).rows] == [17, 42]
        with pytest.raises(UnknownObjectError):
            mtd.execute_cross(
                "SELECT name FROM account FOR TENANTS IN (35)"
            )

    def test_create_tenant_grows_for_all_tenants(self):
        mtd = build_running_example("extension")
        assert [r[0] for r in mtd.execute_cross(self.SQL).rows] == [17, 35, 42]
        mtd.create_tenant(77)
        mtd.insert(77, "account", {"aid": 1, "name": "New", "opened": None})
        assert [r[0] for r in mtd.execute_cross(self.SQL).rows] == [
            17,
            35,
            42,
            77,
        ]


class TestExportOrdering:
    """`export_rows` feeds rebalance snapshots and differential oracles:
    its order must be a function of the data, not of layout internals."""

    def _scrambled(self, layout):
        mtd = MultiTenantDatabase(layout=layout)
        mtd.define_table(
            LogicalTable(
                "item",
                (
                    LogicalColumn("id", INTEGER, indexed=True, not_null=True),
                    LogicalColumn("label", varchar(10)),
                ),
            )
        )
        mtd.create_tenant(1)
        for item_id in (5, 1, 9, 3, 7):
            mtd.insert(1, "item", {"id": item_id, "label": f"v{item_id}"})
        return mtd

    @pytest.mark.parametrize("layout", SEVEN_LAYOUTS)
    def test_export_is_sorted_by_row_key(self, layout):
        mtd = self._scrambled(layout)
        exported = mtd.export_rows(1, "item")
        keys = [row_id for row_id, _ in exported if row_id is not None]
        assert keys == sorted(keys)
        if not keys:
            # Layouts without a row column (basic) order by content.
            ids = [values["id"] for _, values in exported]
            assert ids == sorted(ids)

    def test_export_identical_across_layouts(self):
        # Layouts agree wherever they share a keying scheme: row-keyed
        # layouts agree on the (row id, values) sequence, keyless ones
        # on the content-ordered values sequence — so any two replicas
        # of a tenant diff cleanly when they use the same layout family.
        by_scheme: dict = {}
        for layout in SEVEN_LAYOUTS:
            exported = self._scrambled(layout).export_rows(1, "item")
            keyed = any(row_id is not None for row_id, _ in exported)
            reference = by_scheme.setdefault(keyed, exported)
            assert exported == reference, layout

    def test_export_stable_across_migration(self):
        mtd = self._scrambled("chunk_folding")
        before = mtd.export_rows(1, "item")
        mtd.migrate_tenant(1, "universal")
        assert mtd.export_rows(1, "item") == before
