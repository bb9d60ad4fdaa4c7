"""Cross-layout behaviour: the Figure 4 running example must give the
same answers under every schema-mapping technique."""

import datetime

import pytest

from repro import LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.core.layouts import LAYOUTS, make_layout
from repro.engine.errors import PlanError, UnknownObjectError
from repro.engine.values import INTEGER, varchar

from .conftest import ALL_LAYOUTS, build_running_example


class TestRunningExample:
    def test_extension_column_query(self, any_layout_mtd):
        result = any_layout_mtd.execute(
            17, "SELECT beds FROM account WHERE hospital = 'State'"
        )
        assert result.rows == [(1042,)]

    def test_base_column_query(self, any_layout_mtd):
        result = any_layout_mtd.execute(
            35, "SELECT name FROM account ORDER BY aid"
        )
        assert result.rows == [("Ball",)]

    def test_tenant_isolation(self, any_layout_mtd):
        """Tenant 35 must never see tenant 17's accounts."""
        result = any_layout_mtd.execute(35, "SELECT COUNT(*) FROM account")
        assert result.rows == [(1,)]

    def test_star_expands_to_tenant_view(self, any_layout_mtd):
        result = any_layout_mtd.execute(42, "SELECT * FROM account")
        assert result.columns == ["aid", "name", "opened", "dealers"]
        assert result.rows == [
            (1, "Big", datetime.date(2007, 9, 10), 65)
        ]

    def test_extension_column_invisible_to_other_tenant(self, any_layout_mtd):
        with pytest.raises(UnknownObjectError):
            any_layout_mtd.execute(35, "SELECT dealers FROM account")

    def test_count_star(self, any_layout_mtd):
        assert any_layout_mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [
            (2,)
        ]

    def test_date_roundtrip(self, any_layout_mtd):
        result = any_layout_mtd.execute(
            17, "SELECT opened FROM account WHERE aid = 1"
        )
        assert result.rows == [(datetime.date(2001, 2, 3),)]

    def test_aggregation_over_extension_column(self, any_layout_mtd):
        result = any_layout_mtd.execute(17, "SELECT SUM(beds) FROM account")
        assert result.rows == [(1177,)]

    def test_order_by_extension_column(self, any_layout_mtd):
        result = any_layout_mtd.execute(
            17, "SELECT name FROM account ORDER BY beds DESC"
        )
        assert [r[0] for r in result.rows] == ["Gump", "Acme"]

    def test_null_in_unset_column(self, any_layout_mtd):
        any_layout_mtd.insert(17, "account", {"aid": 3, "name": "NoHosp"})
        result = any_layout_mtd.execute(
            17, "SELECT beds FROM account WHERE aid = 3"
        )
        assert result.rows == [(None,)]

    def test_insert_via_sql(self, any_layout_mtd):
        any_layout_mtd.execute(
            35,
            "INSERT INTO account (aid, name, opened) VALUES (?, ?, ?)",
            [9, "New", "2008-06-09"],
        )
        result = any_layout_mtd.execute(
            35, "SELECT name FROM account WHERE aid = 9"
        )
        assert result.rows == [("New",)]

    def test_update_extension_column(self, any_layout_mtd):
        count = any_layout_mtd.execute(
            17, "UPDATE account SET beds = 200 WHERE hospital = 'St. Mary'"
        ).rowcount
        assert count == 1
        assert any_layout_mtd.execute(
            17, "SELECT beds FROM account WHERE aid = 1"
        ).rows == [(200,)]

    def test_update_with_cross_column_expression(self, any_layout_mtd):
        """SET expression mixing base and extension columns (only the
        buffered DML mode can do this for chunked layouts)."""
        any_layout_mtd.execute(
            17, "UPDATE account SET beds = beds + aid WHERE aid = 2"
        )
        assert any_layout_mtd.execute(
            17, "SELECT beds FROM account WHERE aid = 2"
        ).rows == [(1044,)]

    def test_delete_by_predicate(self, any_layout_mtd):
        count = any_layout_mtd.execute(
            17, "DELETE FROM account WHERE beds > 1000"
        ).rowcount
        assert count == 1
        assert any_layout_mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [
            (1,)
        ]

    def test_self_join(self, any_layout_mtd):
        result = any_layout_mtd.execute(
            17,
            "SELECT a.name, b.name FROM account a, account b "
            "WHERE a.aid = 1 AND b.aid = 2",
        )
        assert result.rows == [("Acme", "Gump")]

    def test_grant_extension_online(self, any_layout_mtd):
        any_layout_mtd.grant_extension(35, "automotive")
        any_layout_mtd.insert(
            35, "account", {"aid": 2, "name": "Car", "dealers": 7}
        )
        result = any_layout_mtd.execute(
            35, "SELECT dealers FROM account WHERE aid = 2"
        )
        assert result.rows == [(7,)]

    def test_drop_tenant_purges_data(self, any_layout_mtd):
        any_layout_mtd.drop_tenant(17)
        with pytest.raises(UnknownObjectError):
            any_layout_mtd.execute(17, "SELECT COUNT(*) FROM account")
        # Other tenants unaffected.
        assert any_layout_mtd.execute(35, "SELECT COUNT(*) FROM account").rows == [
            (1,)
        ]


class TestConsolidationProperties:
    """Physical table counts: the core trade-off of Figure 2 / Section 3."""

    def layout_table_count(self, layout):
        mtd = build_running_example(layout)
        return mtd.db.catalog.table_count

    def test_private_grows_with_tenants(self):
        assert self.layout_table_count("private") == 3  # one per tenant

    def test_generic_layouts_fixed_table_count(self):
        pivot = self.layout_table_count("pivot")
        universal = self.layout_table_count("universal")
        mtd_u = build_running_example("universal")
        assert universal == 1
        # Pivot: one table per used type family (and index variant).
        assert pivot <= 4

    def test_extension_layout_grows_with_extensions(self):
        assert self.layout_table_count("extension") == 3  # base + 2 ext

    def test_chunk_folding_mixes_conventional_and_generic(self):
        mtd = build_running_example("chunk_folding")
        names = {t.name for t in mtd.db.catalog.tables()}
        assert "account_cf" in names
        assert any(n.startswith("chunk_") for n in names)

    def test_private_has_no_metadata_columns(self):
        mtd = build_running_example("private")
        table = mtd.db.catalog.table("account_t17")
        names = [c.lname for c in table.columns]
        assert "tenant" not in names and "row" not in names

    def test_universal_single_table_many_nulls(self):
        mtd = build_running_example("universal")
        table = mtd.db.catalog.table("universal")
        assert table.row_count == 4  # all tenants' rows in one table


class TestLayoutRegistry:
    def test_all_layouts_registered(self):
        assert set(LAYOUTS) == {
            "basic",
            "private",
            "extension",
            "universal",
            "pivot",
            "chunk",
            "chunk_folding",
        }

    def test_unknown_layout_raises(self):
        with pytest.raises(ValueError):
            make_layout("nope", None, None)

    @pytest.mark.parametrize("option", [{"folded": False}, {"cover_shapes": []}])
    def test_chunk_folding_takes_no_chunk_table_options(self, option):
        # Chunk Folding reuses the Chunk layout's allocator, not its
        # vertical-partitioning or shape-cover variants.
        with pytest.raises(TypeError):
            MultiTenantDatabase(layout="chunk_folding", **option)


class TestBasicLayout:
    def test_no_extensions_allowed(self):
        mtd = MultiTenantDatabase(layout="basic")
        mtd.define_table(
            LogicalTable("t", (LogicalColumn("a", INTEGER),))
        )
        from repro import Extension

        with pytest.raises(PlanError):
            mtd.define_extension(
                Extension("x", "t", (LogicalColumn("b", INTEGER),))
            )

    def test_shares_one_table(self):
        mtd = MultiTenantDatabase(layout="basic")
        mtd.define_table(
            LogicalTable(
                "t",
                (LogicalColumn("a", INTEGER), LogicalColumn("b", varchar(10))),
            )
        )
        for tenant in range(1, 6):
            mtd.create_tenant(tenant)
            mtd.insert(tenant, "t", {"a": tenant, "b": f"v{tenant}"})
        assert mtd.db.catalog.table_count == 1
        assert mtd.execute(3, "SELECT b FROM t").rows == [("v3",)]


class TestUniversalWidth:
    def test_overflow_rejected(self):
        mtd = MultiTenantDatabase(layout="universal", width=2)
        with pytest.raises(PlanError):
            mtd.define_table(
                LogicalTable(
                    "wide",
                    tuple(
                        LogicalColumn(f"c{i}", INTEGER) for i in range(3)
                    ),
                )
            )


class TestChunkWidthSweep:
    """The same data must survive any chunk width (Pivot-like 1 up to
    Universal-like full width)."""

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 10])
    def test_roundtrip_at_width(self, width):
        mtd = build_running_example("chunk", width=width)
        assert mtd.execute(
            17, "SELECT beds FROM account WHERE hospital = 'State'"
        ).rows == [(1042,)]
        assert mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [(2,)]

    def test_unfolded_vertical_partitioning(self):
        mtd = build_running_example("chunk", width=2, folded=False)
        names = {t.name for t in mtd.db.catalog.tables()}
        assert any(n.startswith("vp_account_") for n in names)
        assert mtd.execute(
            17, "SELECT beds FROM account WHERE hospital = 'State'"
        ).rows == [(1042,)]
