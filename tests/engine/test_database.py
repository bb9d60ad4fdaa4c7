"""End-to-end SQL tests against the Database facade."""

import datetime

import pytest

from repro.engine import Database
from repro.engine.errors import (
    DuplicateObjectError,
    NotNullViolation,
    PlanError,
    UniqueViolation,
    UnknownObjectError,
)


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE account ("
        "aid INTEGER NOT NULL, tenant INTEGER NOT NULL, "
        "name VARCHAR(50), beds INTEGER, opened DATE)"
    )
    database.execute("CREATE UNIQUE INDEX account_pk ON account (tenant, aid)")
    rows = [
        (1, 17, "Acme", 135, "2001-05-04"),
        (2, 17, "Gump", 1042, "2003-07-12"),
        (1, 35, "Ball", None, "2006-01-30"),
        (1, 42, "Big", 65, "2007-11-11"),
    ]
    for row in rows:
        database.execute(
            "INSERT INTO account VALUES (?, ?, ?, ?, ?)", list(row)
        )
    return database


class TestSelect:
    def test_point_query(self, db):
        result = db.execute(
            "SELECT name FROM account WHERE tenant = ? AND aid = ?", [17, 2]
        )
        assert result.rows == [("Gump",)]

    def test_star(self, db):
        result = db.execute("SELECT * FROM account WHERE tenant = 35")
        assert result.rows == [(1, 35, "Ball", None, datetime.date(2006, 1, 30))]
        assert result.columns == ["aid", "tenant", "name", "beds", "opened"]

    def test_predicates_with_null(self, db):
        result = db.execute("SELECT aid FROM account WHERE beds > 100")
        # NULL beds row must not qualify.
        assert sorted(result.rows) == [(1,), (2,)]

    def test_is_null(self, db):
        result = db.execute("SELECT tenant FROM account WHERE beds IS NULL")
        assert result.rows == [(35,)]

    def test_order_by_desc(self, db):
        result = db.execute(
            "SELECT name FROM account WHERE beds IS NOT NULL ORDER BY beds DESC"
        )
        assert [r[0] for r in result.rows] == ["Gump", "Acme", "Big"]

    def test_limit(self, db):
        result = db.execute("SELECT aid FROM account ORDER BY tenant LIMIT 2")
        assert len(result.rows) == 2

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT aid FROM account")
        assert sorted(result.rows) == [(1,), (2,)]

    def test_aggregates(self, db):
        result = db.execute(
            "SELECT COUNT(*), SUM(beds), MIN(beds), MAX(beds), AVG(beds) "
            "FROM account"
        )
        count, total, low, high, avg = result.rows[0]
        assert (count, total, low, high) == (4, 1242, 65, 1042)
        assert avg == pytest.approx(1242 / 3)  # NULL excluded

    def test_group_by_having(self, db):
        result = db.execute(
            "SELECT tenant, COUNT(*) AS n FROM account "
            "GROUP BY tenant HAVING COUNT(*) > 1"
        )
        assert result.rows == [(17, 2)]

    def test_in_list_after_grouping(self, db):
        """IN lists over group keys and aggregates in HAVING / ORDER BY
        resolve against the grouped row like any other operator."""
        head = "SELECT tenant, COUNT(*) FROM account GROUP BY tenant "
        assert db.execute(
            head + "HAVING tenant IN (17, 42) ORDER BY tenant"
        ).rows == [(17, 2), (42, 1)]
        assert db.execute(
            head + "HAVING COUNT(*) IN (1) ORDER BY tenant"
        ).rows == [(35, 1), (42, 1)]
        assert db.execute(
            head + "HAVING tenant NOT IN (35) ORDER BY COUNT(*) IN (2), tenant"
        ).rows == [(42, 1), (17, 2)]

    def test_group_by_orders_with_alias(self, db):
        result = db.execute(
            "SELECT tenant, COUNT(*) AS n FROM account GROUP BY tenant "
            "ORDER BY n DESC, tenant"
        )
        assert [r[0] for r in result.rows] == [17, 35, 42]

    def test_global_aggregate_on_empty_input(self, db):
        result = db.execute("SELECT COUNT(*) FROM account WHERE tenant = 99")
        assert result.rows == [(0,)]

    def test_in_list(self, db):
        result = db.execute(
            "SELECT name FROM account WHERE tenant IN (35, 42) ORDER BY name"
        )
        assert [r[0] for r in result.rows] == ["Ball", "Big"]

    def test_in_subquery(self, db):
        result = db.execute(
            "SELECT name FROM account WHERE tenant IN "
            "(SELECT a.tenant FROM account a WHERE a.beds > 1000)"
        )
        assert sorted(r[0] for r in result.rows) == ["Acme", "Gump"]

    def test_like(self, db):
        result = db.execute("SELECT name FROM account WHERE name LIKE 'B%'")
        assert sorted(r[0] for r in result.rows) == ["Ball", "Big"]

    def test_between(self, db):
        result = db.execute(
            "SELECT name FROM account WHERE beds BETWEEN 100 AND 200"
        )
        assert result.rows == [("Acme",)]

    def test_arithmetic_in_select(self, db):
        result = db.execute(
            "SELECT beds + 1 FROM account WHERE tenant = 17 AND aid = 1"
        )
        assert result.rows == [(136,)]

    def test_count_distinct(self, db):
        result = db.execute("SELECT COUNT(DISTINCT aid) FROM account")
        assert result.rows == [(2,)]

    def test_self_join(self, db):
        result = db.execute(
            "SELECT a.name, b.name FROM account a, account b "
            "WHERE a.tenant = b.tenant AND a.aid = 1 AND b.aid = 2"
        )
        assert result.rows == [("Acme", "Gump")]

    def test_date_comparison(self, db):
        result = db.execute(
            "SELECT name FROM account WHERE opened < '2004-01-01' ORDER BY name"
        )
        assert [r[0] for r in result.rows] == ["Acme", "Gump"]


class TestDml:
    def test_insert_with_columns(self, db):
        db.execute(
            "INSERT INTO account (aid, tenant, name) VALUES (?, ?, ?)",
            [9, 99, "New"],
        )
        result = db.execute("SELECT beds FROM account WHERE tenant = 99")
        assert result.rows == [(None,)]

    def test_insert_duplicate_key_rejected(self, db):
        with pytest.raises(UniqueViolation):
            db.execute(
                "INSERT INTO account VALUES (?, ?, ?, ?, ?)",
                [1, 17, "Dup", 1, "2008-01-01"],
            )

    def test_not_null_enforced(self, db):
        with pytest.raises(NotNullViolation):
            db.execute(
                "INSERT INTO account (aid, name) VALUES (?, ?)", [5, "NoTenant"]
            )

    def test_update_by_key(self, db):
        count = db.execute(
            "UPDATE account SET beds = ? WHERE tenant = ? AND aid = ?",
            [200, 17, 1],
        ).rowcount
        assert count == 1
        assert db.execute(
            "SELECT beds FROM account WHERE tenant = 17 AND aid = 1"
        ).rows == [(200,)]

    def test_update_expression_sees_old_row(self, db):
        db.execute("UPDATE account SET beds = beds + aid WHERE tenant = 17")
        result = db.execute(
            "SELECT beds FROM account WHERE tenant = 17 ORDER BY aid"
        )
        assert result.rows == [(136,), (1044,)]

    def test_update_indexed_column_keeps_index_consistent(self, db):
        db.execute(
            "UPDATE account SET aid = ? WHERE tenant = ? AND aid = ?", [7, 42, 1]
        )
        assert db.execute(
            "SELECT name FROM account WHERE tenant = 42 AND aid = 7"
        ).rows == [("Big",)]
        assert (
            db.execute(
                "SELECT name FROM account WHERE tenant = 42 AND aid = 1"
            ).rows
            == []
        )

    def test_delete(self, db):
        assert db.execute("DELETE FROM account WHERE tenant = 17").rowcount == 2
        assert db.execute("SELECT COUNT(*) FROM account").rows == [(2,)]

    def test_delete_everything(self, db):
        assert db.execute("DELETE FROM account").rowcount == 4

    def test_multi_row_insert(self, db):
        count = db.execute(
            "INSERT INTO account (aid, tenant) VALUES (10, 1), (11, 1), (12, 1)"
        ).rowcount
        assert count == 3


class TestDdl:
    def test_duplicate_table_rejected(self, db):
        with pytest.raises(DuplicateObjectError):
            db.execute("CREATE TABLE account (x INTEGER)")

    def test_unknown_table_rejected(self, db):
        with pytest.raises(UnknownObjectError):
            db.execute("SELECT * FROM missing")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(UnknownObjectError):
            db.execute("SELECT missing FROM account")

    def test_drop_table_frees_metadata(self, db):
        before = db.catalog.metadata_bytes
        db.execute("DROP TABLE account")
        assert db.catalog.metadata_bytes < before
        with pytest.raises(UnknownObjectError):
            db.execute("SELECT * FROM account")

    def test_create_index_backfills(self, db):
        db.execute("CREATE INDEX account_beds ON account (beds)")
        info = db.catalog.table("account").indexes["account_beds"]
        assert info.btree.entry_count == 4

    def test_metadata_shrinks_buffer_pool(self):
        small = Database(memory_bytes=256 * 1024)
        before = small.buffer_pool_pages
        for i in range(20):
            small.execute(f"CREATE TABLE t{i} (x INTEGER)")
        assert small.buffer_pool_pages < before

    def test_explain_only_for_select(self, db):
        with pytest.raises(PlanError):
            db.explain("DELETE FROM account")


class TestStatsAccounting:
    def test_point_query_reads_few_pages(self, db):
        before = db.pool_stats.snapshot()
        db.execute("SELECT name FROM account WHERE tenant = 17 AND aid = 1")
        delta = db.pool_stats.delta(before)
        assert 0 < delta.logical_total <= 4

    def test_cold_cache_costs_physical_reads(self, db):
        db.execute("SELECT name FROM account WHERE tenant = 17 AND aid = 1")
        db.flush_cache()
        before = db.pool_stats.snapshot()
        db.execute("SELECT name FROM account WHERE tenant = 17 AND aid = 1")
        delta = db.pool_stats.delta(before)
        assert delta.physical_total == delta.logical_total > 0


class TestCloseLifecycle:
    """close() must be unconditionally safe: shard workers tear engines
    down in error paths without knowing how far the open got."""

    def _open_fds_under(self, root: str) -> list[str]:
        import os

        fds = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue
            if target.startswith(root):
                fds.append(target)
        return fds

    def test_close_idempotent_memory_mode(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER)")
        db.close()
        db.close()

    def test_close_idempotent_durable_mode(self, tmp_path):
        path = str(tmp_path / "d")
        db = Database(path=path)
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.close()
        db.close()
        assert not self._open_fds_under(path)
        again = Database(path=path)
        assert again.execute("SELECT id FROM t").rows == [(1,)]
        again.close()
        again.close()

    def test_failed_open_releases_files(self, tmp_path, monkeypatch):
        import repro.engine.durability.recovery as recovery_mod

        path = str(tmp_path / "d")
        first = Database(path=path)
        first.execute("CREATE TABLE t (id INTEGER)")
        first.close()

        def boom(db):
            raise RuntimeError("simulated recovery failure")

        monkeypatch.setattr(recovery_mod, "recover", boom)
        with pytest.raises(RuntimeError):
            Database(path=path)
        monkeypatch.undo()
        assert not self._open_fds_under(path)
        # The directory is reusable after the failed open.
        db = Database(path=path)
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(0,)]
        db.close()
