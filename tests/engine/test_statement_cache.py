"""Engine plan cache and prepared statements.

Covers the cache's three contracts: correctness (prepared execution ≡
ad-hoc execution), reuse (repeated texts skip parse+plan, observable
through ``db.plan_cache.*`` metrics and ``QueryTrace.cache_hit``), and
invalidation (any CREATE/DROP TABLE/INDEX bumps ``Catalog.version`` and
forces a re-plan; so does switching the optimizer profile).
"""

import pytest

from repro.engine.database import Database
from repro.engine.errors import PlanError, SemanticError, UnknownObjectError
from repro.engine.optimizer import Planner
from repro.engine.optimizer import OptimizerProfile
from repro.engine.sql import ast
from repro.engine.sql.parser import parse_statement
from repro.engine.statement_cache import LruCache, count_params


def make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.execute("CREATE TABLE t (id INTEGER NOT NULL, grp INTEGER, name VARCHAR(20))")
    db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
    for i in range(20):
        db.execute("INSERT INTO t VALUES (?, ?, ?)", [i, i % 4, f"n{i}"])
    return db


def counter(db: Database, name: str) -> float:
    return db.metrics.value(f"db.plan_cache.{name}")


class TestLruCache:
    def test_evicts_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_capacity_zero_disables(self):
        cache = LruCache(0)
        cache.put("a", 1)
        assert not cache.enabled
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear_reports_count(self):
        cache = LruCache(8)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCountParams:
    def test_counts_highest_slot(self):
        stmt = parse_statement("SELECT name FROM t WHERE id = ? AND grp > ?")
        assert count_params(stmt) == 2

    def test_zero_without_params(self):
        assert count_params(parse_statement("SELECT * FROM t")) == 0

    def test_sees_params_in_dml(self):
        stmt = parse_statement("UPDATE t SET name = ? WHERE id = ?")
        assert count_params(stmt) == 2


class TestPreparedStatements:
    def test_prepared_select_matches_adhoc(self):
        db = make_db()
        prepared = db.prepare("SELECT name FROM t WHERE id = ?")
        for i in (3, 7, 11):
            assert prepared.execute([i]).rows == db.execute(
                "SELECT name FROM t WHERE id = ?", [i]
            ).rows

    def test_prepared_insert_and_update_and_delete(self):
        db = make_db()
        insert = db.prepare("INSERT INTO t VALUES (?, ?, ?)")
        insert.execute([100, 1, "x"])
        insert.execute([101, 1, "y"])
        update = db.prepare("UPDATE t SET name = ? WHERE id = ?")
        assert update.execute(["z", 100]).rowcount == 1
        delete = db.prepare("DELETE FROM t WHERE id = ?")
        assert delete.execute([101]).rowcount == 1
        assert db.execute("SELECT name FROM t WHERE id = ?", [100]).rows == [("z",)]
        assert db.execute("SELECT name FROM t WHERE id = ?", [101]).rows == []

    def test_prepare_rejects_ddl(self):
        db = make_db()
        with pytest.raises(PlanError):
            db.prepare("CREATE TABLE u (id INTEGER)")

    def test_prepare_shares_cache_entry(self):
        db = make_db()
        first = db.prepare("SELECT COUNT(*) FROM t")
        second = db.prepare("SELECT COUNT(*) FROM t")
        assert first is second

    @pytest.mark.parametrize("execute_first", [False, True])
    def test_prepare_analyzes_whether_or_not_execute_cached_it(
        self, execute_first
    ):
        """``prepare`` takes the plan cache's own lookup: the verdict
        and the hit/miss count do not depend on whether ``execute`` put
        the text in the cache first."""
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        sql = "SELECT x FROM t WHERE x = 'abc'"
        if execute_first:
            db.execute(sql)
        hits, misses = counter(db, "hits"), counter(db, "misses")
        with pytest.raises(SemanticError) as raised:
            db.prepare(sql)
        assert [f.rule_id for f in raised.value.findings] == ["SEM007"]
        assert counter(db, "hits") - hits == int(execute_first)
        assert counter(db, "misses") - misses == int(not execute_first)

    def test_execute_ast_skips_text_round_trip(self):
        db = make_db()
        stmt = parse_statement("SELECT name FROM t WHERE id = ?")
        assert db.execute_ast(stmt, [5]).rows == [("n5",)]
        delete = ast.Delete(
            "t", ast.BinaryOp("=", ast.ColumnRef(None, "id"), ast.Literal(5))
        )
        assert db.execute_ast(delete).rowcount == 1


class TestPlanCacheReuse:
    def test_repeated_execute_hits(self):
        db = make_db()
        sql = "SELECT name FROM t WHERE id = ?"
        db.execute(sql, [1])
        misses = counter(db, "misses")
        db.execute(sql, [2])
        db.execute(sql, [3])
        assert counter(db, "hits") >= 2
        assert counter(db, "misses") == misses  # no new parse

    def test_cached_plan_hands_each_result_its_own_column_names(self):
        db = make_db()
        sql = "SELECT id, name AS label FROM t WHERE grp = ?"
        first = db.execute(sql, [1])
        second = db.execute(sql, [2])
        assert counter(db, "hits") >= 1
        assert first.columns == second.columns == ["id", "label"]
        assert first.columns is not second.columns
        first.columns.append("mutated")
        assert db.execute(sql, [3]).columns == ["id", "label"]

    def test_trace_flags_cache_hit(self):
        db = make_db()
        sql = "SELECT name FROM t WHERE grp = ?"
        assert db.trace(sql, [1]).cache_hit is False
        assert db.trace(sql, [2]).cache_hit is True

    def test_eviction_counted(self):
        db = make_db(plan_cache_size=2)
        for i in range(4):
            db.execute(f"SELECT COUNT(*) FROM t WHERE grp = {i}")
        assert counter(db, "evictions") >= 1

    def test_disabled_cache_still_correct(self):
        db = make_db(plan_cache_size=0)
        sql = "SELECT name FROM t WHERE id = ?"
        assert db.execute(sql, [4]).rows == [("n4",)]
        assert db.execute(sql, [4]).rows == [("n4",)]
        assert counter(db, "hits") == 0
        assert counter(db, "misses") == 0


class TestInvalidation:
    def test_ddl_bumps_catalog_version(self):
        db = make_db()
        version = db.catalog.version
        db.execute("CREATE TABLE u (id INTEGER)")
        db.execute("CREATE INDEX u_id ON u (id)")
        db.execute("DROP INDEX u_id ON u")
        db.execute("DROP TABLE u")
        assert db.catalog.version == version + 4

    def test_create_index_replans_cached_select(self):
        db = make_db()
        sql = "SELECT name FROM t WHERE grp = ?"
        db.execute(sql, [1])
        db.execute(sql, [1])  # plan now cached and reused
        db.execute("CREATE INDEX t_grp ON t (grp)")
        invalidations = counter(db, "invalidations")
        result = db.execute(sql, [1])
        assert counter(db, "invalidations") == invalidations + 1
        assert sorted(result.rows) == sorted(
            [(f"n{i}",) for i in range(20) if i % 4 == 1]
        )
        # The re-planned statement actually uses the new index.
        assert "t_grp" in db.explain(sql)

    def test_dropped_table_not_served_stale(self):
        db = make_db()
        db.execute("CREATE TABLE u (id INTEGER)")
        db.execute("INSERT INTO u VALUES (1)")
        sql = "SELECT * FROM u"
        assert db.execute(sql).rows == [(1,)]
        db.execute("DROP TABLE u")
        with pytest.raises(UnknownObjectError):
            db.execute(sql)

    def test_profile_switch_replans(self):
        db = make_db()
        sql = "SELECT COUNT(*) FROM t"
        db.execute(sql)
        db.execute(sql)
        db.profile = OptimizerProfile.SIMPLE
        invalidations = counter(db, "invalidations")
        assert db.execute(sql).scalar() == 20
        assert counter(db, "invalidations") == invalidations + 1

    def test_prepared_insert_revalidates_after_ddl(self):
        db = make_db()
        insert = db.prepare("INSERT INTO t VALUES (?, ?, ?)")
        insert.execute([200, 0, "a"])
        db.execute("CREATE INDEX t_name ON t (name)")
        insert.execute([201, 0, "b"])  # re-compiled against new version
        rows = db.execute("SELECT id FROM t WHERE name = ?", ["b"]).rows
        assert rows == [(201,)]


class TestDmlPrograms:
    """UPDATE/DELETE compile once per handle, like INSERT: the program
    is kept until ``catalog.version`` moves, and what depends on the
    parameter values is decided per run."""

    def test_warm_handle_compiles_nothing(self, monkeypatch):
        db = make_db()
        compiled = []
        original = db._compile_dml
        monkeypatch.setattr(
            db, "_compile_dml", lambda stmt: compiled.append(stmt) or original(stmt)
        )
        update = db.prepare("UPDATE t SET name = ? WHERE id = ?")
        delete = db.prepare("DELETE FROM t WHERE id = ?")
        for i in range(5):
            assert update.execute([f"u{i}", i]).rowcount == 1
            assert delete.execute([10 + i]).rowcount == 1
        assert len(compiled) == 2
        assert counter(db, "adhoc") == 0
        assert db.execute("SELECT name FROM t WHERE id = 3").rows == [("u3",)]

    def test_adhoc_counts_what_no_handle_keeps(self):
        db = make_db()
        before = counter(db, "adhoc")
        db.execute_ast(parse_statement("UPDATE t SET name = 'a' WHERE id = 1"))
        db.execute_ast(parse_statement("SELECT name FROM t WHERE id = 1"))
        assert counter(db, "adhoc") == before + 2
        db.execute("SELECT name FROM t WHERE id = 1")
        db.prepare("DELETE FROM t WHERE id = ?").execute([1])
        assert counter(db, "adhoc") == before + 2  # handles keep theirs
        off = make_db(plan_cache_size=0)
        before = counter(off, "adhoc")
        off.execute("UPDATE t SET name = 'a' WHERE id = 1")
        assert counter(off, "adhoc") == before + 1  # nothing to keep it in

    def test_create_index_rechooses_program_index(self):
        db = make_db()
        update = db.prepare("UPDATE t SET name = ? WHERE grp = ?")
        scanned = db.exec_stats.rows_scanned
        assert update.execute(["a", 1]).rowcount == 5
        assert db.exec_stats.rows_scanned == scanned + 20  # no index on grp
        db.execute("CREATE INDEX t_grp ON t (grp)")
        invalidations = counter(db, "invalidations")
        scanned, lookups = db.exec_stats.rows_scanned, db.exec_stats.index_lookups
        assert update.execute(["b", 1]).rowcount == 5
        assert counter(db, "invalidations") == invalidations + 1
        assert db.exec_stats.rows_scanned == scanned
        assert db.exec_stats.index_lookups == lookups + 1
        db.execute("DROP INDEX t_grp ON t")
        assert update.execute(["c", 1]).rowcount == 5  # index gone: scans
        assert db.execute("SELECT COUNT(*) FROM t WHERE name = 'c'").scalar() == 5

    def test_unevaluable_constant_falls_back_per_run(self):
        """A short parameter list raises where the index key is
        evaluated, prepared and ad hoc alike, as the SELECT with the
        same WHERE does; the next run with a full parameter list takes
        the index again."""
        from repro.engine.errors import ExecutionError

        db = make_db()
        delete = db.prepare("DELETE FROM t WHERE id = ?")
        lookups = db.exec_stats.index_lookups
        assert delete.execute([3]).rowcount == 1
        assert db.exec_stats.index_lookups == lookups + 1
        with pytest.raises(ExecutionError):
            delete.execute([])
        with pytest.raises(ExecutionError):
            db.execute_ast(parse_statement("DELETE FROM t WHERE id = ?"), [])
        with pytest.raises(ExecutionError):
            db.execute("SELECT * FROM t WHERE id = ?", [])
        lookups = db.exec_stats.index_lookups
        assert delete.execute([4]).rowcount == 1
        assert db.exec_stats.index_lookups == lookups + 1
        # The index key is all the short list is asked for: no row is
        # fetched, so the missing parameter is never noticed.
        sql = "UPDATE t SET name = 'x' WHERE id = ? AND grp = ?"
        both = db.prepare(sql)
        assert both.execute([5, 1]).rowcount == 1
        lookups = db.exec_stats.index_lookups
        assert both.execute([999]).rowcount == 0
        assert db.execute_ast(parse_statement(sql), [999]).rowcount == 0
        assert db.exec_stats.index_lookups == lookups + 2

    def test_in_subquery_reruns_per_execution(self):
        """Compiled expressions outlive one execution (plans, programs);
        an uncorrelated subquery's value set must not."""
        db = make_db()
        db.execute("CREATE TABLE picks (id INTEGER)")
        db.execute("INSERT INTO picks VALUES (1)")
        select = db.prepare("SELECT id FROM t WHERE id IN (SELECT id FROM picks)")
        update = db.prepare(
            "UPDATE t SET name = 'picked' WHERE id IN (SELECT id FROM picks)"
        )
        assert select.execute().rows == [(1,)]
        assert update.execute().rowcount == 1
        db.execute("INSERT INTO picks VALUES (2)")
        assert sorted(select.execute().rows) == [(1,), (2,)]
        assert update.execute().rowcount == 2

    def test_select_loop_never_replans(self, monkeypatch):
        db = make_db()
        sql = "SELECT name FROM t WHERE id = ?"
        db.execute(sql, [1])
        planned = []
        original = Planner.plan_select
        monkeypatch.setattr(
            Planner,
            "plan_select",
            lambda self, *a, **k: planned.append(1) or original(self, *a, **k),
        )
        for i in range(5):
            db.execute(sql, [i])
        assert not planned and counter(db, "adhoc") == 0
