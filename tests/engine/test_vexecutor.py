"""Unit tests for the vectorized executor and its batch compiler.

The broad row/stats equivalence versus the tuple engine lives in the
differential suites (``test_differential_sqlite.py`` cross-engine class,
``tests/core/test_property_equivalence.py``); this file covers the
machinery itself: the execution-mode switch, plan-cache keying across
engines, the batch-size knob, batch metrics, EXPLAIN ANALYZE parity,
and the edge cases batching could plausibly get wrong (LIMIT cutoffs
inside a batch, NULL join keys, mixed-direction ORDER BY, empty
inputs).
"""

import pytest

from repro.engine import Database
from repro.engine.errors import EngineError
from repro.engine.executor import Executor
from repro.engine.vexecutor import VectorizedExecutor


def make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, g INTEGER, v INTEGER, "
        "name VARCHAR(20))"
    )
    db.execute("CREATE UNIQUE INDEX t_pk ON t (id)")
    for i in range(1, 101):
        db.execute(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            [i, i % 5, (i * 7) % 23 if i % 11 else None, f"n{i % 13}"],
        )
    return db


class TestExecutionMode:
    def test_vectorized_is_the_default(self):
        db = Database()
        assert db.execution == "vectorized"
        assert isinstance(db._executor, VectorizedExecutor)

    def test_switching_engines(self):
        db = make_db()
        db.execution = "tuple"
        assert isinstance(db._executor, Executor)
        db.execution = "vectorized"
        assert isinstance(db._executor, VectorizedExecutor)

    def test_unknown_mode_rejected(self):
        db = Database()
        with pytest.raises(EngineError):
            db.execution = "columnar"

    def test_stats_are_shared_across_engines(self):
        db = make_db()
        before = db.exec_stats.statements
        db.execute("SELECT COUNT(*) FROM t")
        db.execution = "tuple"
        db.execute("SELECT COUNT(*) FROM t")
        assert db.exec_stats.statements == before + 2

    def test_cached_plan_never_crosses_engines(self):
        db = make_db()
        sql = "SELECT g, COUNT(*) FROM t GROUP BY g"
        db.execute(sql)
        prepared = db._statements.get(sql)
        assert prepared is not None and prepared.execution == "vectorized"
        invalidations = db.metrics.counter("db.plan_cache.invalidations")
        before = invalidations.value
        db.execution = "tuple"
        db.execute(sql)
        assert prepared.execution == "tuple"
        assert invalidations.value == before + 1


class TestBatchSizes:
    @pytest.mark.parametrize("batch_rows", [1, 2, 7, 256, 10_000])
    def test_any_batch_size_same_answers(self, batch_rows):
        db = make_db(batch_rows=batch_rows)
        reference = make_db(execution="tuple")
        for sql in (
            "SELECT id FROM t WHERE g = 3 ORDER BY id",
            "SELECT g, COUNT(*), SUM(v), MIN(name) FROM t GROUP BY g",
            "SELECT DISTINCT name FROM t",
            "SELECT id FROM t ORDER BY v DESC, id LIMIT 9",
        ):
            assert db.execute(sql).rows == reference.execute(sql).rows, sql

    def test_limit_cuts_inside_a_batch(self):
        db = make_db(batch_rows=8)
        rows = db.execute("SELECT id FROM t ORDER BY id LIMIT 11").rows
        assert rows == [(i,) for i in range(1, 12)]

    def test_limit_zero(self):
        db = make_db()
        assert db.execute("SELECT id FROM t ORDER BY id LIMIT 0").rows == []


class TestBatchMetrics:
    def test_batches_counter_and_histogram(self):
        db = make_db()
        before = db.metrics.value("db.exec.batches")
        db.execute("SELECT g, COUNT(*) FROM t GROUP BY g")
        histogram = db.metrics.histogram("mt.exec.batch_rows")
        assert db.metrics.value("db.exec.batches") > before
        assert histogram.count > 0
        assert db.exec_stats.batches > 0

    def test_tuple_engine_advances_no_batches(self):
        db = make_db(execution="tuple")
        db.execute("SELECT g, COUNT(*) FROM t GROUP BY g")
        assert db.exec_stats.batches == 0

    def test_trace_surfaces_batches(self):
        db = make_db()
        trace = db.trace("SELECT COUNT(*) FROM t")
        assert trace.exec.batches > 0
        assert "batches=" in trace.render()


class TestAnalyzeParity:
    def test_explain_analyze_rows_match_tuple_engine(self):
        sql = (
            "SELECT a.g, COUNT(*) FROM t a, t b "
            "WHERE a.id = b.id AND a.g = 2 GROUP BY a.g"
        )

        def operator_rows(db):
            trace = db.trace(sql, analyze=True)
            return [(op.op_name, op.rows) for op in trace.operators]

        assert operator_rows(make_db()) == operator_rows(
            make_db(execution="tuple")
        )


class TestBatchedEdgeCases:
    def test_null_join_keys_never_match(self):
        db = Database()
        db.execute("CREATE TABLE l (k INTEGER, x INTEGER)")
        db.execute("CREATE TABLE r (k INTEGER, y INTEGER)")
        for k, x in [(1, 10), (None, 20), (2, 30)]:
            db.execute("INSERT INTO l VALUES (?, ?)", [k, x])
        for k, y in [(1, 100), (None, 200), (3, 300)]:
            db.execute("INSERT INTO r VALUES (?, ?)", [k, y])
        rows = db.execute(
            "SELECT l.x, r.y FROM l, r WHERE l.k = r.k"
        ).rows
        assert rows == [(10, 100)]

    def test_global_aggregate_over_empty_input(self):
        db = Database()
        db.execute("CREATE TABLE e (a INTEGER)")
        assert db.execute(
            "SELECT COUNT(*), SUM(a), MIN(a) FROM e"
        ).rows == [(0, None, None)]

    def test_mixed_direction_order_by(self):
        db = make_db()
        reference = make_db(execution="tuple")
        sql = "SELECT g, id FROM t ORDER BY g DESC, id ASC"
        ours = db.execute(sql).rows
        assert ours == reference.execute(sql).rows
        assert ours[0][0] == 4 and ours[0][1] < ours[1][1]

    def test_order_by_with_nulls(self):
        db = make_db()
        reference = make_db(execution="tuple")
        sql = "SELECT v, id FROM t ORDER BY v, id"
        ours = db.execute(sql).rows
        assert ours == reference.execute(sql).rows
        assert ours[0][0] is None  # NULLs sort first, both engines

    def test_count_distinct_and_avg(self):
        db = make_db()
        reference = make_db(execution="tuple")
        sql = "SELECT g, COUNT(DISTINCT name), AVG(v) FROM t GROUP BY g"
        assert db.execute(sql).rows == reference.execute(sql).rows


class TestHeapScanBatches:
    def test_scan_batches_matches_scan(self):
        db = make_db()
        heap = db.catalog.table("t").heap
        rows = [row for _rid, row in heap.scan()]
        for batch_rows in (1, 16, 1000):
            batches = list(heap.scan_batches(batch_rows))
            assert [r for batch in batches for r in batch] == rows
            assert all(len(batch) <= batch_rows for batch in batches)

    def test_scan_batches_same_page_accounting(self):
        db = make_db()
        heap = db.catalog.table("t").heap
        before = db.pool_stats.snapshot()
        list(heap.scan())
        via_scan = db.pool_stats.delta(before).logical_total
        before = db.pool_stats.snapshot()
        list(heap.scan_batches(64))
        assert db.pool_stats.delta(before).logical_total == via_scan
