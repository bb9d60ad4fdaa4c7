"""Unit tests for the vectorized executor and its batch compiler.

The broad row/stats equivalence versus the reference interpreter
lives in the differential suites (``test_differential_sqlite.py``,
``tests/core/test_property_equivalence.py``); this file covers the
machinery itself: batch sizes, batch metrics, EXPLAIN ANALYZE parity,
and the edge cases batching could plausibly get wrong (LIMIT cutoffs
inside a batch, NULL join keys, mixed-direction ORDER BY, empty
inputs).
"""

import inspect
import os
import subprocess
import sys

import pytest

from repro.engine import Database
from repro.engine.vexecutor import VectorizedExecutor

from ..conftest import assert_matches_reference, reference_run


def make_db() -> Database:
    db = Database()
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


class TestOneExecutor:
    def test_nothing_served_imports_the_reference(self):
        """Whoever compares against the reference builds it."""
        code = (
            "import sys, repro, repro.engine, repro.core, repro.cluster, "
            "repro.testbed, repro.experiments, repro.analysis\n"
            "assert 'repro.engine.executor' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=60, env=env
        )

    def test_a_database_has_no_executor_options(self):
        parameters = inspect.signature(Database.__init__).parameters
        assert not {"execution", "batch_rows", "enforce_budget"} & set(parameters)
        assert isinstance(Database()._executor, VectorizedExecutor)


class TestBatchSizes:
    @pytest.mark.parametrize("batch_rows", [1, 2, 7, 256, 10_000])
    def test_any_batch_size_same_answers(self, batch_rows):
        db = make_db()
        executor = VectorizedExecutor(db.catalog, batch_rows=batch_rows)
        for sql in (
            "SELECT id FROM t WHERE g = 3 ORDER BY id",
            "SELECT g, COUNT(*), SUM(v), MIN(name) FROM t GROUP BY g",
            "SELECT DISTINCT name FROM t",
            "SELECT id FROM t ORDER BY v DESC, id LIMIT 9",
        ):
            assert executor.run(db.plan(sql)) == reference_run(db, sql)[0], sql

    def test_limit_cuts_inside_a_batch(self):
        db = make_db()
        plan = db.plan("SELECT id FROM t ORDER BY id LIMIT 11")
        rows = VectorizedExecutor(db.catalog, batch_rows=8).run(plan)
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

    def test_trace_surfaces_batches(self):
        db = make_db()
        trace = db.trace("SELECT COUNT(*) FROM t")
        assert trace.exec.batches > 0
        assert "batches=" in trace.render()


class TestAnalyzeParity:
    def test_explain_analyze_rows_match_tuple_engine(self):
        db = make_db()
        sql = (
            "SELECT a.g, COUNT(*) FROM t a, t b "
            "WHERE a.id = b.id AND a.g = 2 GROUP BY a.g"
        )
        assert_matches_reference(db, sql)


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
        ours = assert_matches_reference(
            db, "SELECT g, id FROM t ORDER BY g DESC, id ASC"
        )
        assert ours[0][0] == 4 and ours[0][1] < ours[1][1]

    def test_order_by_with_nulls(self):
        db = make_db()
        ours = assert_matches_reference(db, "SELECT v, id FROM t ORDER BY v, id")
        assert ours[0][0] is None  # NULLs sort first

    def test_count_distinct_and_avg(self):
        db = make_db()
        assert_matches_reference(
            db, "SELECT g, COUNT(DISTINCT name), AVG(v) FROM t GROUP BY g"
        )


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
