"""Unit tests for the vectorized executor and its batch compiler.

The broad row/stats equivalence versus the reference interpreter
lives in the differential suites (``test_differential_sqlite.py``,
``tests/core/test_property_equivalence.py``); this file covers the
machinery itself: batch sizes, batch metrics, EXPLAIN ANALYZE parity,
and the edge cases batching could plausibly get wrong (LIMIT cutoffs
inside a batch, NULL join keys, mixed-direction ORDER BY, empty
inputs).
"""

import functools
import inspect
import os
import random
import subprocess
import sys

import pytest

from repro.engine import Database
from repro.engine.errors import ExecutionError
from repro.engine.heap import HeapStats
from repro.engine.observability import CounterWindow
from repro.engine.vexecutor import BATCH_ROWS, VectorizedExecutor
from repro.quality.corpus import (
    build_engine_database,
    build_multitenant,
    generate_query,
)
from repro.quality.harness import all_layouts

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


# -- batch index access: IXSCAN -> FETCH moves RID batches --------------------


def _heap_stats(db):
    return db.metrics.counter_set(HeapStats)


def untraced_run(db, sql, params=(), batch_rows=BATCH_ROWS):
    """One SELECT with no collector attached, inside one CounterWindow:
    ``(rows, row counters, logical reads, heap fetches)``.  At the
    default batch size it is plain ``db.execute``."""
    window = CounterWindow(
        pool=db.pool_stats, exec=db.exec_stats, heap=_heap_stats(db)
    )
    if batch_rows == BATCH_ROWS:
        rows = db.execute(sql, list(params)).rows
    else:
        executor = VectorizedExecutor(
            db.catalog, db.exec_stats, batch_rows=batch_rows
        )
        assert executor._collector is None
        rows = executor.run(db.plan(sql), list(params))
    deltas = window.deltas()
    return (
        rows,
        deltas["exec"].row_counters(),
        deltas["pool"].logical_total,
        deltas["heap"].fetches,
    )


def reference_measures(db, sql, params=()):
    heap = _heap_stats(db)
    before = heap.fetches
    rows, counters, logical, _operators = reference_run(db, sql, params)
    return rows, counters, logical, heap.fetches - before


def assert_untraced_matches_reference(db, sql, params=(), batch_rows=BATCH_ROWS):
    ours = untraced_run(db, sql, params, batch_rows)
    assert ours == reference_measures(db, sql, params), (sql, batch_rows)
    return ours


def wide_db(storage: str = "", pool_pages: int | None = None) -> Database:
    """A table whose (k, s) index spans many leaves: wide string keys,
    each repeated three times (non-unique keys with several RIDs)."""
    db = Database()
    db.execute(
        "CREATE TABLE w (id INTEGER NOT NULL, k INTEGER, s VARCHAR(60), "
        f"v INTEGER){storage}"
    )
    db.execute("CREATE UNIQUE INDEX w_pk ON w (id)")
    db.execute("CREATE INDEX w_ks ON w (k, s)")
    for i in range(1800):
        db.execute(
            "INSERT INTO w VALUES (?, ?, ?, ?)",
            [i, i % 3, f"{i // 9:045d}", (i * 7) % 31 if i % 13 else None],
        )
    if pool_pages is not None:
        db.pool.resize(pool_pages)
    return db


@functools.cache
def shared_wide_db(storage: str = "") -> Database:
    """:func:`wide_db`, built once per storage for tests that only read."""
    return wide_db(storage)


#: Index access shapes: prefix scans crossing leaves, range scans, a
#: unique full-key probe, index-only scans, an NLJOIN inner, a group.
WIDE_QUERIES = [
    ("SELECT id, v FROM w WHERE k = 1", ()),
    ("SELECT id FROM w WHERE k = ? AND v > 3", (2,)),
    ("SELECT id, s FROM w WHERE k = 0 AND s = ?", (f"{40:045d}",)),
    ("SELECT id FROM w WHERE k = 2 AND s BETWEEN ? AND ?",
     (f"{10:045d}", f"{150:045d}")),
    ("SELECT v FROM w WHERE id = 77", ()),
    ("SELECT s FROM w WHERE k = 1 ORDER BY s", ()),
    ("SELECT v, COUNT(*) FROM w WHERE k = 1 GROUP BY v", ()),
    ("SELECT a.id, b.id FROM w a, w b WHERE a.id = 5 AND b.k = a.k "
     "AND b.s = a.s", ()),
]


class TestBatchIndexAccess:
    @pytest.mark.parametrize("storage", ["", " USING columnar"])
    @pytest.mark.parametrize("batch_rows", [1, 3, BATCH_ROWS])
    def test_untraced_matches_reference(self, storage, batch_rows):
        db = shared_wide_db(storage)
        index = db.catalog.table("w").indexes["w_ks"].btree
        assert index.height > 1
        for sql, params in WIDE_QUERIES:
            assert_untraced_matches_reference(db, sql, params, batch_rows)

    def test_prefix_runs_cross_leaves_and_batches(self):
        """The k = 1 run spans several leaves and, at 256 rows a batch,
        more than one batch; the scan still reads each leaf once."""
        db = shared_wide_db()
        info = db.catalog.table("w").indexes["w_ks"]
        before = db.pool_stats.snapshot()
        batches = list(info.btree.prefix_batches((1,), BATCH_ROWS))
        index_reads = db.pool_stats.delta(before).logical_index
        leaves = index_reads - (info.btree.height - 1)
        assert leaves > 2
        assert len(batches) == 3 and [len(b) for b in batches] == [256, 256, 88]
        flat = [entry for batch in batches for entry in batch]
        assert [key for key, _ in flat] == sorted(key for key, _ in flat)
        assert len({key for key, _ in flat}) == 200  # three RIDs per key

    def test_next_leaf_is_read_only_when_a_batch_needs_it(self):
        """A batch boundary on a leaf's last entry leaves the next leaf
        unread until the consumer asks for more."""
        db = shared_wide_db()
        btree = db.catalog.table("w").indexes["w_ks"].btree
        _path, page = btree._descend((1,))
        first_leaf = sum(
            len(rids)
            for key, rids in zip(page.payload.keys, page.payload.rid_lists)
            if key[0] == 1
        )
        assert 0 < first_leaf < 600  # the run does not fit one leaf
        before = db.pool_stats.snapshot()
        batches = btree.prefix_batches((1,), first_leaf)
        next(batches)
        reads = db.pool_stats.delta(before).logical_index
        assert reads == btree.height  # the descent only
        next(batches)
        assert db.pool_stats.delta(before).logical_index == reads + 1

    @pytest.mark.parametrize("layout", all_layouts())
    def test_every_layout_untraced_matches_reference(self, layout):
        if layout == "conventional":
            db, transform = build_engine_database(), (lambda sql: sql)
        else:
            mtd = build_multitenant(layout, primary_tenant=1)
            db, transform = mtd.db, (lambda sql: mtd.transform_sql(1, sql))
        queries = [
            "SELECT c.id, c.val FROM c WHERE c.parent = 7",
            "SELECT c.id FROM c WHERE c.parent BETWEEN 5 AND 30",
            "SELECT p.id, c.val FROM p, c WHERE p.id = c.parent AND p.grp = 3",
        ] + [generate_query(seed) for seed in (1, 4, 11, 12)]  # not 3-way joins
        for sql in queries:
            for batch_rows in (1, 3, BATCH_ROWS):
                assert_untraced_matches_reference(db, transform(sql), (), batch_rows)


class TestFetchMany:
    @pytest.mark.parametrize("storage", ["", " USING columnar"])
    def test_small_pool_same_physical_reads_as_per_row(self, storage):
        """Under an 8-frame pool, fetching runs of RIDs costs the same
        physical reads and evictions, and leaves the same LRU order, as
        one fetch per RID."""
        outcomes = []
        for batched in (False, True):
            rng = random.Random(5)
            db = wide_db(storage, pool_pages=8)
            heap = db.catalog.table("w").heap
            rids = [rid for rid, _row in heap.scan()]
            picks = []
            for _ in range(60):  # runs of RIDs on one page, random pages
                start = rng.randrange(len(rids))
                picks += rids[start : start + rng.randrange(1, 12)]
            before = db.pool_stats.snapshot()
            if batched:
                rows = heap.fetch_many(picks)
            else:
                rows = [heap.fetch(rid) for rid in picks]
            delta = db.pool_stats.delta(before)
            outcomes.append(
                (
                    rows,
                    delta.logical_data,
                    delta.physical_data,
                    delta.evictions,
                    list(db.pool._frames),
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] > 0 and outcomes[0][3] > 0

    def test_small_pool_executor_same_physical_reads(self):
        """End to end: at batch size 1 the executor touches pages in the
        reference's order, so even physical reads and evictions agree."""
        measures = []
        for run in ("reference", "executor"):
            db = wide_db(pool_pages=8)
            window = CounterWindow(pool=db.pool_stats)
            for sql, params in WIDE_QUERIES:
                if run == "reference":
                    reference_run(db, sql, params)
                else:
                    untraced_run(db, sql, params, batch_rows=1)
            pool = window.deltas()["pool"]
            measures.append((pool.physical_total, pool.evictions))
        assert measures[0] == measures[1]
        assert measures[0][0] > 0

    def test_read_run_counts_each_row(self):
        db = wide_db()
        page_id = db.catalog.table("w").heap.page_ids()[0]
        before = db.pool_stats.snapshot()
        db.pool.read_run(page_id, 5)
        assert db.pool_stats.delta(before).logical_data == 5

    @pytest.mark.parametrize("storage", ["", " USING columnar"])
    def test_dangling_rid_still_raises(self, storage):
        db = wide_db(storage)
        heap = db.catalog.table("w").heap
        rids = [rid for rid, _row in heap.scan()][:5]
        heap.delete(rids[2])
        with pytest.raises(ExecutionError, match="dangling RID"):
            heap.fetch_many(rids)
        with pytest.raises(ExecutionError, match="dangling RID"):
            heap.fetch_many([(rids[0][0], 10_000)])

    @pytest.mark.parametrize("storage", ["", " USING columnar"])
    def test_sanitizer_sees_every_fetched_row(self, storage):
        db = wide_db(storage)

        class Recorder:
            def __init__(self):
                self.accesses = []

            def on_row_access(self, resource, *, write):
                self.accesses.append((resource, write))

        recorder = db.pool.sanitizer = Recorder()
        heap = db.catalog.table("w").heap
        window = CounterWindow(exec=db.exec_stats, heap=_heap_stats(db))
        rows = db.execute("SELECT id, v FROM w WHERE k = 1").rows
        fetched = window.deltas()["exec"].rows_fetched
        assert len(rows) == fetched == 600
        assert window.deltas()["heap"].fetches == fetched
        info = db.catalog.table("w").indexes["w_ks"]
        expected = [
            ((heap.segment_id, *rid), False)
            for batch in info.btree.prefix_batches((1,), 7)
            for _key, rid in batch
        ]
        assert recorder.accesses == expected
