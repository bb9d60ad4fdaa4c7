"""Unit tests for the vectorized executor and its batch compiler.

Answers are held to SQLite and work to pinned lines (``conftest.py``),
here and in the differential suites; this file covers the machinery
itself: batch sizes, batch metrics, EXPLAIN ANALYZE, and the edge cases
batching could plausibly get wrong (LIMIT cutoffs inside a batch, NULL
join keys, mixed-direction ORDER BY, empty inputs, mixed-type and NULL
aggregates).
"""

import ast
import functools
import importlib.util
import inspect
import pathlib
import random
import sqlite3

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import Database
from repro.engine.errors import ExecutionError
from repro.engine.heap import HeapStats
from repro.engine.observability import CounterWindow
from repro.engine.vexecutor import BATCH_ROWS, ExecStats, VectorizedExecutor
from repro.quality.corpus import generate_query
from repro.quality.harness import all_layouts

from ..conftest import (
    FORMER_STORAGE_SUFFIXES,
    assert_pinned_work,
    corpus_db,
    normalize,
    pinned_work,
    rows_digest,
    traced_work,
)

def make_db(db=None):
    """Table ``t`` in a new database, or in ``db`` (a SQLite one)."""
    db = Database() if db is None else db
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


def same_as_sqlite(sql, rows=None):
    """Hold ``rows`` (by default ``sql``'s on :func:`make_db`) to SQLite's:
    in order under ORDER BY, as a multiset otherwise.  Returns them."""
    rows = make_db().execute(sql).rows if rows is None else rows
    theirs = make_db(sqlite3.connect(":memory:")).execute(sql).fetchall()
    if "ORDER BY" in sql:
        assert rows == theirs, sql
    else:
        assert normalize(rows) == normalize(theirs), sql
    return rows


class TestOneExecutor:
    def test_nothing_served_imports_the_reference(self):
        """The tuple-at-a-time interpreter is gone, and no source file
        imports a module named ``executor``."""
        assert importlib.util.find_spec("repro.engine.executor") is None
        repo = pathlib.Path(__file__).resolve().parents[2]
        importers = [
            f"{path}:{node.lineno}"
            for top in ("src", "tests", "benchmarks", "examples")
            for path in (repo / top).rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and "executor" in {
                *(getattr(node, "module", None) or "").split("."),
                *(part for a in node.names for part in a.name.split(".")),
            }
        ]
        assert importers == []

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
            same_as_sqlite(sql, executor.run(db.plan(sql)))

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
        assert_pinned_work(db, "t", sql)


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
        ours = same_as_sqlite("SELECT g, id FROM t ORDER BY g DESC, id ASC")
        assert ours[0][0] == 4 and ours[0][1] < ours[1][1]

    def test_order_by_with_nulls(self):
        ours = same_as_sqlite("SELECT v, id FROM t ORDER BY v, id")
        assert ours[0][0] is None  # NULLs sort first

    def test_count_distinct_and_avg(self):
        same_as_sqlite("SELECT g, COUNT(DISTINCT name), AVG(v) FROM t GROUP BY g")


def ibds_tables(**tables):
    """An engine and a SQLite database holding ``(i, b, d, s)`` tables."""
    db, lite = Database(), sqlite3.connect(":memory:")
    for name, rows in tables.items():
        for target in (db, lite):
            target.execute(
                f"CREATE TABLE {name} (i INTEGER, b BOOLEAN, d DOUBLE, "
                "s VARCHAR(5))"
            )
            for row in rows:
                target.execute(f"INSERT INTO {name} VALUES (?, ?, ?, ?)", row)
    return db, lite


#: Per group ``s``, ``COALESCE(b, d, i)`` is True, 2.5, 1 ('a'), NULL
#: twice ('b'), and 1.0, 4, 0.5, 1 ('c').
AGG_ROWS = [
    (1, True, None, "a"), (None, None, 2.5, "a"), (1, None, None, "a"),
    (None, None, None, "b"), (None, None, None, "b"), (4, None, 1.0, "c"),
    (4, None, None, "c"), (None, None, 0.5, "c"), (1, None, None, "c"),
]

#: ``(aggregates, rows per group, SQLite agrees)`` off the homogeneous
#: fast path: MIN/MAX over mixed types order by ``sort_key`` (BOOLEAN
#: below numbers; SQLite stores True as 1), DISTINCT skips NULLs and keeps
#: the first of equal values (True = 1 = 1.0), all-NULL folds to NULL/0.
AGG_CASES = [
    ("MIN(COALESCE(b, d, i)), MAX(COALESCE(b, d, i))",
     [("a", True, 2.5), ("b", None, None), ("c", 0.5, 4)], False),
    ("MIN(COALESCE(d, i)), MAX(COALESCE(d, i))",
     [("a", 1, 2.5), ("b", None, None), ("c", 0.5, 4)], True),
    ("COUNT(DISTINCT i), SUM(DISTINCT i), COUNT(i), COUNT(*)",
     [("a", 1, 1, 2, 3), ("b", 0, None, 0, 2), ("c", 2, 5, 3, 4)], True),
    ("COUNT(DISTINCT COALESCE(b, d, i)), SUM(DISTINCT COALESCE(b, d, i))",
     [("a", 2, 3.5), ("b", 0, None), ("c", 3, 5.5)], True),
    ("AVG(d), AVG(i), SUM(d)", [("a", 2.5, 1.0, 2.5), ("b", None, None, None),
                               ("c", 0.75, 3.0, 1.5)], True),
]


class TestAggregateEdges:
    @pytest.mark.parametrize("aggregates, expected, sqlite_agrees", AGG_CASES)
    def test_hand_written_rows(self, aggregates, expected, sqlite_agrees):
        sql = f"SELECT s, {aggregates} FROM m GROUP BY s ORDER BY s"
        db, lite = ibds_tables(m=AGG_ROWS)
        rows = db.execute(sql).rows
        assert repr(rows) == repr(expected)  # type-exact: True, 1 and 1.0
        if sqlite_agrees:
            assert rows == lite.execute(sql).fetchall()


class RowSemantics(VectorizedExecutor):
    """HSJOIN as row tuples, batch for batch: the join concatenates each
    left row with its build-order matches and yields one batch per left
    batch with a match, so GRPBY above it folds row lists, not gathered
    columns.  The column-at-a-time join must equal it in rows, order and
    every :class:`ExecStats` counter, ``batches`` included."""

    def _hsjoin(self, node, outer_row, params, cache):
        table = {}
        for batch in self._batches(node.right, (), params, cache):
            for row in batch:
                key = tuple(k(row, params) for k in node.right_keys)
                if None not in key:
                    table.setdefault(key, []).append(row)
        for batch in self._batches(node.left, outer_row, params, cache):
            out = []
            for row in batch:
                key = tuple(k(row, params) for k in node.left_keys)
                for match in table.get(key, ()) if None not in key else ():
                    self.stats.rows_joined += 1
                    out.append(row + match)
            if out:
                yield out


class RowScans(VectorizedExecutor):
    """Scans of the tables in ``row_tables`` hand their batches on as
    row-tuple lists, the batches a FETCH feeds a join."""

    row_tables: frozenset = frozenset()

    def _scan_table(self, node, params):
        for batch in super()._scan_table(node, params):
            yield list(batch) if node.table_name in self.row_tables else batch


_JOIN_ROW = st.tuples(
    st.sampled_from([0, 1, 2, None]),
    st.sampled_from([True, False, None]),
    st.sampled_from([1.0, 2.5, None]),
    st.sampled_from(["a", "b", None]),
)

#: Over ``l, r WHERE {on}``: a bare join, one read as rows, COUNT(*)-only
#: groups (one and two keys), every other aggregate, HAVING, a global
#: aggregate (over empty input whenever nothing matches), and a key whose
#: values are ``True``, ``1.0`` and ``1`` — one group, first-seen value.
_JOIN_SHAPES = [
    "SELECT * FROM l, r WHERE {on}",
    "SELECT l.i + r.i, r.s FROM l, r WHERE {on}",
    "SELECT l.s, COUNT(*) FROM l, r WHERE {on} GROUP BY l.s",
    "SELECT r.s, l.i, COUNT(*), COUNT(*) FROM l, r WHERE {on} "
    "GROUP BY r.s, l.i",
    "SELECT l.s, SUM(r.i), AVG(l.i), MIN(r.d), MAX(l.s), "
    "COUNT(DISTINCT r.b), COUNT(l.d) FROM l, r WHERE {on} GROUP BY l.s",
    "SELECT r.b, COUNT(*) FROM l, r WHERE {on} GROUP BY r.b "
    "HAVING COUNT(*) > 1",
    "SELECT l.i, r.d, SUM(r.i) FROM l, r WHERE {on} GROUP BY l.i, r.d "
    "HAVING SUM(r.i) >= 1",
    "SELECT COUNT(*), SUM(l.i), MAX(r.s) FROM l, r WHERE {on}",
    "SELECT COALESCE(l.b, r.d, l.i), COUNT(*), SUM(l.i) FROM l, r "
    "WHERE {on} GROUP BY COALESCE(l.b, r.d, l.i)",
]

_JOIN_KEYS = ["l.i = r.i", "l.i = r.i AND l.s = r.s", "l.i = r.d"]


class TestColumnarJoinAndGroup:
    """A hash join hands its consumer gathered columns and GROUP BY folds
    them: answers equal SQLite's, and rows, counters and batch counts
    equal row-at-a-time semantics at every batch size, over column
    (``ColumnBatch``) inputs and over the row lists a FETCH feeds."""

    @given(
        left=st.lists(_JOIN_ROW, max_size=12),
        right=st.lists(_JOIN_ROW, max_size=12),
        row_tables=st.sampled_from(["", "l", "r", "lr"]),
        on=st.sampled_from(_JOIN_KEYS),
        narrowed=st.booleans(),
        shape=st.sampled_from(_JOIN_SHAPES),
    )
    @example(
        left=[(1, True, 1.0, "a")], right=[], row_tables="lr",
        on=_JOIN_KEYS[0], narrowed=False, shape=_JOIN_SHAPES[7],
    )
    @example(
        left=[], right=[(1, True, 1.0, "a")] * 3, row_tables="",
        on=_JOIN_KEYS[1], narrowed=True, shape=_JOIN_SHAPES[0],
    )
    @settings(max_examples=120, deadline=None)
    def test_column_at_a_time_equals_row_semantics(
        self, left, right, row_tables, on, narrowed, shape
    ):
        db, lite = ibds_tables(l=left, r=right)
        sql = shape.format(on=on + (" AND r.i <> 2" if narrowed else ""))
        assert "HSJOIN" in db.explain(sql)
        ours, work = traced_work(db, sql)
        assert normalize(ours) == normalize(lite.execute(sql).fetchall()), sql
        plan = db.plan(sql)
        for batch_rows in (1, 3, BATCH_ROWS):
            assert_untraced_matches(work, db, sql, (), batch_rows)
            runs = []
            for executor in (RowScans, RowSemantics):
                stats = ExecStats()
                executor = executor(db.catalog, stats, batch_rows=batch_rows)
                executor.row_tables = frozenset(row_tables)
                rows = executor.run(plan)
                runs.append((rows, vars(stats)))
            assert runs[0] == runs[1], (sql, batch_rows)


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


def untraced_work(db, sql, params=(), batch_rows=BATCH_ROWS):
    """:func:`traced_work`'s measures but per-operator rows, untraced: at
    the default batch size plain ``db.execute``, after a plan."""
    db.plan(sql)
    heap = db.metrics.counter_set(HeapStats)
    window = CounterWindow(pool=db.pool_stats, exec=db.exec_stats, heap=heap)
    if batch_rows == BATCH_ROWS:
        rows = db.execute(sql, list(params)).rows
    else:
        executor = VectorizedExecutor(
            db.catalog, db.exec_stats, batch_rows=batch_rows
        )
        assert executor._collector is None
        rows = executor.run(db.plan(sql), list(params))
    deltas = window.deltas()
    return {
        "rows": rows_digest(rows),
        "counters": deltas["exec"].row_counters(),
        "logical": deltas["pool"].logical_total,
        "fetches": deltas["heap"].fetches,
    }


def assert_untraced_matches(work, db, sql, params=(), batch_rows=BATCH_ROWS):
    """Untraced at ``batch_rows``, ``sql`` does the traced ``work``."""
    expected = {k: v for k, v in work.items() if k != "operators"}
    assert untraced_work(db, sql, params, batch_rows) == expected, (sql, batch_rows)


def wide_db(pool_pages: int | None = None) -> Database:
    """A table whose (k, s) index spans many leaves: wide string keys,
    each repeated three times (non-unique keys with several RIDs)."""
    db = Database()
    db.execute(
        "CREATE TABLE w (id INTEGER NOT NULL, k INTEGER, s VARCHAR(60), "
        "v INTEGER)"
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
def shared_wide_db() -> Database:
    """:func:`wide_db`, built once for tests that only read."""
    return wide_db()


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
    @pytest.mark.parametrize("storage", FORMER_STORAGE_SUFFIXES)
    @pytest.mark.parametrize("batch_rows", [1, 3, BATCH_ROWS])
    def test_untraced_matches_reference(self, storage, batch_rows):
        db = shared_wide_db()
        index = db.catalog.table("w").indexes["w_ks"].btree
        assert index.height > 1
        for sql, params in WIDE_QUERIES:
            work = pinned_work(db, "wide", sql, params)
            assert_untraced_matches(work, db, sql, params, batch_rows)

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
        db, transform = corpus_db(layout)
        queries = [
            "SELECT c.id, c.val FROM c WHERE c.parent = 7",
            "SELECT c.id FROM c WHERE c.parent BETWEEN 5 AND 30",
            "SELECT p.id, c.val FROM p, c WHERE p.id = c.parent AND p.grp = 3",
        ] + [generate_query(seed) for seed in (1, 4, 11, 12)]  # not 3-way joins
        for sql in map(transform, queries):
            work = pinned_work(db, layout, sql)
            for batch_rows in (1, 3, BATCH_ROWS):
                assert_untraced_matches(work, db, sql, (), batch_rows)


class TestFetchMany:
    @pytest.mark.parametrize("storage", FORMER_STORAGE_SUFFIXES)
    def test_small_pool_same_physical_reads_as_per_row(self, storage):
        """Under an 8-frame pool, fetching runs of RIDs costs the same
        physical reads and evictions, and leaves the same LRU order, as
        one fetch per RID."""
        outcomes = []
        for batched in (False, True):
            rng = random.Random(5)
            db = wide_db(pool_pages=8)
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
        order of one fetch per row, so even physical reads and evictions
        equal those a tuple-at-a-time run counted."""
        db = wide_db(pool_pages=8)
        window = CounterWindow(pool=db.pool_stats)
        for sql, params in WIDE_QUERIES:
            untraced_work(db, sql, params, batch_rows=1)
        pool = window.deltas()["pool"]
        assert (pool.physical_total, pool.evictions) == (99, 99)

    def test_read_run_counts_each_row(self):
        db = wide_db()
        page_id = db.catalog.table("w").heap.page_ids()[0]
        before = db.pool_stats.snapshot()
        db.pool.read_run(page_id, 5)
        assert db.pool_stats.delta(before).logical_data == 5

    @pytest.mark.parametrize("storage", FORMER_STORAGE_SUFFIXES)
    def test_dangling_rid_still_raises(self, storage):
        db = wide_db()
        heap = db.catalog.table("w").heap
        rids = [rid for rid, _row in heap.scan()][:5]
        heap.delete(rids[2])
        with pytest.raises(ExecutionError, match="dangling RID"):
            heap.fetch_many(rids)
        with pytest.raises(ExecutionError, match="dangling RID"):
            heap.fetch_many([(rids[0][0], 10_000)])
