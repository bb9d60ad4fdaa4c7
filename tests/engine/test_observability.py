"""Tests for the observability layer: metrics registry, query traces,
and EXPLAIN ANALYZE."""

import pytest

from repro import LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.engine import Database
from repro.engine.durability import DurabilityOptions
from repro.engine.errors import EngineError
from repro.engine.observability import (
    Counter,
    CounterSet,
    CounterWindow,
    Gauge,
    Histogram,
    HISTOGRAM_RESERVOIR,
    MetricsRegistry,
)
from repro.engine.values import INTEGER, varchar


# -- registry primitives ------------------------------------------------------


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_decrease(self):
        with pytest.raises(EngineError):
            Counter("x").inc(-1)


class TestGauge:
    def test_moves_both_ways(self):
        g = Gauge("x")
        g.set(10)
        g.set(3)
        assert g.value == 3


class TestHistogram:
    def test_exact_count_sum_min_max(self):
        h = Histogram("x")
        for v in (5.0, 1.0, 9.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 15.0
        assert h.min == 1.0
        assert h.max == 9.0
        assert h.mean == 5.0

    def test_percentiles(self):
        h = Histogram("x")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert h.percentile(95) == pytest.approx(95.0, abs=1.0)
        assert h.percentile(99) == pytest.approx(99.0, abs=1.0)
        # Nearest rank is ceil(p/100 * n); round() is banker's rounding
        # and read the p50 of five samples as the second.
        for samples, p50 in (([1, 2, 3, 4, 5], 3), ([1, 2], 1)):
            h = Histogram("x")
            for v in samples:
                h.observe(v)
            assert h.percentile(50) == p50
            assert h.percentile(100) == samples[-1]

    def test_empty_percentile_is_zero(self):
        assert Histogram("x").percentile(95) == 0.0

    def test_reservoir_stays_bounded(self):
        h = Histogram("x")
        n = HISTOGRAM_RESERVOIR * 3
        for v in range(n):
            h.observe(float(v))
        assert h.count == n
        assert len(h._samples) <= HISTOGRAM_RESERVOIR
        # Exact aggregates survive decimation.
        assert h.min == 0.0
        assert h.max == float(n - 1)
        # The decimated reservoir still approximates the distribution.
        assert h.percentile(50) == pytest.approx(n / 2, rel=0.1)

    def test_summary_keys(self):
        h = Histogram("x")
        h.observe(2.0)
        summary = h.summary()
        assert set(summary) == {
            "count", "sum", "mean", "min", "max", "p50", "p95", "p99"
        }


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")

    def test_type_mismatch_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(EngineError):
            r.gauge("a")

    def test_value_and_contains(self):
        r = MetricsRegistry()
        r.counter("a").inc(4)
        assert "a" in r
        assert r.value("a") == 4
        assert r.value("missing", default=-1.0) == -1.0

    def test_snapshot_and_render(self):
        r = MetricsRegistry()
        r.counter("pool.reads").inc(3)
        r.histogram("db.ms").observe(1.5)
        snap = r.snapshot()
        assert snap["pool.reads"] == 3
        assert snap["db.ms"]["count"] == 1
        text = r.render("pool.")
        assert "pool.reads  3" in text
        assert "db.ms" not in text


# -- engine wiring ------------------------------------------------------------


def build(path=None, **options) -> Database:
    """The ``db`` fixture's table, optionally disk-backed with a log
    budget small enough that the script auto-checkpoints."""
    database = Database(
        path=path, durability=DurabilityOptions(auto_checkpoint_bytes=600), **options
    )
    database.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, grp INTEGER, name VARCHAR(20))"
    )
    database.execute("CREATE UNIQUE INDEX t_pk ON t (id)")
    for i in range(40):
        database.execute("INSERT INTO t VALUES (?, ?, ?)", [i, i % 4, f"n{i}"])
    return database


@pytest.fixture()
def db():
    return build()


class TestEngineMetrics:
    def test_structure_counters_accumulate(self, db):
        before = db.metrics.value("btree.descents")
        db.execute("SELECT name FROM t WHERE id = 5")
        assert db.metrics.value("btree.descents") > before
        assert db.metrics.value("heap.inserts") == 40
        assert db.metrics.value("heap.fetches") > 0

    def test_statement_histogram_grows(self, db):
        before = db.metrics.histogram("db.statement_ms").count
        db.trace("SELECT COUNT(*) FROM t")
        assert db.metrics.histogram("db.statement_ms").count == before + 1

    def test_resident_gauge_tracks_pool(self, db):
        assert db.metrics.value("pool.resident_pages") == (
            db.pool.resident_pages
        )
        db.flush_cache()
        assert db.metrics.value("pool.resident_pages") == 0


class TestQueryTrace:
    def test_trace_isolates_one_query(self, db):
        db.execute("SELECT name FROM t WHERE id = 1")  # warm
        trace = db.trace("SELECT name FROM t WHERE id = 1")
        assert trace.rows == [("n1",)]
        assert trace.rowcount == 1
        assert trace.logical_reads > 0
        assert trace.physical_reads == 0  # warm cache
        assert trace.logical_reads == (
            trace.pool.logical_data + trace.pool.logical_index
        )
        assert trace.elapsed_ms > 0.0

    def test_trace_deltas_are_per_query(self, db):
        """Two traces of the same warm query report identical reads —
        the defining difference from cumulative global counters."""
        db.execute("SELECT name FROM t WHERE id = 2")
        first = db.trace("SELECT name FROM t WHERE id = 2")
        second = db.trace("SELECT name FROM t WHERE id = 2")
        assert first.logical_reads == second.logical_reads
        assert first.index_reads == second.index_reads

    def test_index_read_share(self, db):
        db.execute("SELECT name FROM t WHERE id = 3")
        trace = db.trace("SELECT name FROM t WHERE id = 3")
        assert 0.0 < trace.index_read_share < 1.0
        assert trace.index_reads + trace.data_reads == trace.logical_reads

    def test_trace_select_has_operators_and_plan(self, db):
        trace = db.trace("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        assert trace.plan is not None
        assert trace.operators
        names = [op.op_name for op in trace.operators]
        assert "RETURN" in names
        assert "GRPBY" in names

    def test_trace_non_select(self, db):
        trace = db.trace("UPDATE t SET grp = 9 WHERE id = 0")
        assert trace.rowcount == 1
        assert trace.plan is None
        assert trace.pool.writes > 0

    def test_trace_scalar_and_render(self, db):
        trace = db.trace("SELECT COUNT(*) FROM t")
        assert trace.scalar() == 40
        text = trace.render()
        assert "pool:" in text
        assert "exec:" in text
        assert "locks:" in text

    def test_analyze_false_skips_plan(self, db):
        trace = db.trace("SELECT COUNT(*) FROM t", analyze=False)
        assert trace.plan is None
        assert trace.operators == []
        assert trace.scalar() == 40


class TestExplainAnalyze:
    def test_operator_annotations(self, db):
        text = db.explain_analyze("SELECT name FROM t WHERE id = 4")
        lines = text.splitlines()
        assert lines[0].startswith("RETURN")
        for token in ("rows=", "opens=", "time="):
            assert token in text
        assert "IXSCAN" in text
        assert "(never executed)" not in text

    def test_sql_statement_form(self, db):
        result = db.execute("EXPLAIN ANALYZE SELECT name FROM t WHERE id = 4")
        assert result.columns == ["plan"]
        assert result.rows[0][0].startswith("RETURN")
        assert any("rows=" in row[0] for row in result.rows)

    def test_plain_explain_statement(self, db):
        result = db.execute("EXPLAIN SELECT name FROM t WHERE id = 4")
        assert result.rows[0][0].startswith("RETURN")
        assert all("rows=" not in row[0] for row in result.rows)

    def test_analyze_rejects_non_select(self, db):
        with pytest.raises(EngineError):
            db.explain_analyze("UPDATE t SET grp = 1 WHERE id = 1")

    def test_rows_attributed_per_operator(self, db):
        text = db.explain_analyze("SELECT name FROM t WHERE grp = 2")
        for line in text.splitlines():
            if line.strip().startswith("TBSCAN"):
                # The scan produced only the filtered rows (residual
                # predicates apply inside the scan).
                assert "rows=10" in line
                break
        else:  # pragma: no cover
            pytest.fail(f"no TBSCAN in: {text}")

    def test_nested_loop_opens_count(self, db):
        db.execute(
            "CREATE TABLE s (id INTEGER NOT NULL, t_id INTEGER)"
        )
        db.execute("CREATE INDEX s_fk ON s (t_id)")
        for i in range(6):
            db.execute("INSERT INTO s VALUES (?, ?)", [i, i % 3])
        text = db.explain_analyze(
            "SELECT t.name, s.id FROM t, s WHERE t.id = s.t_id"
        )
        assert "NLJOIN" in text or "HSJOIN" in text


class TestChunkFoldingAcceptance:
    """The issue's acceptance case: EXPLAIN ANALYZE over a chunk-folding
    query prints an operator tree with per-operator rows and timings."""

    def test_chunk_folding_analyzed_plan(self):
        mtd = MultiTenantDatabase(layout="chunk_folding", width=2)
        mtd.define_table(
            LogicalTable(
                "account",
                (
                    LogicalColumn("aid", INTEGER, indexed=True, not_null=True),
                    LogicalColumn("name", varchar(30)),
                    LogicalColumn("balance", INTEGER),
                ),
            )
        )
        mtd.create_tenant(7)
        for i in range(12):
            mtd.insert(
                7, "account", {"aid": i, "name": f"a{i}", "balance": i * 10}
            )
        text = mtd.explain_analyze(
            7, "SELECT name, balance FROM account WHERE aid = ?", [3]
        )
        lines = text.splitlines()
        assert lines[0].startswith("RETURN")
        assert any("IXSCAN" in line for line in lines)
        for token in ("rows=", "opens=", "time="):
            assert token in text
        # The trace carries the per-query page-read deltas Figure 10
        # consumes.
        trace = mtd.trace(
            7, "SELECT name, balance FROM account WHERE aid = ?", [3]
        )
        assert trace.logical_reads > 0
        assert trace.index_read_share > 0.0
        assert trace.rows == [("a3", 30)]


# -- one ledger per event -----------------------------------------------------

SCRIPT = [
    ("INSERT INTO t VALUES (?, ?, ?)", [100, 1, "x"]),
    ("INSERT INTO t VALUES (?, ?, ?)", [101, 1, "y"]),
    ("SELECT name FROM t WHERE id = ?", [100]),
    ("SELECT name FROM t WHERE id = ?", [101]),
    ("UPDATE t SET name = ? WHERE grp = ?", ["z", 1]),
    ("BEGIN", []),
    ("DELETE FROM t WHERE id = ?", [100]),
    ("COMMIT", []),
    ("SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp", []),
]


def exported(counter_set: CounterSet) -> dict:
    """``{exported name: field value}`` of one counter set or delta."""
    return {
        name: getattr(counter_set, field)
        for field, name in counter_set.EXPORTED.items()
    }


@pytest.fixture(scope="module")
def worked(tmp_path_factory):
    """An in-memory and a disk-backed database after a mixed workload,
    with the traces the disk-backed one produced and the registry
    snapshots taken around each."""
    memory = build()
    disk = build(str(tmp_path_factory.mktemp("ledger")))
    traced = []
    for database in (memory, disk):
        database.locks.acquire(1, ("table", "t"), exclusive=False)
        database.locks.acquire(2, ("table", "t"), exclusive=True)
        database.locks.record_wait(1, 3.0)
        for sql, params in SCRIPT:
            before = database.metrics.snapshot()
            trace = database.trace(sql, params)
            traced.append((trace, before, database.metrics.snapshot()))
    yield memory, disk, traced
    disk.close()


class TestCounterSets:
    @pytest.mark.parametrize(
        "cls", CounterSet.__subclasses__(), ids=lambda cls: cls.__name__
    )
    def test_registry_reads_the_live_fields(self, worked, cls):
        """Storage is the counter set, the registry only reads it: every
        field is exported, equal, and closed to a second ledger."""
        memory, disk, _ = worked
        live = 0
        for database in (memory, disk):
            metrics = database.metrics
            if not any(name in metrics for name in cls.EXPORTED.values()):
                continue  # WAL and page store exist on disk only
            live += 1
            stats = metrics.counter_set(cls)
            assert set(cls.EXPORTED) == set(vars(stats))
            assert set(cls.EXPORTED.values()) <= set(metrics.names())
            for name, value in exported(stats).items():
                assert metrics.value(name) == value
                for instrument in (metrics.counter, metrics.gauge):
                    with pytest.raises(EngineError):
                        instrument(name)
            assert any(exported(stats).values()), "workload never moved it"
        assert live, f"{cls.__name__} is attached to no database"

    def test_trace_deltas_are_registry_differences(self, worked):
        for trace, before, after in worked[2]:
            for delta in (trace.pool, trace.exec, trace.locks, trace.wal):
                for name, value in exported(delta).items():
                    assert value == after.get(name, 0) - before.get(name, 0)

    @pytest.mark.parametrize("plan_cache_size", [256, 0])
    def test_trace_is_execute_between_two_snapshots(
        self, tmp_path, plan_cache_size
    ):
        """Same rows, same four deltas, same cache verdict, and at most
        one auto-checkpoint, statement by statement."""
        executed = build(str(tmp_path / "a"), plan_cache_size=plan_cache_size)
        traced = build(str(tmp_path / "b"), plan_cache_size=plan_cache_size)
        checkpoints = 0
        for sql, params in SCRIPT:
            before = executed.metrics.snapshot()
            window = CounterWindow(
                pool=executed.pool_stats,
                exec=executed.exec_stats,
                locks=executed.locks.stats,
                wal=executed.wal_stats,
            )
            result = executed.execute(sql, params)
            deltas = window.deltas()
            after = executed.metrics.snapshot()
            count_before = traced.metrics.value("db.checkpoint.count")
            trace = traced.trace(sql, params)
            taken = traced.metrics.value("db.checkpoint.count") - count_before

            assert (trace.columns, trace.rows, trace.rowcount) == (
                result.columns, result.rows, result.rowcount
            )
            assert (trace.pool, trace.exec, trace.locks, trace.wal) == (
                deltas["pool"], deltas["exec"], deltas["locks"], deltas["wal"]
            )
            hits = after["db.plan_cache.hits"] - before["db.plan_cache.hits"]
            assert trace.cache_hit == (hits == 1)
            assert taken == (
                after["db.checkpoint.count"] - before["db.checkpoint.count"]
            )
            assert taken <= 1
            checkpoints += taken
        assert checkpoints, "the script never crossed the log budget"
        executed.close()
        traced.close()
