"""Ablations — storage-level design choices DESIGN.md §5 calls out:

* prefix compression on the (Tenant, Table, Chunk, Row) meta-data
  indexes (Graefe's partitioned B-trees, §6.1),
* FIRST_FIT vs APPEND insert strategies (the DB2 insert-method switch
  hypothesised in §5),
* value-indexed vs unindexed chunk tables (the paper's indexed/plain
  pivot-table pairs).
"""

import pytest

from repro.engine.btree import BTreeIndex
from repro.engine.database import Database
from repro.engine.heap import InsertStrategy
from repro.engine.pager import BufferPool
from repro.experiments.report import render_table


class TestPrefixCompressionAblation:
    @pytest.fixture(scope="class")
    def page_counts(self):
        counts = {}
        for compression in (True, False):
            pool = BufferPool(capacity_pages=4096)
            index = BTreeIndex(
                pool, segment_id=1, prefix_compression=compression
            )
            # A (tenant, tbl, chunk, row) shaped key: highly redundant
            # leading columns, like the paper's meta-data indexes.
            for tenant in range(8):
                for chunk in range(4):
                    for row in range(120):
                        index.insert((tenant, 3, chunk, row), (row + 1, 0))
            counts[compression] = index.page_count
        return counts

    def test_report(self, benchmark, page_counts, report):
        benchmark.pedantic(lambda: None, rounds=1)
        report(
            "ablation_prefix_compression",
            render_table(
                "Ablation: prefix compression on (tenant, tbl, chunk, row)",
                ["prefix compression", "index pages"],
                [
                    ("on", page_counts[True]),
                    ("off", page_counts[False]),
                ],
            ),
        )

    def test_compression_shrinks_metadata_indexes(self, page_counts):
        """'Prefix compression makes sure that these indexes stay small
        despite the redundant values.'"""
        assert page_counts[True] < page_counts[False]


class TestInsertStrategyAblation:
    @pytest.fixture(scope="class")
    def stats(self):
        out = {}
        for strategy in InsertStrategy:
            db = Database(insert_strategy=strategy)
            db.execute("CREATE TABLE t (id INTEGER, pad VARCHAR(200))")
            for i in range(600):
                db.execute(
                    "INSERT INTO t VALUES (?, ?)", [i, "x" * 150]
                )
            # Delete half to fragment, then refill.
            db.execute("DELETE FROM t WHERE id < 300")
            before = db.pool_stats.snapshot()
            for i in range(600, 900):
                db.execute("INSERT INTO t VALUES (?, ?)", [i, "x" * 150])
            delta = db.pool_stats.delta(before)
            out[strategy] = {
                "pages": db.catalog.table("t").page_count,
                "reads": delta.logical_data,
            }
        return out

    def test_report(self, benchmark, stats, report):
        rows = [
            (strategy.value, s["pages"], s["reads"])
            for strategy, s in stats.items()
        ]
        benchmark.pedantic(lambda: None, rounds=1)
        report(
            "ablation_insert_strategy",
            render_table(
                "Ablation: insert strategy after fragmentation "
                "(600 insert / 300 delete / 300 insert)",
                ["strategy", "heap pages", "insert-phase data reads"],
                rows,
            ),
        )

    def test_first_fit_is_compact(self, stats):
        assert (
            stats[InsertStrategy.FIRST_FIT]["pages"]
            <= stats[InsertStrategy.APPEND]["pages"]
        )

    def test_append_is_cheap_per_insert(self, stats):
        assert (
            stats[InsertStrategy.APPEND]["reads"]
            < stats[InsertStrategy.FIRST_FIT]["reads"]
        )


class TestValueIndexAblation:
    """Indexed vs unindexed generic tables: point lookups on a data
    value need the value-leading index; without it the whole chunk
    prefix is scanned."""

    @pytest.fixture(scope="class")
    def databases(self):
        out = {}
        for indexed in (True, False):
            db = Database()
            db.execute(
                "CREATE TABLE chunk_t (tenant INTEGER, tbl INTEGER, "
                "chunk INTEGER, row INTEGER, int1 BIGINT)"
            )
            db.execute(
                "CREATE UNIQUE INDEX chunk_t_tcr ON chunk_t "
                "(tenant, tbl, chunk, row)"
            )
            if indexed:
                db.execute(
                    "CREATE INDEX chunk_t_itcr ON chunk_t "
                    "(int1, tenant, tbl, chunk, row)"
                )
            for row in range(2000):
                db.execute(
                    "INSERT INTO chunk_t VALUES (1, 0, 0, ?, ?)",
                    [row, row * 7],
                )
            out[indexed] = db
        return out

    def measure(self, db):
        sql = (
            "SELECT row FROM chunk_t WHERE int1 = ? AND tenant = 1 "
            "AND tbl = 0 AND chunk = 0"
        )
        db.execute(sql, [7 * 500])
        before = db.pool_stats.snapshot()
        result = db.execute(sql, [7 * 500])
        assert result.rows == [(500,)]
        return db.pool_stats.delta(before).logical_total

    def test_report(self, benchmark, databases, report):
        rows = [
            ("with itcr index", self.measure(databases[True])),
            ("tcr only", self.measure(databases[False])),
        ]
        benchmark.pedantic(lambda: None, rounds=1)
        report(
            "ablation_value_index",
            render_table(
                "Ablation: value lookup on a chunk table, logical reads",
                ["configuration", "logical reads"],
                rows,
            ),
        )

    def test_value_index_pays_off(self, databases):
        assert self.measure(databases[True]) < self.measure(databases[False])

    def test_benchmark_value_lookup(self, benchmark, databases):
        db = databases[True]
        sql = (
            "SELECT row FROM chunk_t WHERE int1 = ? AND tenant = 1 "
            "AND tbl = 0 AND chunk = 0"
        )

        def lookup():
            return db.execute(sql, [7 * 123])

        result = benchmark(lookup)
        assert result.rows == [(123,)]
