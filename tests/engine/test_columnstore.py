"""Tests for column-major storage: pages, batches, DDL, and recovery.

The :class:`ColumnStore` must behave exactly like a :class:`HeapFile`
observed through any public surface — same rows, same placement, same
counters — while holding values column-major with per-column null
bitmaps.  These tests pin that equivalence (property-tested against a
shadow heap), the null bitmap maintenance across batch boundaries, the
``USING columnar`` DDL surface, and WAL/checkpoint recovery of columnar
tables.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import check_width_ledger
from repro.engine.catalog import Column, Table
from repro.engine.columnstore import ColumnBatch, ColumnPage, ColumnStore
from repro.engine.database import Database
from repro.engine.errors import ExecutionError, UnknownObjectError
from repro.engine.heap import HeapFile, InsertStrategy
from repro.engine.pager import BufferPool
from repro.engine.sql.parser import parse_statement
from repro.engine.values import DOUBLE, INTEGER, varchar

from ..conftest import assert_matches_reference


def make_store(ncols=3, strategy=InsertStrategy.FIRST_FIT, capacity=64):
    pool = BufferPool(capacity_pages=capacity)
    store = ColumnStore(pool, segment_id=1, strategy=strategy, ncols=ncols)
    return store, pool


class TestBasicOperations:
    def test_roundtrip(self):
        store, _ = make_store()
        rid = store.insert(("a", 1, None), width=10)
        assert store.fetch(rid) == ("a", 1, None)

    def test_scan_preserves_rows_and_order(self):
        store, _ = make_store(ncols=2)
        rows = [(i, f"r{i}") for i in range(20)]
        for row in rows:
            store.insert(row, width=20)
        assert [r for _rid, r in store.scan()] == rows

    def test_update_in_place_and_fetch_sees_new_value(self):
        store, _ = make_store(ncols=2)
        rid = store.insert((1, "old"), width=10)
        assert store.fetch(rid) == (1, "old")  # populates the row cache
        new_rid = store.update(rid, (1, "new"), 0, [1])
        assert new_rid == rid
        assert store.fetch(new_rid) == (1, "new")

    def test_delete_then_fetch_raises(self):
        store, _ = make_store()
        rid = store.insert((1, 2, 3), width=10)
        store.delete(rid)
        with pytest.raises(ExecutionError):
            store.fetch(rid)
        with pytest.raises(ExecutionError):
            store.delete(rid)

    def test_tombstone_slot_reuse(self):
        store, _ = make_store(ncols=1)
        rids = [store.insert((i,), width=10) for i in range(5)]
        store.delete(rids[2])
        replacement = store.insert((99,), width=10)
        assert replacement == rids[2]  # same page, same slot
        assert sorted(v for _rid, (v,) in store.scan()) == [0, 1, 3, 4, 99]


class TestNullBitmaps:
    def test_bitmap_tracks_nulls_per_column(self):
        store, pool = make_store(ncols=3)
        store.insert((None, 1, "x"), width=10)
        store.insert((2, None, None), width=10)
        page = pool.read(store.page_ids()[0])
        payload: ColumnPage = page.payload
        assert payload.nulls[0] == 0b01
        assert payload.nulls[1] == 0b10
        assert payload.nulls[2] == 0b10

    def test_bitmap_cleared_on_delete_and_rewrite(self):
        store, pool = make_store(ncols=2)
        rid = store.insert((None, "x"), width=10)
        store.delete(rid)
        payload = pool.read(rid[0]).payload
        assert payload.nulls == [0, 0]
        store.insert((1, None), width=10)  # reuses the tombstone slot
        assert payload.nulls == [0, 1]

    @pytest.mark.parametrize("batch_rows", (1, 2, 3, 7, 64))
    def test_nulls_survive_batch_boundaries(self, batch_rows):
        """NULLs must come back as NULLs whichever batch they land in."""
        store, _ = make_store(ncols=2)
        rows = [
            (i if i % 3 else None, None if i % 5 == 0 else f"s{i}")
            for i in range(50)
        ]
        for row in rows:
            store.insert(row, width=12)
        flattened = [
            tuple(r)
            for batch in store.scan_batches(batch_rows)
            for r in batch
        ]
        assert flattened == rows


class TestScanBatches:
    @pytest.mark.parametrize("batch_rows", (1, 2, 5, 16, 100, 10_000))
    def test_batch_sizes_and_contents(self, batch_rows):
        store, _ = make_store(ncols=2)
        rows = [(i, f"r{i}") for i in range(137)]
        for row in rows:
            store.insert(row, width=16)
        batches = list(store.scan_batches(batch_rows))
        assert [tuple(r) for b in batches for r in b] == rows
        # Full batches except possibly the last — identical carving to
        # the heap's scan_batches.
        assert all(len(b) == batch_rows for b in batches[:-1])
        assert 0 < len(batches[-1]) <= batch_rows

    def test_empty_table_yields_nothing(self):
        store, _ = make_store()
        assert list(store.scan_batches(64)) == []
        assert list(store.scan()) == []

    def test_skips_tombstones(self):
        store, _ = make_store(ncols=1)
        rids = [store.insert((i,), width=10) for i in range(10)]
        for rid in rids[::2]:
            store.delete(rid)
        values = [v for b in store.scan_batches(4) for (v,) in b]
        assert values == [1, 3, 5, 7, 9]

    def test_yielded_batches_are_insert_isolated(self):
        """Batches handed downstream must not alias page internals:
        later inserts cannot mutate a batch already yielded."""
        store, _ = make_store(ncols=1)
        for i in range(8):
            store.insert((i,), width=10)
        gen = store.scan_batches(4)
        first = next(gen)
        head = [tuple(r) for r in first]
        store.insert((99,), width=10)
        assert [tuple(r) for r in first] == head

    def test_page_accounting_matches_scan(self):
        store, pool = make_store(ncols=2)
        for i in range(200):
            store.insert((i, "x" * 20), width=30)
        before = pool.stats.snapshot()
        list(store.scan())
        via_scan = pool.stats.delta(before).logical_total
        before = pool.stats.snapshot()
        list(store.scan_batches(64))
        assert pool.stats.delta(before).logical_total == via_scan


class TestColumnBatch:
    def test_mixed_type_columns_round_trip(self):
        batch = ColumnBatch([[1, None, 3], ["a", "b", None], [1.5, 2.5, 3.5]])
        assert len(batch) == 3
        assert batch.width == 3
        assert list(batch) == [(1, "a", 1.5), (None, "b", 2.5), (3, None, 3.5)]

    def test_take_composes_selections_lazily(self):
        batch = ColumnBatch([[0, 1, 2, 3, 4], ["a", "b", "c", "d", "e"]])
        narrowed = batch.take([1, 3, 4]).take([0, 2])
        assert narrowed.col(1) == ["b", "e"]
        assert narrowed.rows() == [(1, "b"), (4, "e")]

    def test_empty_batch(self):
        batch = ColumnBatch([[], []])
        assert len(batch) == 0
        assert not batch
        assert batch.rows() == []


class TestHeapParityProperty:
    """The same operation sequence applied through a Table to a
    ColumnStore and to a HeapFile must be observationally identical:
    rows, row_count, page placement, and free-space accounting.  The
    updates assign random column subsets and grow VARCHARs far enough
    to relocate rows; every stored width must still equal a
    from-scratch ``row_width`` of the row it sizes."""

    COLUMNS = [
        Column("a", INTEGER),
        Column("s", varchar(4000)),
        Column("d", DOUBLE),
    ]

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(min_value=0, max_value=30),
                st.tuples(
                    st.one_of(st.none(), st.integers(-9, 9)),
                    st.one_of(st.none(), st.integers(0, 4000)),
                    st.one_of(st.none(), st.integers(-9, 9), st.floats(0, 1)),
                ),
                st.sets(st.integers(0, 2), min_size=1),
            ),
            max_size=40,
        )
    )
    def test_operation_sequences_match(self, ops):
        pools = [BufferPool(capacity_pages=64) for _ in range(2)]
        store = ColumnStore(pools[0], 1, InsertStrategy.FIRST_FIT, ncols=3)
        heap = HeapFile(pools[1], segment_id=1)
        tables = [Table("t", self.COLUMNS, s) for s in (store, heap)]
        rids: list[list] = [[], []]
        for kind, pick, (a, length, d), positions in ops:
            row = (a, None if length is None else "v" * length, d)
            if kind == "insert" or not rids[0]:
                for table, placed in zip(tables, rids):
                    placed.append(table.insert_row(row))
                continue
            i = pick % len(rids[0])
            for table, placed in zip(tables, rids):
                if kind == "update":
                    current = table.heap.fetch(placed[i])
                    new_row = tuple(
                        row[p] if p in positions else current[p]
                        for p in range(3)
                    )
                    placed[i] = table.update_row(
                        placed[i], current, new_row, sorted(positions)
                    )
                    assert table.heap.fetch(placed[i]) == tuple(
                        self.COLUMNS[p].type.check(v)
                        for p, v in enumerate(new_row)
                    )
                else:
                    rid = placed.pop(i)
                    table.delete_row(rid, table.heap.fetch(rid))
        assert rids[0] == rids[1]  # identical placement decisions
        assert store.row_count == heap.row_count
        assert [r for _rid, r in store.scan()] == [
            r for _rid, r in heap.scan()
        ]
        assert store.free_map() == heap.free_map()
        assert store.page_ids() == heap.page_ids()
        for table, pool in zip(tables, pools):
            assert check_width_ledger([table], pool).findings == []


class TestHeapScanBatchesNoCopy:
    """Micro-assertions for the heap's copy-free batch scan: yielded
    lists are fresh objects the generator never touches again."""

    def _heap_with(self, n):
        pool = BufferPool(capacity_pages=64)
        heap = HeapFile(pool, segment_id=1, strategy=InsertStrategy.FIRST_FIT)
        for i in range(n):
            heap.insert((i,), width=10)
        return heap

    def test_yielded_batches_are_independent_objects(self):
        heap = self._heap_with(64)
        batches = list(heap.scan_batches(8))
        assert len({id(b) for b in batches}) == len(batches)

    def test_consumer_may_mutate_yielded_batches(self):
        heap = self._heap_with(40)
        gen = heap.scan_batches(16)
        first = next(gen)
        first.clear()  # a consumer-side mutation...
        rest = [v for batch in gen for (v,) in batch]
        # ...must not disturb what the generator yields next.
        assert rest == list(range(16, 40))
        assert [v for _rid, (v,) in heap.scan()] == list(range(40))

    def test_batch_carving_unchanged(self):
        heap = self._heap_with(37)
        for batch_rows in (1, 5, 16, 64):
            batches = list(heap.scan_batches(batch_rows))
            assert [v for b in batches for (v,) in b] == list(range(37))
            assert all(len(b) == batch_rows for b in batches[:-1])


class TestUsingColumnarDDL:
    def test_parse_and_sql_round_trip(self):
        stmt = parse_statement("CREATE TABLE t (id INTEGER, v VARCHAR(10)) USING columnar")
        assert stmt.storage == "columnar"
        assert stmt.sql().endswith("USING columnar")
        assert parse_statement(stmt.sql()) == stmt

    def test_default_storage_is_heap(self):
        stmt = parse_statement("CREATE TABLE t (id INTEGER)")
        assert stmt.storage is None
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER)")
        assert db.catalog.table("t").storage == "heap"

    def test_create_columnar_table_and_query(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER, v VARCHAR(20)) USING columnar")
        table = db.catalog.table("t")
        assert table.storage == "columnar"
        assert isinstance(table.heap, ColumnStore)
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, f"v{i}"])
        db.execute("UPDATE t SET v = 'changed' WHERE id = 3")
        db.execute("DELETE FROM t WHERE id = 7")
        rows = db.execute("SELECT id, v FROM t ORDER BY id").rows
        assert len(rows) == 9
        assert rows[3] == (3, "changed")
        assert all(row[0] != 7 for row in rows)

    def test_unknown_storage_rejected(self):
        db = Database()
        with pytest.raises(UnknownObjectError):
            db.execute("CREATE TABLE t (id INTEGER) USING parquet")

    def test_both_engines_agree_on_columnar_tables(self):
        db = Database()
        db.execute("CREATE TABLE t (g INTEGER, v INTEGER) USING columnar")
        for i in range(100):
            db.execute(
                "INSERT INTO t VALUES (?, ?)",
                [i % 7, None if i % 11 == 0 else i],
            )
        assert_matches_reference(
            db,
            "SELECT g, COUNT(*), COUNT(v), AVG(v), MAX(v) "
            "FROM t GROUP BY g ORDER BY g",
        )


class TestColumnarRecovery:
    def test_columnar_table_survives_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path=path)
        db.execute("CREATE TABLE t (id INTEGER, v VARCHAR(10)) USING columnar")
        for i in range(20):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, f"v{i}"])
        del db  # crash: no close(), recovery replays the WAL
        recovered = Database(path=path)
        table = recovered.catalog.table("t")
        assert table.storage == "columnar"
        assert isinstance(table.heap, ColumnStore)
        rows = recovered.execute("SELECT id, v FROM t ORDER BY id").rows
        assert rows == [(i, f"v{i}") for i in range(20)]

    def test_checkpoint_snapshot_restores_columnar_store(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path=path)
        db.execute("CREATE TABLE t (id INTEGER, v INTEGER) USING columnar")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, None if i % 2 else i])
        db.checkpoint()
        for i in range(10, 15):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, i])
        del db  # crash after the checkpoint: snapshot restore + tail replay
        recovered = Database(path=path)
        table = recovered.catalog.table("t")
        assert isinstance(table.heap, ColumnStore)
        rows = recovered.execute("SELECT id, v FROM t ORDER BY id").rows
        assert rows == [
            (i, None if i % 2 else i) for i in range(10)
        ] + [(i, i) for i in range(10, 15)]


class TestOptimizerColumnarCosting:
    def test_columnar_scan_is_discounted(self):
        from repro.engine.optimizer import _seq_scan_cost

        db = Database()
        db.execute("CREATE TABLE h (id INTEGER)")
        db.execute("CREATE TABLE c (id INTEGER) USING columnar")
        for i in range(50):
            db.execute("INSERT INTO h VALUES (?)", [i])
            db.execute("INSERT INTO c VALUES (?)", [i])
        heap_cost = _seq_scan_cost(db.catalog.table("h"))
        col_cost = _seq_scan_cost(db.catalog.table("c"))
        assert col_cost < heap_cost
        # Heap costing itself is pinned by the optimizer-quality gate:
        # one work unit per row.
        assert heap_cost == 50.0
