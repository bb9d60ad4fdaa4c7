"""Tests for the heap's column pages: pages, batches, DDL, and recovery.

Every table's :class:`HeapFile` holds its rows column-major with
per-column null bitmaps.  These tests pin its behaviour against a dict
model and the width ledger (property-tested, with a second store
replaying the same operations), the null bitmap maintenance across
batch boundaries, the page image, the DDL surface (there is no storage
clause), and WAL/checkpoint recovery.
"""

import datetime
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import check_width_ledger
from repro.engine.catalog import Column, Table
from repro.engine.columnstore import ColumnBatch, ColumnPage
from repro.engine.database import Database
from repro.engine.errors import ExecutionError, ParseError
from repro.engine.heap import HeapFile, InsertStrategy
from repro.engine.pager import BufferPool
from repro.engine.sql.parser import parse_statement
from repro.engine.values import DOUBLE, INTEGER, varchar

from ..conftest import assert_pinned_work


def make_store(ncols=3, strategy=InsertStrategy.FIRST_FIT, capacity=64):
    pool = BufferPool(capacity_pages=capacity)
    store = HeapFile(pool, segment_id=1, strategy=strategy, ncols=ncols)
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
        # Full batches except possibly the last.
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

    def _gathered(self):
        """Rows 2, 0, 0 of a row list beside rows 1, 1, 0 of a filtered
        column batch whose second column the scan pruned."""
        left = [(10, "a"), (11, "b"), (12, "c")]
        right = ColumnBatch([[7, 8, 9], None], length=3).take([2, 0])
        return ColumnBatch.gathered([(left, 2, [2, 0, 0]), (right, 2, [1, 1, 0])])

    def test_gathered_columns_are_taken_when_read(self):
        batch = self._gathered()
        assert len(batch) == 3 and batch.width == 4
        assert batch._base == [None] * 4
        assert batch.col(2) == [7, 7, 9]
        assert batch._base == [None, None, [7, 7, 9], None]
        assert batch.col(1) == ["c", "a", "a"]
        assert batch.col(3) == [None] * 3

    def test_gathered_rows_join_each_part_at_its_positions(self):
        rows = [(12, "c", 7, None), (10, "a", 7, None), (10, "a", 9, None)]
        assert self._gathered().rows() == rows
        batch = self._gathered()
        batch.col(0)
        assert list(zip(*[batch.col(i) for i in range(4)])) == rows

    def test_take_of_a_gathered_batch_gathers_once(self):
        batch = self._gathered()
        narrowed = batch.take([2, 0]).take([1])
        assert narrowed.rows() == [(12, "c", 7, None)]
        assert batch._base[0] == [12, 10, 10]  # shared with the parent
        assert batch.take([0, 2]).col(2) == [7, 9]


class TestHeapParityProperty:
    """An operation sequence applied through a Table must match a dict
    model of RID -> checked row and its row count, keep the width
    ledger (LAY007) clean, and make exactly the placement decisions of
    a second store replaying the same operations: the same RIDs, pages
    and free-space map.  The updates assign random column subsets and
    grow VARCHARs far enough to relocate rows; every stored width must
    still equal a from-scratch ``row_width`` of the row it sizes."""

    COLUMNS = [
        Column("a", INTEGER),
        Column("s", varchar(4000)),
        Column("d", DOUBLE),
    ]

    def checked(self, row: tuple) -> tuple:
        return tuple(c.type.check(v) for c, v in zip(self.COLUMNS, row))

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
        tables = [
            Table("t", self.COLUMNS, HeapFile(pool, 1, ncols=3)) for pool in pools
        ]
        rids: list[list] = [[], []]
        model: dict = {}
        for kind, pick, (a, length, d), positions in ops:
            row = (a, None if length is None else "v" * length, d)
            if kind == "insert" or not rids[0]:
                for table, placed in zip(tables, rids):
                    placed.append(table.insert_row(row))
                model[rids[0][-1]] = self.checked(row)
                continue
            i = pick % len(rids[0])
            old_rid = rids[0][i]
            current = model.pop(old_rid)
            for table, placed in zip(tables, rids):
                assert table.heap.fetch(placed[i]) == current
                if kind == "update":
                    new_row = tuple(
                        row[p] if p in positions else current[p]
                        for p in range(3)
                    )
                    placed[i] = table.update_row(
                        placed[i], current, new_row, sorted(positions)
                    )
                else:
                    table.delete_row(placed.pop(i), current)
            if kind == "update":
                model[rids[0][i]] = self.checked(new_row)
        assert rids[0] == rids[1]  # identical placement decisions
        for table, pool in zip(tables, pools):
            store = table.heap
            assert store.row_count == len(model)
            assert dict(store.scan()) == model
            assert {rid: store.fetch(rid) for rid in model} == model
            assert check_width_ledger([table], pool).findings == []
        stores = [table.heap for table in tables]
        assert stores[0].free_map() == stores[1].free_map()
        assert stores[0].page_ids() == stores[1].page_ids()


def exact(value) -> tuple:
    """A value compared type-exactly: ``True`` is not ``1``, ``-0.0`` is
    not ``0.0``, and a NaN equals itself."""
    if type(value) is float:
        return (float, struct.pack("<d", value))
    return (type(value), value)


def page_state(payload: ColumnPage) -> tuple:
    """Everything a column page holds, decoded, type-exactly."""
    payload.decode()
    return (
        [[exact(v) for v in column] for column in payload.columns],
        payload.nulls,
        payload.widths,
        payload.live,
    )


#: One strategy per SQL kind, each reaching its edges; ``mixed`` puts
#: ``True`` next to ``1`` in one column.
SQL_KINDS = {
    "int": st.one_of(
        st.integers(-(2**63), 2**63 - 1),
        st.sampled_from([2**70, -(2**63), 2**63 - 1, -1, 0, 127, -129, 2**31]),
    ),
    "float": st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf])),
    "date": st.one_of(
        st.dates(), st.sampled_from([datetime.date.min, datetime.date.max])
    ),
    "bool": st.booleans(),
    "text": st.one_of(
        st.text(st.characters(exclude_categories=()), max_size=12),
        st.sampled_from(["", "é", "\ud800", "\udfff\ud800", "a\0b", "x" * 70_000]),
    ),
    "mixed": st.sampled_from([True, 1, False, 0, 1.0, "1"]),
}

IMAGE_WIDTH = 400  # 19 rows fill a page: every example stays on one


@st.composite
def column_pages(draw):
    """``(kinds, rows, tombstones)``: up to 15 rows of one column kind
    each, NULL anywhere, and the slots to delete."""
    kinds = draw(st.lists(st.sampled_from(sorted(SQL_KINDS)), min_size=1, max_size=6))
    cells = [st.one_of(st.none(), SQL_KINDS[kind]) for kind in kinds]
    rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=15))
    tombstones = draw(st.sets(st.integers(0, len(rows) - 1)))
    return kinds, rows, tombstones


def image_store(rows, tombstones) -> tuple[HeapFile, list]:
    store, _ = make_store(ncols=len(rows[0]))
    rids = [store.insert(row, width=IMAGE_WIDTH) for row in rows]
    for slot in sorted(tombstones):
        store.delete(rids[slot])
    assert len(store.page_ids()) == 1
    return store, rids


def reread(store: HeapFile) -> ColumnPage:
    """Swap the store's page for one read back from its own image, as a
    page miss leaves it: undecoded."""
    page = store._pool.read(store.page_ids()[0])
    page.payload = ColumnPage.from_image(page.payload.to_image())
    assert page.payload.columns is None
    return page.payload


class TestColumnImage:
    """A column page's image decodes type-exactly, slot by slot as well
    as whole, and a write after a lazy read leaves the same page as the
    write on a page that was never stored."""

    @settings(max_examples=120, deadline=None)
    @given(column_pages())
    def test_encode_then_decode_is_type_exact(self, page):
        _, rows, tombstones = page
        store, _ = image_store(rows, tombstones)
        eager = store._pool.read(store.page_ids()[0]).payload
        expected = page_state(eager)
        lazy = reread(store)
        assert lazy.widths == eager.widths and lazy.live == eager.live
        slots = {
            s: lazy.decode_slot(s)
            for s, width in enumerate(lazy.widths)
            if width is not None
        }
        assert lazy.columns is None  # slot decodes leave it undecoded
        assert page_state(lazy) == expected
        for s, row in slots.items():
            assert [exact(v) for v in row] == [
                exact(column[s]) for column in lazy.columns
            ]
        assert lazy.image is None and lazy.to_image() == eager.to_image()

    @settings(max_examples=120, deadline=None)
    @given(
        column_pages(),
        st.sampled_from(["append", "reuse", "update", "delete"]),
        st.data(),
    )
    def test_a_write_after_a_lazy_read_matches_an_eager_page(
        self, page, op, data
    ):
        kinds, rows, tombstones = page
        if op == "append":
            tombstones = set()
        elif op == "reuse" and not tombstones:
            tombstones = {0}
        live = [slot for slot in range(len(rows)) if slot not in tombstones]
        if op in ("update", "delete") and not live:
            live, tombstones = [0], set()
        new_row = data.draw(
            st.tuples(*[st.one_of(st.none(), SQL_KINDS[k]) for k in kinds])
        )
        positions = sorted(
            data.draw(st.sets(st.integers(0, len(kinds) - 1), min_size=1))
        )
        stores = [image_store(rows, tombstones) for _ in range(2)]
        reread(stores[1][0])
        if live:  # a point fetch fills the lazy page's row cache
            stores[1][0].fetch(stores[1][1][live[-1]])

        def write(store: HeapFile, rids: list):
            if op in ("append", "reuse"):
                return store.insert(new_row, width=IMAGE_WIDTH)
            rid = rids[live[0]]
            if op == "delete":
                return store.delete(rid)
            current = store.fetch(rid)
            updated = tuple(
                new_row[p] if p in positions else current[p]
                for p in range(len(kinds))
            )
            assert store.update(rid, updated, 0, positions) == rid
            return [exact(v) for v in store.fetch(rid)]

        eager, lazy = (write(store, rids) for store, rids in stores)
        assert lazy == eager
        if op == "append":
            assert eager[1] == len(rows)
        elif op == "reuse":
            assert eager[1] == min(tombstones)
        eager_page, lazy_page = (
            store._pool.read(store.page_ids()[0]) for store, _ in stores
        )
        assert lazy_page.payload.image is None  # a write decodes first
        assert page_state(lazy_page.payload) == page_state(eager_page.payload)
        assert lazy_page.used == eager_page.used
        assert stores[0][0].free_map() == stores[1][0].free_map()
        assert [
            [exact(v) for v in row] for _, row in stores[1][0].scan()
        ] == [[exact(v) for v in row] for _, row in stores[0][0].scan()]


class TestHeapScanBatchesNoCopy:
    """Micro-assertions for the heap's batch scan: yielded batches and
    their column lists are fresh objects the generator never touches
    again."""

    def _heap_with(self, n):
        heap, _ = make_store(ncols=1)
        for i in range(n):
            heap.insert((i,), width=10)
        return heap

    def test_yielded_batches_are_independent_objects(self):
        heap = self._heap_with(64)
        batches = list(heap.scan_batches(8))
        assert len({id(b) for b in batches}) == len(batches)
        assert len({id(b.col(0)) for b in batches}) == len(batches)

    def test_consumer_may_mutate_yielded_batches(self):
        heap = self._heap_with(40)
        gen = heap.scan_batches(16)
        first = next(gen)
        first.col(0).clear()  # a consumer-side mutation...
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

    def test_a_pruned_scan_copies_only_the_kept_columns(self):
        """Dense and sparse pages alike: the kept columns in scan order,
        every other column ``None`` (NULL if a row is assembled)."""
        heap, _ = make_store(ncols=4)
        rids = [heap.insert((i, -i, f"s{i}", i * 0.5), width=900) for i in range(30)]
        for rid in rids[1::3]:
            heap.delete(rid)  # leaves sparse pages among the dense ones
        live = [i for i in range(30) if i % 3 != 1]
        for batch_rows in (1, 4, 7, 64):
            batches = list(heap.scan_batches(batch_rows, [0, 2]))
            assert all(b._base[1] is None and b._base[3] is None for b in batches)
            assert [v for b in batches for v in b.col(0)] == live
            assert [v for b in batches for v in b.col(2)] == [f"s{i}" for i in live]
            assert [r for b in batches for r in b] == [
                (i, None, f"s{i}", None) for i in live
            ]
        assert [b._base for b in heap.scan_batches(64, [])] == [[None] * 4]
        assert len(next(heap.scan_batches(64, []))) == len(live)


class TestUsingColumnarDDL:
    """There is one page format and no storage clause: a plain CREATE
    TABLE stores column pages, and ``USING <format>`` is refused."""

    def test_parse_and_sql_round_trip(self):
        stmt = parse_statement("CREATE TABLE t (id INTEGER, v VARCHAR(10))")
        assert stmt.sql() == "CREATE TABLE t (id INTEGER, v VARCHAR(10))"
        assert parse_statement(stmt.sql()) == stmt

    def test_create_columnar_table_and_query(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER, v VARCHAR(20))")
        table = db.catalog.table("t")
        assert isinstance(table.heap, HeapFile) and table.heap.ncols == 2
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, f"v{i}"])
        assert isinstance(db.pool.read(table.heap.page_ids()[0]).payload, ColumnPage)
        db.execute("UPDATE t SET v = 'changed' WHERE id = 3")
        db.execute("DELETE FROM t WHERE id = 7")
        rows = db.execute("SELECT id, v FROM t ORDER BY id").rows
        assert len(rows) == 9
        assert rows[3] == (3, "changed")
        assert all(row[0] != 7 for row in rows)

    def test_unknown_storage_rejected(self):
        db = Database()
        for storage in ("columnar", "heap", "parquet"):
            with pytest.raises(ParseError):
                db.execute(f"CREATE TABLE t (id INTEGER) USING {storage}")
        assert not db.catalog.has_table("t")

    def test_both_engines_agree_on_columnar_tables(self):
        db = Database()
        db.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
        for i in range(100):
            db.execute(
                "INSERT INTO t VALUES (?, ?)",
                [i % 7, None if i % 11 == 0 else i],
            )
        assert_pinned_work(
            db,
            "g_v_100",
            "SELECT g, COUNT(*), COUNT(v), AVG(v), MAX(v) "
            "FROM t GROUP BY g ORDER BY g",
        )


class TestColumnarRecovery:
    def test_columnar_table_survives_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path=path)
        db.execute("CREATE TABLE t (id INTEGER, v VARCHAR(10))")
        for i in range(20):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, f"v{i}"])
        del db  # crash: no close(), recovery replays the WAL
        recovered = Database(path=path)
        table = recovered.catalog.table("t")
        assert table.heap.ncols == 2
        rows = recovered.execute("SELECT id, v FROM t ORDER BY id").rows
        assert rows == [(i, f"v{i}") for i in range(20)]

    def test_checkpoint_snapshot_restores_columnar_store(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path=path)
        db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, None if i % 2 else i])
        db.checkpoint()
        for i in range(10, 15):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, i])
        del db  # crash after the checkpoint: snapshot restore + tail replay
        recovered = Database(path=path)
        table = recovered.catalog.table("t")
        assert table.heap.ncols == 2
        rows = recovered.execute("SELECT id, v FROM t ORDER BY id").rows
        assert rows == [
            (i, None if i % 2 else i) for i in range(10)
        ] + [(i, i) for i in range(10, 15)]


class TestOptimizerColumnarCosting:
    def test_columnar_scan_is_discounted(self):
        """Every table's scan is costed at a quarter of a work unit per
        row: predicates run as column comprehensions."""
        from repro.engine.optimizer import _seq_scan_cost

        db = Database()
        db.execute("CREATE TABLE c (id INTEGER)")
        assert _seq_scan_cost(db.catalog.table("c")) == 0.25  # at least a row
        for i in range(50):
            db.execute("INSERT INTO c VALUES (?)", [i])
        assert _seq_scan_cost(db.catalog.table("c")) == 12.5
