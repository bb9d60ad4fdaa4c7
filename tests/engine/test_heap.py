"""Tests for heap files and the two insert strategies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.errors import ExecutionError
from repro.engine.heap import HeapFile, InsertStrategy
from repro.engine.pager import BufferPool


def make_heap(strategy=InsertStrategy.FIRST_FIT, capacity=64, ncols=1):
    pool = BufferPool(capacity_pages=capacity)
    return HeapFile(pool, segment_id=1, strategy=strategy, ncols=ncols), pool


class TestInsertFetch:
    def test_roundtrip(self):
        heap, _ = make_heap(ncols=2)
        rid = heap.insert(("a", 1), width=10)
        assert heap.fetch(rid) == ("a", 1)

    def test_row_count(self):
        heap, _ = make_heap()
        for i in range(5):
            heap.insert((i,), width=10)
        assert heap.row_count == 5

    def test_wide_rows_spill_to_new_pages(self):
        heap, _ = make_heap()
        for i in range(5):
            heap.insert((i,), width=4000)
        assert heap.page_count >= 3

    def test_scan_returns_all_rows(self):
        heap, _ = make_heap(ncols=2)
        rows = [(i, f"r{i}") for i in range(20)]
        for row in rows:
            heap.insert(row, width=20)
        assert sorted(r for _, r in heap.scan()) == sorted(rows)


class TestDelete:
    def test_delete_removes_row(self):
        heap, _ = make_heap()
        rid = heap.insert((1,), width=10)
        heap.delete(rid)
        assert heap.row_count == 0
        assert list(heap.scan()) == []

    def test_double_delete_raises(self):
        heap, _ = make_heap()
        rid = heap.insert((1,), width=10)
        heap.delete(rid)
        with pytest.raises(ExecutionError):
            heap.delete(rid)

    def test_fetch_deleted_raises(self):
        heap, _ = make_heap()
        rid = heap.insert((1,), width=10)
        heap.delete(rid)
        with pytest.raises(ExecutionError):
            heap.fetch(rid)

    def test_slot_reuse_after_delete(self):
        heap, _ = make_heap()
        rid = heap.insert((1,), width=10)
        heap.delete(rid)
        rid2 = heap.insert((2,), width=10)
        assert rid2 == rid  # tombstone reused


class TestUpdate:
    def test_in_place_update(self):
        heap, _ = make_heap(ncols=2)
        rid = heap.insert((1, "a"), width=10)
        new_rid = heap.update(rid, (1, "b"), 0, [1])
        assert new_rid == rid
        assert heap.fetch(rid) == (1, "b")

    def test_growing_update_relocates(self):
        heap, _ = make_heap()
        rid = heap.insert((1,), width=8000)
        heap.insert((2,), width=50)
        new_rid = heap.update(rid, (1,), 50, [0])
        assert heap.fetch(new_rid) == (1,)

    def test_update_deleted_raises(self):
        heap, _ = make_heap()
        rid = heap.insert((1,), width=10)
        heap.delete(rid)
        with pytest.raises(ExecutionError):
            heap.update(rid, (2,), 0, [0])


class TestStrategies:
    def test_first_fit_reuses_holes(self):
        """FIRST_FIT backfills space left by deletes (compact relation)."""
        heap, _ = make_heap(InsertStrategy.FIRST_FIT)
        rids = [heap.insert((i,), width=2000) for i in range(8)]
        pages_before = heap.page_count
        for rid in rids[::2]:
            heap.delete(rid)
        for i in range(4):
            heap.insert((100 + i,), width=2000)
        assert heap.page_count == pages_before

    def test_append_grows_instead(self):
        """APPEND only looks at the last page (sparse relation)."""
        heap, _ = make_heap(InsertStrategy.APPEND)
        rids = [heap.insert((i,), width=2000) for i in range(8)]
        pages_before = heap.page_count
        for rid in rids[:4]:
            heap.delete(rid)  # free space in early pages
        for i in range(4):
            heap.insert((100 + i,), width=2000)
        assert heap.page_count > pages_before

    def test_append_touches_fewer_pages_when_fragmented(self):
        """With holes spread over many pages, FIRST_FIT's best-fit hunt
        inspects candidates while APPEND touches only the tail page."""

        def fragmented(strategy):
            heap, pool = make_heap(strategy)
            rids = [heap.insert((i,), width=1500) for i in range(40)]
            for rid in rids[::2]:
                heap.delete(rid)
            before = pool.stats.snapshot()
            for i in range(20):
                heap.insert((100 + i,), width=700)
            return pool.stats.delta(before).logical_data

        assert fragmented(InsertStrategy.APPEND) < fragmented(
            InsertStrategy.FIRST_FIT
        )


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "update"]),
                st.integers(0, 30),
                st.integers(10, 3000),
            ),
            max_size=60,
        )
    )
    def test_heap_matches_dict_model(self, ops):
        """The heap behaves like a dict keyed by RID."""
        heap, _ = make_heap()
        model: dict = {}
        widths: dict = {}
        counter = 0
        for op, pick, width in ops:
            if op == "insert" or not model:
                rid = heap.insert((counter,), width)
                model[rid] = (counter,)
                widths[rid] = width
                counter += 1
            else:
                rid = sorted(model)[
                    pick % len(model)
                ]
                if op == "delete":
                    heap.delete(rid)
                    del model[rid]
                else:
                    delta = width - widths.pop(rid)
                    new_rid = heap.update(rid, (counter,), delta, [0])
                    del model[rid]
                    model[new_rid] = (counter,)
                    widths[new_rid] = width
                    counter += 1
        assert heap.row_count == len(model)
        assert dict(heap.scan()) == model
