"""Tests for pages, the LRU buffer pool, and its counters."""

import pytest

from repro.engine.errors import EngineError
from repro.engine.pager import PAGE_HEADER, BufferPool, PageKind


def make_pool(capacity=4):
    return BufferPool(capacity_pages=capacity, page_size=8192)


class TestAllocation:
    def test_allocate_assigns_increasing_ids(self):
        pool = make_pool()
        a = pool.allocate(1, PageKind.DATA)
        b = pool.allocate(1, PageKind.DATA)
        assert b.page_id > a.page_id

    def test_capacity_excludes_header(self):
        pool = make_pool()
        page = pool.allocate(1, PageKind.DATA)
        assert page.capacity == 8192 - PAGE_HEADER

    def test_allocation_counts_as_write(self):
        pool = make_pool()
        pool.allocate(1, PageKind.DATA)
        assert pool.stats.writes == 1

    def test_pool_requires_a_frame(self):
        with pytest.raises(EngineError):
            BufferPool(capacity_pages=0)


class TestReadCounters:
    def test_resident_read_is_logical_only(self):
        pool = make_pool()
        page = pool.allocate(1, PageKind.DATA)
        pool.read(page.page_id)
        assert pool.stats.logical_data == 1
        assert pool.stats.physical_data == 0

    def test_miss_counts_physical(self):
        pool = make_pool(capacity=1)
        a = pool.allocate(1, PageKind.DATA)
        pool.allocate(1, PageKind.DATA)  # evicts a
        pool.read(a.page_id)
        assert pool.stats.physical_data == 1

    def test_index_and_data_counted_separately(self):
        pool = make_pool()
        d = pool.allocate(1, PageKind.DATA)
        i = pool.allocate(2, PageKind.INDEX)
        pool.read(d.page_id)
        pool.read(i.page_id)
        assert pool.stats.logical_data == 1
        assert pool.stats.logical_index == 1

    def test_read_unknown_page_raises(self):
        pool = make_pool()
        with pytest.raises(EngineError):
            pool.read(999)


class TestEviction:
    def test_lru_evicts_least_recent(self):
        pool = make_pool(capacity=2)
        a = pool.allocate(1, PageKind.DATA)
        b = pool.allocate(1, PageKind.DATA)
        pool.read(a.page_id)  # a is now most recent
        pool.allocate(1, PageKind.DATA)  # must evict b
        pool.read(a.page_id)
        assert pool.stats.physical_data == 0
        pool.read(b.page_id)
        assert pool.stats.physical_data == 1

    def test_pinned_pages_survive_eviction(self):
        pool = make_pool(capacity=2)
        a = pool.allocate(1, PageKind.DATA)
        pool.read(a.page_id, pin=True)
        pool.allocate(1, PageKind.DATA)
        pool.allocate(1, PageKind.DATA)
        pool.read(a.page_id)
        assert pool.stats.physical_data == 0
        pool.unpin(a.page_id)

    def test_flush_empties_pool(self):
        pool = make_pool()
        a = pool.allocate(1, PageKind.DATA)
        pool.flush()
        assert pool.resident_pages == 0
        pool.read(a.page_id)
        assert pool.stats.physical_data == 1

    def test_resize_shrinks_pool(self):
        pool = make_pool(capacity=4)
        pages = [pool.allocate(1, PageKind.DATA) for _ in range(4)]
        pool.resize(1)
        assert pool.resident_pages == 1
        # Only the most recently used page stays.
        pool.read(pages[-1].page_id)
        assert pool.stats.physical_data == 0


class TestResizeAccounting:
    """Regression: frame drops forced by resize() must not pollute the
    workload's eviction counter, so deltas taken across a resize (the
    Experiment 1 DDL path) stay attributable to the workload."""

    def test_resize_drops_count_separately(self):
        pool = make_pool(capacity=4)
        for _ in range(4):
            pool.allocate(1, PageKind.DATA)
        before = pool.stats.snapshot()
        pool.resize(1)
        delta = pool.stats.delta(before)
        assert delta.evictions == 0
        assert delta.resize_evictions == 3
        # Every PoolStats counter stays non-negative across the resize.
        assert all(value >= 0 for value in vars(delta).values())

    def test_capacity_evictions_still_counted(self):
        pool = make_pool(capacity=2)
        for _ in range(3):
            pool.allocate(1, PageKind.DATA)
        assert pool.stats.evictions == 1
        assert pool.stats.resize_evictions == 0

    def test_dirty_victims_count_writebacks(self):
        pool = make_pool(capacity=4)
        pages = [pool.allocate(1, PageKind.DATA) for _ in range(4)]
        for page in pages:
            pool.mark_dirty(page.page_id)
        pool.resize(2)
        assert pool.stats.writebacks == 2
        pool.flush()
        assert pool.stats.writebacks == 4

    def test_workload_delta_across_ddl_resize(self):
        """The end-to-end shape of the bug: a measurement window that
        spans a DDL-triggered pool shrink must see only the workload's
        own evictions."""
        pool = make_pool(capacity=8)
        pages = [pool.allocate(1, PageKind.DATA) for _ in range(8)]
        before = pool.stats.snapshot()
        pool.resize(4)  # DDL ate the buffer pool mid-window
        for page in pages:
            pool.read(page.page_id)
        delta = pool.stats.delta(before)
        assert delta.resize_evictions == 4
        # Sequential re-reads through a 4-frame pool thrash: every read
        # misses and evicts the page about to be read next.  Those 8
        # capacity evictions belong to the workload and stay separate
        # from the 4 the resize caused.
        assert delta.evictions == 8
        assert delta.physical_data == 8
        assert delta.logical_data == 8

    def test_grow_resize_evicts_nothing(self):
        pool = make_pool(capacity=2)
        for _ in range(2):
            pool.allocate(1, PageKind.DATA)
        before = pool.stats.snapshot()
        pool.resize(8)
        delta = pool.stats.delta(before)
        assert delta.resize_evictions == 0
        assert delta.evictions == 0


class TestHitRatio:
    def test_perfect_hit_ratio(self):
        pool = make_pool()
        page = pool.allocate(1, PageKind.DATA)
        for _ in range(10):
            pool.read(page.page_id)
        assert pool.stats.hit_ratio() == 1.0

    def test_hit_ratio_by_kind(self):
        pool = make_pool(capacity=1)
        d = pool.allocate(1, PageKind.DATA)
        i = pool.allocate(2, PageKind.INDEX)  # evicts d
        pool.read(d.page_id)  # miss
        pool.read(d.page_id)  # hit
        assert pool.stats.hit_ratio(PageKind.DATA) == 0.5
        assert pool.stats.hit_ratio(PageKind.INDEX) == 1.0

    def test_no_reads_is_ratio_one(self):
        assert make_pool().stats.hit_ratio() == 1.0


class TestSnapshots:
    def test_delta_isolates_an_interval(self):
        pool = make_pool()
        page = pool.allocate(1, PageKind.DATA)
        pool.read(page.page_id)
        before = pool.stats.snapshot()
        pool.read(page.page_id)
        pool.read(page.page_id)
        delta = pool.stats.delta(before)
        assert delta.logical_data == 2


class TestSegments:
    def test_free_segment_drops_pages(self):
        pool = make_pool()
        a = pool.allocate(1, PageKind.DATA)
        pool.allocate(2, PageKind.DATA)
        dropped = pool.free_segment(1)
        assert dropped == 1
        with pytest.raises(EngineError):
            pool.read(a.page_id)
