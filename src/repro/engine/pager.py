"""Pages and the instrumented buffer pool.

Everything the engine reads or writes goes through a :class:`BufferPool`,
which maintains the counters the paper reports: logical page reads,
physical page reads, and buffer-pool hit ratios split between *data* and
*index* pages (Table 2, Figures 7(c) and 10).

The pool's page capacity is derived from a memory budget, from which the
catalog first subtracts a fixed per-table meta-data cost (4 KB per table
by default — the DB2 V9.1 figure quoted in Section 1.1 of the paper).
This coupling is the mechanism behind Experiment 1: more tables leave
fewer pool frames, so index root/leaf pages start thrashing.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from .errors import EngineError
from .observability.metrics import CounterSet, MetricsRegistry

#: Default page size, 8 KB — the page size used for all user data and
#: indexes in the paper's experiment (Section 5).
DEFAULT_PAGE_SIZE = 8192

#: Per-page header / slot directory overhead we charge before payload.
PAGE_HEADER = 96


class PageKind(enum.Enum):
    """Data pages belong to heap files, index pages to B-trees."""

    DATA = "data"
    INDEX = "index"


@dataclass
class Page:
    """A fixed-size page owned by one segment (heap file or index).

    ``payload`` is interpreted by the owning structure: a list of rows for
    heap pages, a node object for index pages.  ``used`` is the number of
    payload bytes currently accounted for, maintained by the owner.
    """

    page_id: int
    segment_id: int
    kind: PageKind
    size: int
    used: int = 0
    payload: Any = None
    #: WAL LSN current when the page was last dirtied (disk-backed mode
    #: only; drives the WAL rule on writeback).  0 in memory mode.
    lsn: int = 0

    @property
    def capacity(self) -> int:
        """Usable payload bytes."""
        return self.size - PAGE_HEADER

    @property
    def free(self) -> int:
        return self.capacity - self.used


@dataclass
class PoolStats(CounterSet):
    """Read/write counters, split by page kind.

    *Logical* reads count every page access; *physical* reads count the
    subset that missed the buffer pool.  The hit ratio is
    ``1 - physical/logical`` as in DB2's bufferpool snapshot.

    Frame drops are attributed by cause: ``evictions`` counts only
    capacity-pressure LRU victims; drops forced by a pool ``resize()``
    (the Experiment 1 DDL path) land in ``resize_evictions`` so a delta
    taken across a resize never charges DDL work to the workload.
    ``writebacks`` counts dirty frames dropped by any cause.
    """

    logical_data: int = 0
    logical_index: int = 0
    physical_data: int = 0
    physical_index: int = 0
    writes: int = 0
    evictions: int = 0
    resize_evictions: int = 0
    writebacks: int = 0

    EXPORTED = {
        "logical_data": "pool.data.logical_reads",
        "logical_index": "pool.index.logical_reads",
        "physical_data": "pool.data.physical_reads",
        "physical_index": "pool.index.physical_reads",
        "writes": "pool.writes",
        "evictions": "pool.evictions",
        "resize_evictions": "pool.resize_evictions",
        "writebacks": "pool.writebacks",
    }

    @property
    def logical_total(self) -> int:
        return self.logical_data + self.logical_index

    @property
    def physical_total(self) -> int:
        return self.physical_data + self.physical_index

    def hit_ratio(self, kind: PageKind | None = None) -> float:
        """Buffer-pool hit ratio in [0, 1]; 1.0 when nothing was read."""
        if kind is PageKind.DATA:
            logical, physical = self.logical_data, self.physical_data
        elif kind is PageKind.INDEX:
            logical, physical = self.logical_index, self.physical_index
        else:
            logical, physical = self.logical_total, self.physical_total
        if logical == 0:
            return 1.0
        return 1.0 - physical / logical


@dataclass
class _Frame:
    page: Page
    pins: int = 0
    dirty: bool = False


class BufferPool:
    """An LRU buffer pool over a simulated or real disk.

    In memory mode (the default) the "disk" is the ``_disk`` dict: pages
    never disappear, but accessing a page that is not resident counts as
    a physical read and may evict the least-recently-used unpinned
    frame.  Pinned pages (e.g. B-tree root pages during a descent) are
    never evicted.

    With a ``store`` (a :class:`~repro.engine.durability.pagestore.DiskPageStore`)
    the pool is disk-backed: misses read page images from segment files,
    dirty frames are written back on eviction/flush, and the WAL rule is
    enforced through ``durability`` before any dirty page reaches disk.
    The counting contract is identical in both modes.
    """

    def __init__(
        self,
        capacity_pages: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        metrics=None,
        store=None,
        durability=None,
    ):
        if capacity_pages < 1:
            raise EngineError("buffer pool needs at least one frame")
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        #: Tests build pools bare; a private registry keeps one code path.
        self.metrics = metrics or MetricsRegistry()
        self.stats: PoolStats = self.metrics.counter_set(PoolStats)
        self.metrics.attach(
            self,
            {
                "resident_pages": "pool.resident_pages",
                "capacity_pages": "pool.capacity_pages",
            },
        )
        self._store = store
        self._durability = durability
        self._disk: dict[int, Page] = {}
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        self._next_page_id = 1
        # Optional dynamic sanitizer (WAL-rule + pin-leak checking).
        self.sanitizer = None

    # -- allocation -------------------------------------------------------

    def allocate(
        self, segment_id: int, kind: PageKind, *, pin: bool = False
    ) -> Page:
        """Create a new page, resident and counted as a write."""
        page = Page(self._next_page_id, segment_id, kind, self.page_size)
        self._next_page_id += 1
        if self._store is None:
            self._disk[page.page_id] = page
            frame = self._admit(page)
        else:
            # A fresh page is born dirty: it exists nowhere on disk yet,
            # so it must be written back even if never marked again.
            page.lsn = self._durability.current_lsn
            frame = self._admit(page)
            frame.dirty = True
        if pin:
            frame.pins += 1
        self.stats.writes += 1
        return page

    def free_segment(self, segment_id: int) -> int:
        """Drop every page of a segment (DROP TABLE/INDEX). Returns count."""
        doomed = self.pages_in_segment(segment_id)
        for pid in doomed:
            self._frames.pop(pid, None)
            self._disk.pop(pid, None)
        if self._store is not None:
            self._store.free_segment(segment_id)
        return len(doomed)

    # -- access -----------------------------------------------------------

    def read(self, page_id: int, *, pin: bool = False) -> Page:
        """Access a page, recording a logical (and possibly physical) read."""
        stats = self.stats
        frame = self._frames.get(page_id)
        if frame is not None:
            page = frame.page
            self._frames.move_to_end(page_id)
        else:
            if self._store is not None:
                page = self._store.read(page_id)
            else:
                page = self._disk.get(page_id)
                if page is None:
                    raise EngineError(f"page {page_id} does not exist")
            if page.kind is PageKind.DATA:
                stats.physical_data += 1
            else:
                stats.physical_index += 1
            frame = self._admit(page)
        if page.kind is PageKind.DATA:
            stats.logical_data += 1
        else:
            stats.logical_index += 1
        if pin:
            frame.pins += 1
        return page

    def read_run(self, page_id: int, n: int) -> Page:
        """``n`` back-to-back reads of one page.  Only the first can miss:
        it leaves the page most recently used, so reads 2..n are hits and
        count as logical reads alone — the same logical, physical,
        eviction and LRU outcome as ``n`` calls to :meth:`read`."""
        page = self.read(page_id)
        if n > 1:
            if page_id not in self._frames:
                # A pool pinned full evicts the page it just admitted.
                for _ in range(n - 1):
                    self.read(page_id)
            elif page.kind is PageKind.DATA:
                self.stats.logical_data += n - 1
            else:
                self.stats.logical_index += n - 1
        return page

    def unpin(self, page_id: int) -> None:
        frame = self._frames.get(page_id)
        if frame is not None and frame.pins > 0:
            frame.pins -= 1

    def mark_dirty(self, page_id: int) -> None:
        """Record a write to a resident page."""
        frame = self._frames.get(page_id)
        if frame is not None:
            frame.dirty = True
            if self._store is not None:
                # Stamp with the current log position: the WAL rule will
                # flush through this LSN before the page hits disk.
                frame.page.lsn = self._durability.current_lsn
            if self.sanitizer is not None:
                self.sanitizer.on_page_dirty(frame.page)
        elif self._store is not None:
            # In disk mode a mutation to a non-resident page would be
            # silently lost — fail fast (callers pin across the window
            # between read and mark_dirty).
            raise EngineError(f"mark_dirty of non-resident page {page_id}")
        self.stats.writes += 1

    # -- cache control ------------------------------------------------------

    def flush(self) -> None:
        """Empty the pool (cold-cache experiments, Figure 11).  Dropping
        dirty frames counts as writebacks but not as evictions — a flush
        is an experiment control, not capacity pressure."""
        for frame in self._frames.values():
            if frame.dirty:
                if self._store is not None:
                    self._writeback(frame.page)
                self.stats.writebacks += 1
        self._frames.clear()

    def drop_frames(self) -> None:
        """Forget every frame, written back or not (a closed database)."""
        self._frames.clear()

    def write_back_all(self) -> None:
        """Write every dirty frame to the store without dropping it
        (checkpoint: the pool stays warm, the disk becomes current)."""
        if self._store is None:
            return
        for frame in self._frames.values():
            if frame.dirty:
                self._writeback(frame.page)
                frame.dirty = False

    def resize(self, capacity_pages: int) -> None:
        """Shrink/grow the pool; used when DDL changes the meta-data
        budget.  Frames dropped by the shrink are counted under
        ``resize_evictions`` (not ``evictions``) so workload deltas taken
        across a resize stay attributable to the workload."""
        if capacity_pages < 1:
            capacity_pages = 1
        self.capacity_pages = capacity_pages
        self._evict_to_capacity(resize=True)

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    @property
    def next_page_id(self) -> int:
        return self._next_page_id

    @next_page_id.setter
    def next_page_id(self, value: int) -> None:
        self._next_page_id = value

    @property
    def durable(self) -> bool:
        """True when the pool is backed by a real on-disk page store."""
        return self._store is not None

    def pages_in_segment(self, segment_id: int) -> set[int]:
        """All page ids a segment currently owns (on disk or frame-only)."""
        if self._store is not None:
            pids = set(self._store.pages_in_segment(segment_id))
            pids.update(
                pid
                for pid, frame in self._frames.items()
                if frame.page.segment_id == segment_id
            )
            return pids
        return {
            pid for pid, p in self._disk.items() if p.segment_id == segment_id
        }

    def resident_ratio(self, segment_ids: set[int]) -> float:
        """Fraction of a segment set's pages currently resident."""
        if self._store is not None:
            total_pids: set[int] = set()
            for segment_id in segment_ids:
                total_pids |= self.pages_in_segment(segment_id)
            if not total_pids:
                return 1.0
            resident = sum(
                1
                for pid, frame in self._frames.items()
                if frame.page.segment_id in segment_ids
            )
            return resident / len(total_pids)
        total = sum(1 for p in self._disk.values() if p.segment_id in segment_ids)
        if total == 0:
            return 1.0
        resident = sum(
            1
            for pid in self._frames
            if self._disk[pid].segment_id in segment_ids
        )
        return resident / total

    # -- internals ----------------------------------------------------------

    def _admit(self, page: Page) -> _Frame:
        frame = _Frame(page)
        self._frames[page.page_id] = frame
        self._frames.move_to_end(page.page_id)
        self._evict_to_capacity()
        return frame

    def _writeback(self, page: Page) -> None:
        """Persist one dirty page, honoring the WAL rule first."""
        if self._durability is not None:
            self._durability.before_page_write(page)
        if self.sanitizer is not None:
            self.sanitizer.on_page_writeback(page)
        self._store.write(page, page.lsn)

    def _evict_to_capacity(self, *, resize: bool = False) -> None:
        while len(self._frames) > self.capacity_pages:
            victim_id = None
            victim = None
            for pid, frame in self._frames.items():
                if frame.pins == 0:
                    victim_id, victim = pid, frame
                    break
            if victim_id is None:
                # Everything pinned: allow temporary over-commit rather
                # than deadlocking the simulation.
                return
            del self._frames[victim_id]
            if victim.dirty:
                if self._store is not None:
                    self._writeback(victim.page)
                self.stats.writebacks += 1
            if resize:
                self.stats.resize_evictions += 1
            else:
                self.stats.evictions += 1
