"""Heap files: every table's row store, on column pages.

A row's byte width is computed by the caller (the table knows its
column types) and used for placement, so rows-per-page matches what the
declared schema would give on a real 8 KB page.  A page holds its rows
column-major (:class:`~repro.engine.columnstore.ColumnPage`): one native
value list per column, a null bitmap per column and a width per slot.
A point fetch assembles one tuple; :meth:`HeapFile.scan_batches` hands
the vectorized executor column batches, copying only the columns the
query names, so predicates run against columns before any row tuple is
assembled.  On disk a page is a typed, slot-addressable image, so a page
miss for one row decodes that row.

Two insert strategies model the DB2 behaviour hypothesised in Section 5
of the paper ("DB2 is switching between the two insert methods it
provides"):

* ``FIRST_FIT`` — find the most suitable page with enough free space,
  producing a compactly stored relation (slower per insert: the free
  space map is consulted and candidate pages are read).
* ``APPEND`` — append to the last page, producing a sparsely stored
  relation but touching exactly one page.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterator, Sequence

from .columnstore import ColumnBatch, ColumnPage
from .errors import ExecutionError
from .observability.metrics import CounterSet
from .pager import BufferPool, Page, PageKind

#: Per-row slot overhead (slot pointer + record header).
ROW_OVERHEAD = 8

#: Physical row address: ``(page_id, slot)``.  Stable until VACUUM
#: (never).  A plain tuple: a B-tree leaf's image stores it as two int
#: columns and one ``struct`` call gives it back, where an object type
#: would cost a Python call per RID.  The WAL logs it as is.
RowId = tuple[int, int]


class InsertStrategy(enum.Enum):
    FIRST_FIT = "first-fit"
    APPEND = "append"


_page_of = itemgetter(0)


@dataclass
class HeapStats(CounterSet, prefix="heap"):
    """Row operations over every heap file of one registry (one
    database)."""

    fetches: int = 0
    scans: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0


class HeapFile:
    """A heap of rows for one table, stored in DATA pages of one segment.
    ``ncols`` fixes the column count (a physical table's schema never
    changes shape in place)."""

    def __init__(
        self,
        pool: BufferPool,
        segment_id: int,
        strategy: InsertStrategy = InsertStrategy.FIRST_FIT,
        *,
        ncols: int,
    ) -> None:
        self._pool = pool
        self.segment_id = segment_id
        self.strategy = strategy
        self.ncols = ncols
        self._page_ids: list[int] = []
        # Free-space map: page_id -> free bytes. Maintained on insert and
        # delete; FIRST_FIT scans it for the best (tightest) fit.
        self._free_map: dict[int, int] = {}
        self.row_count = 0
        self._stats: HeapStats = pool.metrics.counter_set(HeapStats)

    @property
    def sanitizer(self):
        """The dynamic sanitizer watching this store's pool, if any."""
        return self._pool.sanitizer

    # -- inserts ----------------------------------------------------------

    def insert(self, row: tuple, width: int) -> RowId:
        """Place a row, returning its RID.  ``width`` is its byte size."""
        need = width + ROW_OVERHEAD
        page = self._choose_page(need)
        if page is None:
            page = self._pool.allocate(self.segment_id, PageKind.DATA)
            page.payload = ColumnPage(self.ncols)
            self._page_ids.append(page.page_id)
        payload: ColumnPage = page.payload
        payload.decode()  # a write decodes first, before any list grows
        widths = payload.widths
        try:  # reuse a tombstone slot if one exists so RIDs stay dense-ish
            slot_no = widths.index(None)
        except ValueError:
            slot_no = len(widths)
            widths.append(None)
            for column in payload.columns:
                column.append(None)
        self._write_slot(payload, slot_no, row, width)
        page.used += need
        self._free_map[page.page_id] = page.free
        self._pool.mark_dirty(page.page_id)
        self.row_count += 1
        self._stats.inserts += 1
        return (page.page_id, slot_no)

    def _choose_page(self, need: int) -> Page | None:
        if not self._page_ids:
            return None
        if self.strategy is InsertStrategy.APPEND:
            last = self._pool.read(self._page_ids[-1])
            if last.free >= need:
                return last
            return None
        # FIRST_FIT: pick the tightest page that fits ("most suitable").
        # Searching for the best page inspects candidate pages — the cost
        # that makes DB2's compact insert method slower than append.
        best_id, best_free = None, None
        runner_up = None
        for pid, free in self._free_map.items():
            if free >= need and (best_free is None or free < best_free):
                runner_up = best_id
                best_id, best_free = pid, free
        if best_id is None:
            return None
        if runner_up is not None:
            self._pool.read(runner_up)
        return self._pool.read(best_id)

    # -- reads --------------------------------------------------------------

    def fetch(self, rid: RowId) -> tuple:
        """Read one row by RID (one logical data-page read)."""
        self._stats.fetches += 1
        return self._read_run(rid[0], [rid])[0]

    def fetch_many(self, rids: list[RowId]) -> list[tuple]:
        """Read rows by RID, in order — the executor's FETCH path.

        Consecutive RIDs on one page form a run, read through one
        :meth:`BufferPool.read_run` call that counts one logical read
        per row, so page accounting equals one :meth:`fetch` per RID.
        The dangling-RID check and ``heap.fetches`` still happen once
        per row."""
        self._stats.fetches += len(rids)
        rows: list[tuple] = []
        for page_id, run in groupby(rids, _page_of):
            rows += self._read_run(page_id, list(run))
        return rows

    def _read_run(self, page_id: int, run: list[RowId]) -> list[tuple]:
        page = self._pool.read_run(page_id, len(run))
        return self._page_rows(page.payload, run)

    @staticmethod
    def _page_rows(payload: ColumnPage, run: list[RowId]) -> list[tuple]:
        """Assemble ``run``'s rows from their column slots (cached per
        page, raising on a dangling RID).  An undecoded page decodes
        just these slots."""
        widths = payload.widths
        cache = payload.row_cache
        columns = payload.columns
        rows = []
        for rid in run:
            slot = rid[1]
            if slot >= len(widths) or widths[slot] is None:
                raise ExecutionError(f"dangling RID {rid}")
            row = cache.get(slot)
            if row is None:
                if columns is None:
                    row = payload.decode_slot(slot)
                else:
                    row = tuple([column[slot] for column in columns])
                cache[slot] = row
            rows.append(row)
        return rows

    def scan(self) -> Iterator[tuple[RowId, tuple]]:
        """Full scan in physical order, reading every page once and
        assembling one tuple per live slot — index backfill and DML RID
        matching read rows through it."""
        self._stats.scans += 1
        for pid in list(self._page_ids):
            payload: ColumnPage = self._pool.read(pid).payload
            if payload.image is not None:
                payload.decode()
            columns = payload.columns
            for slot_no, width in enumerate(payload.widths):
                if width is not None:
                    yield (
                        (pid, slot_no),
                        tuple(column[slot_no] for column in columns),
                    )

    def scan_batches(
        self, batch_rows: int, columns: list[int] | None = None
    ) -> Iterator[ColumnBatch]:
        """Late-materializing scan, in the same physical order as
        :meth:`scan`: yields :class:`ColumnBatch` objects whose row
        tuples are only assembled if a downstream operator asks.  Page
        accounting matches :meth:`scan` exactly (one logical read per
        page, one ``heap.scans`` tick per call); batches are full
        batches of ``batch_rows``, the remainder last.

        ``columns`` (slot positions) prunes the copy: only the listed
        columns are copied off each page, the rest ride along as
        ``None`` and NULL-fill if a batch is ever row-assembled.  The
        planner passes this only when it can prove no expression reads
        a pruned slot.  Yielded column lists are freshly built and
        never touched again by this generator, so consumers may keep
        them."""
        self._stats.scans += 1
        ncols = self.ncols
        keep = range(ncols) if columns is None else columns

        def batch(kept: list[list], length: int) -> ColumnBatch:
            if columns is None:
                return ColumnBatch(kept, length=length)
            base: list[list | None] = [None] * ncols
            for i, column in zip(keep, kept):
                base[i] = column
            return ColumnBatch(base, length=length)

        pending: list[list] | None = None
        pending_len = 0
        for pid in list(self._page_ids):
            payload: ColumnPage = self._pool.read(pid).payload
            if payload.live == 0:
                continue
            if payload.image is not None:
                payload.decode()
            page_columns = payload.columns
            widths = payload.widths
            if payload.live == len(widths):
                # Dense page: copy the kept columns wholesale (the
                # page's own lists stay private — later inserts must not
                # mutate a batch already yielded downstream).
                if pending is None:
                    pending = [page_columns[i][:] for i in keep]
                else:
                    for out, i in zip(pending, keep):
                        out += page_columns[i]
            else:
                slots = [s for s, w in enumerate(widths) if w is not None]
                if pending is None:
                    pending = [[] for _ in keep]
                for out, i in zip(pending, keep):
                    column = page_columns[i]
                    out += [column[s] for s in slots]
            pending_len += payload.live
            while pending_len >= batch_rows:
                if pending_len == batch_rows:
                    yield batch(pending, pending_len)
                    pending = None
                    pending_len = 0
                else:
                    yield batch([col[:batch_rows] for col in pending], batch_rows)
                    pending = [col[batch_rows:] for col in pending]
                    pending_len -= batch_rows
        if pending_len:
            yield batch(pending, pending_len)

    # -- updates / deletes ----------------------------------------------------

    def update(
        self, rid: RowId, row: tuple, delta: int, positions: Sequence[int]
    ) -> RowId:
        """Rewrite a row in place; relocate if it no longer fits.
        ``delta`` is the change to its stored width, ``positions`` the
        cells that changed."""
        self._stats.updates += 1
        page_id, slot = rid
        page = self._pool.read(page_id)
        widths = page.payload.widths
        width = widths[slot] if slot < len(widths) else None
        if width is None:
            raise ExecutionError(f"update of deleted RID {rid}")
        width += delta
        if delta <= page.free:
            self._rewrite_slot(page.payload, slot, row, width, positions)
            page.used += delta
            self._free_map[page_id] = page.free
            self._pool.mark_dirty(page_id)
            return rid
        # Doesn't fit: delete here, insert elsewhere (forwarding not
        # modelled; callers maintain indexes and receive the new RID).
        self.delete(rid)
        return self.insert(row, width)

    def reinstate(self, rid: RowId, row: tuple, width: int) -> None:
        """Put a row back into the slot it was deleted from — undoing an
        update the caller refused, so the row keeps the RID the log
        knows it by.  The slot is still a tombstone: :meth:`update` only
        relocates to another page."""
        page = self._pool.read(rid[0])
        self._write_slot(page.payload, rid[1], row, width)
        page.used += width + ROW_OVERHEAD
        self._free_map[page.page_id] = page.free
        self._pool.mark_dirty(page.page_id)
        self.row_count += 1

    def delete(self, rid: RowId) -> None:
        self._stats.deletes += 1
        page_id, slot = rid
        page = self._pool.read(page_id)
        payload: ColumnPage = page.payload
        widths = payload.widths
        width = widths[slot] if slot < len(widths) else None
        if width is None:
            raise ExecutionError(f"double delete of RID {rid}")
        payload.decode()
        bit = 1 << slot
        nulls = payload.nulls
        for c, column in enumerate(payload.columns):
            column[slot] = None
            nulls[c] &= ~bit
        widths[slot] = None
        payload.live -= 1
        payload.row_cache.pop(slot, None)
        page.used -= width + ROW_OVERHEAD
        self._free_map[page_id] = page.free
        self._pool.mark_dirty(page_id)
        self.row_count -= 1

    # -- slot writes: every write decodes an undecoded page first.

    @classmethod
    def _write_slot(
        cls, payload: ColumnPage, slot: int, row: tuple, width: int
    ) -> None:
        """Store a whole row in a tombstone slot."""
        cls._rewrite_slot(payload, slot, row, width, range(len(row)))
        payload.live += 1
        del payload.row_cache[slot]  # only point fetches fill it

    @staticmethod
    def _rewrite_slot(
        payload: ColumnPage, slot: int, row: tuple, width: int, positions
    ) -> None:
        """Store ``row``'s cells at ``positions`` and their null bits (an
        update writes only the cells it assigns); ``row`` becomes the
        slot's cached tuple."""
        payload.decode()
        bit = 1 << slot
        nulls = payload.nulls
        for c in positions:
            value = payload.columns[c][slot] = row[c]
            if value is None:
                nulls[c] |= bit
            else:
                nulls[c] &= ~bit
        payload.widths[slot] = width
        payload.row_cache[slot] = row

    # -- sizing -----------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    def page_ids(self) -> list[int]:
        return list(self._page_ids)

    def free_map(self) -> dict[int, int]:
        """Free-space map copy (captured into checkpoint snapshots)."""
        return dict(self._free_map)

    def restore(
        self, page_ids: list[int], free_map: dict[int, int], row_count: int
    ) -> None:
        """Re-attach to pages already in the page store (recovery)."""
        self._page_ids = list(page_ids)
        self._free_map = dict(free_map)
        self.row_count = row_count

    def drop(self) -> None:
        self._pool.free_segment(self.segment_id)
        self._page_ids.clear()
        self._free_map.clear()
        self.row_count = 0
