"""Heap files: slotted-page row storage.

Rows live in pages as Python tuples; the byte width of each row is
computed by the caller (the table knows its column types) and used for
placement so rows-per-page matches what the declared schema would give
on a real 8 KB page.

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
from typing import Any, Iterator, Sequence

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
    """Row operations over every heap file (row- or column-major) of
    one registry (one database)."""

    fetches: int = 0
    scans: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0


class HeapFile:
    """A heap of rows for one table, stored in DATA pages of one segment."""

    #: Storage discriminator surfaced through the catalog (``Table.storage``)
    #: and persisted in checkpoint snapshots / DDL WAL records.  The
    #: column-major sibling (:class:`~repro.engine.columnstore.ColumnStore`)
    #: overrides this with ``"columnar"``.
    storage_kind = "heap"

    def __init__(
        self,
        pool: BufferPool,
        segment_id: int,
        strategy: InsertStrategy = InsertStrategy.FIRST_FIT,
    ) -> None:
        self._pool = pool
        self.segment_id = segment_id
        self.strategy = strategy
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
            page.payload = self._new_payload()
            self._page_ids.append(page.page_id)
        slot_no = self._free_slot(page.payload)
        self._write_slot(page.payload, slot_no, row, width)
        page.used += need
        self._free_map[page.page_id] = page.free
        self._pool.mark_dirty(page.page_id)
        self.row_count += 1
        self._stats.inserts += 1
        san = self._pool.sanitizer
        if san is not None:
            san.on_row_access(
                (self.segment_id, page.page_id, slot_no), write=True
            )
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
        The dangling-RID check, ``heap.fetches`` and the sanitizer's
        row access still happen once per row."""
        self._stats.fetches += len(rids)
        rows: list[tuple] = []
        for page_id, run in groupby(rids, _page_of):
            rows += self._read_run(page_id, list(run))
        return rows

    def _read_run(self, page_id: int, run: list[RowId]) -> list[tuple]:
        page = self._pool.read_run(page_id, len(run))
        rows = self._page_rows(page.payload, run)
        san = self._pool.sanitizer
        if san is not None:
            for _, slot in run:
                san.on_row_access(
                    (self.segment_id, page_id, slot), write=False
                )
        return rows

    def _page_rows(self, slots: list, run: list[RowId]) -> list[tuple]:
        """The rows at ``run``'s slots of one page (raising on a
        dangling RID)."""
        nslots = len(slots)
        entries = [slots[s] if s < nslots else None for _, s in run]
        if None in entries:
            raise ExecutionError(f"dangling RID {run[entries.index(None)]}")
        return [entry[0] for entry in entries]

    def scan(self) -> Iterator[tuple[RowId, tuple]]:
        """Full scan in physical order, reading every page once."""
        self._stats.scans += 1
        for pid in list(self._page_ids):
            page = self._pool.read(pid)
            for slot_no, entry in enumerate(page.payload):
                if entry is not None:
                    yield (pid, slot_no), entry[0]

    def scan_batches(self, batch_rows: int) -> Iterator[list[tuple]]:
        """Rows only, in the same physical order as :meth:`scan`, in
        lists of at most ``batch_rows`` — the vectorized executor's scan
        path.  Page accounting is identical to :meth:`scan` (one logical
        read per page, one ``heap.scans`` tick per call); rows of one
        page are gathered with a single comprehension instead of a
        per-row generator resumption.  Yielded lists are freshly built
        and never touched again by this generator, so consumers may keep
        or mutate them; exact-size batches are handed over as-is instead
        of being sliced out and shifted (the old ``del batch[:n]``
        memmove on every full batch)."""
        self._stats.scans += 1
        batch: list[tuple] = []
        for pid in list(self._page_ids):
            page = self._pool.read(pid)
            rows = [entry[0] for entry in page.payload if entry is not None]
            if batch:
                batch.extend(rows)
            else:
                batch = rows
            while len(batch) > batch_rows:
                yield batch[:batch_rows]
                batch = batch[batch_rows:]
            if len(batch) == batch_rows:
                yield batch
                batch = []
        if batch:
            yield batch

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
        width = self._stored_width(page.payload, slot)
        if width is None:
            raise ExecutionError(f"update of deleted RID {rid}")
        width += delta
        if delta <= page.free:
            self._rewrite_slot(page.payload, slot, row, width, positions)
            page.used += delta
            self._free_map[page_id] = page.free
            self._pool.mark_dirty(page_id)
            san = self._pool.sanitizer
            if san is not None:
                san.on_row_access((self.segment_id, page_id, slot), write=True)
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
        width = self._stored_width(page.payload, slot)
        if width is None:
            raise ExecutionError(f"double delete of RID {rid}")
        self._clear_slot(page.payload, slot)
        page.used -= width + ROW_OVERHEAD
        self._free_map[page_id] = page.free
        self._pool.mark_dirty(page_id)
        self.row_count -= 1
        san = self._pool.sanitizer
        if san is not None:
            san.on_row_access((self.segment_id, page_id, slot), write=True)

    # -- page payload: one ``(row, width)`` entry per slot, None for a
    # tombstone.  The column store overrides exactly these hooks.

    def _new_payload(self) -> Any:
        return []

    def _free_slot(self, slots: list) -> int:
        """Reuse a tombstone slot if one exists so RIDs stay dense-ish."""
        try:
            return slots.index(None)
        except ValueError:
            slots.append(None)
            return len(slots) - 1

    def _stored_width(self, slots: list, slot: int) -> int | None:
        entry = slots[slot] if slot < len(slots) else None
        return None if entry is None else entry[1]

    def _write_slot(self, slots: list, slot: int, row: tuple, width: int) -> None:
        slots[slot] = (row, width)

    def _rewrite_slot(
        self, slots: list, slot: int, row: tuple, width: int, positions
    ) -> None:
        slots[slot] = (row, width)  # a row page stores the whole tuple

    def _clear_slot(self, slots: list, slot: int) -> None:
        slots[slot] = None

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
