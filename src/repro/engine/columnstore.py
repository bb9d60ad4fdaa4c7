"""Column-major storage for shared tables.

A :class:`ColumnStore` is a drop-in sibling of
:class:`~repro.engine.heap.HeapFile`: same public surface (``insert`` /
``fetch`` / ``fetch_many`` / ``scan`` / ``scan_batches`` / ``update`` /
``delete`` / ``restore`` / ``drop``), same page placement policy, same
free-space accounting, and the same ``heap.*`` counters — so indexes,
DML, checkpoint snapshots, and logical WAL replay all work unchanged.  The
difference is the page payload: instead of one ``(row, width)`` entry
per slot, a column page holds one native value list *per column* plus a
per-column null bitmap, and the batch scan hands those columns to the
vectorized executor directly (:class:`ColumnBatch`) so predicates run
against columns before any row tuple is assembled.

Why this matters for the paper: the chunk/pivot/universal layouts store
*all* tenants in a handful of wide shared tables, and reconstruction
queries scan them with highly selective meta predicates (``tenant`` /
``tbl`` / ``chunk``).  Row-major pages force the scan to materialize
every row before the predicate rejects ~(C-1)/C of them; column pages
evaluate the predicate on two or three meta columns and only assemble
the survivors.  That is the storage-side half of closing the paper's
chunk-table grouping gap (Section 5's "Additional Tests").

Placement parity is deliberate: byte widths, ``ROW_OVERHEAD``, the
FIRST_FIT tightest-fit search (including its runner-up page read), and
tombstone slot reuse are identical to the heap, so a table stores the
same rows on the same number of pages with the same free map whichever
format it uses — the differential suites assert logical-read parity on
top of this.
"""

from __future__ import annotations

from typing import Iterator

from .errors import ExecutionError
from .heap import HeapFile, RowId


class ColumnPage:
    """Payload of one column-major data page.

    ``columns[c][s]`` is the value of column ``c`` in slot ``s`` (``None``
    both for SQL NULL and for tombstoned slots — ``widths`` disambiguates).
    ``nulls[c]`` is the column's null bitmap: bit ``s`` is set iff the live
    value in slot ``s`` is NULL.  ``widths[s]`` is the stored byte width of
    the row in slot ``s``, or ``None`` for a tombstone; ``live`` counts the
    non-tombstone slots so scans can detect dense pages in O(1).

    ``row_cache`` memoizes tuples assembled by point fetches (index
    probes hit the same hot slots over and over in reconstruction
    joins); it is transient — dropped on page eviction (not pickled),
    replaced by the new tuple on an update and dropped per slot on
    other writes — so it never changes what a fetch returns, only how
    often the tuple is rebuilt.
    """

    __slots__ = ("columns", "nulls", "widths", "live", "row_cache")

    def __init__(self, ncols: int) -> None:
        self.columns: list[list] = [[] for _ in range(ncols)]
        self.nulls: list[int] = [0] * ncols
        self.widths: list[int | None] = []
        self.live = 0
        self.row_cache: dict[int, tuple] = {}

    # Explicit pickling keeps the on-disk page format stable (and keeps
    # the transient row cache out of it).
    def __getstate__(self):
        return (self.columns, self.nulls, self.widths, self.live)

    def __setstate__(self, state) -> None:
        self.columns, self.nulls, self.widths, self.live = state
        self.row_cache = {}


class ColumnBatch:
    """A batch of rows held column-major, materialized lazily.

    Behaves like the ``list[tuple]`` batches the vectorized operators
    exchange (``len`` / ``iter`` / indexing / slicing), but keeps values
    in per-column lists until someone actually asks for row tuples.
    Filters narrow a batch with :meth:`take` — a selection vector over
    the underlying columns — so a predicate on two meta columns of a
    ten-column chunk table never touches the other eight unless rows
    survive.  Operators without a columnar fast path just iterate it and
    transparently get assembled row tuples.
    """

    __slots__ = ("_base", "_sel", "_cols", "_rows", "_len", "_base_len")

    def __init__(
        self,
        columns: list[list | None],
        sel: list[int] | None = None,
        *,
        length: int | None = None,
    ):
        self._base = columns
        self._sel = sel
        self._cols: dict[int, list] | None = {} if sel is not None else None
        self._rows: list[tuple] | None = None
        if length is None:
            # A pruned (``None``) column has no length; find a real one.
            length = 0
            for column in columns:
                if column is not None:
                    length = len(column)
                    break
        self._base_len = length
        self._len = len(sel) if sel is not None else length

    @property
    def width(self) -> int:
        return len(self._base)

    def col(self, i: int) -> list:
        """Column ``i`` as a value list (selection applied, cached).

        A column the scan pruned (base entry ``None``) materializes as
        all-NULL on first touch; the planner only prunes columns it can
        prove no expression reads, so these values feed nothing but
        positional row assembly."""
        if self._sel is None:
            base = self._base[i]
            if base is None:
                base = self._base[i] = [None] * self._base_len
            return base
        assert self._cols is not None
        cached = self._cols.get(i)
        if cached is None:
            base, sel = self._base[i], self._sel
            if base is None:
                cached = self._cols[i] = [None] * len(sel)
            else:
                cached = self._cols[i] = [base[j] for j in sel]
        return cached

    def take(self, sel: list[int]) -> "ColumnBatch":
        """Narrow to the given row positions (composes lazily)."""
        if self._sel is not None:
            prior = self._sel
            sel = [prior[j] for j in sel]
        return ColumnBatch(self._base, sel, length=self._base_len)

    def rows(self) -> list[tuple]:
        """Assemble (and cache) the row tuples."""
        assembled = self._rows
        if assembled is None:
            if self._len == 0:
                assembled = []
            else:
                cols = [self.col(i) for i in range(len(self._base))]
                assembled = list(zip(*cols))
            self._rows = assembled
        return assembled

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self):
        return iter(self.rows())

    def __getitem__(self, item):
        return self.rows()[item]


class ColumnStore(HeapFile):
    """Column-major row store with heap-identical placement.

    Inherits insert / update / delete — the free-space map, page choice
    (FIRST_FIT / APPEND), sizing and relocation — plus ``restore`` and
    ``drop`` from :class:`HeapFile`; overrides the payload hooks those
    call and the read paths.  ``ncols`` fixes the column count (a
    physical table's schema never changes shape in place).
    """

    storage_kind = "columnar"

    def __init__(self, pool, segment_id, strategy, *, ncols: int):
        super().__init__(pool, segment_id, strategy)
        self.ncols = ncols

    # -- page payload hooks (placement and accounting are the heap's) -----

    def _new_payload(self) -> ColumnPage:
        return ColumnPage(self.ncols)

    def _free_slot(self, payload: ColumnPage) -> int:
        widths = payload.widths
        try:
            return widths.index(None)
        except ValueError:
            widths.append(None)
            for column in payload.columns:
                column.append(None)
            return len(widths) - 1

    def _stored_width(self, payload: ColumnPage, slot: int) -> int | None:
        return payload.widths[slot] if slot < len(payload.widths) else None

    def _write_slot(
        self, payload: ColumnPage, slot_no: int, row: tuple, width: int
    ) -> None:
        self._rewrite_slot(payload, slot_no, row, width, range(len(row)))
        payload.live += 1
        del payload.row_cache[slot_no]  # only point fetches fill it

    def _rewrite_slot(
        self, payload: ColumnPage, slot_no: int, row: tuple, width: int, positions
    ) -> None:
        """Store ``row``'s cells at ``positions`` and their null bits (an
        update writes only the cells it assigns); ``row`` becomes the
        slot's cached tuple."""
        bit = 1 << slot_no
        nulls = payload.nulls
        for c in positions:
            value = payload.columns[c][slot_no] = row[c]
            if value is None:
                nulls[c] |= bit
            else:
                nulls[c] &= ~bit
        payload.widths[slot_no] = width
        payload.row_cache[slot_no] = row

    def _clear_slot(self, payload: ColumnPage, slot_no: int) -> None:
        bit = 1 << slot_no
        for c, column in enumerate(payload.columns):
            column[slot_no] = None
            payload.nulls[c] &= ~bit
        payload.widths[slot_no] = None
        payload.live -= 1
        payload.row_cache.pop(slot_no, None)

    # -- reads ------------------------------------------------------------

    def _page_rows(self, payload: ColumnPage, run: list[RowId]) -> list[tuple]:
        """Assemble ``run``'s rows from their column slots (cached per
        page, raising on a dangling RID)."""
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
                row = cache[slot] = tuple([column[slot] for column in columns])
            rows.append(row)
        return rows

    def scan(self) -> Iterator[tuple[RowId, tuple]]:
        """Row-assembly adapter: full scan in physical order, assembling
        one tuple per live slot — index backfill, DML RID matching and
        the reference interpreter run unchanged over column pages."""
        self._stats.scans += 1
        for pid in list(self._page_ids):
            page = self._pool.read(pid)
            payload: ColumnPage = page.payload
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
        """Late-materializing scan: yields :class:`ColumnBatch` objects
        whose row tuples are only assembled if a downstream operator
        asks.  Page accounting matches :meth:`scan` exactly (one logical
        read per page, one ``heap.scans`` tick per call), and batch
        boundaries match the heap's ``scan_batches`` (full batches of
        ``batch_rows``, remainder last) so cross-format batch counts
        line up.

        ``columns`` (slot positions) prunes the copy: only the listed
        columns are materialized, the rest ride along as ``None`` and
        NULL-fill if a batch is ever row-assembled.  The planner passes
        this only when it can prove no expression reads a pruned slot.
        """
        self._stats.scans += 1
        keep = None if columns is None else set(columns)
        pending: list[list | None] | None = None
        pending_len = 0
        for pid in list(self._page_ids):
            page = self._pool.read(pid)
            payload: ColumnPage = page.payload
            widths = payload.widths
            if payload.live == 0:
                continue
            if payload.live == len(widths):
                # Dense page: copy columns wholesale (the page's own
                # lists stay private — later inserts must not mutate a
                # batch already yielded downstream).
                cols = [
                    list(column) if keep is None or i in keep else None
                    for i, column in enumerate(payload.columns)
                ]
                nrows = len(widths)
            else:
                live = [i for i, w in enumerate(widths) if w is not None]
                cols = [
                    [column[j] for j in live]
                    if keep is None or i in keep
                    else None
                    for i, column in enumerate(payload.columns)
                ]
                nrows = len(live)
            if pending is None:
                pending = cols
                pending_len = nrows
            else:
                for out, col in zip(pending, cols):
                    if out is not None:
                        out.extend(col)
                pending_len += nrows
            while pending is not None and pending_len >= batch_rows:
                if pending_len == batch_rows:
                    yield ColumnBatch(pending, length=pending_len)
                    pending = None
                    pending_len = 0
                else:
                    yield ColumnBatch(
                        [
                            col[:batch_rows] if col is not None else None
                            for col in pending
                        ],
                        length=batch_rows,
                    )
                    pending = [
                        col[batch_rows:] if col is not None else None
                        for col in pending
                    ]
                    pending_len -= batch_rows
        if pending is not None and pending_len:
            yield ColumnBatch(pending, length=pending_len)
