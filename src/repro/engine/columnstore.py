"""Column pages and column batches: the page format of every heap.

A :class:`ColumnPage` is the payload of one data page of a
:class:`~repro.engine.heap.HeapFile`: one native value list *per
column*, a per-column null bitmap and a byte width per slot.  The heap's
batch scan hands those columns to the vectorized executor directly
(:class:`ColumnBatch`), copying only the columns a query names, so
predicates run against columns before any row tuple is assembled.  On
disk the page is a typed, slot-addressable image rather than a pickle
(below), so a page miss for one row decodes that row.

Why this matters for the paper: the chunk/pivot/universal layouts store
*all* tenants in a handful of wide shared tables, and reconstruction
queries scan them with highly selective meta predicates (``tenant`` /
``tbl`` / ``chunk``).  Column pages evaluate the predicate on two or
three meta columns and only assemble the survivors, and a query over a
wide conventional table copies only the columns it reads.  Byte widths,
``ROW_OVERHEAD`` and placement are the row-store model's, so a table
stores the same rows on the same number of pages whatever it holds.
"""

from __future__ import annotations

import struct
from operator import add

from .columncodec import CODES, INT8, INT16, INT32, Columns, encode_columns, int_tag

# -- the page image -----------------------------------------------------------
#
# On disk a column page is an *image*: its columns are one block of the
# typed-column codec (:mod:`.columncodec`), one row per slot, after the
# page's own widths and null bitmaps:
#
#   [kind u8 = _IMAGE][slots u16][live u16][columns u16]
#   [tags u8: the widths', then one per column]
#   [widths: one int per slot, -1 for a tombstone]
#   [null columns: their count u16, positions u16, null bitmaps]
#   [the columns' groups]
#
# A null bitmap is the column's ``nulls`` entry in (slots + 7) // 8
# bytes; a column whose bitmap is 0 is not listed.

#: The image's first byte: below a pickle's ``0x80``.
_IMAGE = 0x01
_IMAGE_HEAD = struct.Struct("<BHHH")
_COUNT = struct.Struct("<H")
#: The widths' tags, and the bytes of one width.
_WIDTH_SIZES = {INT8: 1, INT16: 2, INT32: 4}


class ColumnPage:
    """Payload of one column-major data page.

    ``columns[c][s]`` is the value of column ``c`` in slot ``s`` (``None``
    both for SQL NULL and for tombstoned slots — ``widths`` disambiguates).
    ``nulls[c]`` is the column's null bitmap: bit ``s`` is set iff the live
    value in slot ``s`` is NULL.  ``widths[s]`` is the stored byte width of
    the row in slot ``s``, or ``None`` for a tombstone; ``live`` counts the
    non-tombstone slots so scans can detect dense pages in O(1).

    A page read from disk (:meth:`from_image`) starts *undecoded*: it
    holds its ``image``, ``widths`` and ``live``, and ``columns`` and
    ``nulls`` are ``None``.  A point fetch decodes the slots it asks for
    (:meth:`decode_slot`); a scan, a write or a pickle first decodes the
    whole page once (:meth:`decode`), which drops the image.

    ``row_cache`` memoizes tuples assembled by point fetches (index
    probes hit the same hot slots over and over in reconstruction
    joins); it is transient — dropped on page eviction (not stored),
    replaced by the new tuple on an update and dropped per slot on
    other writes — so it never changes what a fetch returns, only how
    often the tuple is rebuilt.
    """

    __slots__ = ("columns", "nulls", "widths", "live", "row_cache", "image")

    #: The first byte of the page's image.
    IMAGE_KIND = _IMAGE

    def __init__(self, ncols: int) -> None:
        self.columns: list[list] | None = [[] for _ in range(ncols)]
        self.nulls: list[int] | None = [0] * ncols
        self.widths: list[int | None] = []
        self.live = 0
        self.row_cache: dict[int, tuple] = {}
        #: Undecoded: the columns' block of the image, the tombstone
        #: bitmap, the columns with a null bitmap and where those start.
        self.image: tuple | None = None

    # -- the image ------------------------------------------------------

    def to_image(self) -> bytes:
        """The page as the page file stores it."""
        self.decode()
        widths, nulls = self.widths, self.nulls
        n = len(widths)
        tags, groups = encode_columns(self.columns)
        if None in widths:
            widths = [-1 if w is None else w for w in widths]
        width_tag = int_tag(min(widths, default=0), max(widths, default=0))
        null_columns = [c for c, bits in enumerate(nulls) if bits]
        listed = len(null_columns)
        nbytes = (n + 7) >> 3
        return b"".join(
            [
                _IMAGE_HEAD.pack(_IMAGE, n, self.live, len(tags)),
                bytes([width_tag, *tags]),
                struct.pack(f"<{n}{CODES[width_tag]}", *widths),
                struct.pack(f"<H{listed}H", listed, *null_columns),
                *[nulls[c].to_bytes(nbytes, "little") for c in null_columns],
                *groups,
            ]
        )

    @classmethod
    def from_image(cls, data: bytes) -> "ColumnPage":
        """An undecoded page over ``data``.  Checks the image's shape —
        its kind, every tag, every group's length — and raises
        ``ValueError`` (or ``struct.error``) on bytes :meth:`to_image`
        did not write."""
        kind, n, live, k = _IMAGE_HEAD.unpack_from(data)
        if kind != _IMAGE:
            raise ValueError(f"unknown page image kind {kind:#x}")
        at = _IMAGE_HEAD.size
        width_tag = data[at]
        width_size = _WIDTH_SIZES.get(width_tag)
        if width_size is None:
            raise ValueError(f"unknown width tag {width_tag:#x}")
        at += 1
        tags = data[at : at + k]
        if len(tags) != k:
            raise ValueError(f"{k} columns, {len(tags)} tags")
        at += k
        widths = list(struct.unpack_from(f"<{n}{CODES[width_tag]}", data, at))
        at += n * width_size
        tombs = 0
        if -1 in widths:
            for slot, width in enumerate(widths):
                if width == -1:
                    tombs |= 1 << slot
            widths = [None if w == -1 else w for w in widths]
        if live != n - widths.count(None):
            raise ValueError(f"live is {live}, the widths say otherwise")
        (listed,) = _COUNT.unpack_from(data, at)
        null_columns = struct.unpack_from(f"<{listed}H", data, at + 2)
        if listed and max(null_columns) >= k:
            raise ValueError(f"a null bitmap of column {max(null_columns)}")
        nulls_at = at + 2 + 2 * listed
        block = Columns(data, nulls_at + listed * ((n + 7) >> 3), n, tags)
        if block.end != len(data):
            raise ValueError(f"the groups end at {block.end}, the image at {len(data)}")
        page = cls.__new__(cls)
        page.widths, page.live = widths, live
        page.columns = page.nulls = None
        page.row_cache = {}
        page.image = (block, tombs, null_columns, nulls_at)
        return page

    def decode(self) -> None:
        """Decode the whole page and drop the image (no-op when
        decoded)."""
        image = self.image
        if image is None:
            return
        block, tombs, null_columns, nulls_at = image
        data = block.data
        nbytes = (block.n + 7) >> 3
        nulls = [0] * block.layout.width
        for c in null_columns:
            nulls[c] = int.from_bytes(data[nulls_at : nulls_at + nbytes], "little")
            nulls_at += nbytes
        columns = block.columns()
        patched = block.layout.patched
        for c in patched if tombs else patched.intersection(null_columns):
            values, none = columns[c], nulls[c] | tombs
            while none:
                low = none & -none
                values[low.bit_length() - 1] = None
                none ^= low
        self.columns, self.nulls, self.image = columns, nulls, None
        # Rows cached from the image hold values of their own; rows
        # assembled from the columns share theirs.
        self.row_cache = {}

    def decode_slot(self, slot: int) -> tuple:
        """Slot ``slot``'s row, read from the image of an undecoded page."""
        block, _, null_columns, nulls_at = self.image
        row = block.row(slot, text_nones=False)
        if null_columns:
            data = block.data
            row = list(row)
            byte, bit = nulls_at + (slot >> 3), 1 << (slot & 7)
            nbytes = (block.n + 7) >> 3
            for c in null_columns:
                if data[byte] & bit:
                    row[c] = None
                byte += nbytes
            row = tuple(row)
        return row

    # Pickling (nothing in the engine pickles a column page) takes the
    # decoded page and leaves the transient row cache out.
    def __getstate__(self):
        self.decode()
        return (self.columns, self.nulls, self.widths, self.live)

    def __setstate__(self, state) -> None:
        self.columns, self.nulls, self.widths, self.live = state
        self.row_cache = {}
        self.image = None


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

    A column is a value list, ``None`` (pruned by the scan: all-NULL), or
    gathered from another source on first read (:meth:`gathered`).
    """

    __slots__ = (
        "_base", "_sel", "_cols", "_rows", "_len", "_base_len", "_gather"
    )

    def __init__(
        self,
        columns: list[list | None],
        sel: list[int] | None = None,
        *,
        length: int | None = None,
        gather: list[tuple] | None = None,
    ):
        self._base = columns
        self._sel = sel
        self._gather = gather
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

    @classmethod
    def gathered(cls, parts: list[tuple]) -> "ColumnBatch":
        """A batch of ``parts``' columns side by side: ``(source, width,
        index)`` gives ``width`` columns of ``source`` (a ``ColumnBatch``,
        a list of row tuples, or anything with ``col(k)`` and ``rows()``)
        taken at the positions ``index``.  Nothing is copied until read."""
        width = sum(part[1] for part in parts)
        return cls([None] * width, length=len(parts[0][2]), gather=parts)

    @property
    def width(self) -> int:
        return len(self._base)

    def _base_col(self, i: int) -> list:
        """Column ``i`` unselected, gathered or NULL-filled on first read."""
        base = self._base[i]
        if base is None:
            if self._gather is None:
                base = [None] * self._base_len
            else:
                k = i
                for source, width, index in self._gather:
                    if k < width:
                        break
                    k -= width
                if type(source) is list:
                    base = [source[j][k] for j in index]
                else:
                    column = source.col(k)
                    base = [column[j] for j in index]
            self._base[i] = base
        return base

    def col(self, i: int) -> list:
        """Column ``i`` as a value list (selection applied, cached).

        A column the scan pruned (base entry ``None``) materializes as
        all-NULL on first touch; the planner only prunes columns it can
        prove no expression reads, so these values feed nothing but
        positional row assembly."""
        if self._sel is None:
            return self._base_col(i)
        assert self._cols is not None
        cached = self._cols.get(i)
        if cached is None:
            base, sel = self._base_col(i), self._sel
            cached = self._cols[i] = [base[j] for j in sel]
        return cached

    def take(self, sel: list[int]) -> "ColumnBatch":
        """Narrow to the given row positions (composes lazily; a gathered
        column read through either batch is gathered once)."""
        if self._sel is not None:
            prior = self._sel
            sel = [prior[j] for j in sel]
        return ColumnBatch(
            self._base, sel, length=self._base_len, gather=self._gather
        )

    def rows(self) -> list[tuple]:
        """Assemble (and cache) the row tuples; an unselected gathered
        batch joins its parts' rows pairwise, reading no column."""
        assembled = self._rows
        if assembled is None:
            if self._len == 0:
                assembled = []
            elif self._gather is not None and self._sel is None:
                for source, _width, index in self._gather:
                    if type(source) is not list:
                        source = source.rows()
                    part = list(map(source.__getitem__, index))
                    assembled = (
                        part if assembled is None
                        else list(map(add, assembled, part))
                    )
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
