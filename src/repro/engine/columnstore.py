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
against columns before any row tuple is assembled.  On disk the page is
a typed, slot-addressable image rather than a pickle (below), so a page
miss for one row decodes that row.

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

import datetime
import struct
from itertools import accumulate, chain, count, groupby, repeat
from operator import add, getitem, is_, itemgetter
from typing import Iterator

from .errors import ExecutionError
from .heap import HeapFile, RowId
from .values import put_values, take_values

# -- the page image -----------------------------------------------------------
#
# On disk a column page is an *image*: typed arrays a reader indexes by
# slot, so a page miss for one row decodes that row and nothing else.
# Each column gets one tag, chosen from its values; the columns of one
# tag are stored together, slot by slot, so one ``struct`` call reads a
# slot's values of a whole group, and one reads the group for a scan:
#
#   [kind u8 = _IMAGE][slots u16][live u16][columns u16]
#   [tags u8: the widths', then one per column]
#   [widths: one int per slot, -1 for a tombstone]
#   [null columns: their count u16, positions u16, null bitmaps]
#   [a group per tag present, by ascending tag: its columns' values,
#    slot by slot, with a filler where the value is None]
#
# A null bitmap is the column's ``nulls`` entry in (slots + 7) // 8
# bytes; a column whose bitmap is 0 is not listed.  The tags:

_NULLS = 0  # every value None: nothing stored
_INT8, _INT16, _INT32, _INT64 = 1, 2, 3, 4  # the narrowest ints that fit
_FLOAT, _DATE, _BOOL = 5, 6, 7  # f64; a date's ordinal as i32; a byte
_TEXT16, _TEXT32 = 8, 9  # u16 / u32 codes, then byte end offsets, then
# the values joined by NUL in UTF-8 (a column with a NUL in it is _CELLS).
# A value's code is the position of its first occurrence in the group,
# or one past the last value for None (which stores an empty string).
# A scan's decode so gives equal values one object, as a pickle's memo
# gave the objects a page shared (a status or an industry drawn from a
# few words); otherwise a decoded page would hold more objects, and a
# checkpoint that pickles rows of it would write each out in full.
_CELLS = 10  # anything else: value by value behind the WAL's value tags

#: The image's first byte: below a pickle's ``0x80``.
_IMAGE = 0x01
_IMAGE_HEAD = struct.Struct("<BHHH")
_COUNT = struct.Struct("<H")
#: A tag's struct code; for text, the code of its codes and end offsets.
_CODES = dict(zip(range(_INT8, _CELLS), "bhiqdi?HI"))
_ONE = {tag: struct.Struct("<" + code) for tag, code in _CODES.items()}
_TAGS = frozenset(range(_CELLS + 1))
_NONE = type(None)
#: A column of one kind: its tag (an int's is narrowed) and the filler a
#: None slot stores.
_KINDS = {
    _NONE: (_NULLS, None),
    int: (_INT64, 0),
    float: (_FLOAT, 0.0),
    datetime.date: (_DATE, datetime.date.min),
    bool: (_BOOL, False),
    str: (_TEXT16, ""),
}
_UTF8, _SP = "utf-8", "surrogatepass"  # as the WAL encodes text
_fromordinal = datetime.date.fromordinal

#: Dates by ordinal, shared by every decode: a dict lookup instead of a
#: constructor call, and one object per day however many pages hold it.
#: Stops growing at about ``_DATES_KEPT`` days; a day past them is built
#: each time it is decoded.
_DATES: dict[int, datetime.date] = {}
_DATES_KEPT = 1 << 14


def _int_tag(low: int, high: int) -> int:
    if -(2**7) <= low and high < 2**7:
        return _INT8
    if -(2**15) <= low and high < 2**15:
        return _INT16
    if -(2**31) <= low and high < 2**31:
        return _INT32
    return _INT64 if -(2**63) <= low and high < 2**63 else _CELLS


def _column_tag(values: list) -> tuple[int, list]:
    """A column's tag, and the values its group stores: a filler for
    each None in a typed array."""
    kinds = set(map(type, values))
    nulls = len(kinds) > 1 and _NONE in kinds
    if nulls:
        kinds.discard(_NONE)
    if len(kinds) != 1:
        return (_CELLS if kinds else _NULLS), values
    tag, filler = _KINDS.get(kinds.pop(), (_CELLS, None))
    if tag == _CELLS or tag == _NULLS:
        return tag, values
    filled = [filler if v is None else v for v in values] if nulls else values
    if tag == _INT64:
        tag = _int_tag(min(filled), max(filled))
    elif tag == _TEXT16:  # the codes stand in for None
        return (_CELLS if "\0" in "".join(filled) else tag), values
    return tag, values if tag == _CELLS else filled


def _dates(ordinals: tuple) -> list:
    try:
        return list(map(_DATES.__getitem__, ordinals))
    except KeyError:
        dates = list(map(_fromordinal, ordinals))
        if len(_DATES) < _DATES_KEPT:
            _DATES.update(zip(ordinals, dates))
        return dates


def _group_values(data: bytes, tag: int, count: int, at: int) -> list:
    """The ``count`` values of a group stored at ``at``."""
    if tag == _NULLS:
        return [None] * count
    if tag == _CELLS:
        return take_values(data, at, count)[0]
    values = struct.unpack_from(f"<{count}{_CODES[tag]}", data, at)
    if tag >= _TEXT16:
        if not count:
            return []
        one = _ONE[tag]
        at += 2 * count * one.size  # past the codes and the end offsets
        end = at + one.unpack_from(data, at - one.size)[0]
        text = str(data[at:end], _UTF8, _SP).split("\0")
        text.append(None)
        return list(map(text.__getitem__, values))
    return _dates(values) if tag == _DATE else list(values)


class _Layout:
    """What an image's slot count and tags alone decide — the groups and
    where each starts after the null bitmaps — shared by every page of
    that shape."""

    __slots__ = (
        "widths",
        "widths_size",
        "groups",
        "perm",
        "take",
        "fixed",
        "text",
        "cells",
        "patched",
    )

    def __init__(self, n: int, width_tag: int, tags: bytes) -> None:
        if width_tag not in (_INT8, _INT16, _INT32) or not _TAGS.issuperset(tags):
            raise ValueError(f"unknown tag in {bytes([width_tag]) + tags!r}")
        if _TEXT16 in tags and _TEXT32 in tags:
            raise ValueError("two text groups")
        self.widths = f"<{n}{_CODES[width_tag]}"
        self.widths_size = n * _ONE[width_tag].size
        order = sorted(range(len(tags)), key=tags.__getitem__)
        #: Column ``c``'s value is the ``perm[c]``-th of a slot's values
        #: taken group after group.
        self.perm = sorted(range(len(tags)), key=order.__getitem__)
        #: A slot's values in group order -> its row.
        self.take = itemgetter(*self.perm) if len(tags) > 1 else tuple
        #: Per group: its tag, its columns, its offset, the format of
        #: one slot's values and their size (a text group: of its codes,
        #: and of its end offsets).  Fixed-size groups come first, then
        #: the text's codes and end offsets, ``fixed`` bytes in all; the
        #: text blob and the cells follow.
        self.groups = []
        self.fixed = 0
        self.text = self.cells = 0
        #: The columns whose decoded values need their Nones put in.
        self.patched = frozenset()
        for tag, members in groupby(order, tags.__getitem__):
            members = tuple(members)
            one = _ONE.get(tag)
            size = one.size * len(members) if one else 0
            self.groups.append(
                (tag, members, self.fixed, f"<{len(members)}{_CODES.get(tag)}", size)
            )
            self.fixed += n * size
            if tag in (_TEXT16, _TEXT32):
                self.text = tag
                self.fixed += n * size
            elif tag == _CELLS:
                self.cells = len(members)
            elif tag != _NULLS:
                self.patched |= frozenset(members)


#: Layouts by slot count and tags, so a page miss derives none: a table's
#: pages share a handful.  Emptied when it outgrows ``_LAYOUTS_KEPT``;
#: an entry depends on its key alone, so shards sharing it in threads
#: at worst build one twice.
_LAYOUTS: dict[bytes, _Layout] = {}
_LAYOUTS_KEPT = 1024


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

    def __init__(self, ncols: int) -> None:
        self.columns: list[list] | None = [[] for _ in range(ncols)]
        self.nulls: list[int] | None = [0] * ncols
        self.widths: list[int | None] = []
        self.live = 0
        self.row_cache: dict[int, tuple] = {}
        #: Undecoded: the image, the tombstone bitmap, where the null
        #: bitmaps are and of which columns, where each group is, and
        #: each column's place in the groups' order.
        self.image: tuple | None = None

    # -- the image ------------------------------------------------------

    def to_image(self) -> bytes:
        """The page as the page file stores it."""
        self.decode()
        widths, nulls = self.widths, self.nulls
        n = len(widths)
        tags, stored = map(list, zip(*map(_column_tag, self.columns)))
        if None in widths:
            widths = [-1 if w is None else w for w in widths]
        width_tag = _int_tag(min(widths, default=0), max(widths, default=0))
        null_columns = [c for c, bits in enumerate(nulls) if bits]
        groups = []
        order = sorted(range(len(tags)), key=tags.__getitem__)
        for tag, members in groupby(order, tags.__getitem__):
            members = list(members)
            columns = [stored[c] for c in members]
            flat = columns[0]
            if len(columns) > 1:
                flat = list(chain.from_iterable(zip(*columns)))
            if tag == _CELLS:
                out = bytearray()
                put_values(out, flat)
                groups.append(out)
            elif tag == _TEXT16:
                first = {None: len(flat)}
                codes = map(first.setdefault, flat, count())
                stored_text = list(  # "" for None
                    map(getitem, zip(flat, repeat("")), map(is_, flat, repeat(None)))
                )
                joined = "\0".join(stored_text)
                blob = joined.encode(_UTF8, _SP)
                lengths = map(len, stored_text)  # ASCII: a char is a byte
                if len(blob) != len(joined):
                    encoded = map(str.encode, stored_text, repeat(_UTF8), repeat(_SP))
                    lengths = map(len, encoded)
                if len(blob) > 0xFFFF or len(flat) >= 0xFFFF:
                    tag = _TEXT32
                    tags = [_TEXT32 if t == _TEXT16 else t for t in tags]
                ends = map(add, accumulate(lengths), count())  # the NULs before
                fmt = f"<{len(flat)}{_CODES[tag]}"
                groups += [struct.pack(fmt, *codes), struct.pack(fmt, *ends), blob]
            elif tag != _NULLS:
                if tag == _DATE:
                    flat = map(datetime.date.toordinal, flat)
                groups.append(struct.pack(f"<{n * len(columns)}{_CODES[tag]}", *flat))
        listed = len(null_columns)
        nbytes = (n + 7) >> 3
        return b"".join(
            [
                _IMAGE_HEAD.pack(_IMAGE, n, self.live, len(tags)),
                bytes([width_tag, *tags]),
                struct.pack(f"<{n}{_CODES[width_tag]}", *widths),
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
        at = _IMAGE_HEAD.size + 1 + k
        key = data[1:3] + data[_IMAGE_HEAD.size : at]  # slots and tags
        layout = _LAYOUTS.get(key)
        if layout is None:
            if len(key) != 3 + k:
                raise ValueError(f"{k} columns, {len(key) - 3} tags")
            if len(_LAYOUTS) > _LAYOUTS_KEPT:
                _LAYOUTS.clear()
            layout = _LAYOUTS[key] = _Layout(n, key[2], key[3:])
        widths = list(struct.unpack_from(layout.widths, data, at))
        at += layout.widths_size
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
        base = nulls_at + listed * ((n + 7) >> 3)
        at = tail = base + layout.fixed
        if layout.text and n:  # the blob after the text's end offsets
            one = _ONE[layout.text]
            at = tail = at + one.unpack_from(data, at - one.size)[0]
        if layout.cells:
            at = take_values(data, at, n * layout.cells)[1]
        if at != len(data):
            raise ValueError(f"the groups end at {at}, the image at {len(data)}")
        page = cls.__new__(cls)
        page.widths, page.live = widths, live
        page.columns = page.nulls = None
        page.row_cache = {}
        page.image = (data, tombs, null_columns, nulls_at, base, tail, layout)
        return page

    def decode(self) -> None:
        """Decode the whole page and drop the image (no-op when
        decoded)."""
        image = self.image
        if image is None:
            return
        data, tombs, null_columns, nulls_at, base, tail, layout = image
        n = len(self.widths)
        k = len(layout.perm)
        nbytes = (n + 7) >> 3
        nulls = [0] * k
        for c in null_columns:
            nulls[c] = int.from_bytes(data[nulls_at : nulls_at + nbytes], "little")
            nulls_at += nbytes
        columns: list = [None] * k
        for tag, members, offset, _, _ in layout.groups:
            m = len(members)
            at = tail if tag == _CELLS else base + offset
            flat = _group_values(data, tag, n * m, at)
            if m == 1:
                columns[members[0]] = flat
            else:
                for j, c in enumerate(members):
                    columns[c] = flat[j::m]
        for c in layout.patched if tombs else layout.patched.intersection(null_columns):
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
        data, _, null_columns, nulls_at, base, tail, layout = self.image
        n = len(self.widths)
        values: list = []
        for tag, members, offset, one_slot, size in layout.groups:
            m = len(members)
            if tag < _TEXT16:
                if tag == _NULLS:
                    values += repeat(None, m)
                    continue
                got = struct.unpack_from(one_slot, data, base + offset + slot * size)
                values += _dates(got) if tag == _DATE else got
            elif tag == _CELLS:
                values += take_values(data, tail, n * m)[0][slot * m : slot * m + m]
            else:  # text: from the NUL before the slot's first value
                one = _ONE[tag]
                ends = base + offset + n * size  # past the codes
                at = ends + slot * size
                blob = ends + n * size
                end = blob + one.unpack_from(data, at + size - one.size)[0]
                if slot:
                    blob += one.unpack_from(data, at - one.size)[0] + 1
                values += str(data[blob:end], _UTF8, _SP).split("\0")
        row = layout.take(values)
        if null_columns:
            row = list(row)
            byte, bit = nulls_at + (slot >> 3), 1 << (slot & 7)
            nbytes = (n + 7) >> 3
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

    # Every write decodes an undecoded page first, before any slot list
    # grows or changes.

    def _free_slot(self, payload: ColumnPage) -> int:
        payload.decode()
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
        payload.decode()
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
        payload.decode()
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
        """Row-assembly adapter: full scan in physical order, assembling
        one tuple per live slot — index backfill, DML RID matching and
        the reference interpreter run unchanged over column pages."""
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
            payload: ColumnPage = self._pool.read(pid).payload
            if payload.live == 0:
                continue
            if payload.image is not None:
                payload.decode()
            widths = payload.widths
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
