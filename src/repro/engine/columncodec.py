"""Typed columns: the image codec of column pages and B-tree nodes.

Pages the page file stores as images rather than pickles — a column
page (:class:`~repro.engine.columnstore.ColumnPage`), a B-tree leaf or
internal node (:mod:`~repro.engine.btree`) — hold their values as
*blocks*: ``n`` rows of ``k`` columns, typed arrays a reader indexes by
row, so a page miss for one row decodes that row and nothing else.
Each column gets one tag, chosen from its values; the columns of one
tag are stored together, row by row, so one ``struct`` call reads a
row's values of a whole group, and one reads the group for a scan::

    [a group per tag present, by ascending tag: its columns' values,
     row by row, with a filler where the value is None]

The tags themselves (one byte per column) are the caller's to store,
ahead of the groups (:meth:`Columns.after_tags` reads them there), as
are the block's row count and, where it stores fillers, the null
bitmaps that say which values they stand for.
"""

from __future__ import annotations

import datetime
import struct
from itertools import accumulate, chain, count, groupby, repeat
from operator import add, getitem, is_, itemgetter

from .values import put_values, take_values

_NULLS = 0  # every value None: nothing stored
INT8, INT16, INT32, INT64 = 1, 2, 3, 4  # the narrowest ints that fit
_FLOAT, _DATE, _BOOL = 5, 6, 7  # f64; a date's ordinal as i32; a byte
_TEXT16, _TEXT32 = 8, 9  # u16 / u32 codes, then byte end offsets, then
# the values joined by NUL in UTF-8 (a column with a NUL in it is _CELLS).
# A value's code is the position of its first occurrence in the group,
# or one past the last value for None (which stores an empty string).
# A whole decode so gives equal values one object, as a pickle's memo
# gave the objects a page shared (a status or an industry drawn from a
# few words); otherwise a decoded page would hold more objects, and a
# checkpoint that pickles rows of it would write each out in full.
_CELLS = 10  # anything else: value by value behind the WAL's value tags

#: A tag's struct code; for text, the code of its codes and end offsets.
CODES = dict(zip(range(INT8, _CELLS), "bhiqdi?HI"))
_ONE = {tag: struct.Struct("<" + code) for tag, code in CODES.items()}
_TAGS = frozenset(range(_CELLS + 1))
#: Tags whose values ``struct`` decodes as they are stored.
_PLAIN = frozenset((INT8, INT16, INT32, INT64, _FLOAT, _BOOL))
_NONE = type(None)
#: A column of one kind: its tag (an int's is narrowed) and the filler a
#: None slot stores.
_KINDS = {
    _NONE: (_NULLS, None),
    int: (INT64, 0),
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


def int_tag(low: int, high: int) -> int:
    """The narrowest int tag holding ``low`` .. ``high``; ``_CELLS``
    past 64 bits."""
    if -(2**7) <= low and high < 2**7:
        return INT8
    if -(2**15) <= low and high < 2**15:
        return INT16
    if -(2**31) <= low and high < 2**31:
        return INT32
    return INT64 if -(2**63) <= low and high < 2**63 else _CELLS


def _column_tag(values, fill: bool) -> tuple[int, list]:
    """A column's tag, and the values its group stores: a filler for
    each None in a typed array, or, without ``fill``, the column's
    values behind their value tags."""
    kinds = set(map(type, values))
    nulls = len(kinds) > 1 and _NONE in kinds
    if nulls:
        kinds.discard(_NONE)
    if len(kinds) != 1:
        return (_CELLS if kinds else _NULLS), values
    tag, filler = _KINDS.get(kinds.pop(), (_CELLS, None))
    if tag == _CELLS or tag == _NULLS:
        return tag, values
    if nulls and not fill and tag != _TEXT16:
        return _CELLS, values
    filled = [filler if v is None else v for v in values] if nulls else values
    if tag == INT64:
        tag = int_tag(min(filled), max(filled))
    elif tag == _TEXT16:  # the codes stand in for None
        return (_CELLS if "\0" in "".join(filled) else tag), values
    return tag, values if tag == _CELLS else filled


def encode_columns(columns: list, *, fill: bool = True) -> tuple[list, list]:
    """Each column's tag, and the bytes of its block's groups in order.

    Every column holds the block's ``n`` values.  With ``fill`` a None
    in a column of numbers, dates or bools stores a filler, and the
    caller keeps a null bitmap to restore it; without, such a column is
    stored value by value, so the block decodes type-exact alone."""
    tags, stored = [], []
    for column in columns:
        tag, values = _column_tag(column, fill)
        tags.append(tag)
        stored.append(values)
    n = len(stored[0]) if stored else 0
    groups: list[bytes] = []
    order = sorted(range(len(tags)), key=tags.__getitem__)
    for tag, members in groupby(order, tags.__getitem__):
        members = list(members)
        flat = stored[members[0]]
        if len(members) > 1:
            flat = list(chain.from_iterable(zip(*(stored[c] for c in members))))
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
            fmt = f"<{len(flat)}{CODES[tag]}"
            groups += [struct.pack(fmt, *codes), struct.pack(fmt, *ends), blob]
        elif tag != _NULLS:
            if tag == _DATE:
                flat = map(datetime.date.toordinal, flat)
            groups.append(struct.pack(f"<{n * len(members)}{CODES[tag]}", *flat))
    return tags, groups


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
    values = struct.unpack_from(f"<{count}{CODES[tag]}", data, at)
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
    """What a block's tags alone decide — its groups, and where each
    starts per row of the block — shared by every block of those tags."""

    __slots__ = (
        "groups", "take", "width", "fixed", "text", "cells", "patched", "single"
    )

    def __init__(self, tags: bytes) -> None:
        if not _TAGS.issuperset(tags):
            raise ValueError(f"unknown tag in {bytes(tags)!r}")
        if _TEXT16 in tags and _TEXT32 in tags:
            raise ValueError("two text groups")
        order = sorted(range(len(tags)), key=tags.__getitem__)
        #: Column ``c``'s value is the ``perm[c]``-th of a row's values
        #: taken group after group.
        perm = sorted(range(len(tags)), key=order.__getitem__)
        #: A row's values in group order -> the row.
        self.take = itemgetter(*perm) if len(tags) > 1 else tuple
        self.width = len(tags)
        #: Per group: its tag, its columns, its offset in bytes per row
        #: of the block, the struct of one row's values and their size
        #: (a text group: of its codes, and of its end offsets).
        #: Fixed-size groups come first, then the text's codes and end
        #: offsets, ``fixed`` bytes per row in all; the text blob and
        #: the cells follow.
        self.groups = []
        self.fixed = 0
        self.text = self.cells = 0
        #: The columns whose fillers stand for Nones.
        self.patched = frozenset()
        for tag, members in groupby(order, tags.__getitem__):
            members = tuple(members)
            one = None
            if tag in CODES:
                one = struct.Struct(f"<{len(members)}{CODES[tag]}")
            size = one.size if one else 0
            self.groups.append((tag, members, self.fixed, one, size))
            self.fixed += size
            if tag in (_TEXT16, _TEXT32):
                self.text = tag
                self.fixed += size
            elif tag == _CELLS:
                self.cells = len(members)
            elif tag != _NULLS:
                self.patched |= frozenset(members)
        #: When a row is one ``struct`` call — one group of numbers or
        #: bools — that call's struct.
        self.single = None
        if len(self.groups) == 1 and self.groups[0][0] in _PLAIN:
            self.single = self.groups[0][3]


#: Layouts by tags, so a page miss derives none: a table's pages and an
#: index's nodes share a handful.  Emptied when it outgrows
#: ``_LAYOUTS_KEPT``; an entry depends on its key alone, so shards
#: sharing it in threads at worst build one twice.
_LAYOUTS: dict[bytes, _Layout] = {}
_LAYOUTS_KEPT = 1024


class Columns:
    """A block of an image, parsed: its ``n`` rows, its groups' layout,
    where they start (``base``), where the text blob ends and the cells
    start (``tail``), and the offset past the block (``end``).  Parsing
    checks the tags and the variable-length parts; the caller checks
    that the image ends where its last block does."""

    __slots__ = ("data", "n", "layout", "base", "tail", "end")

    def __init__(self, data: bytes, at: int, n: int, tags: bytes) -> None:
        layout = _LAYOUTS.get(tags)
        if layout is None:
            if len(_LAYOUTS) > _LAYOUTS_KEPT:
                _LAYOUTS.clear()
            layout = _LAYOUTS[tags] = _Layout(tags)
        self.data, self.n, self.layout, self.base = data, n, layout, at
        at += layout.fixed * n
        if layout.text and n:  # the blob after the text's end offsets
            one = _ONE[layout.text]
            at += one.unpack_from(data, at - one.size)[0]
        self.tail = self.end = at
        if layout.cells:
            self.end = take_values(data, at, n * layout.cells)[1]
        if self.end > len(data):
            raise ValueError(f"a block runs to {self.end}, past {len(data)}")

    @classmethod
    def after_tags(cls, data: bytes, at: int, n: int, k: int) -> "Columns":
        """The block of ``k`` columns whose tags are stored at ``at``."""
        tags = data[at : at + k]
        if len(tags) != k:
            raise ValueError(f"{k} columns, {len(tags)} tags")
        return cls(data, at + k, n, tags)

    def columns(self) -> list[list]:
        """Every column's values, in column order.  A filler stands for
        a None in the columns ``layout.patched`` names."""
        data, n, layout = self.data, self.n, self.layout
        columns: list = [None] * layout.width
        for tag, members, offset, _, _ in layout.groups:
            m = len(members)
            at = self.tail if tag == _CELLS else self.base + offset * n
            flat = _group_values(data, tag, n * m, at)
            if m == 1:
                columns[members[0]] = flat
            else:
                for j, c in enumerate(members):
                    columns[c] = flat[j::m]
        return columns

    def rows(self) -> list[tuple]:
        """Every row, as :meth:`columns` decodes them."""
        return list(zip(*self.columns()))

    def row(self, i: int, text_nones: bool = True) -> tuple:
        """Row ``i`` alone.  Without ``text_nones`` a None in a text
        column comes back as the empty string it stores, for a caller
        whose null bitmaps put the None back."""
        data, layout, base, n = self.data, self.layout, self.base, self.n
        single = layout.single
        if single is not None:
            return single.unpack_from(data, base + i * single.size)
        values: list = []
        for tag, members, offset, one, size in layout.groups:
            if tag < _TEXT16:
                if tag == _NULLS:
                    values += repeat(None, len(members))
                    continue
                got = one.unpack_from(data, base + offset * n + i * size)
                values += _dates(got) if tag == _DATE else got
            elif tag == _CELLS:
                m = len(members)
                values += take_values(data, self.tail, i * m + m)[0][i * m :]
            else:  # text: from the NUL before the row's first value
                unit = _ONE[tag]
                codes = base + offset * n
                ends = codes + n * size
                at = ends + i * size
                blob = ends + n * size
                end = blob + unit.unpack_from(data, at + size - unit.size)[0]
                if i:
                    blob += unit.unpack_from(data, at - unit.size)[0] + 1
                got = str(data[blob:end], _UTF8, _SP).split("\0")
                if text_nones and "" in got:  # a None's code says which
                    none = n * len(members)
                    got = [
                        None if c == none else v
                        for c, v in zip(one.unpack_from(data, codes + i * size), got)
                    ]
                values += got
        return layout.take(values)
