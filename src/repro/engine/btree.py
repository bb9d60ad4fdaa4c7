"""B+-tree indexes over the buffer pool.

Every descent reads one index page per level through the buffer pool, so
index hit ratios and logical index reads fall out of the structure, as in
the paper's Table 2 and Figure 10.

Fan-out is driven by key *byte widths*: each entry charges the byte size
of its key plus a fixed pointer.  With ``prefix_compression`` enabled
(always, for the catalog's indexes; after Graefe's partitioned B-trees
which Section 6.1 cites)
leading key columns that repeat the in-order predecessor's values are
charged one marker byte instead of their full width.  Meta-data indexes
such as ``(Tenant, Table, Chunk, Row)`` are highly redundant in their
leading columns, so compression keeps them small — exactly the paper's
argument for why these indexes stay cheap.

Accounting rule.  ``page.used`` of every node is kept equal to the full
recompute (``_leaf_used`` / ``_internal_used``) *incrementally*, so a
write costs work proportional to the entry, not to the node:

* a new key between in-order neighbours ``pred`` and ``succ`` is charged
  ``width(key | pred)`` plus the successor's re-compression delta
  ``width(succ | key) - width(succ | pred)`` (``_entry_delta``); removing
  the key subtracts the same amount;
* one more RID on an existing key is ``POINTER_WIDTH``, one fewer gives
  it back;
* a node is recomputed in full only when it splits (both halves — the
  right half's first entry loses its predecessor) and when a new root is
  made.  The recompute functions are otherwise the tests' oracle.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import gt
from typing import Iterable, Iterator

from .columncodec import Columns, encode_columns
from .errors import UniqueViolation
from .heap import RowId
from .observability.metrics import CounterSet
from .pager import BufferPool, Page, PageKind
from .values import sort_key

#: Bytes per child/RID pointer in a node entry.
POINTER_WIDTH = 8
#: Per-entry slot overhead.
ENTRY_OVERHEAD = 4
#: Bytes charged for a prefix-compressed (repeated) key column.
COMPRESSED_COLUMN_WIDTH = 1


def _key_order(key: tuple) -> tuple:
    return tuple(sort_key(v) for v in key)


def _value_width(value: object) -> int:
    """Byte width of a key column value (schema widths are unknown here,
    so we charge the value's natural storage width)."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 4 if -(2**31) <= value < 2**31 else 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value) + 2
    return 4  # dates and anything else fixed-width


# -- node images ------------------------------------------------------------
#
# The page file stores a node as an image (a memory pool never builds
# one): blocks of the typed-column codec (:mod:`.columncodec`), each
# behind its tags and stored without fillers, so it decodes type-exact
# alone:
#
#   leaf:     [kind u8 = _LEAF][key columns u16][entries u32][RIDs u32]
#             [next page i64, -1 for none]
#             [keys: a row per entry]
#             [if RIDs != entries — some key holds several — the RID
#              offsets: a row per entry, one past its last RID]
#             [RIDs: a row per RID, its page and slot]
#
# A key holds at least one RID: a delete that empties it removes it.
#   internal: [kind u8 = _INTERNAL][key columns u16][separators u32]
#             [separators: a row each][children: a row each]
#
# The first byte is below a pickle's ``0x80`` and apart from a column
# page's ``0x01``.

_LEAF, _INTERNAL = 0x02, 0x03
_LEAF_HEAD = struct.Struct("<BHIIq")
_INTERNAL_HEAD = struct.Struct("<BHI")


def _key_columns(keys: list[tuple]) -> list[tuple]:
    """A node's keys, column by column; keys of different widths raise
    ``ValueError``."""
    return list(zip(*keys, strict=True))


def _block(columns: list) -> bytes:
    tags, groups = encode_columns(columns, fill=False)
    return b"".join([bytes(tags), *groups])


class _LeafImage:
    """An undecoded leaf: its keys' block, its RIDs' block, and, when
    a key holds several RIDs, ``bounds``: entry ``i``'s RIDs are rows
    ``bounds[i]`` .. ``bounds[i + 1] - 1`` of the RIDs.  ``key_rows``
    holds the keys once :meth:`decoded_keys` has decoded them."""

    __slots__ = ("data", "keys", "bounds", "rids", "key_rows")

    def __init__(self, data: bytes) -> None:
        _, k, n, count, _ = _LEAF_HEAD.unpack_from(data)
        self.data = data
        self.keys = Columns.after_tags(data, _LEAF_HEAD.size, n, k)
        self.key_rows: list[tuple] | None = None
        at = self.keys.end
        self.bounds = None
        if count != n:
            offsets = Columns.after_tags(data, at, n, 1)
            bounds = self.bounds = [0, *offsets.columns()[0]]
            if bounds[-1] != count or any(map(gt, bounds, bounds[1:])):
                raise ValueError(f"RID offsets {bounds[1:]} for {count} RIDs")
            at = offsets.end
        self.rids = Columns.after_tags(data, at, count, 2)
        if self.rids.end != len(data):
            raise ValueError(f"the RIDs end at {self.rids.end}, the image at {len(data)}")

    def rid(self, i: int) -> RowId:
        """Entry ``i``'s first RID."""
        bounds = self.bounds
        return self.rids.row(i if bounds is None else bounds[i])

    def rid_list(self, i: int) -> list[RowId]:
        bounds = self.bounds
        if bounds is None:
            return [self.rids.row(i)]
        return list(map(self.rids.row, range(bounds[i], bounds[i + 1])))

    def decoded_keys(self) -> list[tuple]:
        """Every key, decoded on the first call only."""
        if self.key_rows is None:
            self.key_rows = self.keys.rows()
        return self.key_rows

    def decode(self) -> tuple[list[tuple], list[list[RowId]]]:
        """Every key, and every key's RIDs."""
        rids = self.rids.rows()
        bounds = self.bounds
        if bounds is None:
            rid_lists = list(map(list, zip(rids)))
        else:
            rid_lists = list(map(rids.__getitem__, map(slice, bounds, bounds[1:])))
        return self.decoded_keys(), rid_lists


class _Leaf:
    """A leaf's keys in order, each key's RIDs, and its right sibling.

    A leaf read from the page file (:meth:`from_image`) starts
    *undecoded*: ``image`` holds it parsed, and ``keys`` and
    ``rid_lists`` are unset.  A probe bisects on the tree's decorated
    keys (``BTreeIndex._node_dec``) and decodes only the entry it
    returns.  Anything that touches ``keys`` or ``rid_lists`` — a scan
    of more than one entry, a write, a split, the occupancy recompute,
    a pickle — decodes the whole node first (``__getattr__``), which
    drops the image."""

    __slots__ = ("keys", "rid_lists", "next_page", "image")

    def __init__(
        self,
        keys: list[tuple] | None = None,
        rid_lists: list[list[RowId]] | None = None,
        next_page: int | None = None,
    ) -> None:
        self.keys = [] if keys is None else keys
        self.rid_lists = [] if rid_lists is None else rid_lists
        self.next_page = next_page
        self.image: _LeafImage | None = None

    def __getattr__(self, name: str):
        # Reached for an unset slot only: the entries of an undecoded leaf.
        if name in ("keys", "rid_lists") and self.image is not None:
            self.decode()
            return getattr(self, name)
        raise AttributeError(name)

    def decode(self) -> None:
        """Decode the whole node and drop the image (no-op when
        decoded)."""
        image = self.image
        if image is not None:
            self.keys, self.rid_lists = image.decode()
            self.image = None

    def to_image(self) -> bytes:
        """The leaf as the page file stores it."""
        if self.image is not None:
            return self.image.data
        keys, rid_lists = self.keys, self.rid_lists
        rids = list(zip(*chain.from_iterable(rid_lists))) or [(), ()]
        count = len(rids[0])
        columns = _key_columns(keys)
        blocks = [_block(columns)]
        if count != len(keys):
            blocks.append(_block([list(accumulate(map(len, rid_lists)))]))
        blocks.append(_block(rids))
        next_page = -1 if self.next_page is None else self.next_page
        head = _LEAF_HEAD.pack(_LEAF, len(columns), len(keys), count, next_page)
        return b"".join([head, *blocks])

    @classmethod
    def from_image(cls, data: bytes) -> "_Leaf":
        """An undecoded leaf over ``data``; raises ``ValueError`` (or
        ``struct.error``) on an image :meth:`to_image` did not write."""
        leaf = cls.__new__(cls)
        leaf.image = _LeafImage(data)
        next_page = _LEAF_HEAD.unpack_from(data)[-1]
        leaf.next_page = None if next_page == -1 else next_page
        return leaf

    def __eq__(self, other: object) -> bool:
        if type(other) is not _Leaf:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "_Leaf(%r, %r, %r)" % self.__getstate__()

    def __getstate__(self) -> tuple:
        return (self.keys, self.rid_lists, self.next_page)

    def __setstate__(self, state: tuple) -> None:
        self.keys, self.rid_lists, self.next_page = state
        self.image = None


@dataclass
class _Internal:
    # children[i] holds keys < separators[i] <= children[i+1] ...
    separators: list[tuple] = field(default_factory=list)
    children: list[int] = field(default_factory=list)

    def to_image(self) -> bytes:
        """The node as the page file stores it."""
        columns = _key_columns(self.separators)
        head = _INTERNAL_HEAD.pack(_INTERNAL, len(columns), len(self.separators))
        return b"".join([head, _block(columns), _block([self.children])])

    @classmethod
    def from_image(cls, data: bytes) -> "_Internal":
        """The node, decoded whole: internal nodes are read far less
        often than they are probed."""
        _, k, n = _INTERNAL_HEAD.unpack_from(data)
        separators = Columns.after_tags(data, _INTERNAL_HEAD.size, n, k)
        children = Columns.after_tags(data, separators.end, n + 1, 1)
        if children.end != len(data):
            raise ValueError(
                f"the children end at {children.end}, the image at {len(data)}"
            )
        return cls(separators.rows(), children.columns()[0])


def node_from_image(data: bytes) -> _Leaf | _Internal:
    """The B-tree node a page image holds."""
    if data[0] == _LEAF:
        return _Leaf.from_image(data)
    if data[0] == _INTERNAL:
        return _Internal.from_image(data)
    raise ValueError(f"unknown page image kind {data[0]:#x}")


#: ``bisect_right(dec, head + _PAST)`` ends the run of keys led by ``head``.
_PAST = ((math.inf,),)


def _run(leaf: _Leaf, spans: list[tuple[int, int]]) -> list[tuple[tuple, RowId]]:
    """(key, rid) pairs of a leaf's entries in ``spans`` (start, end
    pairs).  More than one entry decodes an undecoded leaf whole (as a
    scan of a column page does); a probe decodes its one entry."""
    image = leaf.image
    if image is not None and len(spans) == 1 and spans[0][1] - spans[0][0] == 1:
        start = spans[0][0]
        key = image.keys.row(start)
        return [(key, rid) for rid in image.rid_list(start)]
    keys, rid_lists = leaf.keys, leaf.rid_lists
    return [
        (key, rid)
        for start, end in spans
        for key, rids in zip(keys[start:end], rid_lists[start:end])
        for rid in rids
    ]


def _batched(runs: Iterator[list], batch_rows: int) -> Iterator[list]:
    """Runs regrouped into lists of ``batch_rows`` entries.  The next run
    (and leaf) is asked for only when a batch needs more entries, so a
    leaf is read exactly where a per-entry walk would read it."""
    batch: list = []
    for run in runs:
        batch = batch + run if batch else run
        if len(batch) >= batch_rows:
            cut = len(batch) - len(batch) % batch_rows
            for i in range(0, cut, batch_rows):
                yield batch[i : i + batch_rows]
            batch = batch[cut:]
    if batch:
        yield batch


@dataclass
class BTreeStats(CounterSet, prefix="btree"):
    """Operations over every B-tree of one registry (one database)."""

    searches: int = 0
    descents: int = 0
    prefix_scans: int = 0
    range_scans: int = 0
    inserts: int = 0
    deletes: int = 0


class BTreeIndex:
    """A B+-tree mapping key tuples to one or more heap RIDs."""

    def __init__(
        self,
        pool: BufferPool,
        segment_id: int,
        *,
        unique: bool = False,
        prefix_compression: bool = True,
    ) -> None:
        self._pool = pool
        self.segment_id = segment_id
        self.unique = unique
        self.prefix_compression = prefix_compression
        self.entry_count = 0
        self.distinct_keys = 0
        # Distinct-count per key prefix length, maintained incrementally
        # (approximate at leaf boundaries).  Drives the optimizer's
        # rows-per-prefix selectivity estimates.
        self._prefix_distinct: list[int] = []
        # key tuple -> decorated sort order.  ``_key_order`` is a pure
        # function of the key, so the memo never goes stale; it is the
        # in-memory stand-in for storing normalized keys on the page.
        self._order_cache: dict[tuple, tuple] = {}
        # page_id -> decorated key list for that node (separators of an
        # internal node, keys of a leaf).  Spares every descent the
        # per-comparison ``_order`` memo hits; each mutation pops only
        # the nodes whose key lists it changes, so bulk loads keep the
        # hot upper levels decorated.  Runtime-only, never stored with
        # the node images (re-reading an evicted page reproduces the
        # same keys, so entries survive eviction): a probe after a leaf
        # miss bisects here and decodes only the entries it returns.
        self._node_dec: dict[int, list[tuple]] = {}
        self._stats: BTreeStats = pool.metrics.counter_set(BTreeStats)
        root = pool.allocate(segment_id, PageKind.INDEX)
        root.payload = _Leaf()
        self._root_id = root.page_id
        self.height = 1

    @classmethod
    def attach(
        cls,
        pool: BufferPool,
        segment_id: int,
        *,
        unique: bool,
        root_id: int,
        height: int,
        entry_count: int,
        distinct_keys: int,
        prefix_distinct: list[int],
    ) -> "BTreeIndex":
        """Re-attach to an existing tree whose pages are already in the
        page store (recovery) — bypasses the constructor so no fresh
        root page is allocated."""
        index = cls.__new__(cls)
        index._pool = pool
        index.segment_id = segment_id
        index.unique = unique
        # Every tree the catalog builds compresses prefixes.
        index.prefix_compression = True
        index.entry_count = entry_count
        index.distinct_keys = distinct_keys
        index._prefix_distinct = list(prefix_distinct)
        index._order_cache = {}
        index._node_dec = {}
        index._stats = pool.metrics.counter_set(BTreeStats)
        index._root_id = root_id
        index.height = height
        return index

    @property
    def root_id(self) -> int:
        return self._root_id

    def prefix_distinct_counts(self) -> list[int]:
        """Copy of the per-prefix-length distinct counts (snapshots)."""
        return list(self._prefix_distinct)

    def _order(self, key: tuple) -> tuple:
        """Memoized ``_key_order``.  Binary searches probe O(log n) keys
        per lookup and every probe used to decorate the key from
        scratch; hashing the tuple is far cheaper than re-running
        ``sort_key`` per column.  Bounded by the distinct keys touched
        (with a clear-out safety valve against probe-key churn)."""
        cache = self._order_cache
        order = cache.get(key)
        if order is None:
            if len(cache) > 4 * self.entry_count + 1024:
                cache.clear()
            order = cache[key] = _key_order(key)
        return order

    # -- sizing ---------------------------------------------------------

    def _entry_width(self, key: tuple, predecessor: tuple | None) -> int:
        width = ENTRY_OVERHEAD + POINTER_WIDTH
        # One pass: a column is compressed while every column before it
        # (and itself) repeats the predecessor's value.
        repeating = self.prefix_compression and predecessor is not None
        for i, value in enumerate(key):
            if repeating and i < len(predecessor) and predecessor[i] == value:
                width += COMPRESSED_COLUMN_WIDTH
            else:
                repeating = False
                width += _value_width(value)
        return width

    def _entry_delta(
        self, key: tuple, predecessor: tuple | None, successor: tuple | None
    ) -> int:
        """Bytes a node gains when ``key`` lands between two in-order
        neighbours (and loses when it is removed from between them): its
        own entry, plus the successor re-compressing against a different
        predecessor."""
        delta = self._entry_width(key, predecessor)
        if successor is not None and self.prefix_compression:
            delta += self._entry_width(successor, key) - self._entry_width(
                successor, predecessor
            )
        return delta

    # The two full recomputes run when a node splits; everywhere else
    # ``page.used`` moves by ``_entry_delta``, and the tests hold it to
    # these as the oracle.

    def _leaf_used(self, leaf: _Leaf) -> int:
        used, prev = 0, None
        for key, rids in zip(leaf.keys, leaf.rid_lists):
            used += self._entry_width(key, prev)
            used += POINTER_WIDTH * (len(rids) - 1)
            prev = key
        return used

    def _internal_used(self, node: _Internal) -> int:
        used, prev = POINTER_WIDTH, None
        for key in node.separators:
            used += self._entry_width(key, prev)
            prev = key
        return used

    # -- search -----------------------------------------------------------

    def _descend(
        self, key: tuple, order: tuple | None = None
    ) -> tuple[list[int], Page]:
        """Page ids root→leaf for ``key``, plus the leaf page (each
        level costs exactly one logical index-page read).  ``order``
        lets callers that already decorated the key skip the memo hit."""
        self._stats.descents += 1
        path = [self._root_id]
        page = self._pool.read(self._root_id)
        node = page.payload
        if order is None:
            order = self._order(key)
        node_dec = self._node_dec
        while isinstance(node, _Internal):
            # First child whose separator exceeds the key (bisect over
            # the node's cached decorated separators — internal nodes
            # hold hundreds of them).
            dec = node_dec.get(path[-1])
            if dec is None:
                dec = node_dec[path[-1]] = [
                    self._order(k) for k in node.separators
                ]
            child = node.children[bisect_right(dec, order)]
            path.append(child)
            page = self._pool.read(child)
            node = page.payload
        return path, page

    def _decorate_leaf(self, page_id: int, leaf: _Leaf) -> list[tuple]:
        """Cache and return the decorated keys of a leaf; an undecoded
        one decodes its keys for it, not its RIDs."""
        image = leaf.image
        keys = leaf.keys if image is None else image.decoded_keys()
        dec = self._node_dec[page_id] = list(map(self._order, keys))
        return dec

    def search(self, key: tuple) -> list[RowId]:
        """Exact-match lookup; [] when absent."""
        self._stats.searches += 1
        order = self._order(key)
        path, page = self._descend(key, order)
        leaf = page.payload
        dec = self._node_dec.get(path[-1])
        if dec is None:
            dec = self._decorate_leaf(path[-1], leaf)
        lo = bisect_left(dec, order)
        if lo < len(dec) and dec[lo] == order:
            image = leaf.image
            if image is not None:
                return image.rid_list(lo)
            return list(leaf.rid_lists[lo])
        return []

    def search_one(self, key: tuple) -> RowId | None:
        """Exact-match lookup on a *unique* index; the RID or ``None``.

        Counter- and page-read-identical to :meth:`search` (one search,
        one descent, one logical read per level) but allocation-free on
        the hot path: no root→leaf path list, no RID-list copy.  The
        vectorized executor's fused probe closures call this once per
        outer row in reconstruction joins.
        """
        self._stats.searches += 1
        self._stats.descents += 1
        order = self._order(key)
        node_dec = self._node_dec
        read = self._pool.read
        pid = self._root_id
        node = read(pid).payload
        while isinstance(node, _Internal):
            dec = node_dec.get(pid)
            if dec is None:
                dec = node_dec[pid] = [
                    self._order(k) for k in node.separators
                ]
            pid = node.children[bisect_right(dec, order)]
            node = read(pid).payload
        dec = node_dec.get(pid)
        if dec is None:
            dec = self._decorate_leaf(pid, node)
        lo = bisect_left(dec, order)
        if lo < len(dec) and dec[lo] == order:
            image = node.image
            if image is not None:
                return image.rid(lo)
            return node.rid_lists[lo][0]
        return None

    def prefix_batches(
        self, prefix: tuple, batch_rows: int
    ) -> Iterator[list[tuple[tuple, RowId]]]:
        """Lists of at most ``batch_rows`` (key, rid) entries for every
        key whose leading columns equal ``prefix``, in key order.  An
        empty prefix scans everything."""
        self._stats.prefix_scans += 1
        if prefix:
            order = self._order(prefix)
            path, page = self._descend(prefix, order)
            runs = self._leaf_runs(path[-1], page.payload, order, order)
        else:
            page_id = self._leftmost_leaf()
            runs = self._leaf_runs(
                page_id, self._pool.read(page_id).payload, None, None
            )
        yield from _batched(runs, batch_rows)

    def range_batches(
        self, low: tuple | None, high: tuple | None, batch_rows: int
    ) -> Iterator[list[tuple[tuple, RowId]]]:
        """Like :meth:`prefix_batches` for low <= key-prefix <= high
        (inclusive; an empty or ``None`` bound is open)."""
        self._stats.range_scans += 1
        if low:
            path, page = self._descend(low)
            page_id = path[-1]
            leaf = page.payload
        else:
            page_id = self._leftmost_leaf()
            leaf = self._pool.read(page_id).payload
        runs = self._leaf_runs(
            page_id,
            leaf,
            self._order(low) if low else None,
            self._order(high) if high else None,
        )
        yield from _batched(runs, batch_rows)

    def in_batches(
        self, prefix: tuple, values: Iterable[object], batch_rows: int
    ) -> Iterator[list[tuple[tuple, RowId]]]:
        """Like :meth:`prefix_batches` for the keys led by ``prefix +
        (v,)`` for each of ``values``: those keys, sorted by decorated
        order without duplicates, are found by one descent to the first
        and a forward walk that bisects each in the current leaf.  A leaf
        is read only when a key's run reaches its end or the key lies
        past it, so the leaves read lie within those the prefix scan
        reads.  No values read nothing."""
        keys = {self._order(key): key for key in (prefix + (v,) for v in values)}
        if not keys:
            return
        self._stats.prefix_scans += 1
        orders = sorted(keys)
        path, page = self._descend(keys[orders[0]], orders[0])
        runs = self._in_runs(path[-1], page.payload, orders)
        yield from _batched(runs, batch_rows)

    def _in_runs(
        self, page_id: int, leaf: _Leaf, orders: list[tuple]
    ) -> Iterator[list[tuple[tuple, RowId]]]:
        """:meth:`in_batches`'s run of each leaf read."""
        node_dec = self._node_dec
        i = 0
        while True:
            dec = node_dec.get(page_id)
            if dec is None:
                dec = self._decorate_leaf(page_id, leaf)
            spans = []
            end = 0
            while i < len(orders):
                start = bisect_left(dec, orders[i], end)
                end = bisect_right(dec, orders[i] + _PAST, start)
                if end > start:
                    spans.append((start, end))
                if end == len(dec):
                    break  # the key's run may go on in the next leaf
                i += 1
            if spans:
                yield _run(leaf, spans)
            if i == len(orders) or leaf.next_page is None:
                return
            page_id = leaf.next_page
            leaf = self._pool.read(page_id).payload

    def _leaf_runs(
        self,
        page_id: int,
        leaf: _Leaf,
        low: tuple | None,
        high: tuple | None,
    ) -> Iterator[list[tuple[tuple, RowId]]]:
        """Walk the leaf chain from ``leaf``, a run per leaf of the
        entries whose decorated key is >= ``low`` and whose head is <=
        ``high``: two bisects over the leaf's cached decorated keys bound
        the run (key-prefix comparisons are monotone in key order) and
        one slice takes it."""
        node_dec = self._node_dec
        while True:
            dec = node_dec.get(page_id)
            if dec is None:
                dec = self._decorate_leaf(page_id, leaf)
            start = bisect_left(dec, low) if low is not None else 0
            end = (
                bisect_right(dec, high + _PAST, start)
                if high is not None
                else len(dec)
            )
            if end > start:
                yield _run(leaf, [(start, end)])
            if end < len(dec) or leaf.next_page is None:
                return
            page_id = leaf.next_page
            leaf = self._pool.read(page_id).payload

    def _leftmost_leaf(self) -> int:
        page_id = self._root_id
        node = self._pool.read(page_id).payload
        while isinstance(node, _Internal):
            page_id = node.children[0]
            node = self._pool.read(page_id).payload
        return page_id

    # -- mutation ------------------------------------------------------------

    def insert(self, key: tuple, rid: RowId) -> None:
        self._stats.inserts += 1
        path, page = self._descend(key)
        leaf: _Leaf = page.payload
        leaf_id = path[-1]
        order = self._order(key)
        idx = self._position(leaf.keys, order)
        if idx < len(leaf.keys) and self._order(leaf.keys[idx]) == order:
            if self.unique:
                raise UniqueViolation(f"duplicate key {key!r}")
            leaf.rid_lists[idx].append(rid)
            page.used += POINTER_WIDTH
        else:
            predecessor = leaf.keys[idx - 1] if idx > 0 else None
            successor = leaf.keys[idx] if idx < len(leaf.keys) else None
            leaf.keys.insert(idx, key)
            leaf.rid_lists.insert(idx, [rid])
            page.used += self._entry_delta(key, predecessor, successor)
            self._node_dec.pop(leaf_id, None)
            self.distinct_keys += 1
            self._count_prefixes(key, predecessor, successor, +1)
        self.entry_count += 1
        self._pool.mark_dirty(leaf_id)
        self._maybe_split(path)

    def delete(self, key: tuple, rid: RowId) -> bool:
        """Remove one (key, rid) pairing; True if something was removed."""
        self._stats.deletes += 1
        path, page = self._descend(key)
        leaf: _Leaf = page.payload
        leaf_id = path[-1]
        order = self._order(key)
        idx = self._position(leaf.keys, order)
        if idx >= len(leaf.keys) or self._order(leaf.keys[idx]) != order:
            return False
        rids = leaf.rid_lists[idx]
        if rid not in rids:
            return False
        rids.remove(rid)
        if rids:
            page.used -= POINTER_WIDTH
        else:
            # Charged by the stored key: an equal-ordering probe key may
            # be wider (1.0 finds 1).
            stored = leaf.keys.pop(idx)
            del leaf.rid_lists[idx]
            self._node_dec.pop(leaf_id, None)
            self.distinct_keys -= 1
            predecessor = leaf.keys[idx - 1] if idx > 0 else None
            successor = leaf.keys[idx] if idx < len(leaf.keys) else None
            page.used -= self._entry_delta(stored, predecessor, successor)
            self._count_prefixes(key, predecessor, successor, -1)
        self.entry_count -= 1
        self._pool.mark_dirty(leaf_id)
        return True

    def _count_prefixes(
        self,
        key: tuple,
        predecessor: tuple | None,
        successor: tuple | None,
        delta: int,
    ) -> None:
        """Adjust per-prefix distinct counts around an insert/remove.

        A prefix of length L is new (or dying) when neither in-leaf
        neighbour shares it.  Neighbours in adjacent leaves are not
        consulted, so counts drift slightly high at leaf boundaries —
        good enough for selectivity estimation.
        """
        if len(self._prefix_distinct) < len(key):
            self._prefix_distinct.extend(
                [0] * (len(key) - len(self._prefix_distinct))
            )
        for length in range(1, len(key) + 1):
            prefix = key[:length]
            if predecessor is not None and predecessor[:length] == prefix:
                continue
            if successor is not None and successor[:length] == prefix:
                continue
            self._prefix_distinct[length - 1] = max(
                0, self._prefix_distinct[length - 1] + delta
            )

    def prefix_distinct(self, length: int) -> int:
        """Approximate number of distinct key prefixes of this length."""
        if length <= 0:
            return 1
        if length > len(self._prefix_distinct):
            return max(1, self.distinct_keys)
        return max(1, self._prefix_distinct[length - 1])

    def _position(self, keys: list[tuple], order: tuple) -> int:
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._order(keys[mid]) < order:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- splits ------------------------------------------------------------------

    def _maybe_split(self, path: list[int]) -> None:
        # The leaf is pinned across the sibling allocation: allocating
        # may evict, and evicting a page we are still mutating would
        # write back (and later re-read) a half-split node.
        page = self._pool.read(path[-1], pin=True)
        leaf: _Leaf = page.payload
        if page.used <= page.capacity or len(leaf.keys) < 2:
            self._pool.unpin(path[-1])
            return
        mid = len(leaf.keys) // 2
        self._node_dec.pop(path[-1], None)
        right = _Leaf(leaf.keys[mid:], leaf.rid_lists[mid:], leaf.next_page)
        right_page = self._pool.allocate(self.segment_id, PageKind.INDEX)
        right_page.payload = right
        right_page.used = self._leaf_used(right)
        del leaf.keys[mid:]
        del leaf.rid_lists[mid:]
        leaf.next_page = right_page.page_id
        page.used = self._leaf_used(leaf)
        self._pool.unpin(path[-1])
        separator = right.keys[0]
        self._insert_separator(path[:-1], separator, page.page_id, right_page.page_id)

    def _insert_separator(
        self, path: list[int], separator: tuple, left_id: int, right_id: int
    ) -> None:
        if not path:
            new_root = self._pool.allocate(self.segment_id, PageKind.INDEX)
            new_root.payload = _Internal([separator], [left_id, right_id])
            new_root.used = self._internal_used(new_root.payload)
            self._root_id = new_root.page_id
            self.height += 1
            return
        parent_id = path[-1]
        # Same pin discipline as the leaf split: the parent stays pinned
        # while its new sibling is allocated.
        page = self._pool.read(parent_id, pin=True)
        node: _Internal = page.payload
        idx = node.children.index(left_id)
        separators = node.separators
        page.used += self._entry_delta(
            separator,
            separators[idx - 1] if idx > 0 else None,
            separators[idx] if idx < len(separators) else None,
        )
        separators.insert(idx, separator)
        node.children.insert(idx + 1, right_id)
        self._node_dec.pop(parent_id, None)
        self._pool.mark_dirty(parent_id)
        if page.used <= page.capacity or len(node.separators) < 3:
            self._pool.unpin(parent_id)
            return
        mid = len(node.separators) // 2
        up_key = node.separators[mid]
        right = _Internal(node.separators[mid + 1 :], node.children[mid + 1 :])
        right_page = self._pool.allocate(self.segment_id, PageKind.INDEX)
        right_page.payload = right
        right_page.used = self._internal_used(right)
        del node.separators[mid:]
        del node.children[mid + 1 :]
        page.used = self._internal_used(node)
        self._pool.unpin(parent_id)
        self._insert_separator(path[:-1], up_key, parent_id, right_page.page_id)

    # -- bulk / admin ----------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self._pool.pages_in_segment(self.segment_id))

    def drop(self) -> None:
        self._pool.free_segment(self.segment_id)
