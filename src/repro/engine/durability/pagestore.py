"""A log-structured disk page store: one append-only file per database.

Every heap file and B-tree of a database shares ``pages/data.pages``, a
file of CRC-framed page images.  A segment is a field of the frame, not
a file: the paper's Experiment 1 is that a per-table fixed cost sinks a
consolidated database, and a file per table (a handle, an fsync and a
rewrite each, every checkpoint) is that cost one layer down.  Writing a
page appends a new version stamped with the WAL LSN current when the
page was last dirtied; the in-memory index tracks the offset and length
of the latest version of every page.

The file is an 8-byte head, magic ``RPPG`` + format version
(:data:`HEAD`; an open refuses a file without it, or at another
version, by name), then frames::

    [len varint][crc u32][page_id u64, segment u32, lsn u64,
                          kind u8, size u32, used i32][payload]

Everything but the payload is fixed-width bytes inside the checksum,
so nothing that walks the file (:meth:`_scan` at open,
:meth:`truncate_to` at recovery, :meth:`compact`) ever decodes a page.
A page miss (:meth:`read`) is one ``os.pread`` of the indexed frame,
its length and checksum checked, and the payload's first byte says
what it is.  Every page is an image of typed columns
(:mod:`~repro.engine.columncodec`), nothing is a pickle: a column page
(:meth:`~repro.engine.columnstore.ColumnPage.from_image`) and a leaf
(:func:`~repro.engine.btree.node_from_image`) are checked for shape and
kept undecoded, so a point fetch decodes the one row it reads, a probe
the entries it returns, and a scan the page once; an internal node is
decoded whole.  A frame whose checksum holds but whose payload is no
image — one cut short, one of an unknown kind, a pickle — raises
:class:`EngineError` naming the page; nothing in it is executed.

* :meth:`sync` is one fsync, whatever the number of tables written.
* :meth:`compact` rewrites the file to its head and exactly its live
  frames — in file order, copied as bytes, same LSN, one frame in
  memory at a time, each read and re-verified as :meth:`read` does
  (one that fails raises :class:`EngineError` and nothing is
  replaced) — but only once dead
  bytes exceed live bytes: amortised O(bytes changed), write
  amplification at most 2, worst case one O(live bytes) rewrite per at
  least that many bytes written.  The copy is fsynced and renamed into
  place; a crash in between leaves a ``.tmp`` the next open deletes.
* :meth:`free_segment` forgets a dropped table's pages at once; their
  frames stay in the file until a compaction, because the checkpoint on
  disk may still describe the table.  An open re-indexes them, so
  recovery ends with :meth:`retain_segments`.
* :meth:`truncate_to` cuts a suffix, never the head.  A checkpoint
  fsyncs the file and only then writes its record, whose LSN is above
  every LSN stamped before it and below every one stamped after; a
  compaction keeps file order.  So the versions newer than a checkpoint
  are exactly the frames appended after it, and rolling back to it is
  one ``truncate``.

Page payloads sit behind the same CRC framing as the WAL, so a torn
page write from a crash fails its checksum and simply ends the file's
readable prefix.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from operator import itemgetter

from ..btree import node_from_image
from ..columnstore import ColumnPage
from ..errors import EngineError
from ..observability.metrics import CounterSet, MetricsRegistry
from ..pager import Page, PageKind
from .codec import (
    file_head,
    frame_header,
    frame_intact,
    frame_payload,
    has_head,
    read_frame,
)
from .faults import FaultInjector, SimulatedCrash

PAGE_FILE = "data.pages"

#: The page file's first bytes: magic + format version.  Version 1 is
#: the first with a head (before it a frame's pickle held a dict of
#: kind, size, used and payload, and RIDs were objects); it pickled
#: column pages too.  Version 2 stores them as images, and pickles
#: B-tree nodes; 3 those too, but may hold pickled row-major heap pages;
#: 4 images only.  Version 5 makes frame lengths and value ints varints.
HEAD = file_head(b"RPPG", 5)

#: A frame's fixed-width head: page id, segment id, LSN, kind, size,
#: used.  The payload after it is the page's alone.
_HEAD = struct.Struct("<QIQBIi")

#: ``kind`` byte -> page kind, and back.
_KINDS = tuple(PageKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}

#: :meth:`DiskPageStore.compact` rewrites the file once dead bytes
#: exceed this many times the live bytes.
COMPACT_DEAD_PER_LIVE = 1


@dataclass
class PageStoreStats(CounterSet, prefix="db.pager"):
    """Physical page I/O against the page file."""

    page_writes: int = 0
    page_reads: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    #: Every fsync of the page file or of its compacted copy.
    fsyncs: int = 0
    compactions: int = 0
    #: Gauges: bytes of the file in latest page versions, and in
    #: superseded or dropped ones (what the next compaction discards).
    live_bytes: int = 0
    dead_bytes: int = 0


#: What parsing bytes no image encoder wrote raises.
_UNDECODABLE = (
    ValueError,
    IndexError,
    KeyError,
    TypeError,
    OverflowError,
    struct.error,
)


def _from_image(data: bytes) -> object:
    """A column page or a B-tree node, by the image's first byte."""
    if data[0] == ColumnPage.IMAGE_KIND:
        return ColumnPage.from_image(data)
    return node_from_image(data)


class DiskPageStore:
    """Versioned page images in one append file."""

    def __init__(
        self,
        directory: str,
        *,
        metrics=None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, PAGE_FILE)
        self._faults = faults or FaultInjector()
        metrics = metrics or MetricsRegistry()
        self.stats: PageStoreStats = metrics.counter_set(PageStoreStats)
        #: page_id -> (offset, frame_length, segment_id, lsn) of the
        #: latest version.
        self._index: dict[int, tuple[int, int, int, int]] = {}
        #: segment_id -> ids of the pages whose latest version it holds.
        self._pages: dict[int, set[int]] = {}
        #: Valid byte length of the file: where the next frame goes.
        self._size = 0
        #: Appended to since the last :meth:`sync`.
        self._unsynced = False
        #: Whether a scan at open (:meth:`_scan`) cut anything off the file.
        self.truncated = False
        if os.path.exists(self.path + ".tmp"):
            os.remove(self.path + ".tmp")  # a compaction a crash cut short
        self._file = open(
            self.path, "r+b" if os.path.exists(self.path) else "w+b"
        )
        try:
            if not has_head(self.path, self._file.read(len(HEAD)), HEAD):
                # A new file, or one whose creation a crash cut short.
                self._file.seek(0)
                self._file.truncate()
                self._file.write(HEAD)
                self._file.flush()
                self._unsynced = True
            self._scan()
        except BaseException:
            self._file.close()
            raise

    # -- the file as it is ---------------------------------------------------

    def _scan(self, cutoff_lsn: int | None = None) -> None:
        """Index the file's readable prefix: every frame after the head
        up to the first that is torn, fails its checksum or, given a
        cutoff, is stamped above it.  The file is cut there, so appends
        always extend a readable file."""
        fh = self._file
        end = fh.seek(0, os.SEEK_END)
        offset = fh.seek(len(HEAD))
        index: dict[int, tuple[int, int, int, int]] = {}
        pages: dict[int, set[int]] = {}
        cut = None
        while (frame := read_frame(fh, end)) is not None:
            start = frame_header(frame)[0]
            page_id, segment_id, lsn = _HEAD.unpack_from(frame, start)[:3]
            above = cutoff_lsn is not None and lsn > cutoff_lsn
            if cut is None and above:
                cut = offset
            elif cut is None:
                # File order: the newest version of a page comes last.
                index[page_id] = (offset, len(frame), segment_id, lsn)
                pages.setdefault(segment_id, set()).add(page_id)
            elif not above:
                raise EngineError(
                    f"page {page_id}: version at LSN {lsn} (offset {offset}) "
                    f"follows one above the cutoff {cutoff_lsn} (offset {cut})"
                )
            offset += len(frame)
        if cut is None:
            cut = offset
        if cut < end:
            fh.truncate(cut)
            self.truncated = True
        self._index, self._pages, self._size = index, pages, cut
        self.stats.live_bytes = sum(map(itemgetter(1), index.values()))
        self.stats.dead_bytes = cut - len(HEAD) - self.stats.live_bytes

    def _frame_at(self, page_id: int) -> bytes:
        """The latest frame of ``page_id``: one ``pread``, its length
        and checksum checked."""
        offset, length, _, _ = self._index[page_id]
        frame = os.pread(self._file.fileno(), length, offset)
        if not frame_intact(frame):
            raise EngineError(
                f"page {page_id}: corrupt frame on disk (offset {offset})"
            )
        return frame

    # -- write / read -----------------------------------------------------

    def write(self, page: Page, lsn: int) -> None:
        """Append a new version of ``page``.  The write reaches the OS
        immediately (process-kill durability); fsync happens at
        checkpoints via :meth:`sync`."""
        head = _HEAD.pack(
            page.page_id,
            page.segment_id,
            lsn,
            _KIND_CODES[page.kind],
            page.size,
            page.used,
        )
        frame = frame_payload(head + page.payload.to_image())
        fh = self._file
        fh.seek(self._size)
        torn = self._faults.torn_write_length(len(frame))
        if torn is not None:
            fh.write(frame[:torn])
            fh.flush()
            raise SimulatedCrash(
                f"torn page write: {torn}/{len(frame)} bytes of page "
                f"{page.page_id} reached disk"
            )
        fh.write(frame)
        fh.flush()
        stats = self.stats
        superseded = self._index.get(page.page_id)
        if superseded is not None:
            stats.live_bytes -= superseded[1]
            stats.dead_bytes += superseded[1]
        self._index[page.page_id] = (
            self._size, len(frame), page.segment_id, lsn
        )
        self._pages.setdefault(page.segment_id, set()).add(page.page_id)
        self._size += len(frame)
        self._unsynced = True
        stats.live_bytes += len(frame)
        stats.page_writes += 1
        stats.bytes_written += len(frame)

    def read(self, page_id: int) -> Page:
        if page_id not in self._index:
            raise EngineError(f"page {page_id} does not exist")
        frame = self._frame_at(page_id)
        start = frame_header(frame)[0]
        _, segment_id, lsn, kind, size, used = _HEAD.unpack_from(frame, start)
        try:
            payload = _from_image(frame[start + _HEAD.size :])
        except _UNDECODABLE as exc:
            raise EngineError(
                f"page {page_id}: the frame passes its checksum but does "
                f"not decode ({exc!r})"
            ) from exc
        self.stats.page_reads += 1
        self.stats.bytes_read += len(frame)
        return Page(page_id, segment_id, _KINDS[kind], size, used, payload, lsn)

    # -- membership -------------------------------------------------------

    def page_ids(self) -> set[int]:
        return set(self._index)

    def pages_in_segment(self, segment_id: int) -> set[int]:
        return set(self._pages.get(segment_id, ()))

    def free_segment(self, segment_id: int) -> int:
        """Forget a segment (DROP TABLE/INDEX): its frames are dead.
        Returns the number of latest-version pages it held.  The frames
        themselves go at a later :meth:`compact`: until a checkpoint
        replaces it, the last snapshot still describes the table, and
        recovery un-drops it when the drop sits in an admin operation
        that never completed."""
        doomed = self._pages.pop(segment_id, ())
        for page_id in doomed:
            length = self._index.pop(page_id)[1]
            self.stats.live_bytes -= length
            self.stats.dead_bytes += length
        return len(doomed)

    def retain_segments(self, owned: set[int]) -> None:
        """Forget every segment but ``owned``.  An open indexes whatever
        the file holds, a dropped table's frames included; recovery
        says here which segments the restored catalog still has."""
        for segment_id in set(self._pages) - owned:
            self.free_segment(segment_id)

    # -- durability -------------------------------------------------------

    def sync(self) -> None:
        """fsync the file if it was written since the last sync
        (checkpoint barrier)."""
        if self._unsynced:
            self._file.flush()
            os.fsync(self._file.fileno())
            self.stats.fsyncs += 1
            self._unsynced = False

    # -- version management -----------------------------------------------

    def truncate_to(self, cutoff_lsn: int) -> None:
        """Physically discard every version with ``lsn > cutoff_lsn``
        and index what is left.  Recovery uses this to roll the store
        back to the state the checkpoint snapshot describes.  Those
        versions are a suffix of the file (module docstring); one that
        is not raises :class:`EngineError`."""
        self._scan(cutoff_lsn)

    def compact(self) -> None:
        """Checkpoint GC: once dead bytes exceed live bytes, rewrite
        the file to the latest version of every page, in file order."""
        stats = self.stats
        if stats.dead_bytes <= COMPACT_DEAD_PER_LIVE * stats.live_bytes:
            return
        tmp = self.path + ".tmp"
        index: dict[int, tuple[int, int, int, int]] = {}
        position = len(HEAD)
        try:
            with open(tmp, "wb") as dst:
                dst.write(HEAD)
                for page_id, (_, length, segment_id, lsn) in sorted(
                    self._index.items(), key=itemgetter(1)
                ):
                    dst.write(self._frame_at(page_id))
                    index[page_id] = (position, length, segment_id, lsn)
                    position += length
                dst.flush()
                os.fsync(dst.fileno())
        except EngineError:
            os.remove(tmp)  # the damaged file stays, whole, as evidence
            raise
        stats.fsyncs += 1
        self._faults.crashpoint("checkpoint.compact")
        self._file.close()
        os.replace(tmp, self.path)
        self._file = open(self.path, "r+b")
        self._index = index
        self._size = position
        self._unsynced = False
        stats.dead_bytes = 0
        stats.compactions += 1

    def close(self) -> None:
        self._file.close()
