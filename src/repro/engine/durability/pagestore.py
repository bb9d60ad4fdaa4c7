"""A log-structured disk page store.

Each segment (one heap file or B-tree) owns an append-only file of
CRC-framed page images (``seg_<id>.pages``).  Writing a page appends a
new version stamped with the WAL LSN current when the page was last
dirtied; the in-memory index tracks the latest version of every page,
so reads are one seek.  Old versions accumulate until a checkpoint
compacts them away; recovery instead *truncates* to the checkpoint LSN,
discarding every version written after the snapshot being restored.

Maintenance costs what changed, not what is stored.  The index already
says where the latest version of every page lives, so the store also
knows, per segment, whether it holds a superseded version (*garbage*)
and whether it was written since the last fsync (*unsynced*):

* :meth:`compact` rewrites only garbage segments, every one of them at
  every checkpoint (no garbage-ratio threshold: on-disk size cannot
  grow past one checkpoint interval's writes).  Live frames are copied
  as bytes — same encoding, same LSN — after re-verifying each frame's
  CRC; a frame that fails raises :class:`EngineError` instead of being
  copied.  A segment nobody wrote to is not opened.
* :meth:`sync` fsyncs only unsynced segments.
* :meth:`free_segment` forgets a segment at once but leaves its file to
  the next :meth:`compact`, because the checkpoint on disk may still
  describe the dropped table.
* :meth:`truncate_to` must unpickle frames to learn the LSN of
  superseded versions, so it alone decodes — and only segments that
  hold garbage or a version above the cutoff.

A rewrite goes to ``seg_<id>.pages.tmp`` and is renamed into place; a
crash in between leaves a stray ``.tmp`` that the next open deletes.

Page payloads are Python objects (heap slot lists, B-tree nodes) —
serialization goes through the same pickle+CRC framing as the WAL, so a
torn page write from a crash is detected by checksum and simply ends
that file's readable prefix.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import EngineError
from ..observability.metrics import CounterSet, MetricsRegistry
from ..pager import Page, PageKind
from .codec import HEADER_SIZE, decode_frames, encode_frame, frame_is_intact
from .faults import FaultInjector, SimulatedCrash

_SEGMENT_FILE = re.compile(r"^seg_(\d+)\.pages$")
_STRAY_REWRITE = re.compile(r"^seg_\d+\.pages\.tmp$")

#: One stored version of a page: (page_id, offset, frame_length, lsn).
_Version = tuple[int, int, int, int]
#: One version lifted out of its file: (page_id, frame bytes, lsn).
_Frame = tuple[int, bytes, int]


def _segment_filename(segment_id: int) -> str:
    return f"seg_{segment_id:06d}.pages"


def _versions(data: bytes) -> Iterator[_Version]:
    """Every readable page version of a segment file, in file order."""
    for offset, record in decode_frames(data):
        frame_length = HEADER_SIZE + int.from_bytes(
            data[offset : offset + 4], "little"
        )
        yield record["page_id"], offset, frame_length, record["lsn"]


@dataclass
class PageStoreStats(CounterSet, prefix="db.pager"):
    """Physical page I/O against the segment files."""

    page_writes: int = 0
    page_reads: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    fsyncs: int = 0


class DiskPageStore:
    """Versioned page images in per-segment append files."""

    def __init__(
        self,
        directory: str,
        *,
        metrics=None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._faults = faults or FaultInjector()
        metrics = metrics or MetricsRegistry()
        self.stats: PageStoreStats = metrics.counter_set(PageStoreStats)
        #: page_id -> (segment_id, offset, frame_length, lsn) of the
        #: latest version.
        self._index: dict[int, tuple[int, int, int, int]] = {}
        #: segment_id -> ids of the pages whose latest version it holds.
        self._pages: dict[int, set[int]] = {}
        #: segment_id -> valid byte length of its file.
        self._sizes: dict[int, int] = {}
        #: Segments holding at least one superseded page version.
        self._garbage: set[int] = set()
        #: Segments appended to since the last :meth:`sync`.
        self._unsynced: set[int] = set()
        #: Freed segments whose file the last checkpoint may still need.
        self._dropped: set[int] = set()
        self._files: dict[int, object] = {}
        self._scan()

    # -- startup ----------------------------------------------------------

    def _segment_path(self, segment_id: int) -> str:
        return os.path.join(self.directory, _segment_filename(segment_id))

    def _scan(self) -> None:
        """Index every valid frame; truncate torn tails so appends
        always extend a readable file; delete the half-written output of
        a rewrite that a crash interrupted."""
        for name in sorted(os.listdir(self.directory)):
            path = os.path.join(self.directory, name)
            if _STRAY_REWRITE.match(name):
                os.remove(path)
                continue
            match = _SEGMENT_FILE.match(name)
            if match is None:
                continue
            segment_id = int(match.group(1))
            with open(path, "rb") as fh:
                data = fh.read()
            valid_end = 0
            for page_id, offset, length, lsn in _versions(data):
                valid_end = offset + length
                self._record_version(page_id, segment_id, offset, length, lsn)
            if valid_end < len(data):
                with open(path, "r+b") as fh:
                    fh.truncate(valid_end)
            self._sizes[segment_id] = valid_end

    def _record_version(
        self, page_id: int, segment_id: int, offset: int, length: int, lsn: int
    ) -> None:
        # Versions are recorded in file order, so this one is the
        # newest; a page never moves between segments, so whatever it
        # supersedes is garbage in the same file.
        if page_id in self._index:
            self._garbage.add(segment_id)
        self._index[page_id] = (segment_id, offset, length, lsn)
        self._pages.setdefault(segment_id, set()).add(page_id)

    # -- handles ----------------------------------------------------------

    def _handle(self, segment_id: int):
        fh = self._files.get(segment_id)
        if fh is None:
            path = self._segment_path(segment_id)
            fh = open(path, "r+b" if os.path.exists(path) else "w+b")
            self._files[segment_id] = fh
            self._sizes.setdefault(segment_id, os.path.getsize(path))
        return fh

    def _forget(self, segment_id: int) -> int:
        """Drop everything the store remembers about a segment but its
        file and size.  Returns the number of latest-version pages it
        held."""
        fh = self._files.pop(segment_id, None)
        if fh is not None:
            fh.close()
        doomed = self._pages.pop(segment_id, ())
        for page_id in doomed:
            del self._index[page_id]
        self._garbage.discard(segment_id)
        self._unsynced.discard(segment_id)
        return len(doomed)

    # -- write / read -----------------------------------------------------

    def write(self, page: Page, lsn: int) -> None:
        """Append a new version of ``page``.  The write reaches the OS
        immediately (process-kill durability); fsync happens at
        checkpoints via :meth:`sync`."""
        record = {
            "page_id": page.page_id,
            "lsn": lsn,
            "segment": page.segment_id,
            "kind": page.kind.value,
            "size": page.size,
            "used": page.used,
            "payload": page.payload,
        }
        frame = encode_frame(record)
        fh = self._handle(page.segment_id)
        offset = self._sizes.get(page.segment_id, 0)
        fh.seek(offset)
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
        self._sizes[page.segment_id] = offset + len(frame)
        self._unsynced.add(page.segment_id)
        self._record_version(
            page.page_id, page.segment_id, offset, len(frame), lsn
        )
        self.stats.page_writes += 1
        self.stats.bytes_written += len(frame)

    def read(self, page_id: int) -> Page:
        loc = self._index.get(page_id)
        if loc is None:
            raise EngineError(f"page {page_id} does not exist")
        segment_id, offset, length, _lsn = loc
        fh = self._handle(segment_id)
        fh.seek(offset)
        data = fh.read(length)
        decoded = next(iter(decode_frames(data)), None)
        if decoded is None:
            raise EngineError(f"page {page_id}: corrupt frame on disk")
        _, record = decoded
        self.stats.page_reads += 1
        self.stats.bytes_read += length
        page = Page(
            page_id=record["page_id"],
            segment_id=record["segment"],
            kind=PageKind(record["kind"]),
            size=record["size"],
            used=record["used"],
            payload=record["payload"],
        )
        page.lsn = record["lsn"]
        return page

    # -- membership -------------------------------------------------------

    def contains(self, page_id: int) -> bool:
        return page_id in self._index

    def page_ids(self) -> set[int]:
        return set(self._index)

    def pages_in_segment(self, segment_id: int) -> set[int]:
        return set(self._pages.get(segment_id, ()))

    def free_segment(self, segment_id: int) -> int:
        """Forget a segment (DROP TABLE/INDEX).  Returns the number of
        latest-version pages it held.  The file itself goes at the next
        :meth:`compact`: until a checkpoint replaces it, the last
        snapshot still describes the table, and recovery un-drops it
        when the drop sits in an admin operation that never completed."""
        dropped = self._forget(segment_id)
        if self._sizes.pop(segment_id, None) is not None:
            self._dropped.add(segment_id)
        return dropped

    # -- durability -------------------------------------------------------

    def sync(self) -> None:
        """fsync every segment file written since the last sync
        (checkpoint barrier)."""
        for segment_id in sorted(self._unsynced):
            fh = self._handle(segment_id)
            fh.flush()
            os.fsync(fh.fileno())
            self.stats.fsyncs += 1
        self._unsynced.clear()

    # -- version management -----------------------------------------------

    def truncate_to(self, cutoff_lsn: int) -> None:
        """Keep, per page, only the newest version with
        ``lsn <= cutoff_lsn``; physically discard everything else.
        Recovery uses this to roll the store back to the state the
        checkpoint snapshot describes.  A segment whose pages all have
        one version, none above the cutoff, is already that state."""
        for segment_id in sorted(self._sizes):
            pages = self._pages.get(segment_id)
            if (
                pages
                and segment_id not in self._garbage
                and all(self._index[p][3] <= cutoff_lsn for p in pages)
            ):
                continue
            data = self._segment_bytes(segment_id)
            # Only unpickling tells a superseded version's LSN.
            best: dict[int, _Frame] = {}
            for page_id, offset, length, lsn in _versions(data):
                if lsn <= cutoff_lsn:
                    best[page_id] = (page_id, data[offset : offset + length], lsn)
            self._replace_segment(segment_id, list(best.values()))

    def compact(self) -> None:
        """Keep only the latest version of every page (checkpoint GC):
        rewrite each segment that holds a superseded version to exactly
        its live frames, in file order, and unlink freed segments."""
        for segment_id in sorted(self._dropped):
            os.remove(self._segment_path(segment_id))
        self._dropped.clear()
        for segment_id in sorted(self._garbage):
            data = self._segment_bytes(segment_id)
            frames: list[_Frame] = []
            # Index entries of one segment sort by offset: file order.
            for _, offset, length, lsn, page_id in sorted(
                self._index[page_id] + (page_id,)
                for page_id in self._pages[segment_id]
            ):
                frame = data[offset : offset + length]
                if not frame_is_intact(frame):
                    raise EngineError(
                        f"page {page_id}: corrupt frame on disk "
                        f"(segment {segment_id}, offset {offset})"
                    )
                frames.append((page_id, frame, lsn))
            self._replace_segment(segment_id, frames)
            self._faults.crashpoint("checkpoint.compact")

    def _segment_bytes(self, segment_id: int) -> bytes:
        with open(self._segment_path(segment_id), "rb") as src:
            return src.read(self._sizes[segment_id])

    def _replace_segment(self, segment_id: int, frames: list[_Frame]) -> None:
        """Make the segment's file hold exactly ``frames``, written
        verbatim, and re-index it.  With no frame left the file goes
        away.  What the store remembers changes only once the file has."""
        path = self._segment_path(segment_id)
        fh = self._files.pop(segment_id, None)
        if fh is not None:
            fh.close()
        if frames:
            tmp = path + ".tmp"
            with open(tmp, "wb") as dst:
                dst.writelines(frame for _, frame, _ in frames)
                dst.flush()
                os.fsync(dst.fileno())
            os.replace(tmp, path)
        else:
            os.remove(path)
        self._forget(segment_id)
        del self._sizes[segment_id]
        position = 0
        for page_id, frame, lsn in frames:
            self._record_version(page_id, segment_id, position, len(frame), lsn)
            position += len(frame)
        if frames:
            self._sizes[segment_id] = position

    def segment_ids(self) -> Iterable[int]:
        return set(self._sizes)

    def close(self) -> None:
        for fh in self._files.values():
            fh.close()
        self._files.clear()
