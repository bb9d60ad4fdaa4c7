"""The write-ahead log.

One append-only file of CRC-framed records (see :mod:`codec`) behind a
16-byte head: magic ``RPWL`` + format version (:data:`HEAD`; an open
refuses a file without it, or at another version, by name), then
``base_lsn`` (u64).  A record's LSN is ``base_lsn`` plus the byte
offset of its frame, so LSNs stay monotonic across checkpoint
truncations (the new file starts where the old LSN space ended).

Appends are buffered in process — a crash loses everything since the
last flush, which is exactly the power-loss model the recovery tests
exercise.  ``commit_append`` implements group commit: the flush+fsync
is deferred until ``group_commit`` commit records have accumulated, so
one fsync amortizes over a batch (the classic group-commit trade:
bounded loss window, much higher commit throughput).

A checkpoint swaps the whole file atomically (write temp + fsync +
``os.replace``) for a fresh one whose only payload is the checkpoint
record; recovery therefore never scans more log than was written since
the last checkpoint.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

from ..observability.metrics import CounterSet, MetricsRegistry
from .codec import decode_frames, encode_frame, file_head, has_head
from .faults import FaultInjector, SimulatedCrash

#: The log's first bytes: magic + format version.  Version 1 is the
#: first with a head; before it the file began with a pickled header
#: record.
HEAD = file_head(b"RPWL", 1)

#: What follows the head: the LSN of the file's byte 0.
_BASE_LSN = struct.Struct("<Q")
HEAD_SIZE = len(HEAD) + _BASE_LSN.size

#: The seeded mutation the recovery property test must catch: flushes
#: report success without writing, so "durable" commits are lost.
MUTATE_SKIP_FLUSH = "skip-wal-flush"


@dataclass
class WalStats(CounterSet, prefix="db.wal"):
    """WAL activity counters."""

    records: int = 0
    bytes_written: int = 0
    flushes: int = 0
    fsyncs: int = 0


class WriteAheadLog:
    """Buffered, CRC-framed, LSN-addressed log over one file."""

    def __init__(
        self,
        path: str,
        *,
        metrics=None,
        faults: FaultInjector | None = None,
        group_commit: int = 1,
        mutate: str | None = None,
    ) -> None:
        self.path = path
        metrics = metrics or MetricsRegistry()
        self.stats: WalStats = metrics.counter_set(WalStats)
        self._h_batch = metrics.histogram("db.wal.group_commit_batch")
        self.group_commit = max(1, group_commit)
        self._faults = faults or FaultInjector()
        self._mutate_skip_flush = mutate == MUTATE_SKIP_FLUSH
        self.base_lsn = 0
        self._file = None
        #: Bytes durably in the file (after the last flush).
        self._durable = 0
        #: Logical log length: durable + dropped-by-mutation + pending.
        self._appended = 0
        #: ``_appended`` as of the last checkpoint head (or file header):
        #: the auto-checkpoint trigger measures volume past this point,
        #: never the snapshot itself — a snapshot larger than the
        #: trigger would otherwise force a checkpoint per statement.
        self._checkpoint_anchor = 0
        self._pending = bytearray()
        self._pending_commits = 0
        self._flushed_lsn = 0

    # -- opening ----------------------------------------------------------

    def open(self) -> list[tuple[int, dict]]:
        """Open (creating if absent) and return the durable records as
        ``(lsn, record)`` pairs.  A torn tail is truncated away so
        subsequent appends extend a valid log."""
        existed = os.path.exists(self.path)
        records: list[tuple[int, dict]] = []
        valid_end = HEAD_SIZE
        if existed:
            with open(self.path, "rb") as fh:
                data = fh.read()
            # A head a crash cut short is a creation that never
            # finished: an empty log.
            existed = has_head(self.path, data, HEAD) and (
                len(data) >= HEAD_SIZE
            )
        if existed:
            (self.base_lsn,) = _BASE_LSN.unpack_from(data, len(HEAD))
            for offset, record in decode_frames(data, HEAD_SIZE):
                records.append((self.base_lsn + offset, record))
            if records:
                last_lsn, last_record = records[-1]
                valid_end = (
                    last_lsn - self.base_lsn + len(encode_frame(last_record))
                )
        self._file = open(self.path, "r+b" if existed else "w+b")
        if existed:
            if valid_end < len(data):
                self._file.truncate(valid_end)
            self._file.seek(valid_end)
            self._durable = self._appended = valid_end
            # Anchor past the checkpoint head if the log starts with one
            # (it is always the first record).
            ends = [lsn - self.base_lsn for lsn, _ in records] + [valid_end]
            anchor = ends[0]
            if records and records[0][1].get("t") == "checkpoint":
                anchor = ends[1]
            self._checkpoint_anchor = anchor
        else:
            head = HEAD + _BASE_LSN.pack(0)
            self.base_lsn = 0
            self._file.write(head)
            self._file.flush()
            os.fsync(self._file.fileno())
            self._durable = self._appended = len(head)
            self._checkpoint_anchor = self._appended
        self._flushed_lsn = self.base_lsn + self._appended
        return records

    # -- appending --------------------------------------------------------

    @property
    def end_lsn(self) -> int:
        """LSN one past the last appended (possibly unflushed) record."""
        return self.base_lsn + self._appended

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    @property
    def bytes_since_checkpoint(self) -> int:
        """Log volume accumulated past the checkpoint head
        (auto-checkpoint trigger input)."""
        return self._appended - self._checkpoint_anchor

    def append(self, record: dict) -> int:
        """Buffer one record; returns its LSN.  Not yet durable."""
        lsn = self.base_lsn + self._appended
        frame = encode_frame(record)
        self._pending += frame
        self._appended += len(frame)
        self.stats.records += 1
        return lsn

    def commit_append(self, record: dict) -> int:
        """Append a transaction terminal and apply the group-commit
        policy: flush now unless the batch is still filling."""
        lsn = self.append(record)
        self._pending_commits += 1
        if self._pending_commits >= self.group_commit:
            self.flush()
        return lsn

    # -- durability -------------------------------------------------------

    def flush(self) -> None:
        """Write and fsync the buffered suffix."""
        if not self._pending:
            return
        self._faults.crashpoint("wal.flush")
        pending = bytes(self._pending)
        batch = self._pending_commits
        self._pending.clear()
        self._pending_commits = 0
        self.stats.flushes += 1
        if batch:
            self._h_batch.observe(batch)
        if self._mutate_skip_flush:
            # The seeded bug: report success, write nothing.
            self._flushed_lsn = self.base_lsn + self._appended
            return
        short = self._faults.short_fsync_length(len(pending))
        if short is not None:
            self._file.write(pending[:short])
            self._file.flush()
            os.fsync(self._file.fileno())
            raise SimulatedCrash(
                f"short fsync: {short}/{len(pending)} bytes reached disk"
            )
        self._file.write(pending)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._durable += len(pending)
        self._flushed_lsn = self.base_lsn + self._appended
        self.stats.bytes_written += len(pending)
        self.stats.fsyncs += 1

    def flush_to(self, lsn: int) -> None:
        """The WAL rule: before a page stamped ``lsn`` reaches disk, the
        log must be durable at least that far."""
        if lsn > self._flushed_lsn:
            self.flush()

    # -- checkpointing ----------------------------------------------------

    def checkpoint_reset(self, checkpoint_record: dict) -> int:
        """Atomically replace the log with a fresh one containing only
        ``checkpoint_record``.  Returns the record's LSN; the new
        ``base_lsn`` is the old ``end_lsn`` so the address space keeps
        growing monotonically."""
        self.flush()
        new_base = self.end_lsn
        header = HEAD + _BASE_LSN.pack(new_base)
        body = encode_frame(checkpoint_record)
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(header + body)
            fh.flush()
            os.fsync(fh.fileno())
        self._faults.crashpoint("wal.checkpoint_reset")
        self._file.close()
        os.replace(tmp, self.path)
        self._file = open(self.path, "r+b")
        self._file.seek(0, os.SEEK_END)
        self.base_lsn = new_base
        self._durable = self._appended = len(header) + len(body)
        self._checkpoint_anchor = self._appended
        self._pending.clear()
        self._pending_commits = 0
        self._flushed_lsn = new_base + self._appended
        self.stats.bytes_written += len(header) + len(body)
        self.stats.fsyncs += 1
        return new_base + len(header)

    def close(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None
