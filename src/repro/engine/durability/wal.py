"""The write-ahead log.

One append-only file of CRC-framed records (see :mod:`codec`).  The
first frame is always a header carrying ``base_lsn``; a record's LSN is
``base_lsn`` plus the byte offset of its frame, so LSNs stay monotonic
across checkpoint truncations (the new file starts where the old LSN
space ended).

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
from dataclasses import dataclass

from ..observability.metrics import CounterSet, MetricsRegistry
from .codec import decode_frames, encode_frame
from .faults import FaultInjector, SimulatedCrash

#: Record type of the file header frame.
HEADER_RECORD = "wal_header"

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
        ``(lsn, record)`` pairs, excluding the header.  A torn tail is
        truncated away so subsequent appends extend a valid log."""
        existed = os.path.exists(self.path)
        records: list[tuple[int, dict]] = []
        valid_end = 0
        if existed:
            with open(self.path, "rb") as fh:
                data = fh.read()
            frames = list(decode_frames(data))
            if frames and (
                isinstance(frames[0][1], dict)
                and frames[0][1].get("t") == HEADER_RECORD
            ):
                self.base_lsn = frames[0][1]["base_lsn"]
                for offset, record in frames[1:]:
                    records.append((self.base_lsn + offset, record))
                last_offset, last_record = frames[-1]
                valid_end = last_offset + len(encode_frame(last_record))
            else:
                # Unreadable header: treat as an empty log.
                existed = False
        self._file = open(self.path, "r+b" if existed else "w+b")
        if existed:
            if valid_end < os.path.getsize(self.path):
                self._file.truncate(valid_end)
            self._file.seek(valid_end)
            self._durable = self._appended = valid_end
            # Anchor past the header, and past the checkpoint head if
            # the log starts with one (it is always the first record).
            ends = [off for off, _ in frames[1:]] + [valid_end]
            anchor = ends[0]
            if records and records[0][1].get("t") == "checkpoint":
                anchor = ends[1] if len(ends) > 1 else valid_end
            self._checkpoint_anchor = anchor
        else:
            header = encode_frame({"t": HEADER_RECORD, "base_lsn": 0})
            self.base_lsn = 0
            self._file.write(header)
            self._file.flush()
            os.fsync(self._file.fileno())
            self._durable = self._appended = len(header)
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
        header = encode_frame({"t": HEADER_RECORD, "base_lsn": new_base})
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
