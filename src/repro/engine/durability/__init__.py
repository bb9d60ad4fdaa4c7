"""Durability subsystem: WAL, disk-backed page store, crash recovery.

The in-memory engine simulates physical I/O; this package makes it
real and recoverable:

* :mod:`wal` — an LSN-stamped write-ahead log of logical DML records,
  transaction terminals, DDL, admin-operation markers, and checkpoint
  snapshots, with group-commit fsync batching.
* :mod:`pagestore` — a log-structured disk page store behind
  :class:`~repro.engine.pager.BufferPool`: one append file per database
  of CRC-framed, LSN-stamped page images.
* :mod:`manager` — ties both together: the WAL rule on dirty-page
  writeback, fuzzy checkpoints, admin-operation atomicity markers.
* :mod:`recovery` — ARIES-lite open-time recovery: load the last
  checkpoint, undo its in-flight transaction if it never terminated,
  then selectively redo the committed log suffix.
* :mod:`faults` — fault injection: named crashpoints, torn page
  writes, short fsyncs, and seeded mutations for testing the tester.
"""

from .faults import FaultInjector, SimulatedCrash
from .manager import DurabilityManager, DurabilityOptions
from .wal import WalStats, WriteAheadLog

__all__ = [
    "DurabilityManager",
    "DurabilityOptions",
    "FaultInjector",
    "SimulatedCrash",
    "WalStats",
    "WriteAheadLog",
]
