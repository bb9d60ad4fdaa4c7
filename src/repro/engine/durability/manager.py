"""The durability coordinator.

One :class:`DurabilityManager` per disk-backed database owns the WAL and
the page store and enforces the protocol between them:

* **WAL rule** — before a dirty page reaches the store, the log is
  flushed through that page's LSN (:meth:`before_page_write`).
* **Fuzzy checkpoints** — flush every dirty frame in place, fsync the
  page file (one file, one fsync, however many tables those writes and
  earlier evictions touched), then atomically swap in a fresh WAL whose
  head is a snapshot of the catalog's physical layout (plus the active
  transaction's undo log, so a checkpoint may run mid-transaction).
  Afterwards the store compacts away old page versions and dropped
  tables' frames, but only once they outweigh the live ones — a
  checkpoint costs what changed since the last one, two fsyncs at
  most, not what the database holds or how many tables it has.  Dying
  before the compacted copy is renamed into place
  (``checkpoint.compact``) is harmless: the new log is already in
  place, the old file still holds every live version, and the next
  open deletes the copy.
* **Admin-operation atomicity** — multi-statement administrative
  operations (schema extension grants, tenant migration/deletion) are
  bracketed by begin/end markers.  Recovery replays *nothing* from an
  operation whose end marker never made it to disk, so a crash mid
  operation makes it never-happened instead of half-done.
  An end marker carries the caller's whole durable state as of that
  moment; the manager keeps only the newest (:attr:`admin_state`),
  every checkpoint stores that one value and recovery hands it back —
  a state that is read, never a history that is replayed, so what a
  checkpoint costs follows what exists, not what once happened.

Transaction-id and admin-operation-id allocation also live here so the
counters can be carried through checkpoints.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import EngineError
from ..observability.metrics import MetricsRegistry
from .faults import FaultInjector, SimulatedCrash
from .pagestore import DiskPageStore
from .wal import WriteAheadLog

WAL_FILENAME = "wal.log"
PAGES_DIRNAME = "pages"

#: Default auto-checkpoint trigger: log volume since the last checkpoint.
AUTO_CHECKPOINT_BYTES = 256 * 1024


@dataclass
class DurabilityOptions:
    """Tuning and test knobs for one disk-backed database."""

    #: Commit terminals per fsync: 1 = classic synchronous commit; N > 1
    #: batches N commits behind one fsync (group commit).
    group_commit: int = 1
    #: Checkpoint automatically once this much log has accumulated
    #: (checked between top-level statements).  0 disables.
    auto_checkpoint_bytes: int = AUTO_CHECKPOINT_BYTES
    #: Fault injection schedule (crashpoints, torn writes, short fsyncs).
    faults: FaultInjector | None = None
    #: Seeded-bug switch for testing the tests (e.g. ``skip-wal-flush``).
    mutate: str | None = None


class DurabilityManager:
    """WAL + page store + the protocol between them."""

    def __init__(
        self,
        path: str,
        *,
        metrics=None,
        options: DurabilityOptions | None = None,
    ) -> None:
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.options = options or DurabilityOptions()
        self.faults = self.options.faults or FaultInjector()
        metrics = metrics or MetricsRegistry()
        self._c_checkpoints = metrics.counter("db.checkpoint.count")
        self._g_checkpoint_ms = metrics.gauge("db.checkpoint.last_ms")
        #: ``recovery_info`` key -> the gauge recovery publishes it under.
        self.recovery_gauges = {
            key: metrics.gauge(f"db.recovery.{key}")
            for key in ("records_replayed", "losers", "ms")
        }
        self.wal = WriteAheadLog(
            os.path.join(path, WAL_FILENAME),
            metrics=metrics,
            faults=self.faults,
            group_commit=self.options.group_commit,
            mutate=self.options.mutate,
        )
        self.store = DiskPageStore(
            os.path.join(path, PAGES_DIRNAME),
            metrics=metrics,
            faults=self.faults,
        )
        #: True while recovery is re-executing logged work: all logging
        #: is suppressed.
        self.replaying = False
        self.next_txid = 1
        self.next_admin = 1
        self._active_admin: int | None = None
        #: What the last completed admin operation's end marker
        #: recorded — carried through checkpoints and handed to the
        #: schema-mapping layer on recovery.  ``None``: no operation yet.
        self.admin_state = None
        #: Filled by :func:`~repro.engine.durability.recovery.recover`.
        self.recovery_info: dict = {}
        #: Optional dynamic sanitizer (write-ahead protocol checking).
        self.sanitizer = None

    #: Seeded defect: logical row records (ins/del/upd) are silently
    #: dropped instead of appended — the write-ahead discipline breaks
    #: while execution stays plausible.  The ``--sanitize`` gate must
    #: catch this as CON002.
    MUTATE_SKIP_APPEND = "skip-wal-append"

    # -- logging ----------------------------------------------------------

    def log(self, record: dict) -> int | None:
        """Append one logical record (suppressed during replay).  The
        active admin operation, if any, tags the record so recovery can
        discard it if the operation never completed."""
        if self.replaying:
            return None
        is_row_record = record.get("t") in ("ins", "del", "upd")
        if (
            is_row_record
            and self.options.mutate == self.MUTATE_SKIP_APPEND
        ):
            return None
        if self._active_admin is not None:
            record["admin"] = self._active_admin
        if is_row_record and self.sanitizer is not None:
            self.sanitizer.on_wal_row_record()
        return self.wal.append(record)

    def log_commit(self, txid: int) -> None:
        if self.replaying:
            return
        self.faults.crashpoint("txn.commit")
        record: dict = {"t": "commit", "tx": txid}
        if self._active_admin is not None:
            record["admin"] = self._active_admin
        self.wal.commit_append(record)

    def log_rollback(self, txid: int) -> None:
        if self.replaying:
            return
        record: dict = {"t": "rollback", "tx": txid}
        if self._active_admin is not None:
            record["admin"] = self._active_admin
        self.wal.commit_append(record)

    def log_ddl(self, ddl: dict) -> None:
        """Log a DDL statement *after* it applied successfully (failed
        DDL must never replay).  Self-committing: flushed immediately
        unless inside an admin operation, whose end marker flushes."""
        if self.replaying:
            return
        record = {"t": "ddl", **ddl}
        if self._active_admin is not None:
            record["admin"] = self._active_admin
            self.wal.append(record)
        else:
            self.wal.append(record)
            self.wal.flush()

    def allocate_txid(self) -> int:
        txid = self.next_txid
        self.next_txid += 1
        return txid

    # -- the WAL rule ------------------------------------------------------

    @property
    def current_lsn(self) -> int:
        """LSN pages are stamped with when dirtied."""
        return self.wal.end_lsn

    def before_page_write(self, page) -> None:
        """Called by the buffer pool before a dirty page reaches the
        store: write-ahead means the log covering the page's changes
        must be durable first."""
        self.faults.crashpoint("pager.writeback")
        self.wal.flush_to(page.lsn)

    # -- admin operations --------------------------------------------------

    @contextmanager
    def admin_operation(self, op: str, end_state):
        """Bracket a multi-statement administrative operation.

        All records logged inside the bracket are tagged with the
        operation id; recovery discards every tagged record unless the
        end marker is on disk, making the operation crash-atomic.  On a
        non-crash failure the end marker *is* written (the caller
        observes — and keeps running with — the half-applied state, so
        recovery must reproduce it).  ``end_state`` is called at end
        time; its value rides in the end marker and becomes
        :attr:`admin_state` — pickled again by every checkpoint, so it
        must not alias anything the caller goes on mutating.  ``op``
        only names the ``admin.{op}.begin/end`` crashpoints.
        """
        if self.replaying:
            yield
            return
        if self._active_admin is not None:
            raise EngineError("nested admin operations are not supported")
        op_id = self.next_admin
        self.next_admin += 1
        self.wal.append({"t": "admin_begin", "id": op_id, "op": op})
        self.wal.flush()
        self._active_admin = op_id
        self.faults.crashpoint(f"admin.{op}.begin")
        try:
            yield
        except SimulatedCrash:
            raise  # died mid-operation: no end marker, never happened
        except BaseException:
            self._finish_admin(op_id, end_state)
            raise
        else:
            self.faults.crashpoint(f"admin.{op}.end")
            self._finish_admin(op_id, end_state)

    def _finish_admin(self, op_id: int, end_state) -> None:
        self._active_admin = None
        end = end_state() if callable(end_state) else end_state
        self.wal.append({"t": "admin_end", "id": op_id, "end": end})
        self.wal.flush()
        self.admin_state = end

    # -- checkpoints -------------------------------------------------------

    def checkpoint(self, db) -> bool:
        """Take a fuzzy checkpoint.  Refused (returns False) during an
        admin operation — its begin/end bracket must stay within one log
        file — and during replay."""
        if self.replaying or self._active_admin is not None:
            return False
        started = time.perf_counter()
        self.faults.crashpoint("checkpoint.begin")
        db.pool.write_back_all()
        self.store.sync()
        snapshot = capture_snapshot(db, self)
        self.wal.checkpoint_reset({"t": "checkpoint", "snapshot": snapshot})
        self.store.compact()
        self.faults.crashpoint("checkpoint.end")
        self._c_checkpoints.inc()
        self._g_checkpoint_ms.set((time.perf_counter() - started) * 1000.0)
        return True

    def maybe_checkpoint(self, db) -> bool:
        """Auto-checkpoint when enough log has accumulated."""
        threshold = self.options.auto_checkpoint_bytes
        if threshold <= 0 or self.replaying or self._active_admin is not None:
            return False
        if self.wal.bytes_since_checkpoint < threshold:
            return False
        return self.checkpoint(db)

    def close(self) -> None:
        self.wal.close()
        self.store.close()


# -- checkpoint snapshots --------------------------------------------------
#
# A snapshot is the catalog's *physical shape* — which tables exist, which
# pages each heap and B-tree owns, every allocator counter — but not page
# contents: those are in the (fsynced) page store.  Restore rebuilds the
# in-memory objects and points them at the same pages.


def capture_snapshot(db, durability: DurabilityManager) -> dict:
    """Everything needed to rebuild the catalog over the page store."""
    catalog = db.catalog
    tables = []
    for table in catalog.tables():
        heap = table.heap
        indexes = []
        for info in table.indexes.values():
            btree = info.btree
            indexes.append(
                {
                    "name": info.name,
                    "columns": list(info.column_names),
                    "unique": info.unique,
                    "segment": btree.segment_id,
                    "root_id": btree.root_id,
                    "height": btree.height,
                    "entry_count": btree.entry_count,
                    "distinct_keys": btree.distinct_keys,
                    "prefix_distinct": btree.prefix_distinct_counts(),
                }
            )
        tables.append(
            {
                "name": table.name,
                "columns": list(table.columns),
                "storage": heap.storage_kind,
                "segment": heap.segment_id,
                "page_ids": heap.page_ids(),
                "free_map": heap.free_map(),
                "row_count": heap.row_count,
                "indexes": indexes,
            }
        )
    return {
        "tables": tables,
        "next_segment": catalog.next_segment,
        "metadata_bytes": catalog.metadata_bytes,
        "ddl_statements": catalog.ddl_statements,
        "version": catalog.version,
        "next_page_id": db.pool.next_page_id,
        "next_txid": durability.next_txid,
        "next_admin": durability.next_admin,
        "admin_state": durability.admin_state,
        "active_txn": db.transactions.serialize_active(),
    }


def restore_snapshot(db, snapshot: dict) -> dict | None:
    """Rebuild the catalog from a snapshot (into a freshly constructed,
    empty database).  Returns the serialized in-flight transaction the
    checkpoint was fuzzy over, or ``None``."""
    from ..btree import BTreeIndex
    from ..catalog import IndexInfo, Table
    from ..columnstore import ColumnStore
    from ..heap import HeapFile

    catalog = db.catalog
    for entry in snapshot["tables"]:
        # Snapshots from before the columnar format carry no storage key.
        if entry.get("storage", "heap") == "columnar":
            heap: HeapFile = ColumnStore(
                db.pool,
                entry["segment"],
                catalog.insert_strategy,
                ncols=len(entry["columns"]),
            )
        else:
            heap = HeapFile(
                db.pool, entry["segment"], catalog.insert_strategy
            )
        heap.restore(entry["page_ids"], entry["free_map"], entry["row_count"])
        table = Table(entry["name"], list(entry["columns"]), heap)
        for ix in entry["indexes"]:
            btree = BTreeIndex.attach(
                db.pool,
                ix["segment"],
                unique=ix["unique"],
                prefix_compression=catalog.prefix_compression,
                root_id=ix["root_id"],
                height=ix["height"],
                entry_count=ix["entry_count"],
                distinct_keys=ix["distinct_keys"],
                prefix_distinct=ix["prefix_distinct"],
            )
            positions = tuple(
                table.column_position(c) for c in ix["columns"]
            )
            table.indexes[ix["name"].lower()] = IndexInfo(
                ix["name"],
                table.name,
                tuple(ix["columns"]),
                ix["unique"],
                btree,
                positions,
            )
        catalog.adopt(table)
    catalog.restore_counters(
        next_segment=snapshot["next_segment"],
        metadata_bytes=snapshot["metadata_bytes"],
        ddl_statements=snapshot["ddl_statements"],
        version=snapshot["version"],
    )
    db.pool.next_page_id = snapshot["next_page_id"]
    return snapshot.get("active_txn")
