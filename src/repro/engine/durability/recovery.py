"""ARIES-lite crash recovery.

Opening a disk-backed database runs :func:`recover`:

1. **Analysis** — read the WAL.  Its first record (if any) is the last
   checkpoint; everything after it is the redo candidate set.  Classify
   transactions by whether a terminal (commit *or* rollback) record made
   it to disk, and admin operations by whether their end marker did;
   the newest end marker's value (else the checkpoint's) is the admin
   state handed to the layer above — a value to read, not a history to
   replay.
2. **Load** — roll the page store back to exactly the checkpoint's page
   versions (``truncate_to``: one cut, they are a prefix of the file) and
   rebuild the catalog from the snapshot.
3. **Undo** — the checkpoint may have been fuzzy over an in-flight
   transaction; if that transaction never reached a terminal record it
   is a loser: the snapshot carries its undo log, and
   :meth:`TransactionManager.undo` — the routine ``rollback()`` runs —
   applies it, newest first.
4. **Redo** — replay the post-checkpoint log in order, skipping records
   of loser transactions and of incomplete admin operations.  Rolled
   back transactions replay *forward plus their logged compensation*,
   which nets out to nothing while keeping the RID remap coherent.
   Row records carry what redo reads and no before-image: an ``ins``
   its full row, a ``del`` its RID, an ``upd`` the columns its SET list
   assigned (``set``, ``{position: value}``; a compensation ``upd``
   carries the same positions with their before-values) and its
   ``new_rid``.  All three, and the terminals, are fixed-shape binary
   payloads (:mod:`codec`) that decode type-exact into these dicts,
   naming their table by ``segment``, its heap's id: only DDL that
   succeeded takes one and none is reused, so DDL redo rebuilds the
   catalog's segment map as it was live, and a record naming a segment
   no table holds refuses the open.  Redo of an ``upd`` fetches the
   row at the remapped RID — from the checkpoint's page image or from
   earlier redo — patches ``set`` in and rewrites it.  Before-images
   exist only where undo reads them: the in-memory undo log and the
   fuzzy checkpoint's snapshot of it (step 3).  A ``ddl`` record is its statement's SQL text; redo parses
   it and hands it to :meth:`Database.apply_ddl`, the live path.
5. **Re-anchor** — checkpoint the recovered state, unless the log was
   one checkpoint and nothing else, with no loser and nothing cut from
   either file: that checkpoint already is the state, so the open
   writes nothing.

Replay is logical, so a replayed insert may land at a different
physical RID than the original (skipped loser/incomplete-operation rows
change page fill).  A remap table, keyed by segment and logged RID,
threads a logged RID to its replay location, exactly like the runtime
rollback path.
"""

from __future__ import annotations

import time

from ..errors import EngineError
from ..heap import RowId
from ..sql.parser import parse_statement
from .manager import DurabilityManager, restore_snapshot


def recover(db) -> None:
    """Bring ``db`` (freshly constructed over an existing directory) to
    the last durable committed state, then re-anchor with a checkpoint
    unless the open found exactly that checkpoint and changed nothing."""
    durability: DurabilityManager = db.durability
    durability.replaying = True
    started = time.perf_counter()
    try:
        records = durability.wal.open()
        snapshot = None
        checkpoint_lsn = 0
        if records and records[0][1].get("t") == "checkpoint":
            checkpoint_lsn, head = records[0]
            snapshot = head["snapshot"]
            records = records[1:]
        # Discard every page version newer than the checkpoint: those
        # writebacks are superseded by logical redo from the snapshot.
        durability.store.truncate_to(checkpoint_lsn)

        restored_txn = None
        admin_state = None
        if snapshot is not None:
            restored_txn = restore_snapshot(db, snapshot)
            durability.next_txid = snapshot["next_txid"]
            durability.next_admin = snapshot["next_admin"]
            admin_state = snapshot.get("admin_state")

        # -- analysis -----------------------------------------------------
        terminated: set[int] = set()
        incomplete_admin: set[int] = set()
        for _lsn, record in records:
            kind = record.get("t")
            if kind in ("commit", "rollback"):
                terminated.add(record["tx"])
            elif kind == "admin_begin":
                incomplete_admin.add(record["id"])
            elif kind == "admin_end":
                incomplete_admin.discard(record["id"])
                admin_state = record["end"]  # the newest one wins

        # -- undo ---------------------------------------------------------
        losers = 0
        if restored_txn is not None and restored_txn["tx"] not in terminated:
            db.transactions.undo(restored_txn["entries"])
            losers = 1
        # Log-suffix losers (records on disk, no terminal) need no undo —
        # redo simply skips them below — but they are losers all the same.
        open_txns = {
            r["tx"] for _, r in records if r.get("t") in ("ins", "del", "upd")
        } - terminated
        if restored_txn is not None:
            open_txns.discard(restored_txn["tx"])
        losers += len(open_txns)

        # -- redo ---------------------------------------------------------
        remap: dict[tuple[int, RowId], RowId] = {}
        replayed = 0
        for lsn, record in records:
            if record.get("admin") in incomplete_admin:
                continue
            kind = record["t"]
            if kind == "ddl":
                db.apply_ddl(parse_statement(record["sql"]))
                replayed += 1
            elif kind in ("ins", "del", "upd"):
                if record["tx"] in terminated:
                    _replay_dml(db, record, remap, lsn)
                    replayed += 1

        # -- counters -----------------------------------------------------
        max_txid = max(
            (r["tx"] for _, r in records if "tx" in r), default=0
        )
        durability.next_txid = max(durability.next_txid, max_txid + 1)
        max_admin = max(
            (r["id"] for _, r in records if r.get("t") == "admin_begin"),
            default=0,
        )
        durability.next_admin = max(durability.next_admin, max_admin + 1)
        durability.admin_state = admin_state
        # The store indexed whatever its file holds: the frames of a
        # table dropped since are dead, not pages.
        durability.store.retain_segments(
            {
                structure.segment_id
                for table in db.catalog.tables()
                for structure in (
                    table.heap,
                    *(info.btree for info in table.indexes.values()),
                )
            }
        )
        db._resize_pool()

        elapsed_ms = (time.perf_counter() - started) * 1000.0
        durability.recovery_info = {
            "checkpoint_restored": snapshot is not None,
            "records_scanned": len(records),
            "records_replayed": replayed,
            "losers": losers,
            "incomplete_admin": len(incomplete_admin),
            "ms": elapsed_ms,
        }
        for key, gauge in durability.recovery_gauges.items():
            gauge.set(durability.recovery_info[key])
    finally:
        durability.replaying = False
    # Re-anchor: the recovered state becomes the new checkpoint, so a
    # second crash before any new work recovers without redoing or
    # undoing again.  On a fresh directory this writes the initial empty
    # checkpoint.  A clean open restored exactly the snapshot it read.
    if (
        snapshot is None
        or records
        or restored_txn is not None
        or durability.wal.truncated
        or durability.store.truncated
    ):
        durability.checkpoint(db)


def _replay_dml(
    db, record: dict, remap: dict[tuple[int, RowId], RowId], lsn: int
) -> None:
    key, kind = record["segment"], record["t"]
    table = db.catalog.table_by_segment(key)
    if table is None:
        raise EngineError(
            f"{db.durability.wal.path}: the {kind} record at LSN {lsn} "
            f"names segment {key}, which no table holds"
        )
    if kind == "ins":
        rid = table.insert_row(tuple(record["row"]))
        remap[(key, record["rid"])] = rid
    elif kind == "del":
        logged = record["rid"]
        rid = remap.get((key, logged), logged)
        table.delete_row(rid, table.heap.fetch(rid))
    else:  # upd: patch the assigned columns into the row redo finds
        logged = record["rid"]
        current = remap.get((key, logged), logged)
        old_row = table.heap.fetch(current)
        row = list(old_row)
        for position, value in record["set"].items():
            row[position] = value
        new_rid = table.update_row(current, old_row, row, record["set"].keys())
        remap[(key, record["new_rid"])] = new_rid
