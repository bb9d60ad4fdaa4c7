"""Single-session transactions with a logical undo log.

The testbed's transaction strategy (Section 4.2) assumes "the maximum
granularity for a transaction is the duration of a single user
request"; the engine supports exactly that: one open transaction per
database, BEGIN / COMMIT / ROLLBACK, undo via logical inverse
operations.  DDL is not transactional (as in many of the paper's
databases, which "cannot perform DDL operations while they are
on-line") — it commits any open transaction first.

RID stability: undoing a delete re-inserts the row at a fresh RID, so
the rollback replays entries newest-first and threads a remap table
through, keeping earlier entries pointed at the row's current location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import EngineError
from .heap import RowId
from .observability.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import Table


@dataclass
class _InsertEntry:
    table: "Table"
    rid: RowId


@dataclass
class _DeleteEntry:
    table: "Table"
    rid: RowId
    row: tuple


@dataclass
class _UpdateEntry:
    table: "Table"
    old_rid: RowId
    old_row: tuple
    new_rid: RowId
    #: The positions the UPDATE assigned: its compensation record
    #: carries their before-values.
    positions: Sequence[int]


class TransactionManager:
    """Undo-log bookkeeping for one database.

    With a :class:`~repro.engine.durability.manager.DurabilityManager`
    attached, every recorded change additionally emits a logical redo
    record to the WAL.  Transaction ids are allocated lazily on the
    first logged write (read-only transactions never touch the log);
    statements outside an explicit BEGIN form implicit autocommit
    transactions whose commit terminal is emitted by
    :meth:`end_statement`.
    """

    def __init__(self, *, metrics=None, durability=None) -> None:
        self._log: list[object] | None = None
        metrics = metrics or MetricsRegistry()
        self._c_begun = metrics.counter("txn.begun")
        self._c_committed = metrics.counter("txn.committed")
        self._c_rolled_back = metrics.counter("txn.rolled_back")
        self._h_undo_entries = metrics.histogram("txn.undo_entries")
        self._durability = durability
        #: WAL transaction id of the current (explicit or implicit)
        #: transaction; None until it logs its first write.
        self._txid: int | None = None
        #: Optional dynamic sanitizer, notified at every transaction
        #: terminal / statement boundary (the write-ahead rule is
        #: checked per boundary, not per mutation, because the engine
        #: mutates the heap before recording the redo entry).
        self.sanitizer = None

    @property
    def active(self) -> bool:
        return self._log is not None

    # -- lifecycle ----------------------------------------------------------

    def begin(self) -> None:
        if self.active:
            raise EngineError("a transaction is already open")
        self._log = []
        self._c_begun.inc()

    def commit(self) -> None:
        if not self.active:
            raise EngineError("no open transaction to commit")
        self._log = None
        self._emit_commit()
        self._c_committed.inc()
        if self.sanitizer is not None:
            self.sanitizer.on_statement_end()

    def commit_if_active(self) -> None:
        if self.active:
            self.commit()

    def rollback(self) -> None:
        if self._log is None:
            raise EngineError("no open transaction to roll back")
        log, self._log = self._log, None
        self._c_rolled_back.inc()
        self._h_undo_entries.observe(len(log))
        remap: dict[tuple[int, RowId], RowId] = {}

        def resolve(table: "Table", rid: RowId) -> RowId:
            return remap.get((id(table), rid), rid)

        # Each inverse operation is WAL-logged as a compensation record
        # under the same transaction id, followed by a rollback
        # terminal: recovery replays the forward records *and* the
        # compensation, netting out to nothing while keeping the RID
        # remap coherent (the CLR idea from ARIES).
        for entry in reversed(log):
            if isinstance(entry, _InsertEntry):
                rid = resolve(entry.table, entry.rid)
                entry.table.delete_row(rid, entry.table.heap.fetch(rid))
                self._emit("del", entry.table, rid=rid)
            elif isinstance(entry, _DeleteEntry):
                new_rid = entry.table.insert_row(entry.row)
                remap[(id(entry.table), entry.rid)] = new_rid
                self._emit("ins", entry.table, rid=new_rid, row=entry.row)
            elif isinstance(entry, _UpdateEntry):
                current = resolve(entry.table, entry.new_rid)
                restored = entry.table.update_row(
                    current,
                    entry.table.heap.fetch(current),
                    entry.old_row,
                    entry.positions,
                )
                if restored != entry.old_rid:
                    remap[(id(entry.table), entry.old_rid)] = restored
                self._emit(
                    "upd",
                    entry.table,
                    rid=current,
                    new_rid=restored,
                    set={p: entry.old_row[p] for p in entry.positions},
                )
        self._emit_rollback()
        if self.sanitizer is not None:
            self.sanitizer.on_statement_end()

    def end_statement(self) -> None:
        """Statement boundary: commit the implicit autocommit
        transaction, if one logged anything."""
        if self.active:
            return  # inside an explicit transaction: nothing ends yet
        self._emit_commit()
        if self.sanitizer is not None:
            self.sanitizer.on_statement_end()

    # -- recording ---------------------------------------------------------
    #
    # Undo entries are only kept inside an explicit transaction; the WAL
    # redo record is emitted unconditionally (autocommit statements must
    # be durable too).

    def record_insert(self, table: "Table", rid: RowId, row: tuple) -> None:
        if self._log is not None:
            self._log.append(_InsertEntry(table, rid))
        self._emit("ins", table, rid=rid, row=row)

    def record_delete(self, table: "Table", rid: RowId, row: tuple) -> None:
        if self._log is not None:
            self._log.append(_DeleteEntry(table, rid, row))
        self._emit("del", table, rid=rid)

    def record_update(
        self,
        table: "Table",
        old_rid: RowId,
        old_row: tuple,
        new_rid: RowId,
        new_row: Sequence,
        positions: Sequence[int],
    ) -> None:
        """``positions`` are the columns the statement assigned (from
        its SET list, never from comparing the two rows): the only ones
        the redo record carries."""
        if self._log is not None:
            self._log.append(
                _UpdateEntry(table, old_rid, old_row, new_rid, positions)
            )
        self._emit(
            "upd",
            table,
            rid=old_rid,
            new_rid=new_rid,
            set={p: new_row[p] for p in positions},
        )

    # -- WAL plumbing ------------------------------------------------------
    #
    # A row record carries what redo reads and nothing else:
    #
    # * ``ins`` — ``rid`` and the full ``row`` (redo has no row to start
    #   from);
    # * ``del`` — ``rid`` only;
    # * ``upd`` — ``rid``, ``new_rid`` and ``set``, ``{position: value}``
    #   for the columns the UPDATE assigned; redo patches them into the
    #   row it finds at ``rid``;
    # * compensation records a rollback logs are the same three kinds:
    #   ``del`` undoes an insert, ``ins`` (full row) a delete, and ``upd``
    #   carries the same positions with their before-values.
    #
    # Before-images live only in the in-memory undo log above and in
    # :meth:`serialize_active`'s fuzzy-checkpoint snapshot — the two
    # places undo reads them from.  A ``set`` patch is only correct if
    # the row redo finds equals the one the UPDATE read, which is why
    # a write a constraint refuses must leave nothing behind
    # (:meth:`~repro.engine.catalog.Table.insert_row`).

    def _emit(self, kind: str, table: "Table", **fields) -> None:
        durability = self._durability
        if durability is None or durability.replaying:
            return
        if self._txid is None:
            self._txid = durability.allocate_txid()
        durability.log(
            {"t": kind, "tx": self._txid, "table": table.name, **fields}
        )

    def _emit_commit(self) -> None:
        if self._txid is not None:
            self._durability.log_commit(self._txid)
            self._txid = None

    def _emit_rollback(self) -> None:
        if self._txid is not None:
            self._durability.log_rollback(self._txid)
            self._txid = None

    # -- checkpoint support ------------------------------------------------

    def serialize_active(self) -> dict | None:
        """The open transaction's id and undo log in a picklable form
        (fuzzy checkpoints snapshot mid-transaction state)."""
        if self._log is None:
            return None
        entries: list[tuple] = []
        for entry in self._log:
            if isinstance(entry, _InsertEntry):
                entries.append(("ins", entry.table.name, entry.rid))
            elif isinstance(entry, _DeleteEntry):
                entries.append(
                    ("del", entry.table.name, entry.rid, entry.row)
                )
            elif isinstance(entry, _UpdateEntry):
                entries.append(
                    ("upd", entry.table.name, entry.old_rid, entry.old_row,
                     entry.new_rid)
                )
        return {"tx": self._txid, "entries": entries}
