"""Durability subsystem: WAL replay, checkpoints, fault injection.

Deterministic cases first (reopen, losers, rollback replay, fuzzy
checkpoints, DDL, torn page writes, short fsyncs, group commit, the
seeded skip-wal-flush mutation), then the crashpoint × layout property
test: kill the engine at every named crashpoint of a multi-tenant
workload, recover, and check that completed operations survived and the
in-flight operation vanished without a trace — for all seven layouts.
"""

from __future__ import annotations

import datetime
import os
import pickle
import random

import pytest

from repro import (
    Extension,
    LogicalColumn,
    LogicalTable,
    MultiTenantDatabase,
)
from repro.analysis.invariants import check_width_ledger
from repro.engine.database import Database
from repro.engine.durability import (
    DurabilityOptions,
    FaultInjector,
    SimulatedCrash,
)
from repro.engine.errors import CatalogError, NotNullViolation, UniqueViolation
from repro.engine.sql.parser import parse_statement
from repro.engine.values import INTEGER, varchar

from ..core.conftest import observable_behaviour


def build(path, **options) -> Database:
    return Database(path=str(path), durability=DurabilityOptions(**options))


def seed_rows(db: Database, count: int = 8) -> None:
    db.execute("CREATE TABLE t (id INTEGER NOT NULL, name VARCHAR(30))")
    db.execute("CREATE INDEX t_id ON t (id)")
    for i in range(count):
        db.execute("INSERT INTO t VALUES (?, ?)", [i, f"name{i}"])


def ids(db: Database) -> list[int]:
    return [r[0] for r in db.execute("SELECT id FROM t ORDER BY id").rows]


class TestReopen:
    def test_clean_close_preserves_all_dml(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        db.execute("UPDATE t SET name = 'renamed' WHERE id = 2")
        db.execute("DELETE FROM t WHERE id = 3")
        db.close()
        db2 = build(tmp_path)
        assert ids(db2) == [0, 1, 2, 4, 5, 6, 7]
        assert db2.execute("SELECT name FROM t WHERE id = 2").scalar() == "renamed"
        db2.close()

    def test_crash_without_close_preserves_committed_data(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        del db  # no close(), no checkpoint: recovery runs from the WAL
        db2 = build(tmp_path)
        assert ids(db2) == list(range(8))
        assert db2.durability.recovery_info["records_replayed"] > 0
        db2.close()

    def test_uncommitted_transaction_absent_after_crash(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        db.transactions.begin()
        db.execute("INSERT INTO t VALUES (100, 'phantom')")
        db.execute("UPDATE t SET name = 'phantom' WHERE id = 1")
        # Force the uncommitted records to disk so recovery actually
        # sees (and must discard) the loser transaction.
        db.durability.wal.flush()
        del db
        db2 = build(tmp_path)
        assert ids(db2) == list(range(8))
        assert db2.execute("SELECT name FROM t WHERE id = 1").scalar() == "name1"
        assert db2.durability.recovery_info["losers"] == 1
        db2.close()

    def test_rolled_back_transaction_stays_rolled_back(self, tmp_path):
        """Forward records + the rollback terminal replay to nothing."""
        db = build(tmp_path)
        seed_rows(db)
        db.transactions.begin()
        db.execute("INSERT INTO t VALUES (100, 'undone')")
        db.execute("DELETE FROM t WHERE id = 0")
        db.transactions.rollback()
        db.execute("INSERT INTO t VALUES (8, 'name8')")  # after the rollback
        del db
        db2 = build(tmp_path)
        assert ids(db2) == list(range(9))
        db2.close()

    def test_recovery_metrics_published(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        del db
        db2 = build(tmp_path)
        assert db2.metrics.value("db.recovery.records_replayed") > 0
        assert db2.metrics.value("db.recovery.ms") >= 0
        db2.close()


class TestCheckpoint:
    def test_checkpoint_bounds_replay(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        assert db.checkpoint()
        db.execute("INSERT INTO t VALUES (8, 'name8')")
        del db
        db2 = build(tmp_path)
        info = db2.durability.recovery_info
        assert info["checkpoint_restored"]
        assert info["records_scanned"] <= 4  # one insert + its terminal
        assert ids(db2) == list(range(9))
        db2.close()

    def test_fuzzy_checkpoint_mid_transaction(self, tmp_path):
        """A checkpoint inside an open transaction snapshots the undo
        log; if the transaction never commits, recovery undoes the
        pre-checkpoint half and discards the post-checkpoint half."""
        db = build(tmp_path)
        seed_rows(db)
        db.transactions.begin()
        db.execute("INSERT INTO t VALUES (100, 'pre-checkpoint')")
        assert db.checkpoint()
        db.execute("INSERT INTO t VALUES (101, 'post-checkpoint')")
        db.durability.wal.flush()
        del db
        db2 = build(tmp_path)
        assert ids(db2) == list(range(8))
        db2.close()

    def test_fuzzy_checkpoint_committed_transaction_survives(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        db.transactions.begin()
        db.execute("INSERT INTO t VALUES (100, 'spans-checkpoint')")
        assert db.checkpoint()
        db.execute("INSERT INTO t VALUES (101, 'post')")
        db.transactions.commit()
        del db
        db2 = build(tmp_path)
        assert ids(db2) == list(range(8)) + [100, 101]
        db2.close()

    def test_checkpoint_snapshot_does_not_retrigger(self, tmp_path):
        """The checkpoint head must not count toward the auto-checkpoint
        trigger: a snapshot larger than the trigger would otherwise
        force a checkpoint after every statement (quadratic log I/O)."""
        db = build(tmp_path, auto_checkpoint_bytes=512)
        seed_rows(db, 40)  # snapshot is now well over the trigger
        assert db.checkpoint()
        assert db.durability.wal.bytes_since_checkpoint == 0
        before = db.metrics.value("db.checkpoint.count")
        db.execute("INSERT INTO t VALUES (100, 'one')")
        db.execute("INSERT INTO t VALUES (101, 'two')")
        assert db.metrics.value("db.checkpoint.count") - before <= 1
        db.close()

    def test_select_never_takes_the_checkpoint(self, tmp_path):
        """A checkpoint falls due when a commit record crosses the
        trigger, after that statement's own check.  The statement that
        then pays for it must be one that writes: a SELECT appends no
        log, and in a cluster it may be running on the event loop."""
        db = build(tmp_path, auto_checkpoint_bytes=0)
        seed_rows(db)
        # The log is over the trigger, as if the last commit crossed it.
        db.durability.options.auto_checkpoint_bytes = 1
        assert db.durability.wal.bytes_since_checkpoint > 1
        before = db.metrics.value("db.checkpoint.count")
        assert ids(db) == list(range(8))
        db.execute_ast(parse_statement("SELECT id FROM t"))
        assert db.metrics.value("db.checkpoint.count") == before
        db.execute("INSERT INTO t VALUES (100, 'pays')")
        assert db.metrics.value("db.checkpoint.count") == before + 1
        db.close()

    @pytest.mark.parametrize("kind", ["insert", "update", "delete"])
    def test_every_entry_point_auto_checkpoints(self, tmp_path, kind):
        """The log-volume check belongs to the statement path, not to
        the entry points: the same 200 statements run as SQL text,
        through ``execute_ast`` and through a prepared handle take the
        same checkpoints (the handle used to take none, and its WAL
        grew without bound)."""
        sql = {
            "insert": "INSERT INTO t VALUES (?, ?)",
            "update": "UPDATE t SET name = ? WHERE id = ?",
            "delete": "DELETE FROM t WHERE id = ?",
        }[kind]

        def params(i: int) -> list:
            return {
                "insert": [1000 + i, f"name{i}"],
                "update": [f"renamed{i}", i],
                "delete": [i],
            }[kind]

        def entry_point(db: Database, entry: str):
            if entry == "text":
                return lambda p: db.execute(sql, p)
            if entry == "ast":
                stmt = parse_statement(sql)
                return lambda p: db.execute_ast(stmt, p)
            return db.prepare(sql).execute

        counts, wal_sizes = {}, {}
        for entry in ("text", "ast", "handle"):
            db = build(tmp_path / entry, auto_checkpoint_bytes=4096)
            seed_rows(db, 200)
            before = db.metrics.value("db.checkpoint.count")
            run = entry_point(db, entry)
            for i in range(200):
                run(params(i))
            counts[entry] = db.metrics.value("db.checkpoint.count") - before
            wal_sizes[entry] = db.durability.wal.bytes_since_checkpoint
            db.close()
        assert counts["text"] >= 2, counts
        assert counts["ast"] == counts["handle"] == counts["text"], counts
        assert wal_sizes["ast"] == wal_sizes["handle"] == wal_sizes["text"]

    def test_ddl_survives_crash(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        assert db.checkpoint()
        db.execute("CREATE TABLE u (k INTEGER, v VARCHAR(10))")
        db.execute("CREATE INDEX u_k ON u (k)")
        db.execute("INSERT INTO u VALUES (1, 'a')")
        db.execute("DROP INDEX t_id ON t")
        del db
        db2 = build(tmp_path)
        assert db2.execute("SELECT v FROM u WHERE k = 1").scalar() == "a"
        assert not db2.catalog.table("t").indexes
        assert db2.catalog.table("u").indexes
        db2.close()


class TestFaults:
    def test_torn_page_write_recovers_committed_data(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        db.durability.faults.torn_page_write = 1  # tear the next frame
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
        del db
        db2 = build(tmp_path)
        assert ids(db2) == list(range(8))
        db2.close()

    def test_short_fsync_keeps_committed_prefix(self, tmp_path):
        db = build(tmp_path)
        db.execute("CREATE TABLE t (id INTEGER NOT NULL, name VARCHAR(30))")
        db.durability.faults.short_fsync = 6
        written = []
        with pytest.raises(SimulatedCrash):
            for i in range(10):
                db.execute("INSERT INTO t VALUES (?, ?)", [i, f"name{i}"])
                written.append(i)
        assert len(written) < 10
        del db
        db2 = build(tmp_path)
        recovered = ids(db2)
        # The torn flush loses (at most) its own batch, never an
        # earlier one: recovery keeps a strict prefix of the commits.
        assert recovered == list(range(len(recovered)))
        assert len(recovered) >= len(written) - 1
        db2.close()

    def test_crash_at_named_crashpoint(self, tmp_path):
        db = build(tmp_path, faults=FaultInjector(crash_at=("txn.commit", 4)))
        db.execute("CREATE TABLE t (id INTEGER NOT NULL, name VARCHAR(30))")
        survived = []
        with pytest.raises(SimulatedCrash):
            for i in range(10):
                db.execute("INSERT INTO t VALUES (?, ?)", [i, f"name{i}"])
                survived.append(i)
        assert survived  # the crash hit mid-run, not on the first insert
        del db
        # The crashing statement died before its commit became durable;
        # everything that returned successfully must still be there.
        db2 = build(tmp_path)
        assert ids(db2) == survived
        db2.close()


class TestWalMetrics:
    def test_group_commit_batches_fsyncs(self, tmp_path):
        eager = build(tmp_path / "eager", group_commit=1)
        seed_rows(eager, 16)
        eager_fsyncs = eager.metrics.value("db.wal.fsyncs")
        eager.close()
        batched = build(tmp_path / "batched", group_commit=8)
        seed_rows(batched, 16)
        batched_fsyncs = batched.metrics.value("db.wal.fsyncs")
        batched.close()
        assert batched_fsyncs < eager_fsyncs / 2
        assert batched.metrics.histogram("db.wal.group_commit_batch").max >= 8
        db2 = build(tmp_path / "batched")
        assert ids(db2) == list(range(16))
        db2.close()

    def test_wal_counters_and_trace_deltas(self, tmp_path):
        db = build(tmp_path)
        db.execute("CREATE TABLE t (id INTEGER NOT NULL, name VARCHAR(30))")
        before_records = db.wal_stats.records  # wal_stats is live
        trace = db.trace("INSERT INTO t VALUES (1, 'traced')")
        assert trace.wal.records >= 2  # redo record + commit terminal
        assert trace.wal.bytes_written > 0
        assert db.wal_stats.records > before_records
        assert db.metrics.value("db.wal.bytes_written") > 0
        assert db.metrics.value("db.wal.records") >= 2
        db.close()

    def test_memory_mode_traces_report_zero_wal(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER)")
        trace = db.trace("INSERT INTO t VALUES (1)")
        assert trace.wal.records == 0
        assert trace.wal.bytes_written == 0

    def test_skip_wal_flush_mutation_defeats_durability(self, tmp_path):
        """The seeded mutation claims records durable without writing
        them; the durability check MUST then fail — proving the tests
        actually depend on the WAL doing its job."""
        db = build(tmp_path, mutate="skip-wal-flush")
        seed_rows(db)
        del db
        db2 = build(tmp_path)
        try:
            recovered = ids(db2)
        except Exception:
            recovered = None  # the table itself did not survive
        assert recovered != list(range(8))  # data loss: the check trips
        db2.close()


def _log_records(db: Database) -> list[dict]:
    """The durable WAL records of a live database."""
    from repro.engine.durability.codec import decode_frames
    from repro.engine.durability.wal import HEAD_SIZE

    db.durability.wal.flush()
    with open(db.durability.wal.path, "rb") as fh:
        data = fh.read()
    return [record for _offset, record in decode_frames(data, HEAD_SIZE)]


def _all_rows(db: Database, table: str = "t") -> list[tuple]:
    return sorted(db.execute(f"SELECT * FROM {table}").rows)


def _crash_and_reopen(db: Database, path) -> Database:
    """Power cut: the log reaches disk, nothing else happens."""
    db.durability.wal.flush()
    del db
    return build(path)


class TestRefusedWrites:
    """A write a unique index refuses logs nothing, so it must leave
    nothing behind: no heap row, no index entry, no changed row.  The
    scan, every index and the state after a crash must agree — and an
    UPDATE of the same row afterwards must recover to what it did live,
    which an UPDATE record carrying only its SET columns depends on."""

    BEFORE = [(1, 10, "x"), (2, 20, "y")]

    def _build(self, path, storage: str) -> Database:
        db = build(path)
        db.execute(
            "CREATE TABLE t (a INTEGER, b INTEGER, c VARCHAR(8000))"
            + (" USING columnar" if storage == "columnar" else "")
        )
        # The plain index first: the unique one refuses after it has
        # already taken the new entry.
        db.execute("CREATE INDEX t_b ON t (b)")
        db.execute("CREATE UNIQUE INDEX t_a ON t (a)")
        for row in self.BEFORE:
            db.execute("INSERT INTO t VALUES (?, ?, ?)", list(row))
        return db

    @staticmethod
    def _views(db: Database) -> list[list[tuple]]:
        scan = _all_rows(db)
        by_a, by_b = [], []
        for a, b, _c in scan:
            by_a += db.execute("SELECT * FROM t WHERE a = ?", [a]).rows
            by_b += db.execute("SELECT * FROM t WHERE b = ?", [b]).rows
        return [scan, sorted(by_a), sorted(by_b)]

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    @pytest.mark.parametrize(
        "refused",
        [
            "INSERT INTO t VALUES (1, 30, 'z')",
            "UPDATE t SET a = 1 WHERE a = 2",
            "UPDATE t SET a = 1, b = 21 WHERE a = 2",
            # Grows the row off its page before the index refuses.
            "UPDATE t SET a = 1, b = 21, c = '" + "w" * 7000 + "' WHERE a = 2",
        ],
        ids=["insert", "update", "update-two-indexes", "update-moved-row"],
    )
    def test_refused_write_leaves_nothing_behind(self, tmp_path, storage, refused):
        db = self._build(tmp_path, storage)
        # Fill the page, so the moved-row case really leaves it.
        db.execute("UPDATE t SET c = ? WHERE a = 1", ["v" * 7000])
        before = self._views(db)
        with pytest.raises(UniqueViolation):
            db.execute(refused)
        assert self._views(db) == before
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        db.execute("UPDATE t SET b = b + 5 WHERE a = 2")
        live = self._views(db)
        assert live[0][1][:2] == (2, 25)
        db2 = _crash_and_reopen(db, tmp_path)
        assert self._views(db2) == live
        db2.close()


class TestRowRecords:
    """What each WAL row record carries: exactly what redo reads."""

    @staticmethod
    def _upd_bytes(path, columns: int) -> int:
        from repro.engine.durability.codec import encode_frame

        db = build(path)
        names = [f"c{i}" for i in range(1, columns)]
        db.execute(
            "CREATE TABLE w (id INTEGER NOT NULL, "
            + ", ".join(f"{n} VARCHAR(20)" for n in names)
            + ")"
        )
        db.execute("CREATE UNIQUE INDEX w_id ON w (id)")
        db.execute(
            f"INSERT INTO w VALUES (1{', ?' * len(names)})",
            [f"value-{n}" for n in names],
        )
        db.execute("UPDATE w SET c3 = 'changed' WHERE id = 1")
        (upd,) = [r for r in _log_records(db) if r["t"] == "upd"]
        assert upd["set"] == {3: "changed"}
        db.close()
        return len(encode_frame(upd))

    def test_update_record_size_does_not_follow_row_width(self, tmp_path):
        narrow = self._upd_bytes(tmp_path / "narrow", 10)
        wide = self._upd_bytes(tmp_path / "wide", 60)
        assert abs(wide - narrow) <= 4, (narrow, wide)

    def test_no_update_or_delete_record_carries_a_row_image(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        db.execute("UPDATE t SET name = 'renamed' WHERE id = 2")
        db.execute("DELETE FROM t WHERE id = 3")
        db.transactions.begin()  # compensation records too
        db.execute("INSERT INTO t VALUES (100, 'undone')")
        db.execute("UPDATE t SET name = 'undone' WHERE id = 4")
        db.execute("DELETE FROM t WHERE id = 5")
        db.transactions.rollback()
        records = [r for r in _log_records(db) if r["t"] in ("upd", "del")]
        assert sorted({r["t"] for r in records}) == ["del", "upd"]
        assert len(records) == 6
        for record in records:
            assert "row" not in record and "new_row" not in record, record
        db.close()

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    def test_update_that_moves_the_row_recovers(self, tmp_path, storage):
        db = build(tmp_path)
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, n INTEGER, c VARCHAR(6000))"
            + (" USING columnar" if storage == "columnar" else "")
        )
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        for i in range(2):
            db.execute("INSERT INTO t VALUES (?, 0, ?)", [i, "x" * 3000])
        db.execute("UPDATE t SET c = ? WHERE id = 1", ["y" * 5500])
        db.execute("UPDATE t SET n = 7 WHERE id = 1")  # at its new RID
        (moved, patched) = [r for r in _log_records(db) if r["t"] == "upd"]
        assert moved["rid"] != moved["new_rid"]
        assert patched["rid"] == moved["new_rid"]
        live = _all_rows(db)
        db2 = _crash_and_reopen(db, tmp_path)
        assert _all_rows(db2) == live
        db2.close()

    def test_rolled_back_updates_of_two_columns_recover(self, tmp_path):
        db = build(tmp_path)
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, a VARCHAR(10), b INTEGER)"
        )
        db.execute("INSERT INTO t VALUES (1, 'a0', 0)")
        db.transactions.begin()
        db.execute("UPDATE t SET a = 'a1' WHERE id = 1")
        db.execute("UPDATE t SET b = 1 WHERE id = 1")
        db.transactions.rollback()
        db.execute("UPDATE t SET b = 2 WHERE id = 1")
        live = _all_rows(db)
        assert live == [(1, "a0", 2)]
        db2 = _crash_and_reopen(db, tmp_path)
        assert _all_rows(db2) == live
        db2.close()

    def test_update_of_a_row_only_the_checkpoint_holds(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        assert db.checkpoint()
        db.execute("UPDATE t SET name = 'after' WHERE id = 6")
        # The log holds the patch, not the row it patches.
        assert [r["t"] for r in _log_records(db)] == ["checkpoint", "upd", "commit"]
        live = _all_rows(db)
        db2 = _crash_and_reopen(db, tmp_path)
        assert _all_rows(db2) == live
        assert db2.execute("SELECT name FROM t WHERE id = 6").scalar() == "after"
        db2.close()


def _consistent_rows(db: Database, table: str = "t") -> list[tuple]:
    """The table's rows, after checking every index holds exactly the
    heap's (key, RID) pairs and every stored width its row's width."""
    physical = db.catalog.table(table)
    heap = list(physical.heap.scan())
    for info in physical.indexes.values():
        entries = [
            entry
            for batch in info.btree.prefix_batches((), 1000)
            for entry in batch
        ]
        expected = [
            (tuple(row[p] for p in info.column_positions), rid)
            for rid, row in heap
        ]
        assert sorted(entries) == sorted(expected), info.name
    assert check_width_ledger([physical], db.pool).findings == []
    return sorted(row for _rid, row in heap)


class TestAssignedCells:
    """An UPDATE checks, sizes and rewrites only the cells its SET list
    assigns; every index, stored width and recovered state must come
    out as if the whole row had been rewritten."""

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    def test_assigned_cells_are_coerced(self, tmp_path, storage):
        db = build(tmp_path)
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, x DOUBLE, d DATE)"
            + (" USING columnar" if storage == "columnar" else "")
        )
        db.execute("INSERT INTO t VALUES (1, 0.5, NULL)")
        db.execute("UPDATE t SET x = ?, d = ? WHERE id = 1", [3, "2024-02-29"])
        (row,) = _consistent_rows(db)
        assert row == (1, 3.0, datetime.date(2024, 2, 29))
        assert type(row[1]) is float
        db2 = _crash_and_reopen(db, tmp_path)
        assert _consistent_rows(db2) == [row]
        db2.close()

    def test_null_into_not_null_changes_nothing(self, tmp_path):
        db = build(tmp_path)
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, n INTEGER NOT NULL, s VARCHAR(9))"
        )
        db.execute("CREATE INDEX t_n ON t (n)")
        db.execute("INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b')")
        before, log = _consistent_rows(db), _log_records(db)
        with pytest.raises(NotNullViolation):
            db.execute("UPDATE t SET s = 'c', n = NULL WHERE id = 2")
        assert _consistent_rows(db) == before
        assert _log_records(db) == log
        db2 = _crash_and_reopen(db, tmp_path)
        assert _consistent_rows(db2) == before
        db2.close()

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    def test_index_scans_follow_updates(self, tmp_path, storage):
        db = build(tmp_path)
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, b INTEGER, c VARCHAR(6000))"
            + (" USING columnar" if storage == "columnar" else "")
        )
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        db.execute("CREATE INDEX t_b ON t (b)")
        for i in range(4):
            db.execute("INSERT INTO t VALUES (?, ?, ?)", [i, i % 2, "x" * 1900])
        db.execute("UPDATE t SET b = 7 WHERE id = 1")  # an indexed column
        _consistent_rows(db)
        rid = db.catalog.table("t").indexes["t_id"].btree.search((2,))
        db.execute("UPDATE t SET c = ? WHERE id = 2", ["y" * 5000])  # moves
        assert db.catalog.table("t").indexes["t_id"].btree.search((2,)) != rid
        db.execute("UPDATE t SET c = 'z' WHERE b = 7")  # no indexed column
        live = _consistent_rows(db)
        assert [r[:2] for r in live] == [(0, 0), (1, 7), (2, 0), (3, 1)]
        db2 = _crash_and_reopen(db, tmp_path)
        assert _consistent_rows(db2) == live
        db2.close()

    @staticmethod
    def _update_column_by_column(db: Database) -> None:
        db.execute("UPDATE t SET a = ? WHERE id = 1", ["x" * 4000])  # moves
        db.execute("UPDATE t SET b = 7 WHERE id = 1")
        db.execute("UPDATE t SET d = '2021-06-30', a = NULL WHERE id = 1")
        db.execute("UPDATE t SET b = NULL WHERE id = 1")

    def _build_for_undo(self, tmp_path, storage: str) -> Database:
        db = build(tmp_path)
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, a VARCHAR(5000), b DOUBLE, d DATE)"
            + (" USING columnar" if storage == "columnar" else "")
        )
        db.execute("CREATE INDEX t_b ON t (b)")
        db.execute(
            "INSERT INTO t VALUES (1, 'a0', 0.5, '2020-01-01'), (2, ?, 1.0, NULL)",
            ["f" * 4500],
        )
        return db

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    def test_column_by_column_updates_roll_back_exactly(self, tmp_path, storage):
        db = self._build_for_undo(tmp_path, storage)
        before = _consistent_rows(db)
        db.transactions.begin()
        self._update_column_by_column(db)
        db.transactions.rollback()
        assert _consistent_rows(db) == before
        db2 = _crash_and_reopen(db, tmp_path)
        assert _consistent_rows(db2) == before
        db2.close()

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    def test_column_by_column_updates_undo_after_crash(self, tmp_path, storage):
        """The fuzzy checkpoint carries the undo log; the transaction
        never ends, so recovery undoes it from that snapshot."""
        db = self._build_for_undo(tmp_path, storage)
        before = _consistent_rows(db)
        db.transactions.begin()
        self._update_column_by_column(db)
        assert db.checkpoint()
        db2 = _crash_and_reopen(db, tmp_path)
        assert db2.durability.recovery_info["losers"] == 1
        assert _consistent_rows(db2) == before
        db2.close()


class TestReadOnce:
    """A written row is read once: an UPDATE or DELETE reads each row
    where it matches it and hands that row to the write, and a unique
    index with every column bound is probed, not prefix-scanned."""

    ROWS = 200

    def _build(self, storage: str, path=None) -> Database:
        db = build(path) if path is not None else Database()
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, g INTEGER, k INTEGER, "
            "s VARCHAR(3000))"
            + (" USING columnar" if storage == "columnar" else "")
        )
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        db.execute("CREATE INDEX t_g ON t (g)")
        db.execute("CREATE UNIQUE INDEX t_kg ON t (k, g)")
        for i in range(self.ROWS):
            db.execute("INSERT INTO t VALUES (?, ?, ?, 'x')", [i, i % 5, i])
        return db

    @staticmethod
    def _cost(db: Database, sql: str, params=()) -> dict:
        """What one statement cost: its rowcount, logical data and index
        page reads, and the heap/B-tree counters that tell them apart."""
        names = ("heap.fetches", "btree.searches", "btree.prefix_scans")
        before = db.pool_stats.snapshot(), [db.metrics.value(n) for n in names]
        rowcount = db.execute(sql, list(params)).rowcount
        pool = db.pool_stats.delta(before[0])
        return {
            "rows": rowcount,
            "data": pool.logical_data,
            "index": pool.logical_index,
            **{
                n.split(".")[1]: db.metrics.value(n) - b
                for n, b in zip(names, before[1])
            },
        }

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    @pytest.mark.parametrize(
        "where, params",
        [("id = ?", [7]), ("k = ? AND g = ?", [7, 2])],
        ids=["one-column", "two-column"],
    )
    def test_update_by_unique_key_is_one_probe_and_one_fetch(
        self, storage, where, params
    ):
        db = self._build(storage)
        index = "t_id" if where.startswith("id") else "t_kg"
        height = db.catalog.table("t").indexes[index].btree.height
        cost = self._cost(db, f"UPDATE t SET s = 'y' WHERE {where}", params)
        # The descent, the fetch that matches the row, the page it is
        # rewritten on — and nothing else.
        assert cost == {
            "rows": 1, "data": 2, "index": height,
            "fetches": 1, "searches": 1, "prefix_scans": 0,
        }

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    def test_multi_row_update_reads_each_row_twice(self, storage):
        db = self._build(storage)
        cost = self._cost(db, "UPDATE t SET s = 'y' WHERE g = ?", [3])
        matched = self.ROWS // 5
        assert cost["rows"] == matched
        assert cost["data"] == 2 * matched  # fetch + rewrite per row
        assert cost["fetches"] == matched
        assert cost["prefix_scans"] == 1 and cost["searches"] == 0

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    def test_partial_unique_key_takes_the_prefix_scan(self, storage):
        db = self._build(storage)
        cost = self._cost(db, "UPDATE t SET s = 'y' WHERE k = ?", [9])
        assert cost["rows"] == 1 and cost["fetches"] == 1
        assert cost["prefix_scans"] == 1 and cost["searches"] == 0

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    def test_delete_reads_its_row_once(self, storage):
        db = self._build(storage)
        cost = self._cost(db, "DELETE FROM t WHERE id = ?", [9])
        assert (cost["rows"], cost["data"], cost["fetches"]) == (1, 2, 1)
        assert db.execute("SELECT COUNT(*) FROM t WHERE g = 4").scalar() == (
            self.ROWS // 5 - 1
        )

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    def test_null_key_parameter_updates_nothing(self, storage):
        db = self._build(storage)
        db.execute("INSERT INTO t VALUES (-1, NULL, NULL, 'null-keyed')")
        for where, params in [("id = ?", [None]), ("k = ? AND g = ?", [None, None])]:
            cost = self._cost(db, f"UPDATE t SET s = 'y' WHERE {where}", params)
            assert cost["rows"] == 0
        # The probe finds the NULL-keyed entry; the predicate refuses it.
        assert cost["fetches"] == 1 and cost["searches"] == 1
        assert db.execute("SELECT COUNT(*) FROM t WHERE s = 'y'").scalar() == 0
        assert db.execute("SELECT s FROM t WHERE id = -1").scalar() == "null-keyed"

    @staticmethod
    def _write(db: Database) -> None:
        db.execute("INSERT INTO t VALUES (1000, 1, 1000, 'new')")
        db.execute("UPDATE t SET g = 4, s = ? WHERE id = 3", ["m" * 2500])  # moves
        db.execute("UPDATE t SET s = 'z' WHERE g = 1")
        db.execute("DELETE FROM t WHERE id = 8 OR g = 2")

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    def test_rollback_restores_rows_and_indexes(self, tmp_path, storage):
        db = self._build(storage, tmp_path)
        before = _consistent_rows(db)
        db.transactions.begin()
        self._write(db)
        db.transactions.rollback()
        assert _consistent_rows(db) == before
        db2 = _crash_and_reopen(db, tmp_path)
        assert _consistent_rows(db2) == before
        db2.close()

    @pytest.mark.parametrize("storage", ["heap", "columnar"])
    def test_redo_restores_rows_and_indexes(self, tmp_path, storage):
        db = self._build(storage, tmp_path)
        assert db.checkpoint()
        self._write(db)
        live = _consistent_rows(db)
        db2 = _crash_and_reopen(db, tmp_path)
        assert _consistent_rows(db2) == live
        db2.close()

    def test_redo_of_an_update_reads_its_row_once(self, tmp_path):
        db = self._build("heap", tmp_path)
        assert db.checkpoint()
        db.execute("UPDATE t SET s = 'after' WHERE id = 5")
        assert [r["t"] for r in _log_records(db)] == ["checkpoint", "upd", "commit"]
        db2 = _crash_and_reopen(db, tmp_path)
        assert db2.metrics.value("heap.fetches") == 1
        assert db2.execute("SELECT s FROM t WHERE id = 5").scalar() == "after"
        db2.close()


# ---------------------------------------------------------------------------
# Crashpoint × layout property test
# ---------------------------------------------------------------------------

#: The seven layouts, plus one storage-override variant: chunk, pivot,
#: universal and chunk_folding already recover *columnar* tables (their
#: shared tables default to column pages), and ``private+columnar``
#: forces column pages onto a layout whose default is the row-major
#: heap — so both storage formats cross every crashpoint either way.
ALL_LAYOUTS = (
    "private",
    "private+columnar",
    "basic",
    "extension",
    "universal",
    "pivot",
    "chunk",
    "chunk_folding",
)


def _account_table() -> LogicalTable:
    return LogicalTable(
        "account",
        (
            LogicalColumn("aid", INTEGER, indexed=True, not_null=True),
            LogicalColumn("name", varchar(30)),
        ),
    )


def _healthcare() -> Extension:
    return Extension(
        "healthcare",
        "account",
        (LogicalColumn("beds", INTEGER),),
    )


def _workload(layout: str):
    """(description, apply, expected-state mutator) triples.

    The expected state maps tenant -> {aid: name} and is only advanced
    when an operation COMPLETES: after a crash, the recovered database
    must match it — give or take the single in-flight operation, which
    may have finished internally before its crashpoint fired.
    """
    extensions = layout != "basic"
    steps = []

    def op(description, apply, mutate):
        steps.append((description, apply, mutate))

    for i in range(3):
        op(
            f"insert t1 a{i}",
            lambda m, i=i: m.insert(1, "account", {"aid": i, "name": f"a{i}"}),
            lambda s, i=i: s[1].__setitem__(i, f"a{i}"),
        )
    for i in range(2):
        op(
            f"insert t2 b{i}",
            lambda m, i=i: m.insert(2, "account", {"aid": i, "name": f"b{i}"}),
            lambda s, i=i: s[2].__setitem__(i, f"b{i}"),
        )
    # Checkpoints with DML between them: a later one finds superseded
    # page versions, so the matrix crosses the checkpoint protocol
    # (begin, writeback, WAL swap, end — and, in the layouts whose dead
    # bytes come to exceed the live ones, compaction).
    op("checkpoint", lambda m: m.db.checkpoint(), lambda s: None)
    op(
        "update t1 a1",
        lambda m: m.execute(1, "UPDATE account SET name = 'a1x' WHERE aid = 1"),
        lambda s: s[1].__setitem__(1, "a1x"),
    )
    op(
        "delete t2 b0",
        lambda m: m.execute(2, "DELETE FROM account WHERE aid = 0"),
        lambda s: s[2].pop(0),
    )
    op("checkpoint again", lambda m: m.db.checkpoint(), lambda s: None)
    if extensions:
        op(
            "grant healthcare to t2",
            lambda m: m.grant_extension(2, "healthcare"),
            lambda s: None,
        )
        op(
            "insert t2 extended",
            lambda m: m.insert(2, "account", {"aid": 9, "name": "b9", "beds": 12}),
            lambda s: s[2].__setitem__(9, "b9"),
        )
    op(
        "migrate t1",
        lambda m: m.migrate_tenant(
            1, "universal" if layout != "universal" else "extension"
        ),
        lambda s: None,
    )
    op(
        "drop t2",
        lambda m: m.drop_tenant(2),
        lambda s: s.pop(2),
    )
    return steps


def _build_mtd(db: Database, layout: str, **options) -> MultiTenantDatabase:
    layout, _, storage = layout.partition("+")
    if layout in ("chunk", "chunk_folding"):
        options.setdefault("width", 3)
    if storage:
        options["storage"] = storage
    mtd = MultiTenantDatabase(layout=layout, db=db, **options)
    mtd.define_table(_account_table())
    if layout != "basic":
        mtd.define_extension(_healthcare())
    mtd.create_tenant(1)
    mtd.create_tenant(2)
    return mtd


def _verify(mtd: MultiTenantDatabase, expected: dict) -> None:
    live = {c.tenant_id for c in mtd.schema.tenants()}
    assert live == set(expected)
    for tenant_id, rows in expected.items():
        got = dict(mtd.execute(tenant_id, "SELECT aid, name FROM account").rows)
        assert got == rows, f"tenant {tenant_id}: {got} != {rows}"


def _crashpoint_schedule(tmp_path, layout: str, rng: random.Random) -> list[int]:
    """Enumerate the crashpoint hits of the full workload (an unarmed
    injector only counts) and pick the first hit of every distinct
    crashpoint name, the final hit, and a few seeded extras — covering
    every crashpoint kind without running the full O(hits) matrix."""
    faults = FaultInjector()
    sequence: list[str] = []
    original = faults.crashpoint
    faults.crashpoint = lambda name: (sequence.append(name), original(name))[1]
    db = Database(
        path=str(tmp_path / "enumerate"),
        durability=DurabilityOptions(faults=faults),
    )
    mtd = _build_mtd(db, layout)
    baseline = len(sequence)
    for _description, apply, _mutate in _workload(layout):
        apply(mtd)
    total = len(sequence) - baseline  # before close(): the armed runs
    db.close()  # never reach close-time crashpoints
    first_of: dict[str, int] = {}
    for index, name in enumerate(sequence[baseline : baseline + total], start=1):
        first_of.setdefault(name, index)
    hits = set(first_of.values()) | {total}
    extra = [h for h in range(1, total + 1) if h not in hits]
    hits |= set(rng.sample(extra, min(3, len(extra))))
    return sorted(hits)


def _reference_behaviours(layout: str) -> list[dict]:
    """:func:`observable_behaviour` before the workload and after each of its
    steps, from an in-memory run that never crashes (its own run:
    listing fragments between steps may create tables lazily, which
    would shift the armed runs' crashpoint numbering)."""
    mtd = _build_mtd(Database(), layout)
    behaviours = [observable_behaviour(mtd)]
    for _description, apply, _mutate in _workload(layout):
        apply(mtd)
        behaviours.append(observable_behaviour(mtd))
    return behaviours


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_crashpoint_matrix(tmp_path, layout, replay_rng):
    schedule = _crashpoint_schedule(tmp_path, layout, replay_rng)
    assert schedule, "the workload must cross crashpoints"
    behaviours = _reference_behaviours(layout)
    for hit in schedule:
        path = tmp_path / f"crash-{hit}"
        faults = FaultInjector()
        db = Database(path=str(path), durability=DurabilityOptions(faults=faults))
        mtd = _build_mtd(db, layout)
        expected: dict = {1: {}, 2: {}}
        states = [{t: dict(rows) for t, rows in expected.items()}]
        faults.crash_after = faults.hits + hit  # arm past the setup
        crashed = False
        for _description, apply, mutate in _workload(layout):
            try:
                apply(mtd)
            except SimulatedCrash:
                crashed = True
                break
            mutate(expected)
            states.append({t: dict(rows) for t, rows in expected.items()})
        if not crashed:
            db.close()
        db2 = Database(path=str(path))
        mtd2 = MultiTenantDatabase.recover(db2)
        done = len(states) - 1  # steps that completed
        try:
            _verify(mtd2, states[-1])
        except AssertionError:
            if not crashed:
                raise
            # Crashpoints normally fire before the durability-
            # establishing action, but auto-checkpoint points fire
            # after the statement completed — then the in-flight
            # operation IS durable and the next state is the legal one.
            follow_up = _workload(layout)[done][2]
            follow_up(expected)
            _verify(mtd2, expected)
            done += 1
        # Recovered == live, beyond the rows: the restored state makes
        # the instance behave like one that ran exactly ``done`` steps
        # (the in-flight admin operation never happened, or completed).
        legal = behaviours[done : done + 2] if crashed else behaviours[-1:]
        assert observable_behaviour(mtd2) in legal, f"hit {hit} after {done} steps"
        db2.close()


# ---------------------------------------------------------------------------
# State, not history: the schema-mapping layer recovers from one snapshot
# ---------------------------------------------------------------------------

SEVEN_LAYOUTS = tuple(name for name in ALL_LAYOUTS if "+" not in name)


def _rejected(call, *args, **kwargs) -> None:
    """An admin call the layer refuses with an ordinary exception: the
    live database keeps running, and so must every later open."""
    with pytest.raises(Exception) as excinfo:
        call(*args, **kwargs)
    assert not isinstance(excinfo.value, SimulatedCrash)


def _grant_past_width(mtd: MultiTenantDatabase) -> None:
    # Universal width 3: tenant 3's account would need aid, name, beds
    # and dealers.
    mtd.grant_extension(3, "automotive")


def _alter_past_width(mtd: MultiTenantDatabase) -> None:
    # Universal width 4: tenant 3's account would need 5 columns.
    mtd.alter_extension(
        "healthcare",
        (LogicalColumn("wards", INTEGER), LogicalColumn("floors", INTEGER)),
    )


@pytest.mark.parametrize(
    "layout, options, widening",
    [
        *(pytest.param(name, {}, None, id=name) for name in SEVEN_LAYOUTS),
        pytest.param(
            "universal", {"width": 3}, _grant_past_width, id="universal-grant"
        ),
        pytest.param(
            "universal", {"width": 4}, _alter_past_width, id="universal-alter"
        ),
    ],
)
def test_rejected_admin_calls_do_not_poison_the_log(
    tmp_path, layout, options, widening
):
    """One bad admin request used to make the directory un-openable:
    the failed call's ``admin_end`` is (rightly) on disk, and replaying
    its *intent* raised ``CatalogError: tenant 1 already exists``.  A
    grant or ALTER that would overflow the Universal Table used to stay
    in the schema although refused, leaving the tenant unreadable and
    the directory unopenable: it must change nothing, live or reopened."""
    db = Database(path=str(tmp_path))
    mtd = _build_mtd(db, layout, **options)
    mtd.insert(1, "account", {"aid": 1, "name": "one"})
    _rejected(mtd.create_tenant, 1)
    mtd.insert(2, "account", {"aid": 2, "name": "two"})
    _rejected(mtd.drop_tenant, 999)
    mtd.create_tenant(3)
    _rejected(mtd.grant_extension, 1, "nope")
    mtd.insert(3, "account", {"aid": 3, "name": "three"})
    _rejected(mtd.migrate_tenant, 2, "no_such_layout")
    mtd.migrate_tenant(2, "universal" if layout != "universal" else "extension")
    if layout != "basic":
        mtd.grant_extension(3, "healthcare")
        mtd.insert(3, "account", {"aid": 4, "name": "four", "beds": 7})
    mtd.drop_tenant(1)
    _rejected(mtd.create_tenant, 3)
    mtd.insert(2, "account", {"aid": 5, "name": "five"})
    live = observable_behaviour(mtd)
    if widening is not None:
        mtd.define_extension(
            Extension("automotive", "account", (LogicalColumn("dealers", INTEGER),))
        )
        live = observable_behaviour(mtd)
        _rejected(widening, mtd)
        assert observable_behaviour(mtd) == live
        assert mtd.execute(3, "SELECT beds FROM account WHERE aid = 4").rows == [
            (7,)
        ]
    db.close()

    db2 = Database(path=str(tmp_path))
    recovered = MultiTenantDatabase.recover(db2)
    assert observable_behaviour(recovered) == live
    # ... and it is a working database, not a read-only relic.
    recovered.create_tenant(1)
    recovered.insert(1, "account", {"aid": 6, "name": "six"})
    assert recovered.execute(1, "SELECT name FROM account").rows == [("six",)]
    db2.close()


def _layout_hook_spy(monkeypatch) -> list[str]:
    """Record every ``Layout.on_*`` call, on every layout class."""
    from repro.core.layouts import LAYOUTS, Layout

    calls: list[str] = []

    def spy(cls, name, hook):
        def spied(self, *args, **kwargs):
            calls.append(f"{cls.__name__}.{name}")
            return hook(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, spied)

    for cls in (Layout, *LAYOUTS.values()):
        for name, hook in list(vars(cls).items()):
            if name.startswith("on_"):
                spy(cls, name, hook)
    return calls


@pytest.mark.parametrize("layout", SEVEN_LAYOUTS)
def test_recover_restores_state_and_runs_no_layout_hook(
    tmp_path, layout, monkeypatch
):
    """Recovery reads a value; it re-interprets nothing.  What a
    layout needs after a crash is what ``bookkeeping()`` returns."""
    db = Database(path=str(tmp_path))
    mtd = _build_mtd(db, layout)
    for _description, apply, _mutate in _workload(layout):
        apply(mtd)
    live = observable_behaviour(mtd)
    db.close()
    calls = _layout_hook_spy(monkeypatch)
    db2 = Database(path=str(tmp_path))
    recovered = MultiTenantDatabase.recover(db2)
    assert calls == []
    assert observable_behaviour(recovered) == live
    recovered.create_tenant(99)  # the spy does see a live admin call
    assert any(call.endswith(".on_tenant_added") for call in calls)
    db2.close()


@pytest.mark.parametrize("layout", ["chunk_folding", "private"])
def test_checkpoint_cost_follows_state_not_history(tmp_path, layout):
    """Create and drop the same 50 tenants three times: the state after
    each round is the same, so the checkpoint record must be too (it
    grew by a full history of the round, every round)."""
    db = build(tmp_path, auto_checkpoint_bytes=0)
    mtd = MultiTenantDatabase(layout=layout, db=db)
    mtd.define_table(_account_table())
    mtd.define_extension(_healthcare())
    sizes = []
    for _round in range(3):
        for tenant_id in range(50):
            mtd.create_tenant(tenant_id, extensions=("healthcare",))
            mtd.insert(tenant_id, "account", {"aid": 1, "name": "n", "beds": 2})
        for tenant_id in range(50):
            mtd.drop_tenant(tenant_id)
        assert db.checkpoint()
        (head,) = _log_records(db)
        assert head["t"] == "checkpoint"
        sizes.append(os.path.getsize(db.durability.wal.path))
    assert max(sizes) <= sizes[0] * 1.05, sizes
    assert min(sizes) >= sizes[0] * 0.95, sizes
    db.close()


@pytest.mark.parametrize("layout", SEVEN_LAYOUTS)
def test_retained_admin_state_does_not_alias_live_state(tmp_path, layout):
    """The manager keeps the value of the last ``admin_end`` and every
    checkpoint pickles it again: if it shared a dict or a set with the
    running layer, inserts would leak into it."""
    db = build(tmp_path, auto_checkpoint_bytes=0)
    mtd = _build_mtd(db, layout)
    mtd.migrate_tenant(2, "universal" if layout != "universal" else "extension")
    logged = [r for r in _log_records(db) if r["t"] == "admin_end"][-1]["end"]
    for i in range(100):
        mtd.insert(1 + i % 2, "account", {"aid": i, "name": f"n{i}"})
    assert db.checkpoint()
    (head,) = _log_records(db)
    kept = head["snapshot"]["admin_state"]
    assert kept == logged
    assert pickle.dumps(kept) == pickle.dumps(logged)
    db.close()


@pytest.mark.parametrize(
    "layout", [name for name in SEVEN_LAYOUTS if name != "private"]
)
def test_a_tenant_with_data_adds_no_layout_state(layout):
    """A tenant costs a shared layout's durable state its Row-id
    counters and nothing else: everything else is kept per table or
    per extension, so creating, filling and reading one more tenant
    with the extensions others already use leaves it as it was.
    (Private Tables own one physical table per tenant by design.)"""
    mtd = _build_mtd(Database(), layout)
    extensions = () if layout == "basic" else ("healthcare",)
    row = {"aid": 1, "name": "one"}
    if extensions:
        mtd.grant_extension(1, "healthcare")
        row["beds"] = 2
    mtd.insert(1, "account", row)
    before = mtd.layout.bookkeeping()
    mtd.create_tenant(3, extensions)
    mtd.insert(3, "account", row)
    assert mtd.execute(3, "SELECT name FROM account").rows == [("one",)]
    assert mtd.tenant_row_counts(3) == {"account": 1}
    after = mtd.layout.bookkeeping()
    new_counters = set(after.pop("rows")) - set(before.pop("rows"))
    assert {tenant_id for tenant_id, _table in new_counters} <= {3}
    assert after == before


@pytest.mark.parametrize(
    "layout, recorded",
    [
        ("chunk", {"partitions": {}, "legacy_tenants": set()}),
        (
            "chunk_folding",
            {"next_chunk": {}, "extension_chunks": {}, "base_split": {}},
        ),
    ],
    ids=["chunk", "chunk_folding"],
)
def test_layout_state_of_another_version_is_refused_by_name(
    tmp_path, layout, recorded
):
    """Before chunks were cut once per column group, the Chunk layout
    recorded a partition per tenant and Chunk Folding a per-table split.
    A directory whose last admin call wrote that state is refused at
    open with an error naming the layout, not a ``KeyError`` mid-way."""
    db = Database(path=str(tmp_path))
    mtd = _build_mtd(db, layout)
    state = mtd._durable_state()
    common = {
        key: state["default"][key] for key in ("rows", "columns", "created_tables")
    }
    with db.admin_operation(
        "define_table", {**state, "default": {**common, **recorded}}
    ):
        pass
    db.close()
    db2 = Database(path=str(tmp_path))
    with pytest.raises(CatalogError, match=f"the {layout} layout"):
        MultiTenantDatabase.recover(db2)
    db2.close()


def test_open_plans_per_anchor_shape_not_per_tenant(tmp_path):
    """``recover()`` reads MAX(row) per tenant × table to catch the
    Row-id allocators up — through one prepared statement per anchor
    shape, not one freshly planned text per tenant × table."""

    def planned_by_recover(tenants: int) -> int:
        path = tmp_path / f"t{tenants}"
        db = Database(path=str(path))
        mtd = MultiTenantDatabase(layout="chunk_folding", db=db)
        mtd.define_table(_account_table())
        for tenant_id in range(tenants):
            mtd.create_tenant(tenant_id)
            mtd.insert(tenant_id, "account", {"aid": 1, "name": "n"})
        db.close()
        db2 = Database(path=str(path))

        def planned() -> int:
            return db2.metrics.value("db.plan_cache.misses") + db2.metrics.value(
                "db.plan_cache.adhoc"
            )

        before = planned()
        recovered = MultiTenantDatabase.recover(db2)
        after = planned()
        assert recovered.insert(tenants - 1, "account", {"aid": 2}) == 1
        db2.close()
        return after - before

    assert planned_by_recover(40) == planned_by_recover(4) == 0
