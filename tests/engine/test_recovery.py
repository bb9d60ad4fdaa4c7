"""Durability subsystem: WAL replay, checkpoints, fault injection.

Deterministic cases first (reopen, losers, rollback replay, fuzzy
checkpoints, DDL, torn page writes, short fsyncs, group commit, the
seeded skip-wal-flush mutation), then the crashpoint × layout property
test: kill the engine at every named crashpoint of a multi-tenant
workload, recover, and check that completed operations survived and the
in-flight operation vanished without a trace — for all seven layouts,
with the workload starting on a fresh database and on one reopened
clean (which adopted its checkpoint and wrote nothing).
"""

from __future__ import annotations

import datetime
import itertools
import math
import os
import pickle
import random
import shutil
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Extension,
    LogicalColumn,
    LogicalTable,
    MultiTenantDatabase,
)
from repro.analysis.invariants import check_row_alignment, check_width_ledger
from repro.engine.database import Database
from repro.engine.durability import (
    DurabilityOptions,
    FaultInjector,
    SimulatedCrash,
    WriteAheadLog,
)
from repro.engine.durability.codec import (
    decode_frames,
    encode_log_frame,
    frame_header,
    frame_payload,
)
from repro.engine.durability.manager import (
    PAGES_DIRNAME,
    WAL_FILENAME,
    capture_snapshot,
)
from repro.engine.durability.pagestore import PAGE_FILE
from repro.engine.durability.wal import HEAD_SIZE
from repro.engine.errors import (
    CatalogError,
    EngineError,
    NotNullViolation,
    UniqueViolation,
)
from repro.engine.sql.parser import parse_statement
from repro.engine.values import INTEGER, varchar

from ..conftest import FORMER_STORAGES
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

        # The budget is a multiple of what one statement logs, measured:
        # the 200 statements cross it at least three times, whatever
        # the record format.
        probe = build(tmp_path / "probe", auto_checkpoint_bytes=0)
        seed_rows(probe, 200)
        before = probe.durability.wal.bytes_since_checkpoint
        probe.execute(sql, params(0))
        budget = 50 * (probe.durability.wal.bytes_since_checkpoint - before)
        probe.close()
        counts, wal_sizes = {}, {}
        for entry in ("text", "ast", "handle"):
            db = build(tmp_path / entry, auto_checkpoint_bytes=budget)
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
    """The durable WAL records of a live database, through the decoder
    the WAL's open reads them with."""
    db.durability.wal.flush()
    path = db.durability.wal.path
    with open(path, "rb") as fh:
        data = fh.read()
    return [record for _offset, _end, record in decode_frames(data, HEAD_SIZE, path)]


def _all_rows(db: Database, table: str = "t") -> list[tuple]:
    return sorted(db.execute(f"SELECT * FROM {table}").rows)


def _crash_and_reopen(db: Database, path) -> Database:
    """Power cut: the log reaches disk, nothing else happens."""
    db.durability.wal.flush()
    del db
    return build(path)


def _checkpointed(path, **options) -> Database:
    """Eight rows under a checkpoint that nothing follows in the log."""
    db = build(path, **options)
    seed_rows(db)
    assert db.checkpoint()
    return db


def _frames(path) -> list[tuple[int, int, dict]]:
    """``(offset, end, record)`` of every frame in the directory's log."""
    log = path / WAL_FILENAME
    return list(decode_frames(log.read_bytes(), HEAD_SIZE, str(log)))


def _file_bytes(path) -> dict[str, bytes]:
    return {
        name: (path / name).read_bytes()
        for name in (WAL_FILENAME, os.path.join(PAGES_DIRNAME, PAGE_FILE))
    }


def _open_writes(db: Database) -> dict[str, int]:
    """What the open wrote: a clean one leaves every count at 0."""
    return {
        name: db.metrics.value(name)
        for name in (
            "db.wal.bytes_written",
            "db.wal.fsyncs",
            "db.checkpoint.count",
            "db.pager.bytes_written",
            "db.pager.fsyncs",
        )
    }


def _committed_after_the_checkpoint(path) -> list[int] | None:
    db = _checkpointed(path)
    db.execute("INSERT INTO t VALUES (8, 'name8')")
    db.close()
    return list(range(9))


def _a_losers_records_only(path) -> list[int] | None:
    db = _checkpointed(path)
    db.transactions.begin()
    db.execute("INSERT INTO t VALUES (100, 'loser')")
    db.durability.wal.flush()
    del db
    return list(range(8))


def _an_incomplete_admin_bracket(path) -> list[int] | None:
    db = _checkpointed(path, faults=FaultInjector(crash_at=("admin.probe.end", 1)))
    with pytest.raises(SimulatedCrash):
        with db.admin_operation("probe", None):
            db.execute("INSERT INTO t VALUES (100, 'never happened')")
    del db
    return list(range(8))


def _a_torn_log_tail(path) -> list[int] | None:
    _checkpointed(path).close()
    with open(path / WAL_FILENAME, "ab") as fh:
        fh.write(frame_payload(b"\x00" * 12)[:-3])  # a frame cut short
    return list(range(8))


def _a_page_version_above_the_checkpoint(path) -> list[int] | None:
    _checkpointed(path).close()
    db = build(path)
    # A page written back between its change and the change's record
    # (an eviction inside a statement): the page reaches the file, and
    # the log holds nothing it could flush for it.
    page_id = db.catalog.table("t").heap.page_ids()[0]
    db.pool.read(page_id)
    db.pool.mark_dirty(page_id)
    db.pool.write_back_all()
    assert [r["t"] for _, _, r in _frames(path)] == ["checkpoint"]
    del db
    return list(range(8))


def _a_fuzzy_checkpoint_over_a_loser(path) -> list[int] | None:
    db = build(path)
    seed_rows(db)
    db.transactions.begin()
    db.execute("INSERT INTO t VALUES (100, 'in flight')")
    assert db.checkpoint()
    del db
    return list(range(8))


def _a_fresh_directory(path) -> list[int] | None:
    return None


class TestCleanOpen:
    """An open whose log is one checkpoint and nothing else — no record
    to redo, no loser to undo, nothing cut from either file — adopts
    that checkpoint and writes nothing.  Every other open re-anchors:
    it checkpoints what it recovered, so the next open has nothing to
    redo, undo or cut again."""

    def test_a_clean_open_writes_nothing(self, tmp_path):
        _checkpointed(tmp_path).close()
        files = _file_bytes(tmp_path)
        ((_, _, head),) = _frames(tmp_path)
        for _ in range(2):
            db = build(tmp_path)
            assert capture_snapshot(db, db.durability) == head["snapshot"]
            assert not any(_open_writes(db).values()), _open_writes(db)
            assert db.durability.wal.bytes_since_checkpoint == 0
            assert ids(db) == list(range(8))
            db.close()
            assert _file_bytes(tmp_path) == files

    def test_a_clean_multi_tenant_open_restores_the_snapshot_it_read(
        self, tmp_path
    ):
        db = build(tmp_path)
        mtd = _build_mtd(db, "chunk_folding")
        mtd.insert(1, "account", {"aid": 1, "name": "a1"})
        mtd.grant_extension(2, "healthcare")
        mtd.insert(2, "account", {"aid": 2, "name": "b2", "beds": 3})
        live = observable_behaviour(mtd)
        assert db.checkpoint()
        db.close()
        ((_, _, head),) = _frames(tmp_path)
        db = build(tmp_path)
        assert capture_snapshot(db, db.durability) == head["snapshot"]
        assert not any(_open_writes(db).values()), _open_writes(db)
        assert observable_behaviour(MultiTenantDatabase.recover(db)) == live
        db.close()

    @pytest.mark.parametrize(
        "leave",
        [
            _committed_after_the_checkpoint,
            _a_losers_records_only,
            _an_incomplete_admin_bracket,
            _a_torn_log_tail,
            _a_page_version_above_the_checkpoint,
            _a_fuzzy_checkpoint_over_a_loser,
            _a_fresh_directory,
        ],
        ids=lambda leave: leave.__name__.lstrip("_"),
    )
    def test_every_other_open_re_anchors(self, tmp_path, leave):
        expected = leave(tmp_path)
        db = build(tmp_path)
        assert db.metrics.value("db.checkpoint.count") == 1
        ((offset, end, record),) = _frames(tmp_path)
        assert record["t"] == "checkpoint"
        assert (offset, end) == (HEAD_SIZE, os.path.getsize(tmp_path / WAL_FILENAME))
        if expected is not None:
            assert ids(db) == expected
        db.close()
        db = build(tmp_path)
        assert db.durability.recovery_info["records_scanned"] == 0
        assert not any(_open_writes(db).values()), _open_writes(db)
        if expected is not None:
            assert ids(db) == expected
        db.close()


class TestWriteAheadRule:
    """A page reaches the page file only after the record of its latest
    change is durable.  A page is stamped with the log's end when it
    changes, before that record is appended, so the record starts at
    the stamp: the log must be flushed past it, not only up to it."""

    def test_a_write_back_flushes_the_record_that_changed_the_page(
        self, tmp_path
    ):
        _checkpointed(tmp_path).close()
        db = build(tmp_path)
        wal = db.durability.wal
        assert wal.flushed_lsn == wal.end_lsn  # a clean open wrote nothing
        db.transactions.begin()
        db.execute("INSERT INTO t VALUES (100, 'uncommitted')")
        assert wal.flushed_lsn < wal.end_lsn
        db.pool.write_back_all()
        assert db.metrics.value("db.pager.bytes_written") > 0
        assert wal.flushed_lsn == wal.end_lsn
        assert [r["t"] for _, _, r in _frames(tmp_path)] == ["checkpoint", "ins"]
        del db
        # The insert never committed: reopening undoes it.
        db = build(tmp_path)
        assert ids(db) == list(range(8))
        db.close()


class TestRefusedWrites:
    """A write a unique index refuses logs nothing, so it must leave
    nothing behind: no heap row, no index entry, no changed row.  The
    scan, every index and the state after a crash must agree — and an
    UPDATE of the same row afterwards must recover to what it did live,
    which an UPDATE record carrying only its SET columns depends on."""

    BEFORE = [(1, 10, "x"), (2, 20, "y")]

    def _build(self, path) -> Database:
        db = build(path)
        db.execute(
            "CREATE TABLE t (a INTEGER, b INTEGER, c VARCHAR(8000))"
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

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
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
        db = self._build(tmp_path)
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
        """What the WAL writes for a one-column UPDATE: its ``upd``
        record and the commit terminal."""
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
        before = db.wal_stats.bytes_written
        db.execute("UPDATE w SET c3 = 'changed' WHERE id = 1")
        written = db.wal_stats.bytes_written - before
        (upd,) = [r for r in _log_records(db) if r["t"] == "upd"]
        assert upd["set"] == {3: "changed"}
        db.close()
        return written

    def test_update_record_size_does_not_follow_row_width(self, tmp_path):
        narrow = self._upd_bytes(tmp_path / "narrow", 10)
        wide = self._upd_bytes(tmp_path / "wide", 60)
        assert abs(wide - narrow) <= 4, (narrow, wide)

    def test_one_integer_update_and_its_commit_are_small(self, tmp_path):
        """Framed sizes as the WAL writes them, every id below 128: a
        one-INTEGER ``upd`` is kind, tx, segment, page, slot, count and
        position, a byte each, and the int's tag and zigzag varint, a
        byte each; a ``commit`` kind and tx.  Each inside a 5-byte frame
        header: a one-byte length varint and the CRC."""
        db = build(tmp_path)
        db.execute("CREATE TABLE campaign (id INTEGER NOT NULL, n INTEGER)")
        db.execute("INSERT INTO campaign VALUES (1, 0)")
        db.transactions.begin()
        db.execute("UPDATE campaign SET n = 7 WHERE id = 1")
        before = db.wal_stats.bytes_written
        db.durability.wal.flush()
        upd = db.wal_stats.bytes_written - before
        db.transactions.commit()
        commit = db.wal_stats.bytes_written - before - upd
        assert [r["t"] for r in _log_records(db)[-2:]] == ["upd", "commit"]
        assert (upd, commit) == (14, 7)
        db.close()

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

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    def test_update_that_moves_the_row_recovers(self, tmp_path, storage):
        db = build(tmp_path)
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, n INTEGER, c VARCHAR(6000))"
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


#: Values at the edges of each column type the fixed-shape log records
#: carry: each must come back as the same type and value.
EDGE_VALUES = {
    "b": [True, False],
    "i": [0, 1, -1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**200, -(2**200)],
    "f": [1.0, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.8e308],
    "s": ["", "\ud800", "a\udfffz", "\U0001f600", "x" * 300],
    "d": [datetime.date.min, datetime.date.max],
}
COLUMN_VALUES = {
    "b": st.booleans(),
    "i": st.integers(),
    "f": st.floats(),
    "s": st.text(max_size=40),
    "d": st.dates(),
}
TYPED_ROW = st.fixed_dictionaries(
    {
        column: st.one_of(st.none(), st.sampled_from(EDGE_VALUES[column]), values)
        for column, values in COLUMN_VALUES.items()
    }
)


def _cells(rows: list[tuple]) -> list[tuple]:
    """Rows as (type, repr) per cell: ``True`` is not ``1``, ``-0.0`` is
    not ``0.0`` and NaN equals NaN."""
    return [tuple((type(v), repr(v)) for v in row) for row in rows]


class TestLogFormat:
    """Row changes and transaction terminals are fixed-shape binary
    records; everything else stays a pickle."""

    ROW = {"segment": 3, "rid": (4, 2)}
    RECORDS = [
        {"t": "ins", "tx": 3, **ROW, "row": (1, "a", None)},
        {"t": "upd", "tx": 3, **ROW, "new_rid": (4, 2), "set": {1: "b"}},
        {"t": "upd", "tx": 3, **ROW, "new_rid": (9, 0), "set": {0: 2, 2: 1.5}},
        {"t": "del", "tx": 3, "segment": 3, "rid": (9, 0)},
        {"t": "commit", "tx": 3},
        {"t": "ins", "tx": 4, **ROW, "row": (True,), "admin": 7},
        {"t": "upd", "tx": 4, **ROW, "new_rid": (4, 2), "set": {}, "admin": 7},
        {"t": "rollback", "tx": 4, "admin": 7},
    ]

    def test_row_and_terminal_records_run_no_pickle(self, monkeypatch):
        from repro.engine.durability import codec

        class NoPickle:
            def dumps(self, *args, **kwargs):
                raise AssertionError("pickled a fixed-shape record")

            loads = dumps

        monkeypatch.setattr(codec, "pickle", NoPickle())
        row = tuple(v for values in EDGE_VALUES.values() for v in values)
        records = self.RECORDS + [
            {"t": "ins", "tx": 5, "segment": 3, "rid": (1, 0), "row": row}
        ]
        data = b"".join(encode_log_frame(r) for r in records)
        decoded = [r for _offset, _end, r in decode_frames(data)]
        assert decoded[:-1] == self.RECORDS
        assert _cells([decoded[-1]["row"]]) == _cells([row])

    def test_row_records_in_an_admin_bracket_keep_the_fixed_shape(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        with db.durability.admin_operation("grant", {"granted": 1}):
            db.execute("UPDATE t SET name = 'in-op' WHERE id = 1")
            db.execute("INSERT INTO t VALUES (50, 'in-op')")
        db.durability.wal.flush()
        data = open(db.durability.wal.path, "rb").read()
        kinds = {}
        for offset, _end, record in decode_frames(data, HEAD_SIZE):
            pickled = data[frame_header(data, offset)[0]] == 0x80
            kinds[record["t"], "admin" in record] = pickled
        assert kinds == {
            ("checkpoint", False): True,
            ("ddl", False): True,
            ("ins", False): False,
            ("commit", False): False,
            ("admin_begin", False): True,
            ("upd", True): False,
            ("ins", True): False,
            ("commit", True): False,
            ("admin_end", False): True,
        }
        db.close()

    @pytest.mark.parametrize(
        "field",
        [
            {"tx": 2**70},
            {"admin": 2**70},
            {"rid": (2**70, 0), "new_rid": (2**70, 0)},
            {"rid": (1, -1), "new_rid": (1, -1)},
            {"set": {-1: 1}},
        ],
        ids=["tx", "admin", "page", "slot", "position"],
    )
    def test_a_field_outside_its_width_raises_at_append(self, tmp_path, field):
        """A header integer is an unsigned varint of at most ten bytes."""
        db = build(tmp_path)
        wal = db.durability.wal
        end = wal.end_lsn
        record = {"t": "upd", "tx": 1, **self.ROW, "new_rid": (4, 2), "set": {0: 1}}
        with pytest.raises(EngineError, match="outside its width"):
            wal.append({**record, **field})
        assert wal.end_lsn == end
        db.close()

    @pytest.mark.parametrize(
        "garbage",
        [b"\x01\x00", b"\x41garbage", b"\x80garbage"],
        ids=["short", "kind", "pickle"],
    )
    def test_a_checksummed_frame_that_does_not_decode_is_refused(
        self, tmp_path, garbage
    ):
        """Committed insert, CRC-valid garbage, committed insert: the
        open refuses the log by offset and leaves it as it was — it
        does not truncate the committed insert after the garbage."""
        db = build(tmp_path)
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        db.durability.wal.flush()
        del db
        log = tmp_path / WAL_FILENAME
        data = log.read_bytes()
        (second, *_) = [
            offset
            for offset, _end, record in decode_frames(data, HEAD_SIZE)
            if record["t"] == "ins" and record["row"] == (2,)
        ]
        spliced = data[:second] + frame_payload(garbage) + data[second:]
        log.write_bytes(spliced)
        refused = rf"wal\.log: the frame at offset {second} "
        with pytest.raises(EngineError, match=refused):
            build(tmp_path)
        assert log.read_bytes() == spliced

    def test_a_zero_length_frame_ends_the_log(self, tmp_path):
        db = build(tmp_path)
        seed_rows(db)
        db.durability.wal.flush()
        del db
        log = tmp_path / WAL_FILENAME
        log.write_bytes(log.read_bytes() + bytes(64))
        db2 = build(tmp_path)
        assert ids(db2) == list(range(8))
        db2.close()

    @pytest.mark.parametrize("last", ["row", "admin"])
    def test_reopen_append_reopen_keeps_every_record_once(self, tmp_path, last):
        """The open finds where the log ends from the frames it read,
        whichever encoding the last one has."""
        path = str(tmp_path / WAL_FILENAME)
        records = list(self.RECORDS)
        if last == "admin":
            records.append({"t": "admin_end", "id": 7, "end": {"tenants": [1]}})
        wal = WriteAheadLog(path)
        wal.open()
        for record in records:
            wal.append(record)
        wal.close()
        size = os.path.getsize(path)
        extra = {"t": "del", "tx": 8, "segment": 3, "rid": (4, 3)}
        for expected in (records, records + [extra]):
            wal = WriteAheadLog(path)
            assert [r for _lsn, r in wal.open()] == expected
            assert wal.end_lsn == os.path.getsize(path)
            wal.append(extra)
            wal.close()
        assert os.path.getsize(path) == size + 2 * len(encode_log_frame(extra))

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(TYPED_ROW, min_size=1, max_size=4),
        updates=st.lists(TYPED_ROW, max_size=4),
    )
    def test_values_of_every_type_recover_type_exact(self, storage, rows, updates):
        directory = tempfile.mkdtemp(prefix="repro-typed-")
        try:
            db = build(directory)
            db.execute(
                "CREATE TABLE v (id INTEGER NOT NULL, b BOOLEAN, i BIGINT, "
                "f DOUBLE, s VARCHAR(400), d DATE)"
                )
            for k, row in enumerate(rows):
                db.execute(
                    "INSERT INTO v VALUES (?, ?, ?, ?, ?, ?)",
                    [k] + [row[column] for column in COLUMN_VALUES],
                )
            for k, row in enumerate(updates):
                # Each UPDATE assigns a different subset of the columns.
                assigned = [(column, row[column]) for column in COLUMN_VALUES]
                assigned = assigned[k % 5 :]
                db.execute(
                    "UPDATE v SET "
                    + ", ".join(f"{column} = ?" for column, _ in assigned)
                    + " WHERE id = ?",
                    [value for _, value in assigned] + [k % len(rows)],
                )
            live = _cells(db.execute("SELECT * FROM v ORDER BY id").rows)
            db2 = _crash_and_reopen(db, directory)
            assert _cells(db2.execute("SELECT * FROM v ORDER BY id").rows) == live
            db2.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

#: Header integers at each varint width's edges.
EDGE_IDS = [0, 127, 128, 2**14 - 1, 2**14, 2**32 - 1, 2**32, 2**64, 2**70 - 1]
IDS = st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, 2**70 - 1))
CELL = st.one_of(
    st.none(), *(st.sampled_from(v) for v in EDGE_VALUES.values()),
    *COLUMN_VALUES.values(),
)
RID = st.tuples(IDS, IDS)


@st.composite
def log_records(draw) -> dict:
    kind = draw(st.sampled_from(["ins", "del", "upd", "commit", "rollback"]))
    record = {"t": kind, "tx": draw(IDS)}
    if kind in ("ins", "del", "upd"):
        record.update(segment=draw(IDS), rid=draw(RID))
    if kind == "ins":
        record["row"] = tuple(draw(st.lists(CELL, max_size=6)))
    elif kind == "upd":
        record["new_rid"] = draw(st.one_of(st.just(record["rid"]), RID))
        record["set"] = draw(st.dictionaries(IDS, CELL, max_size=4))
    if draw(st.booleans()):
        record["admin"] = draw(IDS)
    return record


def _exact(record: dict) -> list:
    """A record's fields with every value's type and repr: ``True`` is
    not ``1``, ``-0.0`` not ``0.0``, and NaN equals NaN."""
    return sorted((k, repr(v), repr(type(v))) for k, v in record.items())


class TestSegmentIds:
    """A row record names its table by the heap's segment id and writes
    its header integers as varints: redo maps the id back through the
    catalog, which DDL redo rebuilds as the live catalog was."""

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(log_records(), min_size=1, max_size=5))
    def test_records_round_trip_type_exact_at_every_width(self, records):
        data = b"".join(encode_log_frame(dict(r)) for r in records)
        decoded = [r for _offset, _end, r in decode_frames(data)]
        assert [_exact(r) for r in decoded] == [_exact(r) for r in records]

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(log_records(), min_size=1, max_size=4))
    def test_every_prefix_decodes_to_its_whole_frames(self, records):
        """A log cut at any byte, as a crash mid-append leaves it,
        decodes to exactly the frames wholly before the cut and never
        raises: a length varint or a CRC cut short is a torn tail."""
        frames = [encode_log_frame(dict(r)) for r in records]
        data = b"".join(frames)
        ends = list(itertools.accumulate(map(len, frames)))
        for cut in range(len(data) + 1):
            decoded = list(decode_frames(data[:cut]))
            whole = [end for end in ends if end <= cut]
            assert [end for _offset, end, _r in decoded] == whole, cut
            assert [_exact(r) for _o, _e, r in decoded] == [
                _exact(r) for r in records[: len(whole)]
            ]

    def test_a_length_varint_longer_than_five_bytes_is_a_torn_tail(self):
        """Five bytes hold any u32 length; a sixth ends the readable
        log even where the frame after it would check."""
        first = encode_log_frame({"t": "commit", "tx": 1})
        payload = first[frame_header(first)[0] :]
        overlong = (
            b"\x82\x80\x80\x80\x80\x00"  # 2, in six bytes
            + zlib.crc32(payload).to_bytes(4, "little")
            + payload
        )
        decoded = list(decode_frames(first + overlong))
        assert [end for _offset, end, _r in decoded] == [len(first)]

    @staticmethod
    def _splice(tmp_path, payload_of) -> tuple[bytes, int]:
        """Two committed inserts; the second's ``ins`` frame replaced by
        one framing ``payload_of(its record)``.  Returns the new log and
        that frame's offset."""
        db = build(tmp_path)
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        db.durability.wal.flush()
        del db
        log = tmp_path / WAL_FILENAME
        data = log.read_bytes()
        ((second, end, record),) = [
            (offset, end, record)
            for offset, end, record in decode_frames(data, HEAD_SIZE)
            if record["t"] == "ins" and record["row"] == (2,)
        ]
        spliced = data[:second] + frame_payload(payload_of(record)) + data[end:]
        log.write_bytes(spliced)
        return spliced, second

    @pytest.mark.parametrize(
        "payload, reason",
        [
            # An ins whose tx id's varint stops after its second byte.
            (b"\x01\xff\xff", "runs past the record's end"),
            (b"\x01" + b"\x80" * 10 + b"\x01", "longer than 10 bytes"),
        ],
        ids=["truncated", "overlong"],
    )
    def test_a_bad_varint_is_refused_naming_the_log_and_offset(
        self, tmp_path, payload, reason
    ):
        spliced, second = self._splice(tmp_path, lambda _record: payload)
        refused = rf"wal\.log: the frame at offset {second} .*{reason}"
        with pytest.raises(EngineError, match=refused):
            build(tmp_path)
        assert (tmp_path / WAL_FILENAME).read_bytes() == spliced

    def test_a_record_naming_no_table_refuses_the_open(self, tmp_path):
        def elsewhere(record: dict) -> bytes:
            frame = encode_log_frame({**record, "segment": 99})
            return frame[frame_header(frame)[0] :]

        spliced, _second = self._splice(tmp_path, elsewhere)
        refused = r"wal\.log: the ins record at LSN \d+ names segment 99, "
        with pytest.raises(EngineError, match=refused):
            build(tmp_path)
        assert (tmp_path / WAL_FILENAME).read_bytes() == spliced

    def test_a_table_dropped_and_recreated_redoes_into_each_segment(
        self, tmp_path
    ):
        db = build(tmp_path)
        seed_rows(db, 4)
        assert db.checkpoint()
        db.execute("INSERT INTO t VALUES (10, 'old')")
        db.execute("UPDATE t SET name = 'old-1' WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        old = db.catalog.table("t").heap.segment_id
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INTEGER NOT NULL, n INTEGER, s VARCHAR(9))")
        db.execute("CREATE INDEX t_id ON t (id)")
        db.execute("INSERT INTO t VALUES (1, 1, 'new'), (2, 2, 'new')")
        db.execute("UPDATE t SET n = 7 WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        new = db.catalog.table("t").heap.segment_id
        named = [r["segment"] for r in _log_records(db) if "segment" in r]
        assert named == [old] * 3 + [new] * 4 and new != old
        live = _consistent_rows(db)
        assert live == [(1, 7, "new")]
        db2 = _crash_and_reopen(db, tmp_path)
        assert db2.catalog.table("t").heap.segment_id == new
        assert _consistent_rows(db2) == live
        db2.close()

    def test_failed_ddl_takes_no_segment_id(self, tmp_path):
        """Redo replays only DDL that succeeded, so DDL that fails must
        not move the segment ids the tables after it get."""
        db = build(tmp_path)
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (1)")
        with pytest.raises(UniqueViolation):
            db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE u (k INTEGER, k INTEGER)")
        db.execute("CREATE TABLE u (k INTEGER)")
        db.execute("INSERT INTO u VALUES (7)")
        segment = db.catalog.table("u").heap.segment_id
        db2 = _crash_and_reopen(db, tmp_path)
        assert db2.catalog.table("u").heap.segment_id == segment
        assert _all_rows(db2, "u") == [(7,)]
        assert _all_rows(db2) == [(1,), (1,)]
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

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    def test_assigned_cells_are_coerced(self, tmp_path, storage):
        db = build(tmp_path)
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, x DOUBLE, d DATE)"
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

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    def test_index_scans_follow_updates(self, tmp_path, storage):
        db = build(tmp_path)
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, b INTEGER, c VARCHAR(6000))"
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

    def _build_for_undo(self, tmp_path) -> Database:
        db = build(tmp_path)
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, a VARCHAR(5000), b DOUBLE, d DATE)"
        )
        db.execute("CREATE INDEX t_b ON t (b)")
        db.execute(
            "INSERT INTO t VALUES (1, 'a0', 0.5, '2020-01-01'), (2, ?, 1.0, NULL)",
            ["f" * 4500],
        )
        return db

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    def test_column_by_column_updates_roll_back_exactly(self, tmp_path, storage):
        db = self._build_for_undo(tmp_path)
        before = _consistent_rows(db)
        db.transactions.begin()
        self._update_column_by_column(db)
        db.transactions.rollback()
        assert _consistent_rows(db) == before
        db2 = _crash_and_reopen(db, tmp_path)
        assert _consistent_rows(db2) == before
        db2.close()

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    def test_column_by_column_updates_undo_after_crash(self, tmp_path, storage):
        """The fuzzy checkpoint carries the undo log; the transaction
        never ends, so recovery undoes it from that snapshot."""
        db = self._build_for_undo(tmp_path)
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

    def _build(self, path=None) -> Database:
        db = build(path) if path is not None else Database()
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, g INTEGER, k INTEGER, "
            "s VARCHAR(3000))"
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

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    @pytest.mark.parametrize(
        "where, params",
        [("id = ?", [7]), ("k = ? AND g = ?", [7, 2])],
        ids=["one-column", "two-column"],
    )
    def test_update_by_unique_key_is_one_probe_and_one_fetch(
        self, storage, where, params
    ):
        db = self._build()
        index = "t_id" if where.startswith("id") else "t_kg"
        height = db.catalog.table("t").indexes[index].btree.height
        cost = self._cost(db, f"UPDATE t SET s = 'y' WHERE {where}", params)
        # The descent, the fetch that matches the row, the page it is
        # rewritten on — and nothing else.
        assert cost == {
            "rows": 1, "data": 2, "index": height,
            "fetches": 1, "searches": 1, "prefix_scans": 0,
        }

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    def test_multi_row_update_reads_each_row_twice(self, storage):
        db = self._build()
        cost = self._cost(db, "UPDATE t SET s = 'y' WHERE g = ?", [3])
        matched = self.ROWS // 5
        assert cost["rows"] == matched
        assert cost["data"] == 2 * matched  # fetch + rewrite per row
        assert cost["fetches"] == matched
        assert cost["prefix_scans"] == 1 and cost["searches"] == 0

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    def test_partial_unique_key_takes_the_prefix_scan(self, storage):
        db = self._build()
        cost = self._cost(db, "UPDATE t SET s = 'y' WHERE k = ?", [9])
        assert cost["rows"] == 1 and cost["fetches"] == 1
        assert cost["prefix_scans"] == 1 and cost["searches"] == 0

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    def test_delete_reads_its_row_once(self, storage):
        db = self._build()
        cost = self._cost(db, "DELETE FROM t WHERE id = ?", [9])
        assert (cost["rows"], cost["data"], cost["fetches"]) == (1, 2, 1)
        assert db.execute("SELECT COUNT(*) FROM t WHERE g = 4").scalar() == (
            self.ROWS // 5 - 1
        )

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    def test_null_key_parameter_updates_nothing(self, storage):
        db = self._build()
        db.execute("INSERT INTO t VALUES (-1, NULL, NULL, 'null-keyed')")
        for where, params in [("id = ?", [None]), ("k = ? AND g = ?", [None, None])]:
            cost = self._cost(db, f"UPDATE t SET s = 'y' WHERE {where}", params)
            assert cost["rows"] == 0
            # A key holding NULL matches nothing and reads nothing, as
            # the SELECT with the same WHERE does.
            assert cost["fetches"] == cost["searches"] == 0
            assert cost["prefix_scans"] == 0
            assert cost == self._cost(db, f"SELECT * FROM t WHERE {where}", params)
        assert db.execute("SELECT COUNT(*) FROM t WHERE s = 'y'").scalar() == 0
        assert db.execute("SELECT s FROM t WHERE id = -1").scalar() == "null-keyed"

    @staticmethod
    def _write(db: Database) -> None:
        db.execute("INSERT INTO t VALUES (1000, 1, 1000, 'new')")
        db.execute("UPDATE t SET g = 4, s = ? WHERE id = 3", ["m" * 2500])  # moves
        db.execute("UPDATE t SET s = 'z' WHERE g = 1")
        db.execute("DELETE FROM t WHERE id = 8 OR g = 2")

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    def test_rollback_restores_rows_and_indexes(self, tmp_path, storage):
        db = self._build(tmp_path)
        before = _consistent_rows(db)
        db.transactions.begin()
        self._write(db)
        db.transactions.rollback()
        assert _consistent_rows(db) == before
        db2 = _crash_and_reopen(db, tmp_path)
        assert _consistent_rows(db2) == before
        db2.close()

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    def test_redo_restores_rows_and_indexes(self, tmp_path, storage):
        db = self._build(tmp_path)
        assert db.checkpoint()
        self._write(db)
        live = _consistent_rows(db)
        db2 = _crash_and_reopen(db, tmp_path)
        assert _consistent_rows(db2) == live
        db2.close()

    def test_redo_of_an_update_reads_its_row_once(self, tmp_path):
        db = self._build(tmp_path)
        assert db.checkpoint()
        db.execute("UPDATE t SET s = 'after' WHERE id = 5")
        assert [r["t"] for r in _log_records(db)] == ["checkpoint", "upd", "commit"]
        db2 = _crash_and_reopen(db, tmp_path)
        assert db2.metrics.value("heap.fetches") == 1
        assert db2.execute("SELECT s FROM t WHERE id = 5").scalar() == "after"
        db2.close()


def _index_keys(db: Database, table: str = "t") -> dict[str, list[tuple]]:
    """Every index's keys, sorted (RIDs may differ between two states
    that hold the same rows)."""
    return {
        info.name: sorted(
            key
            for batch in info.btree.prefix_batches((), 1000)
            for key, _rid in batch
        )
        for info in db.catalog.table(table).indexes.values()
    }


class TestOneUndoRoutine:
    """``rollback()`` and recovery's undo of a transaction a crash left
    open over a checkpoint run one routine, ``TransactionManager.undo``,
    over one entry shape: every kind of write comes back the same."""

    def _build(self, path) -> Database:
        db = build(path)
        db.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, g INTEGER, s VARCHAR(3000))"
        )
        db.execute("CREATE UNIQUE INDEX t_id ON t (id)")
        db.execute("CREATE INDEX t_g ON t (g)")
        for i in range(12):  # one nearly full page
            db.execute("INSERT INTO t VALUES (?, ?, ?)", [i, i % 3, "x" * 600])
        return db

    @staticmethod
    def _write(db: Database) -> None:
        db.execute("INSERT INTO t VALUES (100, 1, 'new')")
        db.execute("DELETE FROM t WHERE id = 4")
        db.execute("UPDATE t SET g = 7 WHERE id = 5")  # a subset SET list
        db.execute("UPDATE t SET s = ? WHERE id = 6", ["m" * 2500])  # moves

    def test_checkpoint_loser_is_undone_as_rollback_undoes_it(self, tmp_path):
        rolled = self._build(tmp_path / "rolled")
        before = _consistent_rows(rolled), _index_keys(rolled)
        rolled.transactions.begin()
        self._write(rolled)
        rolled.transactions.rollback()
        after_rollback = _consistent_rows(rolled), _index_keys(rolled)
        assert after_rollback == before
        rolled.close()

        db = self._build(tmp_path / "crashed")
        db.transactions.begin()
        self._write(db)
        moved = db.transactions.serialize_active()["entries"][-1]
        assert moved[0] == "upd" and moved[2] != moved[4]
        assert db.checkpoint()  # carries all four undo entries
        db.execute("UPDATE t SET g = 9 WHERE id = 7")  # after it: skipped
        db2 = _crash_and_reopen(db, tmp_path / "crashed")
        assert db2.durability.recovery_info["losers"] == 1
        assert db2.metrics.value("txn.rolled_back") == 0
        assert (_consistent_rows(db2), _index_keys(db2)) == after_rollback
        db2.close()


class TestOneDdlPath:
    """A DDL record is its statement's SQL text, logged once after the
    statement applied; redo parses it and applies it through
    ``Database.apply_ddl``, the live path."""

    STATEMENTS = [
        "CREATE TABLE u (k INTEGER NOT NULL, v VARCHAR(10), d DATE, x DOUBLE)",
        "CREATE INDEX u_k ON u (k)",
        "CREATE UNIQUE INDEX u_kv ON u (k, v)",
        "DROP INDEX u_k ON u",
        "DROP TABLE u",
    ]

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_sql_text_reparses_to_an_equal_ast(self, sql):
        stmt = parse_statement(sql)
        assert parse_statement(stmt.sql()) == stmt

    @staticmethod
    def _catalog(db: Database) -> list[tuple]:
        return sorted(
            (
                table.name,
                [(c.name, c.type, c.not_null) for c in table.columns],
                sorted(
                    (info.name, info.column_names, info.unique)
                    for info in table.indexes.values()
                ),
            )
            for table in db.catalog.tables()
        ) + [("metadata_bytes", db.catalog.metadata_bytes)]

    def test_each_kind_in_and_out_of_an_admin_bracket_reopens(self, tmp_path):
        db = build(tmp_path)
        assert db.checkpoint()
        for sql in self.STATEMENTS:
            db.execute(sql)
        with db.admin_operation("ddl", {"done": 1}):
            for sql in self.STATEMENTS:
                db.execute(sql.replace(" u", " w"))
        for sql in self.STATEMENTS[:3]:  # leave a table behind
            db.execute(sql.replace(" u", " z"))
        ddl = [r for r in _log_records(db) if r["t"] == "ddl"]
        assert [r["sql"] for r in ddl] == (
            self.STATEMENTS
            + [sql.replace(" u", " w") for sql in self.STATEMENTS]
            + [sql.replace(" u", " z") for sql in self.STATEMENTS[:3]]
        )
        assert {frozenset(r) - {"admin"} for r in ddl} == {frozenset({"t", "sql"})}
        live = self._catalog(db)
        db2 = _crash_and_reopen(db, tmp_path)
        assert db2.durability.recovery_info["records_replayed"] == len(ddl)
        assert self._catalog(db2) == live
        db2.close()


# ---------------------------------------------------------------------------
# Crashpoint × layout property test
# ---------------------------------------------------------------------------

#: The seven layouts, plus ``private+columnar``: the private layout
#: again, under the id it had when it forced column pages onto a layout
#: that stored row-major heap pages.  Every table is on column pages
#: now; its node id still seeds a second sample of crashpoints.
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
    layout = layout.partition("+")[0]
    if layout in ("chunk", "chunk_folding"):
        options.setdefault("width", 3)
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


#: Where the matrix's workload starts: on the database that set the
#: tenants up, or on one that checkpointed, closed and was opened again —
#: a clean open, which adopts the checkpoint it read and writes nothing,
#: so the workload's first commit extends that checkpoint's log.
STARTS = ("fresh", "reopened clean")


def _started(
    path, layout: str, start: str, faults: FaultInjector
) -> tuple[Database, MultiTenantDatabase]:
    """The database and layer the workload runs on, the database
    opened with ``faults``."""
    if start == "fresh":
        db = Database(path=str(path), durability=DurabilityOptions(faults=faults))
        return db, _build_mtd(db, layout)
    db = Database(path=str(path))
    _build_mtd(db, layout)
    assert db.checkpoint()
    db.close()
    db = Database(path=str(path), durability=DurabilityOptions(faults=faults))
    assert not any(_open_writes(db).values()), _open_writes(db)
    return db, MultiTenantDatabase.recover(db)


def _crashpoint_schedule(
    tmp_path, layout: str, start: str, rng: random.Random
) -> list[int]:
    """Enumerate the crashpoint hits of the full workload (an unarmed
    injector only counts) and pick the first hit of every distinct
    crashpoint name, the final hit, and a few seeded extras — covering
    every crashpoint kind without running the full O(hits) matrix."""
    faults = FaultInjector()
    sequence: list[str] = []
    original = faults.crashpoint
    faults.crashpoint = lambda name: (sequence.append(name), original(name))[1]
    db, mtd = _started(tmp_path / f"enumerate-{start}", layout, start, faults)
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
    behaviours = _reference_behaviours(layout)
    for start in STARTS:
        schedule = _crashpoint_schedule(tmp_path, layout, start, replay_rng)
        assert schedule, "the workload must cross crashpoints"
        for hit in schedule:
            _crash_and_verify(
                tmp_path / f"{start}-crash-{hit}", layout, start, hit, behaviours
            )


def _crash_and_verify(path, layout, start, hit, behaviours) -> None:
    """Run the workload from ``start``, die at its ``hit``-th crashpoint,
    recover and hold the result to the model."""
    faults = FaultInjector()
    db, mtd = _started(path, layout, start, faults)
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
    assert observable_behaviour(mtd2) in legal, f"{start}: hit {hit} after {done} steps"
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


#: Layouts whose fragments store a Row column (Basic and Private Tables
#: keep plain conventional rows).
ROW_LAYOUTS = tuple(
    name for name in SEVEN_LAYOUTS if name not in ("private", "basic")
)


@pytest.mark.parametrize(
    "layout", [name for name in SEVEN_LAYOUTS if name != "private"]
)
def test_a_tenant_with_data_adds_no_layout_state(layout):
    """A tenant costs a shared layout's durable state nothing: it is
    kept per table or per extension, and Row-id counters are not part
    of it, so creating, filling and reading one more tenant with the
    extensions others already use leaves it as it was.  (Private
    Tables own one physical table per tenant by design.)"""
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
    assert mtd.layout.bookkeeping() == before


@pytest.mark.parametrize(
    "layout, recorded",
    [
        ("chunk", {"partitions": {}, "legacy_tenants": set()}),
        (
            "chunk_folding",
            {"next_chunk": {}, "extension_chunks": {}, "base_split": {}},
        ),
        ("basic", {"rows": {(1, "account"): 3}}),
    ],
    ids=["chunk", "chunk_folding", "rows"],
)
def test_layout_state_of_another_version_is_refused_by_name(
    tmp_path, layout, recorded
):
    """Before chunks were cut once per column group, the Chunk layout
    recorded a partition per tenant and Chunk Folding a per-table split;
    before Row-id counters seeded from the data, every layout recorded
    them under ``"rows"``.  A directory whose last admin call wrote such
    a state is refused at open with an error naming the layout, not a
    ``KeyError`` mid-way."""
    db = Database(path=str(tmp_path))
    mtd = _build_mtd(db, layout)
    state = mtd._durable_state()
    common = {key: state["default"][key] for key in ("columns", "created_tables")}
    with db.admin_operation(
        "define_table", {**state, "default": {**common, **recorded}}
    ):
        pass
    db.close()
    db2 = Database(path=str(tmp_path))
    with pytest.raises(CatalogError, match=f"the {layout} layout"):
        MultiTenantDatabase.recover(db2)
    db2.close()


def test_open_plans_per_anchor_shape_not_per_tenant(
    tmp_path, monkeypatch
):
    """``recover()`` runs no statement, whatever the tenant count: the
    Row-id counters are not restored, they seed on first use.  The
    first insert into every tenant then seeds through one prepared
    MAX(row) per anchor shape, not one freshly planned text per
    tenant × table."""

    def reopen_and_insert(tenants: int) -> tuple[dict, dict, int]:
        path = tmp_path / f"t{tenants}"
        db = Database(path=str(path))
        mtd = MultiTenantDatabase(layout="chunk_folding", db=db)
        mtd.define_table(_account_table())
        for tenant_id in range(tenants):
            mtd.create_tenant(tenant_id)
            mtd.insert(tenant_id, "account", {"aid": 1, "name": "n"})
        db.close()
        db2 = Database(path=str(path))
        plans = []
        plan_select = db2._planner.plan_select
        monkeypatch.setattr(
            db2._planner,
            "plan_select",
            lambda stmt: plans.append(stmt) or plan_select(stmt),
        )

        def counters() -> dict:
            return {
                name: db2.metrics.value(name)
                for name in (
                    "db.exec.statements",
                    "db.plan_cache.misses",
                    "db.plan_cache.adhoc",
                )
            } | {"plans": len(plans)}

        before = counters()
        recovered = MultiTenantDatabase.recover(db2)
        by_recover = {k: v - before[k] for k, v in counters().items()}
        before = counters()
        for tenant_id in range(tenants):
            assert recovered.insert(tenant_id, "account", {"aid": 2}) == 1
        by_inserts = {k: v - before[k] for k, v in counters().items()}
        shapes = len(recovered.layout.anchor_statements)
        db2.close()
        return by_recover, by_inserts, shapes

    nothing = {
        "db.exec.statements": 0,
        "db.plan_cache.misses": 0,
        "db.plan_cache.adhoc": 0,
        "plans": 0,
    }
    recover_4, inserts_4, shapes_4 = reopen_and_insert(4)
    recover_40, inserts_40, shapes_40 = reopen_and_insert(40)
    assert recover_4 == recover_40 == nothing
    assert shapes_4 == shapes_40 == 1
    assert inserts_4["plans"] == inserts_40["plans"] == 1
    for name in ("db.plan_cache.misses", "db.plan_cache.adhoc"):
        assert inserts_4[name] == inserts_40[name]


def _anchor_row_ids(mtd: MultiTenantDatabase, tenant_id: int) -> list[int]:
    """Every Row id stored in the tenant's account anchor, Trashcan
    rows included, read without going through the layer."""
    anchor = mtd.layout_for(tenant_id).fragments(tenant_id, "account")[0]
    where = " AND ".join(f"{column} = ?" for column, _ in anchor.meta)
    return sorted(
        row[0]
        for row in mtd.db.execute(
            f"SELECT {anchor.row_column} FROM {anchor.table} WHERE {where}",
            [value for _, value in anchor.meta],
        ).rows
    )


@pytest.mark.parametrize("layout", ROW_LAYOUTS)
def test_reopened_allocator_starts_above_every_stored_row(tmp_path, layout):
    """After close and reopen the next Row id is above every stored one,
    also when the top row sits in the Trashcan (soft delete keeps it
    stored, so its id must not be handed out again)."""
    db = Database(path=str(tmp_path))
    mtd = _build_mtd(db, layout, soft_delete=True)
    for aid in range(4):
        mtd.insert(1, "account", {"aid": aid, "name": f"a{aid}"})
    mtd.execute(1, "DELETE FROM account WHERE aid = 3")
    stored = _anchor_row_ids(mtd, 1)
    assert stored == [0, 1, 2, 3]
    db.close()
    recovered = MultiTenantDatabase.recover(Database(path=str(tmp_path)))
    assert recovered.insert(1, "account", {"aid": 9, "name": "z"}) > max(stored)
    assert recovered.insert(2, "account", {"aid": 9, "name": "z"}) == 0
    recovered.db.close()


@pytest.mark.parametrize("layout", ROW_LAYOUTS)
def test_explicit_row_id_below_the_top_then_a_plain_insert(tmp_path, layout):
    """On a reopened database an explicit ``row_id=`` below the stored
    top must not pull the counter under it: the plain insert that
    follows gets a fresh id, and every fragment still holds the same
    Row-id set (LAY006)."""
    db = Database(path=str(tmp_path))
    mtd = _build_mtd(db, layout)
    mtd.grant_extension(1, "healthcare")
    row = {"aid": 0, "name": "a", "beds": 1}
    for aid in range(4):
        mtd.insert(1, "account", {**row, "aid": aid})
    mtd.execute(1, "DELETE FROM account WHERE aid = 1")
    assert _anchor_row_ids(mtd, 1) == [0, 2, 3]
    db.close()
    recovered = MultiTenantDatabase.recover(Database(path=str(tmp_path)))
    assert recovered.insert(1, "account", {**row, "aid": 11}, row_id=1) == 1
    assert recovered.insert(1, "account", {**row, "aid": 12}) == 4
    assert _anchor_row_ids(recovered, 1) == [0, 1, 2, 3, 4]
    assert check_row_alignment(recovered).findings == []
    assert sorted(
        recovered.execute(1, "SELECT aid FROM account").rows
    ) == [(0,), (2,), (3,), (11,), (12,)]
    recovered.db.close()
