"""Durability economics: WAL overhead and recovery time.

Not a paper figure — this charts the cost of the durability subsystem
the engine gained for the cold-cache experiments: what write-ahead
logging adds to a DML workload relative to the in-memory engine, how
group commit amortizes fsyncs, and how recovery time scales with the
length of the log that must be replayed (checkpoints bound it).

The UPDATE section logs one-column UPDATEs of a wide table — the shape
of the paper's Update-Light/Heavy actions on a chunk or universal
table.  Its record carries the assigned column, not the row, so its
bytes are gated against the two-full-image record it replaced; redo
then has to fetch the row it patches, and the report shows that cost
(heap fetches and milliseconds during recovery) beside the bytes.
"""

from __future__ import annotations

import shutil
import tempfile
import time

import pytest

from repro.engine.database import Database
from repro.engine.durability import DurabilityOptions

ROWS = 400

#: Post-checkpoint insert counts for the recovery-time sweep.
LOG_LENGTHS = (0, 200, 800)

#: Columns of the UPDATE section's table, ``id`` included.
WIDE_COLUMNS = 20

#: Post-checkpoint one-column UPDATE counts for the UPDATE sweep.
UPDATE_LOG_LENGTHS = (200, 800)

#: WAL bytes per UPDATE of this section's workload (its ``upd`` record
#: plus the commit terminal) when an ``upd`` record pickled the whole
#: old row and the whole new row.
FULL_IMAGE_UPDATE_BYTES = 489


def _workload(db: Database, rows: int = ROWS, offset: int = 0) -> None:
    for i in range(offset, offset + rows):
        db.execute(
            "INSERT INTO events VALUES (?, ?, ?)",
            [i, f"payload-{i}", i % 7],
        )


def _build(path: str | None, group_commit: int = 1) -> Database:
    db = Database(
        path=path,
        durability=DurabilityOptions(group_commit=group_commit),
    )
    db.execute(
        "CREATE TABLE events (id INTEGER NOT NULL, "
        "payload VARCHAR(40), bucket INTEGER)"
    )
    db.execute("CREATE INDEX events_id ON events (id)")
    return db


@pytest.fixture(scope="module")
def wal_overhead():
    """Wall-clock of the same workload, in-memory vs durable (group
    commit 1 and 64), plus the durable runs' WAL statistics."""
    out = {}
    memory = _build(None)
    start = time.perf_counter()
    _workload(memory)
    out["memory"] = (time.perf_counter() - start, None)
    for group_commit in (1, 64):
        directory = tempfile.mkdtemp(prefix="repro-bench-wal-")
        try:
            db = _build(directory, group_commit)
            start = time.perf_counter()
            _workload(db)
            elapsed = time.perf_counter() - start
            out[f"wal-gc{group_commit}"] = (elapsed, db.wal_stats)
            db.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return out


@pytest.fixture(scope="module")
def recovery_sweep():
    """Recovery time and replayed-record counts vs log length."""
    points = []
    for log_length in LOG_LENGTHS:
        directory = tempfile.mkdtemp(prefix="repro-bench-recovery-")
        try:
            db = _build(directory)
            _workload(db)
            db.checkpoint()
            _workload(db, rows=log_length, offset=ROWS)
            db.durability.wal.flush()
            del db  # crash: no close, no final checkpoint
            reopened = Database(path=directory)
            points.append((log_length, dict(reopened.durability.recovery_info)))
            reopened.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return points


def _build_wide(path: str) -> Database:
    # No auto-checkpoint: the whole post-checkpoint log must replay.
    db = Database(
        path=path, durability=DurabilityOptions(auto_checkpoint_bytes=0)
    )
    names = [f"c{i}" for i in range(1, WIDE_COLUMNS)]
    db.execute(
        "CREATE TABLE wide (id INTEGER NOT NULL, "
        + ", ".join(f"{name} VARCHAR(20)" for name in names)
        + ")"
    )
    db.execute("CREATE UNIQUE INDEX wide_id ON wide (id)")
    insert = f"INSERT INTO wide VALUES (?{', ?' * len(names)})"
    for i in range(ROWS):
        db.execute(insert, [i] + [f"{name}-value-{i}" for name in names])
    return db


def _update(db: Database, count: int) -> None:
    for i in range(count):
        db.execute(
            "UPDATE wide SET c7 = ? WHERE id = ?", [f"update-{i}", i % ROWS]
        )


@pytest.fixture(scope="module")
def update_sweep():
    """Per post-checkpoint UPDATE count: WAL bytes per UPDATE, and what
    recovering that log cost (replayed records, heap fetches, ms)."""
    points = []
    for log_length in UPDATE_LOG_LENGTHS:
        directory = tempfile.mkdtemp(prefix="repro-bench-update-")
        try:
            db = _build_wide(directory)
            db.checkpoint()
            _update(db, log_length)
            logged = db.durability.wal.bytes_since_checkpoint
            expected = db.execute("SELECT id, c7 FROM wide ORDER BY id").rows
            del db  # crash: no close, no final checkpoint
            reopened = Database(path=directory)
            info = dict(reopened.durability.recovery_info)
            info["bytes_per_update"] = logged / log_length
            info["heap_fetches"] = reopened.metrics.value("heap.fetches")
            info["recovered"] = (
                reopened.execute("SELECT id, c7 FROM wide ORDER BY id").rows
                == expected
            )
            points.append((log_length, info))
            reopened.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return points


class TestRecoveryBench:
    def test_report(
        self, benchmark, wal_overhead, recovery_sweep, update_sweep, report
    ):
        lines = ["Durability: WAL overhead and recovery time", ""]
        memory_s = wal_overhead["memory"][0]
        for label, (elapsed, stats) in wal_overhead.items():
            line = f"{label:10s} {ROWS} inserts in {elapsed * 1e3:8.1f} ms"
            if stats is not None:
                line += (
                    f"  (x{elapsed / memory_s:.1f} vs memory; "
                    f"wal bytes={stats.bytes_written} fsyncs={stats.fsyncs})"
                )
            lines.append(line)
        lines.append("")
        for log_length, info in recovery_sweep:
            lines.append(
                f"log={log_length:4d} post-checkpoint inserts: "
                f"replayed={info['records_replayed']:5d} "
                f"recovery={info['ms']:7.2f} ms"
            )
        lines += [
            "",
            f"One-column UPDATEs of a {WIDE_COLUMNS}-column table "
            f"({ROWS} rows); full-image record: "
            f"{FULL_IMAGE_UPDATE_BYTES} wal bytes/update",
        ]
        for log_length, info in update_sweep:
            lines.append(
                f"log={log_length:4d} post-checkpoint updates: "
                f"wal bytes/update={info['bytes_per_update']:6.1f} "
                f"(x{FULL_IMAGE_UPDATE_BYTES / info['bytes_per_update']:.2f} "
                f"less) replayed={info['records_replayed']:5d} "
                f"heap fetches={info['heap_fetches']:5d} "
                f"recovery={info['ms']:7.2f} ms"
            )
        benchmark.pedantic(lambda: None, rounds=1)
        report("recovery", "\n".join(lines))

    def test_group_commit_batches_fsyncs(self, wal_overhead):
        eager = wal_overhead["wal-gc1"][1]
        batched = wal_overhead["wal-gc64"][1]
        assert batched.fsyncs < eager.fsyncs / 4

    def test_replay_scales_with_log_length(self, recovery_sweep):
        replayed = [info["records_replayed"] for _, info in recovery_sweep]
        assert replayed == sorted(replayed)
        # A checkpoint-anchored log replays (almost) nothing.
        assert replayed[0] <= 2

    def test_recovery_replays_committed_rows(self, recovery_sweep):
        for _log_length, info in recovery_sweep:
            assert info["losers"] == 0
            assert info["checkpoint_restored"]

    def test_update_logs_its_set_list_not_the_row(self, update_sweep):
        """Bytes only — never milliseconds: a third of the full-image
        record at most, and every logged UPDATE replays to the state
        the crash interrupted."""
        for log_length, info in update_sweep:
            assert info["bytes_per_update"] <= FULL_IMAGE_UPDATE_BYTES / 3
            assert info["records_replayed"] == log_length
            assert info["recovered"]

    def test_benchmark_recovery(self, benchmark):
        directory = tempfile.mkdtemp(prefix="repro-bench-reopen-")
        try:
            db = _build(directory)
            _workload(db)
            db.durability.wal.flush()
            del db

            def reopen():
                Database(path=directory).close()

            benchmark(reopen)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
