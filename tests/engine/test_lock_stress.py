"""Lock/transaction stress: interleaved workers, no lost updates.

The engine supports one open transaction at a time (§4.2: a transaction
spans at most one user request), so concurrency is modelled the way the
testbed does it — workers take turns running complete transactions
against shared rows while the lock table accounts conflicts and waits.
The invariants: read-modify-write increments are never lost, rolled-back
work leaves no trace, and every lock metric is non-negative and
monotonically non-decreasing across the whole run.
"""


import pytest

from repro.engine import Database


WORKERS = 4
ROUNDS = 30
ROWS = 3


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE counters (id INTEGER NOT NULL, value INTEGER NOT NULL)"
    )
    database.execute("CREATE UNIQUE INDEX counters_pk ON counters (id)")
    for row_id in range(ROWS):
        database.execute("INSERT INTO counters VALUES (?, ?)", [row_id, 0])
    return database


def read_value(db, row_id):
    return db.execute(
        "SELECT value FROM counters WHERE id = ?", [row_id]
    ).scalar()


class TestInterleavedTransactions:
    def test_no_lost_updates(self, db, replay_rng):
        """Round-robin read-modify-write increments; every committed
        increment must be visible in the final state, every rolled-back
        one must not."""
        rng = replay_rng
        committed = {row_id: 0 for row_id in range(ROWS)}
        snapshots = []
        for _round_no in range(ROUNDS):
            for worker in range(WORKERS):
                row_id = rng.randrange(ROWS)
                db.execute("BEGIN")
                # Lock accounting mirrors the testbed: an exclusive
                # row lock per writer; overlap with other workers'
                # most recent footprint counts as conflicts.
                conflicts = db.locks.acquire(
                    worker, ("rows", "counters", row_id), exclusive=True
                )
                if conflicts:
                    db.locks.record_wait(conflicts, conflicts * 2.5)
                current = read_value(db, row_id)
                db.execute(
                    "UPDATE counters SET value = ? WHERE id = ?",
                    [current + 1, row_id],
                )
                if rng.random() < 0.25:
                    db.execute("ROLLBACK")
                else:
                    db.execute("COMMIT")
                    committed[row_id] += 1
                db.locks.release_session(worker)
                snapshots.append(db.locks.stats.snapshot())
        for row_id in range(ROWS):
            assert read_value(db, row_id) == committed[row_id]

        # Lock metrics: non-negative, monotonic across the run.
        previous = None
        for snap in snapshots:
            assert snap.acquisitions >= 0
            assert snap.conflicts >= 0
            assert snap.waits >= 0
            assert snap.wait_ms >= 0.0
            if previous is not None:
                delta = snap.delta(previous)
                assert delta.acquisitions >= 0
                assert delta.conflicts >= 0
                assert delta.waits >= 0
                assert delta.wait_ms >= 0.0
            previous = snap
        final = snapshots[-1]
        assert final.acquisitions == WORKERS * ROUNDS
        assert final.waits <= final.conflicts

    def test_record_wait_observes_mean_wait(self, db):
        db.locks.record_wait(2, 7.0)
        histogram = db.metrics.histogram("locks.wait_duration_ms")
        assert histogram.count == 1
        assert histogram.mean == pytest.approx(3.5)

    def test_record_wait_rejects_negative(self, db):
        with pytest.raises(ValueError):
            db.locks.record_wait(-1, 0.0)
        with pytest.raises(ValueError):
            db.locks.record_wait(1, -0.5)

    def test_sanitized_run_stays_clean(self, db):
        """The no-lost-updates discipline (row locks for every access)
        must produce zero sanitizer findings."""
        from repro.analysis.sanitizers import Sanitizer

        sanitizer = Sanitizer(metrics=db.metrics)
        sanitizer.attach(db)
        for iteration in range(12):
            worker = 1 + iteration % WORKERS
            row_id = iteration % ROWS
            db.execute("BEGIN")
            db.locks.acquire(worker, ("rows", "counters", row_id), exclusive=True)
            current = read_value(db, row_id)
            db.execute(
                "UPDATE counters SET value = ? WHERE id = ?",
                [current + 1, row_id],
            )
            db.execute("COMMIT")
            db.locks.release_session(worker)
        assert sanitizer.report.ok
        assert sanitizer.report.findings == []

    def test_sanitizer_flags_unlocked_sharing(self, db):
        """Two sessions writing the same row with no common lock is the
        lockset race CON001 exists for."""
        from repro.analysis.sanitizers import Sanitizer

        sanitizer = Sanitizer()
        sanitizer.attach(db)
        # Three accesses: the candidate lockset seeds at the second
        # session's locks and refines to empty on the third (Eraser
        # can't know the first accessor's locks retroactively).
        for worker in (1, 2, 1):
            db.locks.acquire(worker, ("private", worker), exclusive=True)
            current = read_value(db, 0)
            db.execute(
                "UPDATE counters SET value = ? WHERE id = ?", [current + 1, 0]
            )
            db.locks.release_session(worker)
        rules = sanitizer.report.by_rule()
        assert rules.get("CON001", 0) >= 1

    def test_rollback_storm_preserves_consistency(self, db):
        """Alternating commit/rollback across workers sharing one row:
        the value advances exactly once per committed transaction even
        when every other transaction aborts mid-flight."""
        for iteration in range(20):
            worker = iteration % WORKERS
            db.execute("BEGIN")
            db.locks.acquire(worker, ("rows", "counters", 0), exclusive=True)
            current = read_value(db, 0)
            db.execute(
                "UPDATE counters SET value = ? WHERE id = ?", [current + 1, 0]
            )
            db.execute("ROLLBACK" if iteration % 2 else "COMMIT")
            db.locks.release_session(worker)
        assert read_value(db, 0) == 10
        assert db.metrics.value("txn.committed") == 10
        assert db.metrics.value("txn.rolled_back") == 10


class TestLockTableEdgeCases:
    def test_shared_to_exclusive_upgrade_accounting(self, db):
        """A session converting its shared hold to exclusive is an
        upgrade, not a fresh hold: one resource entry, mode sticky at
        exclusive, ``stats.upgrades`` ticks once."""
        locks = db.locks
        resource = ("table", "counters")
        locks.acquire(1, resource, exclusive=False)
        assert locks.stats.upgrades == 0
        locks.acquire(1, resource, exclusive=True)
        assert locks.stats.upgrades == 1
        assert db.metrics.value("locks.upgrades") == 1
        assert locks.held_by(1) == 1
        # A later shared request must not downgrade the exclusive hold:
        # a second session now conflicts.
        locks.acquire(1, resource, exclusive=False)
        assert locks.stats.upgrades == 1  # no double count
        assert locks.acquire(2, resource, exclusive=False) == 1

    def test_exclusive_stays_exclusive_no_upgrade(self, db):
        locks = db.locks
        locks.acquire(1, ("r", 1), exclusive=True)
        locks.acquire(1, ("r", 1), exclusive=True)
        assert locks.stats.upgrades == 0
        assert locks.stats.acquisitions == 2

    def test_release_session_clears_empty_entries(self, db):
        """``_holders`` must not accumulate dead resource keys after
        the last holder leaves."""
        locks = db.locks
        locks.acquire(1, ("r", 1), exclusive=True)
        locks.acquire(1, ("r", 2), exclusive=False)
        locks.acquire(2, ("r", 2), exclusive=False)
        locks.release_session(1)
        assert ("r", 1) not in locks._holders
        assert ("r", 2) in locks._holders  # session 2 still holds it
        locks.release_session(2)
        assert locks._holders == {}

    def test_single_release_clears_empty_entry(self, db):
        locks = db.locks
        locks.acquire(1, ("r", 1), exclusive=True)
        assert locks.release(1, ("r", 1)) is True
        assert locks._holders == {}
        assert locks.release(1, ("r", 1)) is False
        assert locks.release(9, ("never", "held")) is False

    def test_held_by_under_reentrant_acquires(self, db):
        """Re-entrant acquires of one resource count as one hold."""
        locks = db.locks
        for _ in range(5):
            locks.acquire(3, ("r", "a"), exclusive=False)
        locks.acquire(3, ("r", "b"), exclusive=True)
        assert locks.held_by(3) == 2
        assert locks.resources_held(3) == [("r", "a"), ("r", "b")]
        locks.release(3, ("r", "a"))
        assert locks.held_by(3) == 1
        locks.release_session(3)
        assert locks.held_by(3) == 0
