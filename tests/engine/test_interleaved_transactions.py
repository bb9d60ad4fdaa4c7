"""Interleaved transactions: workers take turns, no lost updates.

The engine supports one open transaction at a time (§4.2: a transaction
spans at most one user request), so concurrency is modelled the way the
testbed does it — workers take turns running complete transactions
against shared rows.  The invariants: read-modify-write increments are
never lost, and rolled-back work leaves no trace.
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
        for _round_no in range(ROUNDS):
            for _worker in range(WORKERS):
                row_id = rng.randrange(ROWS)
                db.execute("BEGIN")
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
        for row_id in range(ROWS):
            assert read_value(db, row_id) == committed[row_id]

    def test_sanitized_run_stays_clean(self, db):
        """Committed read-modify-writes must produce zero sanitizer
        findings."""
        from repro.analysis.sanitizers import Sanitizer

        sanitizer = Sanitizer(metrics=db.metrics)
        sanitizer.attach(db)
        for iteration in range(12):
            row_id = iteration % ROWS
            db.execute("BEGIN")
            current = read_value(db, row_id)
            db.execute(
                "UPDATE counters SET value = ? WHERE id = ?",
                [current + 1, row_id],
            )
            db.execute("COMMIT")
        assert sanitizer.report.ok
        assert sanitizer.report.findings == []

    def test_rollback_storm_preserves_consistency(self, db):
        """Alternating commit/rollback across workers sharing one row:
        the value advances exactly once per committed transaction even
        when every other transaction aborts mid-flight."""
        for iteration in range(20):
            db.execute("BEGIN")
            current = read_value(db, 0)
            db.execute(
                "UPDATE counters SET value = ? WHERE id = ?", [current + 1, 0]
            )
            db.execute("ROLLBACK" if iteration % 2 else "COMMIT")
        assert read_value(db, 0) == 10
        assert db.metrics.value("txn.committed") == 10
        assert db.metrics.value("txn.rolled_back") == 10
