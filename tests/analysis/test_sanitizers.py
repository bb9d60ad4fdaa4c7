"""Dynamic sanitizer (CON rules): clean runs stay clean, each seeded
defect is caught by exactly the rule built for it."""

import pytest

from repro.analysis.sanitizers import (
    MUTATE_SKIP_APPEND,
    Sanitizer,
    env_sanitize_enabled,
    run_sanitized_scenario,
)
from repro.engine.database import Database
from repro.engine.durability import DurabilityOptions
from repro.engine.errors import UniqueViolation


@pytest.fixture()
def sdb(tmp_path):
    db = Database(path=str(tmp_path / "db"), sanitize=True)
    yield db
    db.close()


class TestScenarioGate:
    def test_clean_scenario_reports_nothing(self):
        report, overhead = run_sanitized_scenario()
        assert report.ok
        assert report.findings == []
        assert report.checked > 0
        # The acceptance budget is < 3x; leave headroom for CI noise.
        assert overhead < 3.0

    def test_skip_wal_append_mutation_fires_con002(self):
        report, _ = run_sanitized_scenario(mutate=MUTATE_SKIP_APPEND)
        rules = report.by_rule()
        assert rules.get("CON002", 0) >= 1
        assert not report.ok


class TestWriteAheadChecks:
    def test_normal_dml_is_covered(self, sdb):
        sdb.execute("CREATE TABLE t (id INTEGER NOT NULL)")
        sdb.execute("INSERT INTO t VALUES (1)")
        sdb.execute("UPDATE t SET id = 2 WHERE id = 1")
        sdb.execute("DELETE FROM t WHERE id = 2")
        assert sdb.sanitizer.report.ok

    @pytest.mark.parametrize("mutate", [None, MUTATE_SKIP_APPEND])
    def test_refused_writes_report_nothing(self, tmp_path, mutate):
        """A write a unique index refuses is undone before it logs
        anything: the table is unchanged, so no CON002 — while a write
        that lands with its append skipped still trips it."""
        db = Database(
            path=str(tmp_path / "db"),
            sanitize=True,
            durability=DurabilityOptions(mutate=mutate),
        )
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        db.execute("CREATE UNIQUE INDEX t_a ON t (a)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        db.sanitizer.report.findings.clear()
        for refused in (
            "INSERT INTO t VALUES (1, 30)",
            "UPDATE t SET a = 1 WHERE a = 2",
        ):
            with pytest.raises(UniqueViolation):
                db.execute(refused)
        assert db.sanitizer.report.findings == []
        assert sorted(db.execute("SELECT a, b FROM t").rows) == [(1, 10), (2, 20)]
        db.execute("UPDATE t SET b = 21 WHERE a = 2")
        expected = 0 if mutate is None else 1
        assert db.sanitizer.report.by_rule().get("CON002", 0) == expected
        db.close()

    def test_skipped_append_is_caught_per_statement(self, tmp_path):
        db = Database(
            path=str(tmp_path / "mut"),
            sanitize=True,
            durability=DurabilityOptions(mutate=MUTATE_SKIP_APPEND),
        )
        db.execute("CREATE TABLE t (id INTEGER NOT NULL)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.sanitizer.report.by_rule().get("CON002") == 1
        db.close()

    def test_recovery_replay_is_not_a_violation(self, tmp_path):
        """Replay re-applies heap mutations with logging suppressed —
        by design, not a write-ahead violation."""
        path = str(tmp_path / "recov")
        db = Database(path=path)
        db.execute("CREATE TABLE t (id INTEGER NOT NULL)")
        db.execute("INSERT INTO t VALUES (1)")
        db.close()
        recovered = Database(path=path, sanitize=True)
        assert recovered.execute("SELECT id FROM t").rows == [(1,)]
        assert recovered.sanitizer.report.ok
        recovered.close()


class TestLocksetRaces:
    def test_disjoint_locksets_report_once(self):
        db = Database(sanitize=True)
        db.execute("CREATE TABLE t (id INTEGER NOT NULL)")
        db.execute("CREATE UNIQUE INDEX t_pk ON t (id)")
        db.execute("INSERT INTO t VALUES (1)")
        for worker in (1, 2, 1, 2):
            db.locks.acquire(worker, ("mine", worker), exclusive=True)
            db.execute("UPDATE t SET id = 1 WHERE id = 1")
            db.locks.release_session(worker)
        rules = db.sanitizer.report.by_rule()
        assert rules.get("CON001", 0) == 1  # reported once per resource

    def test_common_lock_is_clean(self):
        db = Database(sanitize=True)
        db.execute("CREATE TABLE t (id INTEGER NOT NULL)")
        db.execute("CREATE UNIQUE INDEX t_pk ON t (id)")
        db.execute("INSERT INTO t VALUES (1)")
        for worker in (1, 2, 3):
            db.locks.acquire(worker, ("rows", "t", 1), exclusive=True)
            db.execute("UPDATE t SET id = 1 WHERE id = 1")
            db.locks.release_session(worker)
        assert db.sanitizer.report.ok

    def test_single_session_never_reports(self):
        db = Database(sanitize=True)
        db.execute("CREATE TABLE t (id INTEGER NOT NULL)")
        for i in range(5):
            db.execute("INSERT INTO t VALUES (?)", [i])
        db.execute("UPDATE t SET id = 9 WHERE id = 0")
        assert db.sanitizer.report.ok


class TestLeakChecks:
    def test_unreleased_session_reports_con005(self, sdb):
        sdb.locks.acquire(7, ("table", "t"), exclusive=True)
        sdb.close()
        assert sdb.sanitizer.report.by_rule().get("CON005") == 1

    def test_open_transaction_reports_con006(self, sdb):
        sdb.execute("CREATE TABLE t (id INTEGER NOT NULL)")
        sdb.execute("BEGIN")
        sdb.execute("INSERT INTO t VALUES (1)")
        sdb.close()
        assert sdb.sanitizer.report.by_rule().get("CON006") == 1

    def test_leaked_pin_reports_con004(self, sdb):
        sdb.execute("CREATE TABLE t (id INTEGER NOT NULL)")
        sdb.execute("INSERT INTO t VALUES (1)")
        page_id = next(iter(sdb.pool._frames))
        sdb.pool.read(page_id, pin=True)  # never unpinned
        sdb.execute("INSERT INTO t VALUES (2)")
        assert sdb.sanitizer.report.by_rule().get("CON004") == 1
        # Reported once, not once per following statement.
        sdb.execute("INSERT INTO t VALUES (3)")
        assert sdb.sanitizer.report.by_rule().get("CON004") == 1


class TestWiring:
    def test_env_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not env_sanitize_enabled()
        assert Database().sanitizer is None
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert env_sanitize_enabled()
        assert Database().sanitizer is not None
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not env_sanitize_enabled()

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Database(sanitize=False).sanitizer is None

    def test_attach_points(self):
        db = Database(sanitize=True)
        assert isinstance(db.sanitizer, Sanitizer)
        assert db.locks.sanitizer is db.sanitizer
        assert db.pool.sanitizer is db.sanitizer
        assert db.transactions.sanitizer is db.sanitizer

    def test_findings_feed_metrics(self, sdb):
        sdb.locks.acquire(5, ("table", "x"), exclusive=True)
        sdb.close()
        assert sdb.metrics.value("analysis.rule.CON005") == 1
        assert sdb.metrics.value("analysis.sanitizer.findings") == 1
