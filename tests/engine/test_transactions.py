"""Tests for BEGIN / COMMIT / ROLLBACK and the logical undo log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database
from repro.engine.errors import EngineError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, val INTEGER, tag VARCHAR(10))"
    )
    database.execute("CREATE UNIQUE INDEX t_pk ON t (id)")
    for i in range(1, 6):
        database.execute("INSERT INTO t VALUES (?, ?, ?)", [i, i * 10, "base"])
    return database


def dump(db):
    return sorted(db.execute("SELECT * FROM t").rows)


class TestLifecycle:
    def test_commit_keeps_changes(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (9, 90, 'tx')")
        db.execute("COMMIT")
        assert (9, 90, "tx") in dump(db)

    def test_rollback_undoes_insert(self, db):
        before = dump(db)
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (9, 90, 'tx')")
        db.execute("ROLLBACK")
        assert dump(db) == before

    def test_rollback_undoes_update(self, db):
        before = dump(db)
        db.execute("BEGIN")
        db.execute("UPDATE t SET val = val + 1000")
        db.execute("ROLLBACK")
        assert dump(db) == before

    def test_rollback_undoes_delete(self, db):
        before = dump(db)
        db.execute("BEGIN")
        db.execute("DELETE FROM t WHERE id <= 3")
        db.execute("ROLLBACK")
        assert dump(db) == before

    def test_rollback_undoes_mixed_sequence(self, db):
        before = dump(db)
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (7, 70, 'a')")
        db.execute("UPDATE t SET val = 0 WHERE id = 7")
        db.execute("DELETE FROM t WHERE id = 2")
        db.execute("UPDATE t SET tag = 'x' WHERE id = 1")
        db.execute("ROLLBACK")
        assert dump(db) == before

    def test_rollback_restores_index_consistency(self, db):
        db.execute("BEGIN")
        db.execute("UPDATE t SET id = 99 WHERE id = 1")
        db.execute("ROLLBACK")
        assert db.execute("SELECT val FROM t WHERE id = 1").rows == [(10,)]
        assert db.execute("SELECT val FROM t WHERE id = 99").rows == []

    def test_insert_then_delete_same_row_rolls_back(self, db):
        before = dump(db)
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (8, 80, 'temp')")
        db.execute("DELETE FROM t WHERE id = 8")
        db.execute("ROLLBACK")
        assert dump(db) == before

    def test_delete_then_reinsert_rolls_back(self, db):
        before = dump(db)
        db.execute("BEGIN")
        db.execute("DELETE FROM t WHERE id = 3")
        db.execute("INSERT INTO t VALUES (3, 999, 'new')")
        db.execute("ROLLBACK")
        assert dump(db) == before


class TestErrors:
    def test_nested_begin_rejected(self, db):
        db.execute("BEGIN")
        with pytest.raises(EngineError):
            db.execute("BEGIN")

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(EngineError):
            db.execute("COMMIT")

    def test_rollback_without_begin_rejected(self, db):
        with pytest.raises(EngineError):
            db.execute("ROLLBACK")

    def test_autocommit_outside_transaction(self, db):
        db.execute("INSERT INTO t VALUES (42, 0, 'auto')")
        assert not db.transactions.active
        assert (42, 0, "auto") in dump(db)

    def test_ddl_commits_open_transaction(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (55, 0, 'ddl')")
        db.execute("CREATE TABLE other (x INTEGER)")
        assert not db.transactions.active
        assert (55, 0, "ddl") in dump(db)  # implicit commit kept it

    def test_counters(self, db):
        db.execute("BEGIN")
        db.execute("COMMIT")
        db.execute("BEGIN")
        db.execute("ROLLBACK")
        assert db.metrics.value("txn.committed") == 1
        assert db.metrics.value("txn.rolled_back") == 1


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(100, 130), st.integers(0, 9)),
                st.tuples(st.just("update"), st.integers(1, 5), st.integers(0, 99)),
                st.tuples(st.just("delete"), st.integers(1, 5), st.just(0)),
                st.tuples(st.just("bump_all"), st.just(0), st.integers(1, 5)),
            ),
            max_size=12,
        )
    )
    def test_rollback_always_restores_state(self, ops):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER NOT NULL, val INTEGER)")
        db.execute("CREATE UNIQUE INDEX t_pk ON t (id)")
        for i in range(1, 6):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, i])
        before = sorted(db.execute("SELECT * FROM t").rows)
        db.execute("BEGIN")
        inserted = set(range(1, 6))
        for kind, a, b in ops:
            if kind == "insert" and a not in inserted:
                db.execute("INSERT INTO t VALUES (?, ?)", [a, b])
                inserted.add(a)
            elif kind == "update":
                db.execute("UPDATE t SET val = ? WHERE id = ?", [b, a])
            elif kind == "delete":
                db.execute("DELETE FROM t WHERE id = ?", [a])
            elif kind == "bump_all":
                db.execute("UPDATE t SET val = val + ?", [b])
        db.execute("ROLLBACK")
        assert sorted(db.execute("SELECT * FROM t").rows) == before
        # Point lookups through the index still work for every row.
        for row_id, val in before:
            assert db.execute(
                "SELECT val FROM t WHERE id = ?", [row_id]
            ).rows == [(val,)]
