"""Tests for §6.3 DML transformation: fan-out, buffered two-phase
updates, the Trashcan (soft delete), and restore."""

import datetime

import pytest

from repro import Extension, LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.engine import Database
from repro.engine.errors import (
    NotNullViolation,
    PlanError,
    TypeMismatchError,
    UnknownObjectError,
)
from repro.engine.sql import ast
from repro.engine.values import BOOLEAN, INTEGER, varchar
from repro.testbed.actions import HEAVY_BATCH
from repro.testbed.crm import crm_tables

from .conftest import ALL_LAYOUTS, account_table, build_running_example


class TestInsertFanOut:
    def test_pivot_insert_fans_out_per_column(self):
        """A Pivot Table gives 'each field of each row its own row'."""
        mtd = build_running_example("pivot")
        counts = {
            t.name: t.row_count
            for t in mtd.db.catalog.tables()
            if t.name.startswith("pivot")
        }
        # 4 logical rows; tenant 17 has 5 columns x 2 rows, 35 has 3,
        # 42 has 4 -> 5*2 + 3 + 4 = 17 physical rows in total.
        assert sum(counts.values()) == 17

    def test_chunk_insert_writes_each_chunk(self):
        mtd = build_running_example("chunk", width=1)
        total = sum(
            t.row_count
            for t in mtd.db.catalog.tables()
            if t.name.startswith("chunk_")
        )
        assert total == 17  # same arithmetic as pivot at width 1

    def test_unknown_insert_column_rejected(self):
        mtd = build_running_example("chunk")
        with pytest.raises(UnknownObjectError):
            mtd.insert(35, "account", {"aid": 5, "bogus": 1})

    def test_extension_column_rejected_without_grant(self):
        mtd = build_running_example("chunk")
        with pytest.raises(UnknownObjectError):
            mtd.insert(35, "account", {"aid": 5, "beds": 1})

    def test_type_checked_through_logical_schema(self):
        from repro.engine.errors import TypeMismatchError

        mtd = build_running_example("chunk")
        with pytest.raises(TypeMismatchError):
            mtd.insert(35, "account", {"aid": "not-an-int"})

    def test_row_ids_are_monotonic_per_tenant(self):
        mtd = build_running_example("extension")
        first = mtd.insert(35, "account", {"aid": 10})
        second = mtd.insert(35, "account", {"aid": 11})
        assert second == first + 1


SEVEN_LAYOUTS = ["basic", *ALL_LAYOUTS]


class TestUpdateTypeChecks:
    """SET values go through the logical type like INSERT values do —
    before a layout's ``ColumnLoc.write`` sees them (the Universal
    layout's VARCHAR funnel used to die on a bare ``assert``)."""

    @staticmethod
    def _one_account(layout):
        mtd = MultiTenantDatabase(layout=layout)
        mtd.define_table(account_table())
        mtd.create_tenant(35)
        mtd.insert(35, "account", {"aid": 1, "name": "Ball", "opened": "2002-03-04"})
        return mtd

    @pytest.mark.parametrize("layout", SEVEN_LAYOUTS)
    def test_date_literal_in_set_reads_back_as_a_date(self, layout):
        mtd = self._one_account(layout)
        count = mtd.execute(
            35, "UPDATE account SET opened = '2009-01-01' WHERE aid = 1"
        ).rowcount
        assert count == 1
        assert mtd.execute(35, "SELECT opened FROM account").rows == [
            (datetime.date(2009, 1, 1),)
        ]
        mtd.execute(35, "UPDATE account SET opened = ? WHERE aid = ?", ["2010-02-02", 1])
        assert mtd.execute(35, "SELECT opened FROM account").scalar() == (
            datetime.date(2010, 2, 2)
        )

    @pytest.mark.parametrize("layout", SEVEN_LAYOUTS)
    def test_wrong_type_in_set_raises_what_insert_raises(self, layout):
        mtd = self._one_account(layout)
        with pytest.raises(TypeMismatchError):
            mtd.insert(35, "account", {"aid": 2, "opened": 20090101})
        # Bound values, like insert()'s: a wrong-typed *literal* on the
        # direct path (Private/Basic) is already refused at prepare time
        # by the engine's semantic analyzer (SEM008).
        for column, value in (
            ("opened", 20090101),
            ("opened", "not a date"),
            ("aid", "one"),
        ):
            with pytest.raises(TypeMismatchError):
                mtd.execute(
                    35, f"UPDATE account SET {column} = ? WHERE aid = 1", [value]
                )
        assert mtd.export_rows(35, "account") == [
            (
                None if layout in ("basic", "private") else 0,
                {"aid": 1, "name": "Ball", "opened": datetime.date(2002, 3, 4)},
            )
        ]


class TestUpdateModes:
    def test_update_chunked_layouts(self):
        mtd = build_running_example("chunk", width=2)
        count = mtd.execute(
            17, "UPDATE account SET beds = 999 WHERE hospital = 'State'"
        ).rowcount
        assert count == 1
        assert mtd.execute(
            17, "SELECT beds FROM account WHERE aid = 2"
        ).rows == [(999,)]

    def test_buffered_mode_handles_cross_fragment_set(self):
        """SET beds = aid + 1 reads a column from another fragment: the
        paper's subquery variant could not run it, the buffered one can."""
        mtd = build_running_example("chunk", width=1)
        mtd.execute(17, "UPDATE account SET beds = aid + 1")
        rows = mtd.execute(17, "SELECT aid, beds FROM account ORDER BY aid").rows
        assert rows == [(1, 2), (2, 3)]

    def test_update_touches_only_fragments_with_assigned_columns(self):
        """'Normal updates only have to manipulate the chunks where at
        least one cell is affected.'"""
        mtd = build_running_example("chunk", width=1)
        name_table = None
        for t in mtd.db.catalog.tables():
            # With width 1 the 'name' column lives alone in a str chunk.
            if t.name.startswith("chunk_s1"):
                name_table = t
        assert name_table is not None
        before = mtd.db.pool_stats.writes
        mtd.execute(17, "UPDATE account SET beds = 5 WHERE aid = 1")
        # The str chunks are untouched by a beds-only update: verify name
        # is still intact and rowcounts unchanged.
        assert mtd.execute(
            17, "SELECT name FROM account WHERE aid = 1"
        ).rows == [("Acme",)]

    def test_update_zero_matches(self):
        mtd = build_running_example("chunk")
        assert (
            mtd.execute(17, "UPDATE account SET beds = 1 WHERE aid = 99").rowcount
            == 0
        )


class TestDelete:
    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_delete_removes_all_fragments(self, layout):
        mtd = build_running_example(layout)
        mtd.execute(17, "DELETE FROM account WHERE aid = 1")
        assert mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [(1,)]
        # The other row is fully reconstructable (no orphan fragments).
        assert mtd.execute(
            17, "SELECT name, hospital, beds FROM account"
        ).rows == [("Gump", "State", 1042)]

    def test_delete_without_predicate(self):
        mtd = build_running_example("chunk")
        assert mtd.execute(42, "DELETE FROM account").rowcount == 1
        assert mtd.execute(42, "SELECT COUNT(*) FROM account").rows == [(0,)]


class TestTrashcan:
    """Soft delete: 'transform delete operations into updates that mark
    the tuples as invisible ... to provide mechanisms like a Trashcan'."""

    @pytest.mark.parametrize(
        "layout", ["extension", "universal", "pivot", "chunk", "chunk_folding"]
    )
    def test_soft_delete_hides_rows(self, layout):
        mtd = build_running_example(layout, soft_delete=True)
        mtd.execute(17, "DELETE FROM account WHERE aid = 1")
        assert mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [(1,)]

    def test_soft_deleted_rows_remain_physically(self):
        mtd = build_running_example("chunk", width=1, soft_delete=True)
        mtd.execute(17, "DELETE FROM account WHERE aid = 1")
        total = sum(
            t.row_count
            for t in mtd.db.catalog.tables()
            if t.name.startswith("chunk_")
        )
        assert total == 17  # nothing physically removed

    def test_restore_brings_rows_back(self):
        mtd = build_running_example("chunk", soft_delete=True)
        mtd.execute(17, "DELETE FROM account WHERE aid = 1")
        mtd.restore(17, "account", [0])  # first inserted row has id 0
        assert mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [(2,)]

    def test_restore_requires_soft_delete(self):
        mtd = build_running_example("chunk")
        with pytest.raises(PlanError):
            mtd.restore(17, "account", [0])

    def test_soft_delete_on_private_layout(self):
        mtd = build_running_example("private", soft_delete=True)
        mtd.execute(17, "DELETE FROM account WHERE aid = 1")
        assert mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [(1,)]
        # Physically still there.
        assert mtd.db.catalog.table("account_t17").row_count == 2

    def test_updates_skip_trashed_rows(self):
        mtd = build_running_example("chunk", soft_delete=True)
        mtd.execute(17, "DELETE FROM account WHERE aid = 1")
        count = mtd.execute(17, "UPDATE account SET beds = 7").rowcount
        assert count == 1  # only the live row


class TestDmlWithParams:
    def test_update_param_in_set_and_where(self):
        mtd = build_running_example("chunk")
        mtd.execute(
            17, "UPDATE account SET beds = ? WHERE hospital = ?", [777, "State"]
        )
        assert mtd.execute(
            17, "SELECT beds FROM account WHERE aid = 2"
        ).rows == [(777,)]

    def test_delete_with_param(self):
        mtd = build_running_example("chunk")
        assert (
            mtd.execute(17, "DELETE FROM account WHERE aid = ?", [1]).rowcount == 1
        )

    def test_delete_with_in_subquery(self):
        mtd = build_running_example("chunk_folding")
        count = mtd.execute(
            17,
            "DELETE FROM account WHERE aid IN "
            "(SELECT a.aid FROM account a WHERE a.beds > ?)",
            [1000],
        ).rowcount
        assert count == 1


# -- one statement or two phases -----------------------------------------------


def _deal_db(layout: str) -> MultiTenantDatabase:
    """Tenant 1 subscribes to the ``pipeline`` extension (not on Basic,
    which has none), tenant 2 does not; three deals each."""
    mtd = MultiTenantDatabase(layout=layout)
    mtd.define_table(
        LogicalTable(
            "deal",
            (
                LogicalColumn("id", INTEGER, indexed=True, not_null=True),
                LogicalColumn("title", varchar(30)),
                LogicalColumn("won", BOOLEAN),
            ),
        )
    )
    tenants = {2: ()}
    if layout != "basic":
        mtd.define_extension(
            Extension("pipeline", "deal", (LogicalColumn("stage", varchar(20)),))
        )
        tenants[1] = ("pipeline",)
    for tenant_id, extensions in tenants.items():
        mtd.create_tenant(tenant_id, extensions=extensions)
        for number in (1, 2, 3):
            values = {"id": number, "title": f"t{number}", "won": number == 2}
            if extensions:
                values["stage"] = f"s{number}"
            mtd.insert(tenant_id, "deal", values)
    return mtd


@pytest.fixture
def engine_statements(monkeypatch):
    """How many statements the engine runs: the calls of
    ``Database._run_statement``, which the e2e tracer times as the
    ``engine`` span."""
    calls = []
    run = Database._run_statement

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Database, "_run_statement", counted)
    return calls


SET_TITLE = ("UPDATE deal SET title = ? WHERE id = ?", ["x", 2])
SET_STAGE = ("UPDATE deal SET stage = ? WHERE stage = ?", ["x", "s2"])
SET_BOTH = ("UPDATE deal SET title = ?, stage = ? WHERE id = ?", ["x", "y", 2])
SET_BY_STAGE = ("UPDATE deal SET title = ? WHERE stage = ?", ["x", "s2"])
SET_WON = ("UPDATE deal SET won = ? WHERE won = ?", [False, True])
DELETE_ONE = ("DELETE FROM deal WHERE id = ?", [2])

#: ``(layout, tenant, (sql, params), one statement?)``.  A write runs as
#: one engine statement when it changes one fragment that stores every
#: column it reads natively; every other write queries its Row ids
#: first (phase (a)) and then writes per row and fragment (phase (b)).
DECISIONS = [
    # Base columns live in one conventional table.
    ("basic", 2, SET_TITLE, True),
    ("private", 1, SET_TITLE, True),
    ("extension", 1, SET_TITLE, True),
    ("chunk_folding", 1, SET_TITLE, True),
    # An extension table is one fragment too, stored natively.
    ("extension", 1, SET_STAGE, True),
    # A DELETE on a table that has one fragment.
    ("basic", 2, DELETE_ONE, True),
    ("private", 1, DELETE_ONE, True),
    ("extension", 2, DELETE_ONE, True),
    ("chunk_folding", 2, DELETE_ONE, True),
    # A SET that spans fragments.
    ("extension", 1, SET_BOTH, False),
    ("chunk_folding", 1, SET_BOTH, False),
    # A WHERE that reads another fragment than the SET writes.
    ("chunk_folding", 1, SET_BY_STAGE, False),
    # Universal and Pivot cast columns; Chunk slots wider than the
    # logical type.
    ("universal", 2, SET_TITLE, False),
    ("pivot", 2, SET_WON, False),
    ("chunk", 2, SET_TITLE, False),
    # A DELETE over two fragments or more.
    ("extension", 1, DELETE_ONE, False),
    ("chunk_folding", 1, DELETE_ONE, False),
    ("pivot", 2, DELETE_ONE, False),
]


class TestOneFragmentWrites:
    @pytest.mark.parametrize(
        "layout,tenant,write,direct",
        DECISIONS,
        ids=[f"{layout}-{i}" for i, (layout, *_) in enumerate(DECISIONS)],
    )
    def test_one_statement_or_two_phases(
        self, layout, tenant, write, direct, engine_statements
    ):
        mtd = _deal_db(layout)
        sql, params = write

        def rows():
            return {v["id"]: v for _, v in mtd.export_rows(tenant, "deal")}

        before = rows()
        engine_statements.clear()
        assert mtd.execute(tenant, sql, params).rowcount == 1
        ran = list(engine_statements)
        if direct:
            assert len(ran) == 1
        else:
            # Phase (a), then at least one phase-(b) statement.
            assert len(ran) >= 2 and isinstance(ran[0], ast.Select)
        after = rows()
        if sql.startswith("DELETE"):
            assert sorted(after) == [1, 3]
        else:
            assert after[2] != before[2]
            assert [after[1], after[3]] == [before[1], before[3]]

    @pytest.mark.parametrize("layout", ["extension", "chunk_folding"])
    @pytest.mark.parametrize(
        "value,error", [("two", TypeMismatchError), (None, NotNullViolation)]
    )
    def test_refusals_agree_on_both_plans(
        self, layout, value, error, engine_statements
    ):
        """A SET of the wrong type and a NULL written into a NOT NULL
        column raise the same class whether the write is one statement
        or two phases, and change nothing."""
        mtd = _deal_db(layout)
        before = mtd.export_rows(1, "deal")
        for sql, params, direct in (
            ("UPDATE deal SET id = ? WHERE id = 2", [value], True),
            ("UPDATE deal SET id = ?, stage = ? WHERE id = 2", [value, "y"], False),
        ):
            engine_statements.clear()
            with pytest.raises(error):
                mtd.execute(1, sql, params)
            # Two phases refuse after phase (a) has run.
            assert isinstance(engine_statements[0], ast.Select) is not direct
            assert mtd.export_rows(1, "deal") == before

    def test_a_warm_direct_write_plans_nothing(self, engine_statements):
        """A direct write runs its transformed ``IN (SELECT ...)`` inside
        its one statement, and keeps that subquery's plan."""
        mtd = _deal_db("chunk_folding")
        sql = (
            "UPDATE deal SET won = ? "
            "WHERE id IN (SELECT d.id FROM deal d WHERE d.title = ?)"
        )
        planned = []
        for title in ("t1", "t3", "t1"):
            engine_statements.clear()
            assert mtd.execute(2, sql, [True, title]).rowcount == 1
            assert len(engine_statements) == 1
            planned.append(mtd.metrics.value("db.plan_cache.adhoc"))
        assert planned[0] == planned[1] == planned[2]
        assert [v["won"] for _, v in mtd.export_rows(2, "deal")] == [True] * 3


# -- a write that names its rows reads only those --------------------------------


@pytest.fixture
def statement_fetches(monkeypatch):
    """``(statement, rows fetched, rowcount)`` of each engine statement."""
    calls = []
    run = Database._run_statement

    def counted(self, stmt, *args, **kwargs):
        before = self.exec_stats.rows_fetched
        ran = run(self, stmt, *args, **kwargs)
        calls.append((stmt, self.exec_stats.rows_fetched - before, ran[0].rowcount))
        return ran

    monkeypatch.setattr(Database, "_run_statement", counted)
    return calls


class TestInListWrites:
    """An ``IN`` list after the tenant (and chunk) prefix is the index
    probe's keys: a write fetches the rows it names, not every row of
    the tenant's fragment."""

    def test_update_heavy_fetches_the_distinct_matched_rows(self, statement_fetches):
        """Figure 6's Update Heavy, as the e2e benchmark issues it, on
        Chunk Folding's ``campaign_cf`` with a ``(tenant, id)`` index."""
        mtd = MultiTenantDatabase(layout="chunk_folding")
        for table in crm_tables():
            mtd.define_table(table)
        for tenant in (1, 2):
            mtd.create_tenant(tenant)
            for i in range(1, 51):
                mtd.insert(tenant, "campaign", {"id": i, "score": 0})
        ids = [3, 7, 7, 12, 50, 51, 99, *range(20, 38)]  # repeats, absent ids
        assert len(ids) == HEAVY_BATCH
        marks = ", ".join("?" * len(ids))
        statement_fetches.clear()
        sql = f"UPDATE campaign SET score = score + 1 WHERE id IN ({marks})"
        assert mtd.execute(1, sql, ids).rowcount == 22
        [(stmt, fetched, count)] = statement_fetches
        assert isinstance(stmt, ast.Update) and fetched == count == 22

    @pytest.mark.parametrize("soft_delete", [False, True])
    def test_phase_b_fetches_only_the_named_rows(self, soft_delete, statement_fetches):
        """A two-phase DELETE (three ids, padded to four ``row IN``
        slots by repeating the last) and a Trashcan ``restore`` (one id
        named twice) on Chunk Tables."""
        mtd = build_running_example("chunk", soft_delete=soft_delete)
        for aid in range(3, 15):
            mtd.insert(17, "account", {"aid": aid, "name": f"n{aid}"})
        writes = [lambda: mtd.execute(17, "DELETE FROM account WHERE aid IN (2, 5, 9)")]
        if soft_delete:
            writes.append(lambda: mtd.restore(17, "account", [1, 4, 8, 4]))
        for write in writes:
            statement_fetches.clear()
            write()
            phase_b = [
                (fetched, count)
                for stmt, fetched, count in statement_fetches
                if not isinstance(stmt, ast.Select)
            ]
            assert len(phase_b) == 3  # one per chunk
            assert phase_b == [(3, 3)] * 3
