"""Tests for §6.3 DML transformation: fan-out, buffered two-phase
updates, the Trashcan (soft delete), and restore."""

import datetime

import pytest

from repro import MultiTenantDatabase
from repro.engine.errors import PlanError, TypeMismatchError, UnknownObjectError

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
