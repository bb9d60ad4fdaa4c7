"""Layout invariant checker: coverage, storage typing, meta-row
ownership, row alignment, and migration-plan column preservation."""

import pytest

from repro.analysis import invariants
from repro.analysis.mutation import apply_mutation
from repro.core.layouts.base import TENANT_META

from ..core.conftest import ALL_LAYOUTS, build_running_example


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_running_example_satisfies_invariants(layout):
    mtd = build_running_example(layout)
    report = invariants.check_all(mtd, f"{layout} ")
    assert report.ok, [f.message for f in report.findings]
    assert report.checked >= 1


def test_migration_plan_preserves_columns():
    source = build_running_example("extension")
    logical = source.schema.logical_table(17, "account")
    complete = source.layout.fragments(17, "account")
    report = invariants.check_migration_plan(
        logical.columns, complete, complete, "identity"
    )
    assert report.ok

    # Doctor the target: drop every fragment covering ``beds``.
    lossy = [
        f for f in complete if not f.covers("beds")
    ]
    report = invariants.check_migration_plan(
        logical.columns, complete, lossy, "lossy"
    )
    assert "LAY005" in {f.rule_id for f in report.errors}


def test_rogue_meta_row_is_caught():
    mtd = build_running_example("extension")
    # The healthcare fragment: all its payload columns are nullable, so
    # a bare meta + row insert is enough to plant the rogue row.
    fragment = next(
        f
        for f in mtd.layout.fragments(17, "account")
        if any(col == TENANT_META for col, _ in f.meta)
        and f.covers("hospital")
    )
    names = [col for col, _ in fragment.meta] + [fragment.row_column]
    values = [
        999 if col == TENANT_META else value for col, value in fragment.meta
    ] + [0]
    mtd.db.execute(
        f"INSERT INTO {fragment.table} ({', '.join(names)}) "
        f"VALUES ({', '.join('?' for _ in names)})",
        values,
    )
    report = invariants.check_meta_rows(mtd, "rogue ")
    assert "LAY004" in {f.rule_id for f in report.errors}


def test_row_alignment_gap_is_caught():
    mtd = build_running_example("extension")
    fragments = [
        f
        for f in mtd.layout.fragments(17, "account")
        if f.row_column is not None
    ]
    assert len(fragments) >= 2  # base + healthcare extension
    victim = fragments[-1]
    where = " AND ".join(
        f"{col} = {value!r}" for col, value in victim.meta
    )
    rows = mtd.db.execute(
        f"SELECT {victim.row_column} FROM {victim.table} WHERE {where}"
    ).rows
    assert rows
    mtd.db.execute(
        f"DELETE FROM {victim.table} WHERE {where} "
        f"AND {victim.row_column} = ?",
        (rows[0][0],),
    )
    report = invariants.check_row_alignment(mtd, "gap ")
    assert "LAY006" in {f.rule_id for f in report.errors}


@pytest.mark.parametrize("storage", ["heap", "columnar"])
def test_width_ledger_drift_is_caught(storage):
    mtd = build_running_example("extension")
    db = mtd.db
    tables = db.catalog.tables()
    ledger = invariants.check_width_ledger
    assert ledger(tables, db.pool).ok
    db.execute(
        "CREATE TABLE w (a INTEGER, s VARCHAR(20))"
        + (" USING columnar" if storage == "columnar" else "")
    )
    db.execute("INSERT INTO w VALUES (1, 'abc'), (2, NULL)")
    db.execute("UPDATE w SET s = 'longer value' WHERE a = 2")
    table = db.catalog.table("w")
    assert ledger([table], db.pool).ok
    page = db.pool.read(table.heap.page_ids()[0])
    if storage == "columnar":
        page.payload.widths[1] += 1
    else:
        row, width = page.payload[1]
        page.payload[1] = (row, width + 1)
    page.used += 1  # the page agrees with the slot; the row does not
    report = ledger([table], db.pool, "drift ")
    assert [f.rule_id for f in report.errors] == ["LAY007", "LAY007"]
    assert "stores width" in report.errors[0].message
    assert "free-space map" in report.errors[1].message
    assert not invariants.check_all(mtd).ok


def test_dropped_casts_are_caught_structurally():
    mtd = build_running_example("universal")
    assert invariants.check_fragments(mtd, "pre ").ok
    apply_mutation(mtd, "drop-read-casts")
    report = invariants.check_fragments(mtd, "post ")
    assert "LAY003" in {f.rule_id for f in report.errors}
