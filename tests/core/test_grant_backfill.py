"""Online extension grant must preserve existing rows (NULL backfill).

Reconstruction inner-joins fragments on Row, so granting an extension
to a tenant with data has to plant NULL rows in every fragment that
holds only the new columns — otherwise the tenant's existing rows
silently vanish from every SELECT.  The chunk layouts never repartition
a tenant: its base chunks stay where they are and the extension's
chunks are the ones every subscriber uses.

These are regression tests for bugs the isolation/invariant passes
flagged; the analysis runner replays the same grant path.
"""

import datetime

import pytest

from .conftest import ALL_LAYOUTS, build_running_example


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_grant_preserves_existing_rows(layout):
    mtd = build_running_example(layout)
    before = mtd.execute(35, "SELECT aid, name FROM account ORDER BY aid").rows
    assert before == [(1, "Ball")]

    mtd.grant_extension(35, "automotive")

    # The pre-grant row survives and reads NULL for the new column.
    rows = mtd.execute(
        35, "SELECT aid, name, dealers FROM account ORDER BY aid"
    ).rows
    assert rows == [(1, "Ball", None)]

    # New rows interleave with the backfilled one.
    mtd.insert(35, "account", {"aid": 2, "name": "Cue", "dealers": 7})
    rows = mtd.execute(
        35, "SELECT aid, name, dealers FROM account ORDER BY aid"
    ).rows
    assert rows == [(1, "Ball", None), (2, "Cue", 7)]

    # Old columns alone still reconstruct both rows.
    assert mtd.execute(35, "SELECT COUNT(*) FROM account").rows == [(2,)]


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_grant_does_not_leak_into_other_tenants(layout):
    mtd = build_running_example(layout)
    mtd.grant_extension(35, "automotive")
    # Tenant 42 subscribed from the start; its data is untouched.
    assert mtd.execute(
        42, "SELECT aid, dealers FROM account"
    ).rows == [(1, 65)]
    # Tenant 17 still cannot name the column it never subscribed to.
    with pytest.raises(Exception):
        mtd.execute(17, "SELECT dealers FROM account")


def test_chunk_grant_shares_fresh_tenant_shape_and_keeps_data():
    mtd = build_running_example("chunk")
    mtd.grant_extension(35, "automotive")
    mtd.create_tenant(77, extensions=("automotive",))
    # The granted tenant's base chunks stay where they were and the
    # extension's chunks are every subscriber's: old and new columns
    # answer from one tenant view ...
    rows = mtd.execute(
        35, "SELECT aid, name, opened, dealers FROM account"
    ).rows
    assert rows == [(1, "Ball", datetime.date(2006, 7, 8), None)]
    # ... laid out exactly like a fresh tenant's with the same grants
    # (meta[0] is the tenant id itself).
    def layout_of(tenant_id):
        return [
            (f.table, f.meta[1:], f.columns)
            for f in mtd.layout.fragments(tenant_id, "account")
        ]

    assert layout_of(35) == layout_of(77)
    assert mtd.layout.statement_shape(35) == mtd.layout.statement_shape(77)
    assert len(mtd.transform_cross_sql(
        "SELECT name, dealers FROM account FOR TENANTS IN (35, 77)"
    )) == 1


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_grant_on_empty_tenant_is_noop_for_data(layout):
    mtd = build_running_example(layout)
    mtd.create_tenant(99)
    mtd.grant_extension(99, "healthcare")
    assert mtd.execute(99, "SELECT COUNT(*) FROM account").rows == [(0,)]
    mtd.insert(99, "account", {"aid": 1, "name": "New", "beds": 12})
    assert mtd.execute(
        99, "SELECT aid, beds FROM account"
    ).rows == [(1, 12)]
