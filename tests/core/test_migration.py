"""Tests for on-the-fly migration between representations."""

import pytest

from .conftest import build_running_example

PAIRS = [
    ("extension", "chunk_folding"),
    ("chunk_folding", "extension"),
    ("universal", "chunk"),
    ("chunk", "pivot"),
    ("pivot", "universal"),
    ("private", "chunk_folding"),
    ("chunk_folding", "private"),
]


class TestMigration:
    @pytest.mark.parametrize("source,target", PAIRS)
    def test_roundtrip_preserves_data(self, source, target):
        mtd = build_running_example(source)
        before = {
            tenant: sorted(
                mtd.execute(tenant, "SELECT * FROM account").rows
            )
            for tenant in (17, 35, 42)
        }
        moved = mtd.migrate_tenant(17, target)
        assert moved["account"] == 2
        after17 = sorted(mtd.execute(17, "SELECT * FROM account").rows)
        assert after17 == before[17]
        # Untouched tenants still on the old layout, still correct.
        for tenant in (35, 42):
            assert (
                sorted(mtd.execute(tenant, "SELECT * FROM account").rows)
                == before[tenant]
            )

    def test_migrated_tenant_is_writable(self):
        mtd = build_running_example("extension")
        mtd.migrate_tenant(17, "chunk_folding")
        mtd.insert(
            17,
            "account",
            {"aid": 3, "name": "PostMove", "hospital": "New", "beds": 1},
        )
        assert mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [(3,)]

    def test_row_ids_preserved(self):
        mtd = build_running_example("extension")
        mtd.migrate_tenant(17, "chunk")
        new_row = mtd.insert(17, "account", {"aid": 99, "name": "x"})
        # Two rows existed with ids 0 and 1; the next must be 2+.
        assert new_row >= 2

    def test_source_fragments_purged(self):
        mtd = build_running_example("universal")
        universal = mtd.db.catalog.table("universal")
        before = universal.row_count
        mtd.migrate_tenant(17, "chunk")
        assert universal.row_count == before - 2

    def test_updates_follow_the_move(self):
        mtd = build_running_example("pivot")
        mtd.migrate_tenant(17, "chunk_folding")
        mtd.execute(17, "UPDATE account SET beds = 5 WHERE aid = 1")
        assert mtd.execute(
            17, "SELECT beds FROM account WHERE aid = 1"
        ).rows == [(5,)]

    def test_layout_override_reported(self):
        mtd = build_running_example("extension")
        assert mtd.layout_for(17) is mtd.layout
        mtd.migrate_tenant(17, "chunk")
        assert mtd.layout_for(17) is not mtd.layout
        assert mtd.layout_for(35) is mtd.layout
