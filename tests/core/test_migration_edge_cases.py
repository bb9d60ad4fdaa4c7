"""Edge cases of on-the-fly migration: Trashcan interaction, repeated
migrations, and empty tenants."""

import pytest

from repro import MultiTenantDatabase
from repro.engine.database import Database
from repro.engine.durability import (
    DurabilityOptions,
    FaultInjector,
    SimulatedCrash,
)

from .conftest import build_running_example, observable_behaviour


class TestMigrationEdgeCases:
    def test_migrating_empty_tenant(self):
        mtd = build_running_example("extension")
        mtd.create_tenant(99)
        moved = mtd.migrate_tenant(99, "chunk")
        assert moved == {"account": 0}
        assert mtd.execute(99, "SELECT COUNT(*) FROM account").rows == [(0,)]

    def test_chained_migrations(self):
        mtd = build_running_example("extension")
        before = sorted(mtd.execute(17, "SELECT * FROM account").rows)
        mtd.migrate_tenant(17, "chunk")
        mtd.migrate_tenant(17, "universal")
        mtd.migrate_tenant(17, "pivot")
        assert sorted(mtd.execute(17, "SELECT * FROM account").rows) == before

    def test_migration_empties_the_trashcan(self):
        """Migration copies the *live* logical state; soft-deleted rows
        do not follow the tenant (the reconstruction the migrator reads
        filters alive = 1, and the source fragments are purged)."""
        mtd = build_running_example("chunk", soft_delete=True)
        mtd.execute(17, "DELETE FROM account WHERE aid = 1")
        mtd.migrate_tenant(17, "extension", soft_delete=True)
        assert mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [(1,)]
        # The trashed row is gone for good: restore finds nothing.
        mtd.restore(17, "account", [0])
        assert mtd.execute(17, "SELECT COUNT(*) FROM account").rows == [(1,)]

    def test_migration_between_chunk_widths(self):
        mtd = build_running_example("chunk", width=1)
        before = sorted(mtd.execute(17, "SELECT * FROM account").rows)
        mtd.migrate_tenant(17, "chunk", width=6)
        assert sorted(mtd.execute(17, "SELECT * FROM account").rows) == before

    def test_two_tenants_on_two_override_layouts(self):
        mtd = build_running_example("extension")
        mtd.migrate_tenant(17, "chunk")
        mtd.migrate_tenant(42, "universal")
        assert mtd.execute(
            17, "SELECT beds FROM account WHERE hospital = 'State'"
        ).rows == [(1042,)]
        assert mtd.execute(42, "SELECT dealers FROM account").rows == [(65,)]
        assert mtd.execute(35, "SELECT name FROM account").rows == [("Ball",)]

    def test_insert_after_chain_keeps_unique_row_ids(self):
        mtd = build_running_example("extension")
        mtd.migrate_tenant(17, "universal")
        mtd.migrate_tenant(17, "chunk")
        first = mtd.insert(17, "account", {"aid": 50, "name": "x"})
        second = mtd.insert(17, "account", {"aid": 51, "name": "y"})
        assert second == first + 1
        assert first >= 2


class TestAdminCrashAtomicity:
    """Administrative operations must be all-or-nothing under a crash.

    The nastiest window is mid-``migrate_tenant`` after the source
    fragments were purged, and mid-``drop_tenant`` between per-table
    deletes: without the WAL's admin-operation brackets, either crash
    would destroy tenant data.  Recovery discards the incomplete
    operation wholesale, so the tenant reappears intact on its original
    layout.
    """

    @staticmethod
    def _durable_example(path, crash_at):
        db = Database(
            path=str(path),
            durability=DurabilityOptions(
                faults=FaultInjector(crash_at=crash_at)
            ),
        )
        return build_running_example("chunk", db=db)

    @staticmethod
    def _account_rows(mtd, tenant_id):
        return sorted(
            mtd.execute(tenant_id, "SELECT aid, name FROM account").rows
        )

    def test_crash_mid_migration_leaves_source_intact(self, tmp_path):
        mtd = self._durable_example(tmp_path, ("migrate.after_purge", 1))
        before = self._account_rows(mtd, 17)
        behaviour = observable_behaviour(mtd)
        with pytest.raises(SimulatedCrash):
            mtd.migrate_tenant(17, "private")
        del mtd
        recovered = MultiTenantDatabase.recover(Database(path=str(tmp_path)))
        assert recovered.layout_for(17) is recovered.layout  # no override
        assert self._account_rows(recovered, 17) == before
        assert observable_behaviour(recovered) == behaviour
        # The aborted migration left no half-moved state behind: the
        # tenant is fully operational, including a real migration.
        recovered.insert(17, "account", {"aid": 60, "name": "after"})
        recovered.migrate_tenant(17, "private")
        assert (60, "after") in self._account_rows(recovered, 17)
        recovered.db.close()

    def test_crash_mid_drop_leaves_tenant_intact(self, tmp_path):
        mtd = self._durable_example(tmp_path, ("drop_tenant.table", 1))
        before = self._account_rows(mtd, 17)
        behaviour = observable_behaviour(mtd)
        with pytest.raises(SimulatedCrash):
            mtd.drop_tenant(17)
        del mtd
        recovered = MultiTenantDatabase.recover(Database(path=str(tmp_path)))
        assert {t.tenant_id for t in recovered.schema.tenants()} == {17, 35, 42}
        assert self._account_rows(recovered, 17) == before
        assert observable_behaviour(recovered) == behaviour
        # Dropping again (no crash armed now) completes cleanly.
        recovered.drop_tenant(17)
        assert {t.tenant_id for t in recovered.schema.tenants()} == {35, 42}
        recovered.db.close()
