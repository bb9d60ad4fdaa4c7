"""Schema-mapping statement cache: shape sharing and invalidation.

The multi-tenant cache keys transformed statements by (logical SQL,
layout, tenant shape).  For layouts whose physical statements differ
only in the tenant-identifying constants (``shares_statements``), the
shape is the tenant's extension set — so thousands of tenants collapse
onto a handful of cache entries and the tenant id binds at execution
time through parameter slots.  Private tables get per-tenant keys.

Every schema-administration operation (define/grant/alter extension,
tenant migration, tenant drop) must drop cached entries, and engine DDL
underneath (CREATE INDEX on a physical table) must force a re-plan of
the prepared physical statements without changing results.
"""

from repro import Extension, LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.engine.values import INTEGER, varchar


def counter(mtd: MultiTenantDatabase, name: str) -> float:
    return mtd.db.metrics.value(f"mt.statement_cache.{name}")


def counters(mtd: MultiTenantDatabase) -> dict[str, float]:
    """``hits`` / ``misses`` now, to difference around the statements
    under test: the seeding inserts are cached in the same cache."""
    return {name: counter(mtd, name) for name in ("hits", "misses")}


ACCT = LogicalTable(
    "acct",
    (
        LogicalColumn("id", INTEGER, indexed=True, not_null=True),
        LogicalColumn("name", varchar(20)),
    ),
)

HOSPITAL = Extension(
    "hospital", "acct", (LogicalColumn("beds", INTEGER),)
)


def make_mtd(layout: str = "universal", **kwargs) -> MultiTenantDatabase:
    options = {"width": 2} if layout in ("chunk", "chunk_folding") else {}
    mtd = MultiTenantDatabase(layout=layout, **options, **kwargs)
    mtd.define_table(ACCT)
    return mtd


def seed_tenant(mtd, tenant_id: int, rows: int = 3, **extra) -> None:
    for i in range(rows):
        mtd.insert(
            tenant_id,
            "acct",
            {"id": i + 1, "name": f"t{tenant_id}r{i}", **extra},
        )


class TestShapeSharing:
    def test_same_shape_tenants_share_one_entry(self):
        mtd = make_mtd("universal")
        for tenant in (1, 2, 3):
            mtd.create_tenant(tenant)
            seed_tenant(mtd, tenant)
        sql = "SELECT name FROM acct WHERE id = ?"
        seeded = counters(mtd)
        results = {t: mtd.execute(t, sql, [2]).rows for t in (1, 2, 3)}
        # One transformation served all three tenants...
        assert counter(mtd, "misses") - seeded["misses"] == 1
        assert counter(mtd, "hits") - seeded["hits"] == 2
        # ...yet each tenant saw only its own data.
        assert results == {t: [(f"t{t}r1",)] for t in (1, 2, 3)}

    def test_extension_set_splits_shapes(self):
        mtd = make_mtd("extension")
        mtd.define_extension(HOSPITAL)
        mtd.create_tenant(1, extensions=("hospital",))
        mtd.create_tenant(2)
        mtd.create_tenant(3, extensions=("hospital",))
        seed_tenant(mtd, 1, beds=10)
        seed_tenant(mtd, 2)
        seed_tenant(mtd, 3, beds=30)
        sql = "SELECT name FROM acct WHERE id = ?"
        seeded = counters(mtd)
        for tenant in (1, 2, 3):
            assert mtd.execute(tenant, sql, [1]).rows == [(f"t{tenant}r0",)]
        # Tenants 1 and 3 share the {hospital} shape; tenant 2 is alone.
        assert counter(mtd, "misses") - seeded["misses"] == 2
        assert counter(mtd, "hits") - seeded["hits"] == 1

    def test_private_layout_keys_per_tenant(self):
        mtd = make_mtd("private")
        for tenant in (1, 2):
            mtd.create_tenant(tenant)
            seed_tenant(mtd, tenant)
        sql = "SELECT name FROM acct WHERE id = ?"
        seeded = counters(mtd)
        assert mtd.execute(1, sql, [1]).rows == [("t1r0",)]
        assert mtd.execute(2, sql, [1]).rows == [("t2r0",)]
        # private tables never share
        assert counter(mtd, "misses") - seeded["misses"] == 2
        mtd.execute(1, sql, [2])
        # but each tenant reuses its own
        assert counter(mtd, "hits") - seeded["hits"] == 1

    def test_prepared_handle_spans_shapes(self):
        mtd = make_mtd("universal")
        mtd.define_extension(HOSPITAL)
        mtd.create_tenant(1, extensions=("hospital",))
        mtd.create_tenant(2)
        seed_tenant(mtd, 1, beds=5)
        seed_tenant(mtd, 2)
        handle = mtd.prepare("SELECT name FROM acct WHERE id >= ?")
        assert handle.execute(1, [3]).rows == [("t1r2",)]
        assert handle.execute(2, [3]).rows == [("t2r2",)]

    def test_disabled_cache_still_correct(self):
        mtd = make_mtd("universal", statement_cache_size=0)
        mtd.create_tenant(1)
        seed_tenant(mtd, 1)
        sql = "SELECT name FROM acct WHERE id = ?"
        assert mtd.execute(1, sql, [1]).rows == [("t1r0",)]
        assert mtd.execute(1, sql, [1]).rows == [("t1r0",)]
        assert counter(mtd, "hits") == 0
        assert counter(mtd, "misses") == 0


class TestInvalidation:
    def warm(self, mtd, tenants=(1, 2)) -> str:
        sql = "SELECT name FROM acct WHERE id = ?"
        for tenant in tenants:
            mtd.execute(tenant, sql, [1])
        return sql

    def test_define_extension_invalidates(self):
        mtd = make_mtd("universal")
        mtd.create_tenant(1)
        mtd.create_tenant(2)
        seed_tenant(mtd, 1)
        seed_tenant(mtd, 2)
        seeded = len(mtd._statements)  # the insert plan of the shape
        sql = self.warm(mtd)
        assert len(mtd._statements) == seeded + 1
        mtd.define_extension(HOSPITAL)
        assert len(mtd._statements) == 0
        assert counter(mtd, "invalidations") >= 1
        assert mtd.execute(1, sql, [1]).rows == [("t1r0",)]

    def test_grant_extension_invalidates_and_requeries(self):
        mtd = make_mtd("universal")
        mtd.define_extension(HOSPITAL)
        mtd.create_tenant(1)
        mtd.create_tenant(2)
        sql = self.warm(mtd)
        invalidations = counter(mtd, "invalidations")
        mtd.grant_extension(1, "hospital")
        assert counter(mtd, "invalidations") > invalidations
        # Tenant 1 now has a different shape: fresh entries, fresh results.
        seed_tenant(mtd, 1, beds=12)
        seed_tenant(mtd, 2)
        assert mtd.execute(1, "SELECT name, beds FROM acct WHERE id = ?", [1]).rows == [
            ("t1r0", 12)
        ]
        assert mtd.execute(2, sql, [1]).rows == [("t2r0",)]

    def test_alter_extension_invalidates(self):
        mtd = make_mtd("universal")
        mtd.define_extension(HOSPITAL)
        mtd.create_tenant(1, extensions=("hospital",))
        seed_tenant(mtd, 1, beds=7)
        sql = self.warm(mtd, tenants=(1,))
        invalidations = counter(mtd, "invalidations")
        mtd.alter_extension("hospital", [LogicalColumn("wards", INTEGER)])
        assert counter(mtd, "invalidations") > invalidations
        # Old rows read NULL in the new column; cached plans are gone.
        rows = mtd.execute(
            1, "SELECT name, wards FROM acct WHERE id = ?", [1]
        ).rows
        assert rows == [("t1r0", None)]
        assert mtd.execute(1, sql, [1]).rows == [("t1r0",)]

    def test_migrate_tenant_invalidates(self):
        mtd = make_mtd("universal")
        mtd.create_tenant(1)
        mtd.create_tenant(2)
        seed_tenant(mtd, 1)
        seed_tenant(mtd, 2)
        sql = self.warm(mtd)
        invalidations = counter(mtd, "invalidations")
        mtd.migrate_tenant(1, "private")
        assert counter(mtd, "invalidations") > invalidations
        # Migrated tenant answers from its new layout, the other from the
        # old one — neither may reuse the pre-migration plan.
        assert mtd.execute(1, sql, [2]).rows == [("t1r1",)]
        assert mtd.execute(2, sql, [2]).rows == [("t2r1",)]

    def test_drop_tenant_invalidates(self):
        mtd = make_mtd("universal")
        mtd.create_tenant(1)
        mtd.create_tenant(2)
        seed_tenant(mtd, 1)
        seed_tenant(mtd, 2)
        sql = self.warm(mtd)
        mtd.drop_tenant(2)
        assert len(mtd._statements) == 0
        assert mtd.execute(1, sql, [1]).rows == [("t1r0",)]

    def test_engine_ddl_replans_cached_statements(self):
        mtd = make_mtd("universal")
        mtd.create_tenant(1)
        seed_tenant(mtd, 1, rows=6)
        sql = "SELECT name FROM acct WHERE id >= ?"
        before = mtd.execute(1, sql, [4]).rows
        mtd.execute(1, sql, [4])  # engine plan now cached and reused
        mtd.db.execute("CREATE INDEX universal_c1 ON universal (col1)")
        engine_invalidations = mtd.db.metrics.value(
            "db.plan_cache.invalidations"
        )
        after = mtd.execute(1, sql, [4]).rows
        assert sorted(after) == sorted(before)
        # The MT entry survived (no schema change) but its physical plan
        # was revalidated against the bumped catalog version.
        assert (
            mtd.db.metrics.value("db.plan_cache.invalidations")
            > engine_invalidations - 1
        )


class TestChunkLegacyTenants:
    """Tenants that predate a grant or an ALTER ("legacy" tenants) lay
    out their chunks like fresh ones: chunks are cut per column group,
    once for every tenant, so history never splits a shape."""

    def test_altered_tenant_shares_with_fresh_ones(self):
        mtd = make_mtd("chunk")
        mtd.define_extension(HOSPITAL)
        mtd.create_tenant(1, extensions=("hospital",))
        seed_tenant(mtd, 1, beds=3)
        sql = "SELECT name, beds FROM acct WHERE id = ?"
        assert mtd.execute(1, sql, [1]).rows == [("t1r0", 3)]
        # Widen the extension under tenant 1's stored rows: its chunks
        # gain appended ones, exactly those a fresh tenant gets.
        mtd.alter_extension("hospital", [LogicalColumn("wards", INTEGER)])
        mtd.create_tenant(2, extensions=("hospital",))
        layout = mtd.layout
        assert layout.statement_shape(1) == layout.statement_shape(2)
        assert len(mtd.transform_cross_sql(
            "SELECT name, wards FROM acct FOR TENANTS IN (1, 2)"
        )) == 1
        mtd.insert(
            2, "acct", {"id": 1, "name": "t2r0", "beds": 3, "wards": None}
        )
        sql = "SELECT name, beds, wards FROM acct WHERE id = ?"
        seeded = counters(mtd)
        assert mtd.execute(1, sql, [1]).rows == [("t1r0", 3, None)]
        assert mtd.execute(2, sql, [1]).rows == [("t2r0", 3, None)]
        # One transformation served both tenants.
        assert counter(mtd, "misses") - seeded["misses"] == 1
        assert counter(mtd, "hits") - seeded["hits"] == 1

    def test_fresh_same_shape_tenants_still_share(self):
        mtd = make_mtd("chunk_folding")
        mtd.define_extension(HOSPITAL)
        mtd.create_tenant(1, extensions=("hospital",))
        mtd.create_tenant(2, extensions=("hospital",))
        layout = mtd.layout
        assert layout.statement_shape(1) == layout.statement_shape(2)
