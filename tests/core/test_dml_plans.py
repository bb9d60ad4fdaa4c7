"""Compile-once DML: one shape-shared plan per logical write.

A logical INSERT / UPDATE / DELETE is planned once per (statement,
layout, shape) — prepared phase-(a) SELECT, compiled SET closures, one
prepared template per target fragment — and kept in the statement
cache beside the SELECTs.  Three contracts: a warm write plans and
compiles nothing; caches on and caches off are the same program (same
rows, same rowcounts, same page reads, same log bytes); and every
schema-administration hook that invalidates SELECTs invalidates writes.
"""

import datetime
import inspect
import random

import pytest

import repro
from repro import LogicalColumn, MultiTenantDatabase, PredicateOrder
from repro.cluster import Cluster
from repro.cluster.placement import PlacementCatalog
from repro.core.layouts import LAYOUTS
from repro.core.layouts.base import Layout
from repro.engine.database import Database
from repro.engine.optimizer import Planner
from repro.engine.values import INTEGER

from .conftest import (
    account_table,
    automotive_extension,
    healthcare_extension,
)

SEVEN_LAYOUTS = [
    "private",
    "basic",
    "extension",
    "universal",
    "pivot",
    "chunk",
    "chunk_folding",
]


def build(layout: str, **options) -> tuple[MultiTenantDatabase, tuple[int, ...]]:
    """Two tenants of one shape and (where the layout has extensions)
    one of another; ``basic`` and ``private`` take the direct path."""
    if layout in ("chunk", "chunk_folding"):
        options.setdefault("width", 2)
    mtd = MultiTenantDatabase(layout=layout, **options)
    mtd.define_table(account_table())
    if layout == "basic":
        mtd.create_tenant(17)
        mtd.create_tenant(35)
        return mtd, (17, 35)
    mtd.define_extension(healthcare_extension())
    mtd.define_extension(automotive_extension())
    mtd.create_tenant(17, extensions=("healthcare",))
    mtd.create_tenant(35)
    mtd.create_tenant(36)
    return mtd, (17, 35, 36)


def counting_planner(monkeypatch) -> list:
    planned: list = []
    original = Planner.plan_select
    monkeypatch.setattr(
        Planner,
        "plan_select",
        lambda self, *a, **k: planned.append(a[0]) or original(self, *a, **k),
    )
    return planned


def write_loop(mtd, tenants, first_aid: int) -> None:
    for offset, tenant in enumerate(tenants):
        aid = first_aid + 10 * offset
        mtd.execute(
            tenant, "INSERT INTO account (aid, name) VALUES (?, ?)", (aid, "a")
        )
        mtd.insert(tenant, "account", {"aid": aid + 1, "name": "b"})
        assert mtd.execute(
            tenant, "UPDATE account SET name = ? WHERE aid = ?", ("light", aid)
        ).rowcount == 1
        assert mtd.execute(
            tenant,
            "UPDATE account SET name = name || '!' WHERE aid IN (?, ?, ?)",
            (aid, aid + 1, -1),
        ).rowcount == 2
        assert mtd.execute(
            tenant, "DELETE FROM account WHERE aid = ?", (aid + 1,)
        ).rowcount == 1


@pytest.mark.parametrize("layout", SEVEN_LAYOUTS)
def test_warm_writes_plan_and_compile_nothing(layout, monkeypatch):
    mtd, tenants = build(layout)
    write_loop(mtd, tenants, 100)  # the warm-up pass
    planned = counting_planner(monkeypatch)
    adhoc = mtd.db.metrics.value("db.plan_cache.adhoc")
    misses = mtd.db.metrics.value("mt.statement_cache.misses")
    for first_aid in (200, 300):
        write_loop(mtd, tenants, first_aid)
    assert mtd.db.metrics.value("db.plan_cache.adhoc") == adhoc
    assert planned == []
    assert mtd.db.metrics.value("mt.statement_cache.misses") == misses
    for tenant in tenants:
        assert sorted(
            mtd.execute(tenant, "SELECT name FROM account WHERE aid >= 100").rows
        ) == [("light!",)] * 3


def test_same_shape_tenants_share_one_plan():
    mtd, _ = build("chunk_folding")
    sql = "UPDATE account SET name = ? WHERE aid = ?"
    for tenant in (35, 36, 17):
        mtd.insert(tenant, "account", {"aid": 1, "name": "n"})
    misses = mtd.db.metrics.value("mt.statement_cache.misses")
    for tenant in (35, 36, 17):
        assert mtd.execute(tenant, sql, (f"t{tenant}", 1)).rowcount == 1
    # 35 and 36 share the base shape; 17 (healthcare) plans its own.
    assert mtd.db.metrics.value("mt.statement_cache.misses") == misses + 2
    for tenant in (35, 36, 17):
        assert mtd.execute(tenant, "SELECT name FROM account").rows == [
            (f"t{tenant}",)
        ]


def listing_spy(monkeypatch, layout: str) -> list:
    """Every fragment listing of ``layout``'s class from here on, as
    ``(tenant, table, transaction open)``, except the one the Row-id
    allocator makes to seed a (tenant, table) counter — that is once
    per pair and process, not per statement.  Installed before the
    database is built: the allocator binds its seed at construction."""
    cls = LAYOUTS[layout]
    listed, seed = cls.fragments, Layout._next_row_id
    calls: list = []
    seeding: list = []

    def fragments(self, tenant_id, table_name):
        if not seeding:
            active = self.db.transactions.active
            calls.append((tenant_id, table_name.lower(), active))
        return listed(self, tenant_id, table_name)

    def next_row_id(self, tenant_id, table_name):
        seeding.append(True)
        try:
            return seed(self, tenant_id, table_name)
        finally:
            seeding.pop()

    monkeypatch.setattr(cls, "fragments", fragments)
    monkeypatch.setattr(Layout, "_next_row_id", next_row_id)
    return calls


WRITES = {
    "insert": lambda mtd, t, aid: mtd.insert(t, "account", {"aid": aid}),
    "INSERT": lambda mtd, t, aid: mtd.execute(
        t, "INSERT INTO account (aid, name) VALUES (?, ?)", (aid + 1, "n")
    ),
    "UPDATE": lambda mtd, t, aid: mtd.execute(
        t, "UPDATE account SET name = ? WHERE aid = ?", ("u", aid)
    ),
    "DELETE": lambda mtd, t, aid: mtd.execute(
        t, "DELETE FROM account WHERE aid = ?", (aid + 1,)
    ),
}


@pytest.mark.parametrize("layout", SEVEN_LAYOUTS)
def test_a_hit_lists_no_fragments(layout, monkeypatch, tmp_path):
    """A statement-cache miss lists the tenant's fragments once, before
    its transaction opens; a hit — the second tenant of a shape, or the
    same tenant again where tenants share no plans — lists none; a
    grant's new shape misses and lists again."""
    calls = listing_spy(monkeypatch, layout)
    mtd, tenants = build(layout, db=Database(path=str(tmp_path)))
    first, second = tenants[-2:]
    if not mtd.layout.shares_statements:
        second = first
    miss = [(first, "account", False)]
    for kind, write in WRITES.items():
        del calls[:]
        write(mtd, first, 10)
        assert calls == miss, kind
        write(mtd, second, 20)
        assert calls == miss, kind
    if mtd.layout.supports_extensions:
        mtd.grant_extension(second, "healthcare")
        for kind, write in WRITES.items():
            del calls[:]
            write(mtd, second, 30)
            assert calls == [(second, "account", False)], kind
    mtd.db.close()


# -- caches on == caches off ---------------------------------------------------


def run_script(mtd, tenants, seed: int) -> list:
    """A seeded mix of logical writes; returns every rowcount."""
    rng = random.Random(seed)
    next_aid = {tenant: 1 for tenant in tenants}
    outcomes = []
    for _ in range(120):
        tenant = rng.choice(tenants)
        top = next_aid[tenant]
        kind = rng.random()
        if kind < 0.35 or top < 4:
            values = {"aid": top, "name": f"n{rng.randrange(5)}"}
            if tenant == 17 and len(tenants) == 3:
                values["beds"] = rng.randrange(100)
            if rng.random() < 0.5:
                mtd.insert(tenant, "account", values)
            else:
                columns = ", ".join(values)
                marks = ", ".join("?" * len(values))
                mtd.execute(
                    tenant,
                    f"INSERT INTO account ({columns}) VALUES ({marks})",
                    tuple(values.values()),
                )
            next_aid[tenant] = top + 1
        elif kind < 0.55:
            outcomes.append(
                mtd.execute(
                    tenant,
                    "UPDATE account SET name = ? WHERE aid = ?",
                    (f"u{rng.randrange(9)}", rng.randrange(1, top)),
                ).rowcount
            )
        elif kind < 0.7:
            ids = tuple(rng.randrange(1, top + 2) for _ in range(4))
            outcomes.append(
                mtd.execute(
                    tenant,
                    "UPDATE account SET name = name || '+', opened = ? "
                    "WHERE aid IN (?, ?, ?, ?)",
                    (datetime.date(2008, 6, 9), *ids),
                ).rowcount
            )
        elif kind < 0.8 and tenant == 17 and len(tenants) == 3:
            # SET spanning fragments, reading the pre-update row.
            outcomes.append(
                mtd.execute(
                    tenant,
                    "UPDATE account SET beds = aid + ?, name = hospital "
                    "WHERE beds >= ?",
                    (rng.randrange(10), rng.randrange(100)),
                ).rowcount
            )
        elif kind < 0.9:
            outcomes.append(
                mtd.execute(
                    tenant,
                    "DELETE FROM account WHERE aid = ?",
                    (rng.randrange(1, top),),
                ).rowcount
            )
        else:
            outcomes.append(
                mtd.execute(
                    tenant,
                    "DELETE FROM account WHERE name = ? AND aid > ?",
                    (f"n{rng.randrange(5)}", rng.randrange(1, top)),
                ).rowcount
            )
    return outcomes


@pytest.mark.parametrize(
    "layout, soft_delete",
    [(layout, False) for layout in SEVEN_LAYOUTS]
    # The Trashcan turns the DELETE templates into UPDATEs: once on the
    # direct path, once per kind of fan-out.
    + [(layout, True) for layout in ("basic", "extension", "chunk_folding")],
)
def test_caches_on_and_off_are_the_same_program(layout, soft_delete, tmp_path):
    seen = {}
    for caches in ("on", "off"):
        size = {} if caches == "on" else {"plan_cache_size": 0}
        db = Database(path=str(tmp_path / caches), **size)
        mtd, tenants = build(
            layout,
            db=db,
            soft_delete=soft_delete,
            **({} if caches == "on" else {"statement_cache_size": 0}),
        )
        outcomes = run_script(mtd, tenants, seed=2008)
        seen[caches] = {
            "outcomes": outcomes,
            "rows": {t: mtd.export_rows(t, "account") for t in tenants},
            "physical": {
                table.name: sorted(
                    (row for _, row in table.heap.scan()), key=repr
                )
                for table in db.catalog.tables()
            },
            "logical_reads": db.pool_stats.logical_total,
            "wal_bytes": db.wal_stats.bytes_written,
        }
        db.close()
    assert sum(seen["on"]["outcomes"]) > 20  # the script does write
    for aspect in seen["on"]:
        assert seen["on"][aspect] == seen["off"][aspect], aspect


class TestOneWritePath:
    """Every logical write is compile-once, on every layout; the
    settings that picked another path, or had one value in use, are
    gone."""

    def test_removed_settings_are_gone(self):
        for cls, removed in (
            (MultiTenantDatabase, {"update_mode", "flatten_for_simple"}),
            (Database, {"page_size", "index_metadata_cost"}),
            (Cluster, {"replicas"}),
            (PlacementCatalog, {"replicas"}),
        ):
            parameters = inspect.signature(cls.__init__).parameters
            assert removed.isdisjoint(parameters), cls.__name__
        assert not hasattr(repro, "UpdateMode")
        assert [order.name for order in PredicateOrder] == [
            "METADATA_FIRST",
            "ORIGINAL_FIRST",
        ]

    @pytest.mark.parametrize("layout", SEVEN_LAYOUTS)
    def test_warm_update_reading_another_fragment_plans_nothing(self, layout):
        mtd, _ = build(layout)
        # Basic has no extensions: its SET reads another column of its
        # one fragment.
        tenant, column = (35, "aid") if layout == "basic" else (17, "beds")
        for aid in (1, 2, 3):
            mtd.insert(tenant, "account", {"aid": aid, "name": "n"})
        sql = f"UPDATE account SET {column} = aid + 1 WHERE name = ?"
        assert mtd.execute(tenant, sql, ("n",)).rowcount == 3  # warm-up
        adhoc = mtd.db.metrics.value("db.plan_cache.adhoc")
        for _ in range(2):
            assert mtd.execute(tenant, sql, ("n",)).rowcount == 3
        assert mtd.db.metrics.value("db.plan_cache.adhoc") == adhoc
        if layout != "basic":
            assert sorted(
                mtd.execute(tenant, "SELECT aid, beds FROM account").rows
            ) == [(1, 2), (2, 3), (3, 4)]


@pytest.mark.parametrize(
    "layout", ["private", "extension", "pivot", "chunk", "chunk_folding"]
)
def test_grants_add_one_backfill_plan_per_fragment_shape(layout):
    """A grant NULL-backfills the tenant's rows into the fragments that
    hold only the granted columns.  The meta values are bound, so every
    tenant's backfill of a fragment shape is one engine text: forty
    grants leave the plan cache where one grant does (the private
    layout's per-tenant rebuild stays out of it altogether)."""
    mtd, _ = build(layout)
    tenants = range(100, 140)
    for tenant in tenants:
        mtd.create_tenant(tenant)
        mtd.insert(tenant, "account", {"aid": 1, "name": "n"})
    misses = mtd.db.metrics.value("db.plan_cache.misses")
    for tenant in tenants:
        mtd.grant_extension(tenant, "healthcare")
    granted = {c.lname for c in healthcare_extension().columns}
    shapes = [
        fragment
        for fragment in mtd.layout.fragments(100, "account")
        if fragment.columns
        and all(name in granted for name, _ in fragment.columns)
    ]
    assert mtd.db.metrics.value("db.plan_cache.misses") - misses <= 2 * len(
        shapes
    )
    for tenant in tenants:
        assert mtd.execute(
            tenant, "SELECT aid, name, beds FROM account"
        ).rows == [(1, "n", None)]


@pytest.mark.parametrize("layout", ["private", "extension", "chunk_folding"])
def test_in_subquery_predicate_sees_current_data(layout):
    """The kept phase-(a) plan re-runs its IN-subquery on every
    execution (it used to be planned afresh, so it trivially did)."""
    mtd, _ = build(layout)
    for aid in (1, 2, 3):
        mtd.insert(35, "account", {"aid": aid, "name": "keep"})
    sql = (
        "UPDATE account SET name = 'hit' WHERE aid IN "
        "(SELECT aid FROM account WHERE name = ?)"
    )
    mtd.execute(35, "UPDATE account SET name = 'mark' WHERE aid = 1")
    assert mtd.execute(35, sql, ("mark",)).rowcount == 1
    mtd.execute(35, "UPDATE account SET name = 'mark' WHERE aid > 1")
    assert mtd.execute(35, sql, ("mark",)).rowcount == 2
    assert mtd.execute(35, "SELECT COUNT(*) FROM account WHERE name = 'hit'").rows == [
        (3,)
    ]


# -- invalidation ---------------------------------------------------------------


UPDATE = "UPDATE account SET name = ? WHERE aid = ?"


def names(mtd, tenant) -> list:
    return mtd.execute(tenant, "SELECT aid, name FROM account ORDER BY aid").rows


@pytest.mark.parametrize("layout", ["extension", "universal", "pivot", "chunk", "chunk_folding"])
def test_same_update_text_across_schema_administration(layout):
    mtd, _ = build(layout)
    for tenant in (17, 35, 36):
        for aid in (1, 2):
            mtd.insert(tenant, "account", {"aid": aid, "name": "n"})

    def update_all(tag: str, tenants=(17, 35, 36)) -> None:
        for tenant in tenants:
            assert mtd.execute(tenant, UPDATE, (f"{tag}{tenant}", 1)).rowcount == 1
            assert names(mtd, tenant) == [(1, f"{tag}{tenant}"), (2, "n")]

    update_all("warm")
    # grant: 35 leaves the shape it shared with 36.
    mtd.grant_extension(35, "healthcare")
    update_all("grant")
    assert mtd.execute(
        35, "UPDATE account SET beds = ? WHERE aid = ?", (7, 1)
    ).rowcount == 1
    assert mtd.execute(35, "SELECT beds FROM account WHERE aid = 1").rows == [(7,)]
    # alter: the healthcare shape gains a column (and maybe a fragment).
    mtd.alter_extension("healthcare", [LogicalColumn("wards", INTEGER)])
    update_all("alter")
    assert mtd.execute(
        17, "UPDATE account SET wards = beds WHERE aid = ?", (1,)
    ).rowcount == 1
    # migrate: 36 answers from another layout's fragments.
    mtd.migrate_tenant(36, "private")
    update_all("migrate")
    # drop + re-create: nothing of the old tenant's plan or rows is left.
    mtd.drop_tenant(36)
    mtd.create_tenant(36)
    assert mtd.execute(36, UPDATE, ("ghost", 1)).rowcount == 0
    mtd.insert(36, "account", {"aid": 1, "name": "n"})
    mtd.insert(36, "account", {"aid": 2, "name": "n"})
    update_all("recreate")


def test_engine_ddl_rechooses_template_index():
    """CREATE INDEX on a physical table moves ``catalog.version``: the
    kept templates recompile and pick the new index, results unchanged."""
    mtd, _ = build("universal")
    for aid in range(1, 9):
        mtd.insert(35, "account", {"aid": aid, "name": "n"})
    mtd.execute(35, UPDATE, ("warm", 3))
    misses = mtd.db.metrics.value("mt.statement_cache.misses")
    invalidations = mtd.db.metrics.value("db.plan_cache.invalidations")
    mtd.db.execute("CREATE INDEX universal_row ON universal (row)")
    assert mtd.execute(35, UPDATE, ("after", 3)).rowcount == 1
    # The plan survived at this layer; its handles revalidated below.
    assert mtd.db.metrics.value("mt.statement_cache.misses") == misses
    assert mtd.db.metrics.value("db.plan_cache.invalidations") > invalidations
    assert names(mtd, 35)[2] == (3, "after")


@pytest.mark.parametrize("soft_delete", [False, True])
def test_delete_batches_share_padded_templates(soft_delete):
    """How many rows a DELETE matches varies per call: batches are
    padded to powers of two (an IN list ignores the repeat), so the
    kept templates stay few whatever the counts were."""
    mtd, _ = build("chunk", soft_delete=soft_delete)
    sql = "DELETE FROM account WHERE aid >= ? AND aid < ?"
    for aid in range(1, 301):
        mtd.insert(35, "account", {"aid": aid, "name": "n"})
    for low, high in ((1, 4), (4, 9), (9, 15), (15, 20), (20, 251)):
        assert mtd.execute(35, sql, (low, high)).rowcount == high - low
    assert mtd.execute(35, "SELECT MIN(aid), COUNT(*) FROM account").rows == [
        (251, 50)
    ]
    (plan,) = [
        plan
        for key, plan in mtd._statements._entries._entries.items()
        if key[0] == sql
    ]
    fragments = len(mtd.layout.fragments(35, "account"))
    # 3 rows pad to 4; 5, 6 and 5 rows to 8; 231 rows run as 200 + 32.
    assert len(plan._templates) == 4 * fragments
