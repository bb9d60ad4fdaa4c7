"""The dataset every workload runs on, built by the code under test.

Figure 5's CRM schema (ten tables plus the three extensions) on a
disk-backed two-shard cluster, layout ``chunk_folding``.  Tenants are
numbered from 1 and pinned round-robin to the shards; every second
tenant *of each shard* subscribes to ``healthcare``, so both statement
shapes live on both shards.  Rows come from ``DataGenerator(seed)``;
the loader keeps each row it wrote, which is the oracle the point
selects are checked against.
"""

from __future__ import annotations

import datetime
import os
import shutil
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster import Cluster, ShardOptions
from repro.core.schema import LogicalTable
from repro.engine.durability import DurabilityOptions
from repro.testbed.crm import (
    CRM_PARENTS,
    CRM_TABLE_NAMES,
    crm_extensions,
    crm_tables,
)
from repro.testbed.generator import DataGenerator

SHARDS = 2
TENANTS_AT_SCALE_1 = 40
ROWS_PER_TABLE = 50
#: What BENCHMARK.json's command and the trajectory run at: 12 tenants,
#: 6,000 rows.  The driver of BENCHMARK.json makes 92 runs in 57
#: minutes, each with its own set-up, and loading ``--scale 1`` alone
#: takes 40-50 s on the reference container (README.md).
DEFAULT_SCALE = "0.3"
#: ``--scale tiny``: the reviewer's smoke run.
TINY = (4, 10)
#: The cold workload's pool holds this share of a shard's pages.
COLD_POOL_SHARE = 0.25
#: Below this the pool cannot hold one B-tree path plus a heap page.
MIN_POOL_PAGES = 8

#: Bulk load only: one fsync per 64 commits and no checkpoint until the
#: end.  Measured runs reopen the copy with ``DurabilityOptions()``.
LOAD_DURABILITY = dict(group_commit=64, auto_checkpoint_bytes=0)

Key = tuple[int, str]  # (tenant, table)


def parse_scale(text: str) -> tuple[int, int]:
    """``(tenants, rows per table)`` for ``--scale``: ``tiny`` or a
    multiple of the 40-tenant default."""
    if text == "tiny":
        return TINY
    return max(SHARDS, round(TENANTS_AT_SCALE_1 * float(text))), ROWS_PER_TABLE


def logical_rows(tenants: int, rows_per_table: int) -> int:
    return tenants * rows_per_table * len(CRM_TABLE_NAMES)


def cell_bytes(value: object) -> int:
    """Size of one cell as a user would count it: fixed-width numbers
    and dates, UTF-8 text, nothing for NULL."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, datetime.date):
        return 4
    return len(str(value).encode("utf-8"))


def row_bytes(values) -> int:
    return sum(cell_bytes(v) for v in values)


@dataclass
class Dataset:
    path: Path
    seed: int
    rows_per_table: int
    #: tenant -> shard name
    placement: dict[int, str] = field(default_factory=dict)
    #: (tenant, table) -> {id: row tuple in ``SELECT *`` order}
    rows: dict[Key, dict[int, tuple]] = field(default_factory=dict)
    #: (tenant, table) -> the tenant's view of the table (base columns
    #: plus subscribed extensions), whose column order ``SELECT *`` has
    views: dict[Key, LogicalTable] = field(default_factory=dict)
    user_bytes: int = 0
    stored_bytes: int = 0

    @property
    def logical_rows(self) -> int:
        return sum(len(rows) for rows in self.rows.values())

    def tenants_of(self, shard: str) -> list[int]:
        return [t for t, name in self.placement.items() if name == shard]


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def build(
    path: Path,
    tenants: int,
    rows_per_table: int,
    seed: int,
    lap: Callable[[], object],
) -> Dataset:
    """Load the dataset into a fresh cluster directory, checkpoint every
    shard and close it.  ``lap`` is called after each table of each
    tenant: the caller's ``clock.Ruler`` times the load in segments."""
    dataset = Dataset(path, seed, rows_per_table)
    options = ShardOptions(durability=DurabilityOptions(**LOAD_DURABILITY))
    generator = DataGenerator(seed)
    tables = crm_tables()
    with Cluster(path, shards=SHARDS, options=options) as cluster:
        for table in tables:
            cluster.define_table(table)
        for extension in crm_extensions():
            cluster.define_extension(extension)
        names = list(cluster.shards)
        for index in range(tenants):
            tenant = index + 1
            shard = names[index % SHARDS]
            cluster.catalog.pin(tenant, shard)
            healthcare = (index // SHARDS) % 2 == 1
            cluster.create_tenant(tenant, ("healthcare",) if healthcare else ())
            dataset.placement[tenant] = shard
            mtd = cluster.shards[shard].mtd
            for table in tables:
                view = mtd.schema.logical_table(tenant, table.name)
                parents = rows_per_table if table.name in CRM_PARENTS else None
                loaded = {}
                for number in range(rows_per_table):
                    values = generator.row(tenant, view, number, parents)
                    mtd.insert(tenant, table.name, values)
                    row = tuple(values.values())
                    loaded[values["id"]] = row
                    dataset.user_bytes += row_bytes(row)
                dataset.rows[tenant, table.name] = loaded
                dataset.views[tenant, table.name] = view
                lap()
        for shard in cluster.shards.values():
            shard.mtd.db.checkpoint()
    dataset.stored_bytes = directory_bytes(path)
    return dataset


def available_cpus() -> list[int]:
    """The cores this process may use; empty where threads cannot be
    pinned."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def pin_caller(cpus: list[int]) -> None:
    """The calling thread — set-up, load generator, event loop and
    server — to the first core.  See :func:`open_copy`."""
    if cpus:
        os.sched_setaffinity(0, {cpus[0]})


def open_copy(
    dataset: Dataset, work: Path, *, cold: bool, cpus: list[int]
) -> tuple[Cluster, dict[str, int]]:
    """Copy the dataset and open the copy with default options, so no
    workload sees another's writes.  ``ShardOptions`` has no memory
    knob, so a cold pool is sized here from the shard's own page count.

    Shard *i*'s worker thread is pinned to core *i* of ``cpus`` (the
    caller sits on the first): every thread has its place, the shards
    have distinct cores as far as there are any, and the placement is
    returned.  Left to the scheduler the three threads share a core or
    not from run to run, and a resident point select costs 0.5 ms or
    1.1 ms accordingly (README.md)."""
    shutil.copytree(dataset.path, work)
    cluster = Cluster.open(work)
    placement = {}
    for index, (name, shard) in enumerate(cluster.shards.items()):
        if cpus:
            placement[name] = cpus[index % len(cpus)]
            shard.pool.submit(
                os.sched_setaffinity, 0, {placement[name]}
            ).result()
    if cold:
        for shard in cluster.shards.values():
            db = shard.mtd.db
            stored = len(db.durability.store.page_ids())
            pages = max(MIN_POOL_PAGES, int(stored * COLD_POOL_SHARE))
            # memory_bytes too: lazy DDL re-derives the pool from it.
            db.memory_bytes = (
                pages * db.page_size + db.catalog.metadata_bytes
            )
            db.pool.resize(pages)
    return cluster, placement


def pool_pages(cluster: Cluster) -> dict[str, int]:
    return {
        name: shard.mtd.db.pool.capacity_pages
        for name, shard in cluster.shards.items()
    }
