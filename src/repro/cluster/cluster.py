"""The cluster facade: one object owning catalog, shards, router, and
rebalancer.

Directory layout for a durable cluster rooted at ``path``::

    path/
      catalog.json          placement catalog + rebalance journal
      shards/<name>/        one engine directory per shard (WAL, pages)

Schema definition (``define_table`` / ``define_extension``) broadcasts
to every shard — the logical application schema is cluster-wide, as in
the paper's SaaS model — while tenants live on exactly one shard each,
chosen by the placement catalog.

:meth:`Cluster.open` is crash recovery: each shard recovers through its
own WAL, then the rebalance journal is resolved (roll the move back
before its commit point, forward after), then per-shard ownership sets
are rebuilt from the catalog.  A cluster that died mid-rebalance comes
back with the moving tenant on exactly one shard.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

from ..engine.database import Result
from ..engine.durability.faults import FaultInjector
from ..engine.observability import MetricsRegistry
from .errors import ClusterError
from .placement import PlacementCatalog
from .rebalance import Rebalancer
from .router import ClusterServer, Router
from .shard import ShardOptions, ShardWorker

CATALOG_FILE = "catalog.json"
SHARDS_DIR = "shards"


def _shard_names(shards: int | list[str] | tuple[str, ...]) -> list[str]:
    if isinstance(shards, int):
        if shards < 1:
            raise ClusterError("a cluster needs at least one shard")
        return [f"shard{i}" for i in range(shards)]
    names = list(shards)
    if not names:
        raise ClusterError("a cluster needs at least one shard")
    return names


class Cluster:
    """A tenant-sharded multi-tenant database cluster."""

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        shards: int | list[str] | tuple[str, ...] = 2,
        options: ShardOptions | None = None,
        faults: FaultInjector | None = None,
        _open: bool = False,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.options = options or ShardOptions()
        self.metrics = MetricsRegistry()
        #: Cluster-level fault injection (rebalance crashpoints); the
        #: per-shard engines have their own injectors via
        #: ``options.durability``.
        self.faults = faults
        self._closed = False
        catalog_path = None
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            catalog_path = self.path / CATALOG_FILE
        if _open:
            assert catalog_path is not None
            self.catalog = PlacementCatalog.load(catalog_path)
            names = self.catalog.shards
        else:
            names = _shard_names(shards)
            self.catalog = PlacementCatalog(names, path=catalog_path)
        self.shards: dict[str, ShardWorker] = {}
        for name in names:
            shard_path = (
                self.path / SHARDS_DIR / name if self.path is not None else None
            )
            self.shards[name] = ShardWorker(
                name,
                shard_path,
                options=self.options,
                metrics=self.metrics,
                recover=_open,
            )
        if _open:
            self._resolve_journal()
        self._rebuild_ownership()
        self.catalog.save()
        self.router = Router(self.catalog, self.shards, metrics=self.metrics)
        self.rebalancer = Rebalancer(
            self.catalog,
            self.shards,
            self.router,
            metrics=self.metrics,
            faults=self.faults,
        )

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        options: ShardOptions | None = None,
        faults: FaultInjector | None = None,
    ) -> "Cluster":
        """Recover a durable cluster from its directory."""
        return cls(path, options=options, faults=faults, _open=True)

    # -- recovery ------------------------------------------------------------

    def _resolve_journal(self) -> None:
        journal = self.catalog.rebalance
        if journal is None:
            return
        tenant_id = journal["tenant_id"]
        phase = journal["phase"]
        if phase == "purge":
            # Past the commit point: the catalog already pins the
            # tenant to the destination — finish the purge.
            shard = self.shards[journal["source"]]
        else:
            # Before the commit point: the source is authoritative —
            # discard the partial destination copy.
            shard = self.shards[journal["dest"]]
        if tenant_id in shard.mtd.tenant_ids():
            shard.mtd.drop_tenant(tenant_id)
        self.catalog.clear_rebalance()

    def _rebuild_ownership(self) -> None:
        for shard in self.shards.values():
            for tenant_id in shard.mtd.tenant_ids():
                if self.catalog.shard_for(tenant_id) == shard.name:
                    shard.adopt(tenant_id, self.catalog.version)

    # -- schema & tenants (synchronous, under each shard's engine mutex) ------

    def define_table(self, table) -> None:
        for shard in self.shards.values():
            shard.run(shard.mtd.define_table, table)

    def define_extension(self, extension) -> None:
        for shard in self.shards.values():
            shard.run(shard.mtd.define_extension, extension)

    def create_tenant(
        self, tenant_id: int, extensions: tuple[str, ...] = ()
    ) -> str:
        """Create a tenant on its placed shard; returns the shard name."""
        name = self.catalog.shard_for(tenant_id)
        shard = self.shards[name]
        shard.run(shard.mtd.create_tenant, tenant_id, extensions)
        shard.run(shard.adopt, tenant_id, self.catalog.version)
        return name

    def drop_tenant(self, tenant_id: int) -> None:
        name = self.catalog.shard_for(tenant_id)
        shard = self.shards[name]
        shard.run(shard.mtd.drop_tenant, tenant_id)
        shard.run(shard.disown, tenant_id, self.catalog.version)
        self.catalog.unpin(tenant_id)
        self.catalog.save()

    async def _scatter(
        self, job_name: str, *, timeout: float | None = None
    ) -> list:
        """Run one admin job on every shard's worker thread concurrently.

        A per-shard timeout bounds how long one stalled shard can hold
        the whole fan-out hostage; on expiry the gather fails with a
        :class:`ClusterError` naming the shard (the job itself keeps
        running on the worker thread — admin reads are side-effect
        free, so abandoning the result is safe)."""

        async def one(shard: ShardWorker):
            job = shard.submit(getattr(shard, job_name))
            if timeout is None:
                return await job
            try:
                return await asyncio.wait_for(job, timeout)
            except asyncio.TimeoutError:
                raise ClusterError(
                    f"shard {shard.name!r} did not answer "
                    f"{job_name.removeprefix('_do_')} within {timeout:g}s"
                ) from None

        return await asyncio.gather(
            *(one(shard) for shard in self.shards.values())
        )

    async def gather_tenant_ids(
        self, *, timeout: float | None = None
    ) -> list[int]:
        """Union of tenant ids across all shards, gathered concurrently."""
        ids: set[int] = set()
        for shard_ids in await self._scatter("_do_tenant_ids", timeout=timeout):
            ids.update(shard_ids)
        return sorted(ids)

    async def gather_tenant_row_counts(
        self, *, timeout: float | None = None
    ) -> dict[int, dict[str, int]]:
        """Per-tenant logical row counts across the whole cluster.

        Each shard counts its own tenants on its worker thread; the
        fan-out overlaps shard work, so the wall-clock cost is the
        slowest shard, not the sum."""
        merged: dict[int, dict[str, int]] = {}
        for counts in await self._scatter(
            "_do_tenant_row_counts", timeout=timeout
        ):
            merged.update(counts)
        return dict(sorted(merged.items()))

    def tenant_ids(self) -> list[int]:
        """Synchronous facade over the concurrent scatter-gather (for
        call sites with no event loop of their own)."""
        return asyncio.run(self.gather_tenant_ids())

    def tenant_row_counts(self) -> dict[int, dict[str, int]]:
        return asyncio.run(self.gather_tenant_row_counts())

    def shard_of(self, tenant_id: int) -> str:
        return self.catalog.shard_for(tenant_id)

    # -- data plane ----------------------------------------------------------

    async def execute(
        self, tenant_id: int, sql: str, params: tuple = ()
    ) -> Result:
        return await self.router.execute(tenant_id, sql, params)

    async def insert(
        self,
        tenant_id: int,
        table: str,
        values: dict,
        *,
        row_id: int | None = None,
    ) -> int:
        return await self.router.insert(tenant_id, table, values, row_id=row_id)

    async def rebalance(self, tenant_id: int, dest: str, **kwargs) -> dict:
        return await self.rebalancer.rebalance(tenant_id, dest, **kwargs)

    def serve(self, *, host: str = "127.0.0.1") -> ClusterServer:
        return ClusterServer(self.router, host=host)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self.shards.values():
            shard.close()
        self.catalog.save()

    def simulate_crash(self) -> None:
        """Power-cut the whole cluster: every shard dies unflushed; the
        catalog file stays as last atomically replaced."""
        if self._closed:
            return
        self._closed = True
        for shard in self.shards.values():
            shard.simulate_crash()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
