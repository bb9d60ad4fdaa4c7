"""Online tenant rebalancing: move a tenant between shards while it
serves traffic.

The protocol is the classic snapshot-plus-log-shipping move:

1. **copy** — begin write capture on the source, then snapshot each
   table.  Marking a table captured and reading its snapshot happen in
   one source-worker job (:meth:`ShardWorker.snapshot_table`), so every
   concurrent write lands in exactly one of {snapshot, capture log}.
   Snapshots are applied to the destination in chunked transactions.
2. **ship** — repeatedly drain the capture log and replay it on the
   destination until a round comes back small (the tenant's write rate
   bounds this; the round count is capped).
3. **cutover** — under the tenant's router lock (so no tenant request
   is in flight), one final source job drains the log tail *and*
   disowns the tenant; the tail is replayed on the destination, the
   destination adopts, and the catalog pins the tenant to the
   destination while advancing the journal to ``purge`` — one atomic
   file replace, the commit point of the whole move.
4. **purge** — drop the now-stale copy from the source and clear the
   journal.

Crash recovery reads the journal phase: before the commit point
(``copy``/``ship``/``cutover``) the source is authoritative and the
destination copy is dropped; at ``purge`` the catalog already points at
the destination, so recovery finishes the purge.  Either way the tenant
ends on exactly one shard.  A cluster-level
:class:`~repro.engine.durability.faults.FaultInjector` gets a named
crashpoint at each phase boundary.
"""

from __future__ import annotations

import time

from ..engine.durability.faults import FaultInjector
from ..engine.observability import MetricsRegistry
from .errors import ClusterError
from .placement import PlacementCatalog
from .router import Router
from .shard import ShardWorker


class Rebalancer:
    """Moves one tenant at a time between live shards."""

    def __init__(
        self,
        catalog: PlacementCatalog,
        shards: dict[str, ShardWorker],
        router: Router,
        *,
        metrics: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.catalog = catalog
        self.shards = shards
        self.router = router
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = faults
        self._c_moves = self.metrics.counter("cluster.rebalance.completed")
        self._c_rows = self.metrics.counter("cluster.rebalance.rows_copied")
        self._c_shipped = self.metrics.counter(
            "cluster.rebalance.shipped_entries"
        )

    def _crashpoint(self, name: str) -> None:
        if self.faults is not None:
            self.faults.crashpoint(name)

    async def rebalance(
        self,
        tenant_id: int,
        dest_name: str,
        *,
        copy_chunk: int = 64,
        drain_rounds: int = 8,
        drain_threshold: int = 4,
    ) -> dict:
        """Move ``tenant_id`` to shard ``dest_name``; returns move stats."""
        source_name = self.catalog.shard_for(tenant_id)
        if source_name == dest_name:
            raise ClusterError(
                f"tenant {tenant_id} is already on shard {dest_name!r}"
            )
        try:
            source = self.shards[source_name]
            dest = self.shards[dest_name]
        except KeyError as exc:
            raise ClusterError(f"unknown shard {exc.args[0]!r}") from None
        started = time.monotonic()
        stats = {
            "tenant_id": tenant_id,
            "source": source_name,
            "dest": dest_name,
            "tables": 0,
            "rows_copied": 0,
            "entries_shipped": 0,
            "ship_rounds": 0,
        }
        self.catalog.begin_rebalance(tenant_id, source_name, dest_name)
        try:
            await self._copy(tenant_id, source, dest, copy_chunk, stats)
            self.catalog.update_phase("ship")
            await self._ship(
                tenant_id, source, dest, drain_rounds, drain_threshold, stats
            )
            self.catalog.update_phase("cutover")
            await self._cutover(tenant_id, source, dest, stats)
            # Committed: from here the move only rolls forward.
            self._crashpoint("rebalance.purge")
            await source.submit(source.mtd.drop_tenant, tenant_id)
            self.catalog.clear_rebalance()
        except Exception:
            # Ordinary failure (not a simulated crash): roll back in
            # place — the commit point was not reached, the source still
            # owns the tenant, so discard the partial destination copy.
            await source.submit(source.end_capture)
            if tenant_id in await dest.submit(dest.mtd.tenant_ids):
                await dest.submit(dest.mtd.drop_tenant, tenant_id)
            await dest.submit(dest.disown, tenant_id, self.catalog.version)
            self.catalog.clear_rebalance()
            raise
        self._c_moves.inc()
        stats["duration_ms"] = (time.monotonic() - started) * 1000.0
        return stats

    # -- phases --------------------------------------------------------------

    async def _copy(
        self,
        tenant_id: int,
        source: ShardWorker,
        dest: ShardWorker,
        copy_chunk: int,
        stats: dict,
    ) -> None:
        extensions, tables = await source.submit(
            source.describe_tenant, tenant_id
        )
        if tenant_id in await dest.submit(dest._do_tenant_ids):
            # Debris from an earlier abandoned attempt.
            await dest.submit(dest.mtd.drop_tenant, tenant_id)
        await dest.submit(dest.mtd.create_tenant, tenant_id, extensions)
        await source.submit(source.begin_capture, tenant_id)
        for table in tables:
            rows = await source.submit(source.snapshot_table, tenant_id, table)
            self._crashpoint("rebalance.copy")
            stats["tables"] += 1
            for start in range(0, len(rows), copy_chunk):
                chunk = rows[start : start + copy_chunk]
                await dest.submit(
                    self._apply_chunk, dest, tenant_id, table, chunk
                )
                stats["rows_copied"] += len(chunk)
                self._c_rows.inc(len(chunk))

    @staticmethod
    def _apply_chunk(
        dest: ShardWorker, tenant_id: int, table: str, chunk: list
    ) -> None:
        with dest.mtd.db.atomic():
            for row_id, values in chunk:
                dest.mtd.insert(tenant_id, table, values, row_id=row_id)

    async def _ship(
        self,
        tenant_id: int,
        source: ShardWorker,
        dest: ShardWorker,
        drain_rounds: int,
        drain_threshold: int,
        stats: dict,
    ) -> None:
        for _round in range(drain_rounds):
            entries = await source.submit(source.drain_capture)
            stats["ship_rounds"] += 1
            if entries:
                await dest.submit(dest.apply_captured, tenant_id, entries)
                stats["entries_shipped"] += len(entries)
                self._c_shipped.inc(len(entries))
            self._crashpoint("rebalance.ship")
            if len(entries) <= drain_threshold:
                return

    async def _cutover(
        self,
        tenant_id: int,
        source: ShardWorker,
        dest: ShardWorker,
        stats: dict,
    ) -> None:
        async with self.router.tenant_lock(tenant_id):
            self._crashpoint("rebalance.cutover")
            new_version = self.catalog.version + 1
            # One source job: final drain + disown.  After it, any
            # late request raises WrongShardError and re-routes (it is
            # queued behind the tenant lock we hold).
            tail = await source.submit(
                source.end_capture, disown_version=new_version
            )
            if tail:
                await dest.submit(dest.apply_captured, tenant_id, tail)
                stats["entries_shipped"] += len(tail)
                self._c_shipped.inc(len(tail))
            await dest.submit(dest.adopt, tenant_id, new_version)
            # The commit point: pin flip + phase advance in one atomic
            # file replace.
            self.catalog.update_phase("purge", pin_dest=True)
