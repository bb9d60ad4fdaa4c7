"""One shard: a :class:`MultiTenantDatabase` behind an engine mutex and
a worker thread.

The engine is synchronous and single-entry.  Each shard owns one engine
mutex, held for the whole of every operation against it, and a
one-thread ``ThreadPoolExecutor`` for the operations that can wait on
stable storage.  That gives three properties at once:

* the asyncio front door never waits on *stable storage* — everything
  that commits (a write's fsync, a checkpoint, the simulated storage
  latency), every admin-plane and rebalance job runs as a job on the
  worker thread, and the loop awaits its future while other shards'
  threads make progress (fsyncs and sleeps release the GIL);
* a shard's engine is entered by one thread at a time — not by one
  thread ever — so per-shard state (ownership set, capture log) needs
  no finer locks; and
* multi-step jobs submitted by the rebalancer (e.g. "mark this table
  captured *and* snapshot it") are atomic with respect to *all* engine
  access, because a job holds the mutex from its first step to its
  last.

Reads run to completion where they arrive: :meth:`ShardWorker.execute`
runs a ``SELECT`` on the calling thread when the shard is idle (the
mutex is free), because crossing to the worker and back costs two GIL
hand-offs — several times the resident point read itself.  A read that
finds the shard busy queues behind the job that holds it, like a write.
The trade-offs: a long report holds the event loop for its duration
instead of in 5 ms GIL slices, and a ``SELECT`` that lazily
materialises a tenant's fragments may fsync one DDL record inline,
once.

Ownership is enforced here, not just at the router: every request
carries an implicit "I believe you own tenant T" claim, and a shard
that does not raises :class:`WrongShardError` carrying its placement
version, so stale routers self-correct.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..core.api import MultiTenantDatabase
from ..engine.database import Database, Result
from ..engine.durability import DurabilityOptions
from ..engine.errors import ParseError, PlanError
from ..engine.observability import MetricsRegistry
from ..engine.sql import ast
from .errors import ShardClosedError, WrongShardError

_WRITE_NODES = (ast.Insert, ast.Update, ast.Delete)


@dataclass
class ShardOptions:
    """Per-shard engine configuration."""

    layout: str = "chunk_folding"
    layout_options: dict = field(default_factory=dict)
    #: Simulated stable-storage commit latency per write, slept on the
    #: shard's worker thread.  Models the fsync / replication RTT of a
    #: production storage service; the local research engine's real
    #: fsync is too fast (~0.1 ms) to exercise the overlap the async
    #: front door exists to provide.  0 disables.
    storage_latency_ms: float = 0.0
    durability: DurabilityOptions | None = None


class ShardWorker:
    """A named shard; all engine access funnels through one mutex."""

    def __init__(
        self,
        name: str,
        path: str | Path | None = None,
        *,
        options: ShardOptions | None = None,
        metrics: MetricsRegistry | None = None,
        recover: bool = False,
    ) -> None:
        self.name = name
        self.path = Path(path) if path is not None else None
        self.options = options or ShardOptions()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._closed = False
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            db = Database(
                path=str(self.path),
                durability=self.options.durability or DurabilityOptions(),
            )
        else:
            db = Database()
        if recover:
            self.mtd = MultiTenantDatabase.recover(db)
        else:
            self.mtd = MultiTenantDatabase(
                layout=self.options.layout,
                db=db,
                **self.options.layout_options,
            )
        #: Tenants this shard believes it owns, and the placement
        #: version under which it was last told so.
        self.owned: set[int] = set()
        self.placement_version = 0
        #: Capture state for an in-flight rebalance: writes to captured
        #: tables of the moving tenant are logged for shipping.
        self._capture_tenant: int | None = None
        self._captured_tables: set[str] = set()
        self._capture_log: list[dict] = []
        #: Held by whichever thread is inside the engine: a worker job
        #: for its whole duration, or the caller of an inline read.
        self._engine = threading.Lock()
        self.pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"shard-{name}"
        )
        self._c_requests = self.metrics.counter(
            f"cluster.shard.{name}.requests"
        )
        self._c_inline = self.metrics.counter(
            f"cluster.shard.{name}.inline_reads"
        )
        self._c_wrong = self.metrics.counter(
            f"cluster.shard.{name}.wrong_shard"
        )
        self._c_captured = self.metrics.counter(
            f"cluster.shard.{name}.captured_writes"
        )

    # -- ownership (run holding the engine mutex) ----------------------------

    def adopt(self, tenant_id: int, version: int) -> None:
        self.owned.add(tenant_id)
        self.placement_version = max(self.placement_version, version)

    def disown(self, tenant_id: int, version: int) -> None:
        self.owned.discard(tenant_id)
        self.placement_version = max(self.placement_version, version)

    def _check_owned(self, tenant_id: int) -> None:
        if self._closed:
            raise ShardClosedError(f"shard {self.name!r} is closed")
        if tenant_id not in self.owned:
            self._c_wrong.inc()
            raise WrongShardError(tenant_id, self.name, self.placement_version)

    # -- engine operations (run holding the engine mutex) --------------------

    def _storage_stall(self) -> None:
        if self.options.storage_latency_ms > 0:
            time.sleep(self.options.storage_latency_ms / 1000.0)

    def _capture(self, tenant_id: int, table: str, entry: dict) -> None:
        if (
            self._capture_tenant == tenant_id
            and table.lower() in self._captured_tables
        ):
            self._capture_log.append(entry)
            self._c_captured.inc()

    def _do_execute(
        self,
        tenant_id: int,
        sql: str,
        params: tuple = (),
        *,
        inline: bool = False,
    ) -> Result:
        self._check_owned(tenant_id)
        self._c_requests.inc()
        if inline:
            self._c_inline.inc()
        stmt = self.mtd._parse_logical(sql)
        if isinstance(stmt, ast.CreateTable):
            # Defined here it would exist on this shard only: unknown
            # to tenants elsewhere, and this tenant could not be moved.
            raise PlanError(
                f"CREATE TABLE {stmt.table}: base tables are defined on "
                "every shard at once, through Cluster.define_table"
            )
        result = self.mtd._execute_parsed(tenant_id, sql, stmt, params)
        if isinstance(stmt, _WRITE_NODES):
            self._capture(
                tenant_id,
                stmt.table,
                {"kind": "sql", "sql": sql, "params": list(params)},
            )
            self._storage_stall()
        return result

    def _do_insert(
        self,
        tenant_id: int,
        table: str,
        values: dict,
        *,
        row_id: int | None = None,
    ) -> int:
        self._check_owned(tenant_id)
        self._c_requests.inc()
        rid = self.mtd.insert(tenant_id, table, values, row_id=row_id)
        self._capture(
            tenant_id,
            table,
            {"kind": "insert", "table": table, "values": values, "row_id": rid},
        )
        self._storage_stall()
        return rid

    # -- admin-plane jobs (worker thread, holding the engine mutex) ----------

    def _do_tenant_ids(self) -> list[int]:
        return self.mtd.tenant_ids()

    def _do_tenant_row_counts(self) -> dict[int, dict[str, int]]:
        return {
            tenant_id: self.mtd.tenant_row_counts(tenant_id)
            for tenant_id in self.mtd.tenant_ids()
        }

    # -- capture protocol (jobs submitted by the rebalancer) -----------------

    def describe_tenant(self, tenant_id: int) -> tuple[tuple[str, ...], list[str]]:
        """What a destination needs to recreate the tenant: its
        extensions, and the logical tables to copy."""
        config = self.mtd.schema.tenant(tenant_id)
        tables = [table.name for table in self.mtd.schema.tables()]
        return tuple(sorted(config.extensions)), tables

    def begin_capture(self, tenant_id: int) -> None:
        self._capture_tenant = tenant_id
        self._captured_tables = set()
        self._capture_log = []

    def snapshot_table(
        self, tenant_id: int, table: str
    ) -> list[tuple[int | None, dict]]:
        """Mark ``table`` captured and snapshot it — one atomic job.

        Because marking and reading happen under one hold of the engine
        mutex with no interleaved traffic, every tenant write is either
        in the snapshot (ran before this job) or in the capture log
        (ran after) — never both, never neither.
        """
        rows = self.mtd.export_rows(tenant_id, table)
        self._captured_tables.add(table.lower())
        return rows

    def drain_capture(self) -> list[dict]:
        drained = self._capture_log
        self._capture_log = []
        return drained

    def end_capture(self, *, disown_version: int | None = None) -> list[dict]:
        """Stop capturing; optionally drop ownership in the same job.

        Disowning atomically with the final drain is the cut-over: any
        request landing after this job gets :class:`WrongShardError`
        and is re-routed, so no write can miss both the shipped log and
        the destination.
        """
        tail = self.drain_capture()
        if disown_version is not None and self._capture_tenant is not None:
            self.disown(self._capture_tenant, disown_version)
        self._capture_tenant = None
        self._captured_tables = set()
        return tail

    def apply_captured(self, tenant_id: int, entries: list[dict]) -> int:
        """Replay shipped capture-log entries (runs on the *dest* shard)."""
        applied = 0
        for entry in entries:
            if entry["kind"] == "insert":
                self.mtd.insert(
                    tenant_id,
                    entry["table"],
                    entry["values"],
                    row_id=entry["row_id"],
                )
            else:
                self.mtd.execute(
                    tenant_id, entry["sql"], tuple(entry["params"])
                )
            applied += 1
        return applied

    # -- entering the engine -------------------------------------------------

    def run(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """``fn`` on the calling thread, holding the engine mutex."""
        with self._engine:
            return fn(*args, **kwargs)

    async def submit(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run any shard job on the worker thread, holding the engine
        mutex for its whole duration."""
        if self._closed:
            raise ShardClosedError(f"shard {self.name!r} is closed")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self.pool, functools.partial(self.run, fn, *args, **kwargs)
        )

    def _is_select(self, sql: str) -> bool:
        """Whether ``sql`` parses as a SELECT (the cached parse; call
        holding the engine mutex).  Text that does not parse is "no":
        the worker job raises the error, after the ownership check."""
        try:
            return isinstance(self.mtd._parse_logical(sql), ast.Select)
        except ParseError:
            return False

    async def execute(
        self, tenant_id: int, sql: str, params: tuple = ()
    ) -> Result:
        """Run a statement — the one place that decides *where*.

        A SELECT on an idle shard runs to completion on the calling
        thread: it commits nothing, so it cannot wait on stable storage,
        and the hop to the worker and back would cost more than the
        read.  Everything that commits, and any read that finds the
        shard busy, queues on the worker thread."""
        if self._engine.acquire(blocking=False):
            try:
                if self._is_select(sql):
                    return self._do_execute(
                        tenant_id, sql, params, inline=True
                    )
            finally:
                self._engine.release()
        return await self.submit(self._do_execute, tenant_id, sql, params)

    async def insert(
        self,
        tenant_id: int,
        table: str,
        values: dict,
        *,
        row_id: int | None = None,
    ) -> int:
        return await self.submit(
            self._do_insert, tenant_id, table, values, row_id=row_id
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.pool.shutdown(wait=True)
        # An inline read may still be inside the engine on another
        # thread; it finishes first, and the next one finds us closed.
        with self._engine:
            self.mtd.db.close()

    def simulate_crash(self) -> None:
        """Die like a power cut: stop the worker and drop the file
        handles without flushing anything buffered in user space."""
        if self._closed:
            return
        self._closed = True
        self.pool.shutdown(wait=True, cancel_futures=True)
        db = self.mtd.db
        durability = db.durability
        with self._engine:
            if durability is not None:
                wal_file = durability.wal._file
                if wal_file is not None:
                    wal_file.close()
                    durability.wal._file = None
                durability.store.close()
            db._closed = True  # keep a later close() from flushing
