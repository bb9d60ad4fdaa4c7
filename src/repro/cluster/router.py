"""The stateless front door: routing, retry, and the asyncio server.

The :class:`Router` holds no tenant data — only the placement catalog
and the shard handles.  Correctness under stale placement comes from
the redirect loop: a shard that no longer owns a tenant raises
:class:`WrongShardError`, the router re-reads the (possibly just
updated) catalog and retries, bounded by :data:`MAX_REDIRECTS`.

Per-tenant ordering: requests for one tenant are serialized through a
per-tenant ``asyncio.Lock`` *in addition to* the per-shard engine
mutex.  The mutex alone serializes same-shard work, but during a
redirect a tenant's next request could otherwise overtake the retried
one; the lock keeps each tenant's operations in submission order across
redirects and rebalances.

Where a statement runs is the shard's decision, not the router's
(:meth:`ShardWorker.execute`): a read on an idle shard runs to
completion on the thread that called the router — the event loop's,
under :class:`ClusterServer` — and everything that can wait on stable
storage runs on the shard's worker thread while the loop serves other
connections.

:class:`ClusterServer` exposes the router over TCP with the
length-prefixed JSON protocol; :class:`ClusterClient` is the matching
client.  Frames on one connection are handled sequentially, which maps
the classic database-session model ("one outstanding statement per
connection") onto asyncio; a connection yields to the loop after every
frame it is served, so one that pipelines cannot hold the front door.
"""

from __future__ import annotations

import asyncio
from typing import Any

from ..engine.database import Result
from ..engine.errors import EngineError, UnknownObjectError
from ..engine.observability import MetricsRegistry
from . import protocol
from .errors import ClusterError, ProtocolError, WrongShardError
from .placement import PlacementCatalog
from .shard import ShardWorker

#: Redirects one request follows before giving up (a cut-over takes one).
MAX_REDIRECTS = 4


class Router:
    """Routes tenant operations to shards, retrying on WrongShard."""

    def __init__(
        self,
        catalog: PlacementCatalog,
        shards: dict[str, ShardWorker],
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.catalog = catalog
        self.shards = shards
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tenant_locks: dict[int, asyncio.Lock] = {}
        self._c_requests = self.metrics.counter("cluster.router.requests")
        self._c_redirects = self.metrics.counter("cluster.router.redirects")
        self._h_latency = self.metrics.histogram("cluster.router.latency_ms")

    def tenant_lock(self, tenant_id: int) -> asyncio.Lock:
        lock = self._tenant_locks.get(tenant_id)
        if lock is None:
            lock = self._tenant_locks[tenant_id] = asyncio.Lock()
        return lock

    def shard_for(self, tenant_id: int) -> ShardWorker:
        name = self.catalog.shard_for(tenant_id)
        try:
            return self.shards[name]
        except KeyError:
            raise ClusterError(f"placement names unknown shard {name!r}") from None

    async def _routed(self, tenant_id: int, op) -> Any:
        """Run ``op(shard)`` on the owning shard, following redirects."""
        self._c_requests.inc()
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            async with self.tenant_lock(tenant_id):
                for _attempt in range(MAX_REDIRECTS + 1):
                    shard = self.shard_for(tenant_id)
                    try:
                        return await op(shard)
                    except WrongShardError:
                        # A tenant no shard has ever heard of is a
                        # user error, not stale placement.
                        for s in self.shards.values():
                            if tenant_id in await s.submit(s._do_tenant_ids):
                                break
                        else:
                            raise UnknownObjectError(
                                f"unknown tenant {tenant_id}"
                            ) from None
                        # The catalog may already be newer than the
                        # view this routing used (rebalance cut-over
                        # bumps it before the shard disowns) — loop to
                        # re-read it.  A rebalance still mid-cut-over
                        # resolves within a bounded number of retries
                        # because the cut-over itself holds this
                        # tenant's lock.
                        self._c_redirects.inc()
                        await asyncio.sleep(0)
                raise ClusterError(
                    f"tenant {tenant_id}: placement did not converge after "
                    f"{MAX_REDIRECTS} redirects"
                )
        finally:
            self._h_latency.observe((loop.time() - started) * 1000.0)

    async def execute(
        self, tenant_id: int, sql: str, params: tuple = ()
    ) -> Result:
        return await self._routed(
            tenant_id, lambda shard: shard.execute(tenant_id, sql, params)
        )

    async def insert(
        self,
        tenant_id: int,
        table: str,
        values: dict,
        *,
        row_id: int | None = None,
    ) -> int:
        return await self._routed(
            tenant_id,
            lambda shard: shard.insert(tenant_id, table, values, row_id=row_id),
        )


class ClusterServer:
    """Serves the router over TCP (length-prefixed JSON frames)."""

    def __init__(self, router: Router, *, host: str = "127.0.0.1") -> None:
        self.router = router
        self.host = host
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._c_connections = self.router.metrics.counter(
            "cluster.server.connections"
        )
        self._c_frames = self.router.metrics.counter("cluster.server.frames")

    @property
    def port(self) -> int:
        if self._server is None:
            raise ClusterError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def start(self, port: int = 0) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._c_connections.inc()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await protocol.read_frame(reader)
                except ProtocolError:
                    break  # unframeable input: drop the connection
                if request is None:
                    break
                self._c_frames.inc()
                response = await self._dispatch(request)
                await protocol.write_frame(writer, response)
                # An inline read never suspends and neither does a
                # buffered read or write: without this a connection
                # with frames queued would be served to the end first.
                await asyncio.sleep(0)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels us mid-read; end the task cleanly
            # (3.11's stream wrapper logs tasks that die cancelled).
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        try:
            if op == "ping":
                return protocol.ok_response(pong=True)
            if op == "placement":
                return protocol.ok_response(
                    version=self.router.catalog.version,
                    shards=self.router.catalog.shards,
                )
            if op == "execute":
                result = await self.router.execute(
                    int(request["tenant_id"]),
                    request["sql"],
                    tuple(request.get("params", ())),
                )
                return protocol.ok_response(
                    columns=result.columns,
                    rows=result.rows,
                    rowcount=result.rowcount,
                )
            if op == "insert":
                row_id = await self.router.insert(
                    int(request["tenant_id"]),
                    request["table"],
                    request["values"],
                    row_id=request.get("row_id"),
                )
                return protocol.ok_response(row_id=row_id)
            return protocol.error_response(
                "BadRequest", f"unknown op {op!r}"
            )
        except WrongShardError as exc:
            return protocol.error_response(
                "WrongShard",
                str(exc),
                shard=exc.shard,
                placement_version=exc.placement_version,
            )
        except EngineError as exc:
            return protocol.error_response(type(exc).__name__, str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            return protocol.error_response(
                "BadRequest", f"malformed request: {exc!r}"
            )


class ClusterClient:
    """A thin async client for :class:`ClusterServer`."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._reader = self._writer = None

    async def request(self, message: dict) -> dict:
        if self._reader is None or self._writer is None:
            raise ClusterError("client is not connected")
        await protocol.write_frame(self._writer, message)
        response = await protocol.read_frame(self._reader)
        if response is None:
            raise ClusterError("server closed the connection")
        return response

    async def call(self, message: dict) -> dict:
        """``request`` + raise :class:`ClusterError` on error responses."""
        response = await self.request(message)
        if not response.get("ok"):
            raise ClusterError(
                f"{response.get('error')}: {response.get('message')}"
            )
        return response

    async def ping(self) -> bool:
        return bool((await self.call({"op": "ping"}))["pong"])

    async def execute(
        self, tenant_id: int, sql: str, params: tuple = ()
    ) -> Result:
        response = await self.call(
            {
                "op": "execute",
                "tenant_id": tenant_id,
                "sql": sql,
                "params": list(params),
            }
        )
        return Result(
            response["columns"],
            protocol.decode_rows(response["rows"]),
            response["rowcount"],
        )

    async def insert(
        self,
        tenant_id: int,
        table: str,
        values: dict,
        *,
        row_id: int | None = None,
    ) -> int:
        message: dict = {
            "op": "insert",
            "tenant_id": tenant_id,
            "table": table,
            "values": values,
        }
        if row_id is not None:
            message["row_id"] = row_id
        return int((await self.call(message))["row_id"])
