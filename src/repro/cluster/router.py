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
client, which coroutines may share.  A connection's frames are served
one at a time and answered in order — the classic database-session
model ("one outstanding statement per connection") on asyncio — and it
yields to the loop after a frame when another of its frames is already
buffered, so one that pipelines cannot hold the front door.
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


class _Session(protocol.FrameProtocol):
    """One server-side connection; a task of its own serves its frames."""

    def __init__(self, server: ClusterServer) -> None:
        super().__init__()
        self.server = server

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self.task = asyncio.ensure_future(self.server._serve_connection(self))
        self.server._sessions.add(self)


class ClusterServer:
    """Serves the router over TCP (length-prefixed JSON frames)."""

    def __init__(self, router: Router, *, host: str = "127.0.0.1") -> None:
        self.router = router
        self.host = host
        self._server: asyncio.base_events.Server | None = None
        self._sessions: set[_Session] = set()
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
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Session(self), self.host, port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        tasks = [session.task for session in self._sessions]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._sessions.clear()

    async def _serve_connection(self, session: _Session) -> None:
        self._c_connections.inc()
        try:
            while True:
                body = await session.next_body()
                if body is None:
                    break
                request = protocol.decode_frame(body)
                self._c_frames.inc()
                response = await self._dispatch(request)
                await session.send(protocol.encode_frame(response))
                # An inline read never suspends and neither does a
                # buffered read or write: without this a connection
                # with frames queued would be served to the end first.
                if session.buffered:
                    await asyncio.sleep(0)
        except ProtocolError:
            pass  # unframeable input: drop the connection
        finally:
            self._sessions.discard(session)
            session.transport.close()

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
        self._connection: protocol.FrameProtocol | None = None

    async def connect(self) -> None:
        _, self._connection = await asyncio.get_running_loop().create_connection(
            protocol.FrameProtocol, self.host, self.port
        )

    async def close(self) -> None:
        if self._connection is not None:
            self._connection.transport.close()
            self._connection = None

    async def request(self, message: dict) -> dict:
        """Send one request and wait for its response; concurrent callers
        each claim the next response as they send (answers are FIFO)."""
        connection = self._connection
        if connection is None:
            raise ClusterError("client is not connected")
        frame = protocol.encode_frame(message)
        response = connection.next_body()
        await connection.send(frame)
        body = await response
        if body is None:
            raise ClusterError("server closed the connection")
        return protocol.decode_frame(body)

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
