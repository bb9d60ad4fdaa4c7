"""Cluster end-to-end: routing, isolation, the TCP front door, and
durable restart."""

import asyncio
import datetime
import json
import re
import socket
import struct
import threading

import pytest

from repro.cluster import Cluster, ClusterClient, ShardOptions, protocol
from repro.cluster.errors import ClusterError
from repro.engine import Database
from repro.engine.errors import ExecutionError

from .conftest import (
    TENANTS,
    build_cluster,
    framed_connection,
    other_shard,
    run,
    seed_rows,
)


class TestRouting:
    def test_tenants_spread_over_shards(self, mem_cluster):
        homes = {t: mem_cluster.shard_of(t) for t in (17, 35, 42)}
        assert set(homes.values()) <= set(mem_cluster.shards)
        assert len(set(homes.values())) > 1, homes

    def test_execute_routes_to_owning_shard(self, mem_cluster):
        async def go():
            await seed_rows(mem_cluster)
            result = await mem_cluster.execute(
                17, "SELECT name, beds FROM account WHERE aid = 1"
            )
            assert result.rows == [("Acme", 135)]

        run(go())

    def test_tenant_isolation_across_shards(self, mem_cluster):
        async def go():
            await seed_rows(mem_cluster)
            for tenant, name in ((17, "Acme"), (35, "Ball"), (42, "Big")):
                result = await mem_cluster.execute(
                    tenant, "SELECT name FROM account"
                )
                assert result.rows == [(name,)]

        run(go())

    def test_data_lands_on_the_placed_shard_only(self, mem_cluster):
        async def go():
            await seed_rows(mem_cluster)
            home = mem_cluster.shard_of(17)
            for name, shard in mem_cluster.shards.items():
                tenants = shard.mtd.tenant_ids()
                assert (17 in tenants) == (name == home)

        run(go())

    def test_unroutable_placement_fails_fast(self, mem_cluster):
        async def go():
            # A tenant pinned somewhere that doesn't own it: the
            # redirect loop must give up, not spin.
            stranger = other_shard(mem_cluster, 17)
            mem_cluster.catalog.pin(17, stranger)
            with pytest.raises(ClusterError):
                await mem_cluster.execute(17, "SELECT 1 FROM account")
            redirects = mem_cluster.metrics.get(
                "cluster.router.redirects"
            )
            assert redirects.value > 0

        run(go())

    def test_router_metrics_flow(self, mem_cluster):
        async def go():
            await seed_rows(mem_cluster)
            assert (
                mem_cluster.metrics.get("cluster.router.requests").value
                >= 3
            )
            latency = mem_cluster.metrics.get("cluster.router.latency_ms")
            assert latency.count >= 3

        run(go())

    def test_tenant_ids_union(self, mem_cluster):
        assert mem_cluster.tenant_ids() == [17, 35, 42]

    def test_drop_tenant(self, mem_cluster):
        mem_cluster.drop_tenant(35)
        assert mem_cluster.tenant_ids() == [17, 42]


class TestServer:
    def test_wire_round_trip(self, mem_cluster):
        async def go():
            await seed_rows(mem_cluster)
            server = mem_cluster.serve()
            await server.start()
            client = ClusterClient("127.0.0.1", server.port)
            await client.connect()
            try:
                assert await client.ping()
                row_id = await client.insert(
                    35,
                    "account",
                    {
                        "aid": 2,
                        "name": "Cork",
                        "opened": datetime.date(2004, 5, 6),
                    },
                )
                assert isinstance(row_id, int)
                result = await client.execute(
                    35, "SELECT name, opened FROM account ORDER BY aid"
                )
                assert result.rows == [
                    ("Ball", datetime.date(2002, 3, 4)),
                    ("Cork", datetime.date(2004, 5, 6)),
                ]
            finally:
                await client.close()
                await server.stop()

        run(go())

    def test_placement_op_and_errors(self, mem_cluster):
        async def go():
            server = mem_cluster.serve()
            await server.start()
            client = ClusterClient("127.0.0.1", server.port)
            await client.connect()
            try:
                placement = await client.call({"op": "placement"})
                assert placement["version"] == mem_cluster.catalog.version
                assert set(placement["shards"]) == set(mem_cluster.shards)
                unknown_tenant = await client.request(
                    {"op": "execute", "tenant_id": 99, "sql": "SELECT 1 FROM account"}
                )
                assert not unknown_tenant["ok"]
                assert unknown_tenant["error"] == "UnknownObjectError"
                bad_op = await client.request({"op": "explode"})
                assert not bad_op["ok"]
                assert bad_op["error"] == "BadRequest"
                missing_field = await client.request({"op": "execute"})
                assert not missing_field["ok"]
                assert missing_field["error"] == "BadRequest"
            finally:
                await client.close()
                await server.stop()

        run(go())

    def test_left_join_arrives_as_an_error_not_rows(self, mem_cluster):
        """An outer join run as an inner one would silently lose rows;
        over the front door the tenant gets a typed refusal instead."""

        async def go():
            await seed_rows(mem_cluster)
            server = mem_cluster.serve()
            await server.start()
            client = ClusterClient("127.0.0.1", server.port)
            await client.connect()
            try:
                for join in ("LEFT JOIN", "LEFT OUTER JOIN"):
                    response = await client.request(
                        {
                            "op": "execute",
                            "tenant_id": 35,
                            "sql": f"SELECT a.name FROM account a {join} "
                            "account b ON a.aid = b.aid",
                        }
                    )
                    assert not response["ok"]
                    assert "rows" not in response
                    assert response["error"] == "UnsupportedSyntaxError"
                    assert "LEFT [OUTER] JOIN" in response["message"]
                    assert "SEM011" in response["message"]
                # The connection still serves the next statement.
                result = await client.execute(35, "SELECT name FROM account")
                assert result.rows == [("Ball",)]
            finally:
                await client.close()
                await server.stop()

        run(go())

    @pytest.mark.parametrize(
        "sql, named",
        [
            ("SELECT aid / 0 FROM account", "division by zero"),
            ("SELECT TO_INT(name) FROM account", "TO_INT cannot convert 'Ball'"),
        ],
    )
    def test_runtime_error_keeps_the_connection(self, mem_cluster, sql, named):
        """A statement that fails while it runs answers with an
        ExecutionError frame, and the same connection serves the next
        request; the engine raises the same class."""

        async def go():
            await seed_rows(mem_cluster)
            server = mem_cluster.serve()
            await server.start()
            client = ClusterClient("127.0.0.1", server.port)
            await client.connect()
            try:
                response = await client.request(
                    {"op": "execute", "tenant_id": 35, "sql": sql}
                )
                assert not response["ok"]
                assert response["error"] == "ExecutionError"
                assert named in response["message"]
                result = await client.execute(35, "SELECT aid FROM account")
                assert result.rows == [(1,)]
            finally:
                await client.close()
                await server.stop()

        run(go())
        db = Database()
        db.execute("CREATE TABLE account (aid INTEGER, name VARCHAR(20))")
        db.execute("INSERT INTO account VALUES (1, 'Ball')")
        with pytest.raises(ExecutionError, match=named):
            db.execute(sql)

    @pytest.mark.parametrize(
        "sql, named",
        [
            ("SELECT aid + ? FROM account", "+ needs numbers, got 1 + 'x'"),
            ("SELECT ? * 2 FROM account", "* needs numbers, got 'x' * 2"),
            ("SELECT -? FROM account", "- needs a number, got 'x'"),
        ],
        ids=["plus", "times", "minus"],
    )
    def test_string_arithmetic_keeps_the_connection(self, mem_cluster, sql, named):
        """A string that meets arithmetic through a parameter, which the
        binder cannot type, answers with an ExecutionError frame naming
        the operator and the value — not BadRequest, and not Python's
        string repeat — and the connection serves the next request.
        The engine raises the same class for a VARCHAR column."""

        async def go():
            await seed_rows(mem_cluster)
            server = mem_cluster.serve()
            await server.start()
            client = ClusterClient("127.0.0.1", server.port)
            await client.connect()
            try:
                response = await client.request(
                    {"op": "execute", "tenant_id": 35, "sql": sql, "params": ["x"]}
                )
                assert not response["ok"]
                assert response["error"] == "ExecutionError"
                assert named in response["message"]
                result = await client.execute(35, "SELECT aid FROM account")
                assert result.rows == [(1,)]
            finally:
                await client.close()
                await server.stop()

        run(go())
        db = Database()
        db.execute("CREATE TABLE account (aid INTEGER, name VARCHAR(20))")
        db.execute("INSERT INTO account VALUES (1, 'Ball')")
        with pytest.raises(ExecutionError, match=re.escape(named)):
            db.execute(sql, ["x"])
        column = sql.replace("?", "name")
        with pytest.raises(ExecutionError, match="needs .*, got .*'Ball'"):
            db.execute(column)

    def test_garbage_frame_drops_connection_only(self, mem_cluster):
        async def go():
            server = mem_cluster.serve()
            await server.start()
            try:
                raw = await framed_connection(server.port)
                raw.transport.write(b"\xff\xff\xff\xffnonsense")
                assert await raw.next_body() is None  # dropped, no frame
                raw.transport.close()
                # The server is still healthy for framed clients.
                client = ClusterClient("127.0.0.1", server.port)
                await client.connect()
                assert await client.ping()
                await client.close()
            finally:
                await server.stop()

        run(go())

    def test_malformed_date_tag_drops_connection_only(self, mem_cluster):
        """A well-framed request with a ``$date`` that is no date: the
        connection is dropped like any unframeable input, its task ends
        cleanly, and the server keeps serving."""
        body = json.dumps(
            {"op": "execute", "tenant_id": 17, "sql": "SELECT 1",
             "params": [{"$date": "garbage"}]}
        ).encode()

        async def go():
            unhandled: list[dict] = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            server = mem_cluster.serve()
            await server.start()
            try:
                raw = await framed_connection(server.port)
                raw.transport.write(struct.pack(">I", len(body)) + body)
                assert await raw.next_body() is None  # dropped, no frame
                raw.transport.close()
                client = ClusterClient("127.0.0.1", server.port)
                await client.connect()
                assert await client.ping()
                await client.close()
            finally:
                await server.stop()
            assert unhandled == []

        run(go())

    def test_concurrent_sessions_interleave(self, mem_cluster):
        async def session(server, tenant, count):
            client = ClusterClient("127.0.0.1", server.port)
            await client.connect()
            try:
                for i in range(count):
                    await client.insert(
                        tenant, "account", {"aid": 100 + i, "name": f"s{i}"}
                    )
                result = await client.execute(
                    tenant,
                    "SELECT COUNT(*) FROM account WHERE aid >= 100",
                )
                return result.rows[0][0]
            finally:
                await client.close()

        async def go():
            server = mem_cluster.serve()
            await server.start()
            try:
                counts = await asyncio.gather(
                    *(session(server, t, 5) for t in (17, 35, 42))
                )
                assert counts == [5, 5, 5]
            finally:
                await server.stop()

        run(go())

    def test_one_client_shared_by_concurrent_coroutines(self, mem_cluster):
        """Responses are matched to requests in the order they were
        sent: 30 coroutines on one client each get their own tenant's
        rows, and the client still answers the next request right."""
        names = {17: "Acme", 35: "Ball", 42: "Big"}
        tenants = [TENANTS[i % len(TENANTS)] for i in range(30)]

        async def go():
            await seed_rows(mem_cluster)
            server = mem_cluster.serve()
            await server.start()
            client = ClusterClient("127.0.0.1", server.port)
            await client.connect()
            try:
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            client.execute(t, "SELECT name FROM account")
                            for t in tenants
                        )
                    ),
                    timeout=10,
                )
                assert [r.rows for r in results] == [
                    [(names[t],)] for t in tenants
                ]
                result = await client.execute(35, "SELECT name FROM account")
                assert result.rows == [("Ball",)]
            finally:
                await client.close()
                await server.stop()

        run(go())


class TestSlowAndVanishingClients:
    """What asyncio streams gave the front door for free: bounded
    buffering for a client that does not read, answers after a
    half-close, and a clean end for a client that leaves mid-request."""

    def test_unread_pipeline_is_bounded_then_answered_in_order(
        self, mem_cluster
    ):
        count, pad = 5000, "x" * 200
        requests = b"".join(
            protocol.encode_frame(
                {
                    "op": "execute",
                    "tenant_id": 17,
                    "sql": "SELECT ? FROM account",
                    "params": [f"{i}{pad}"],
                }
            )
            for i in range(count)
        )
        bound = protocol.PAUSE_AT + protocol.INITIAL_BUFFER

        async def go():
            loop = asyncio.get_running_loop()
            await seed_rows(mem_cluster)
            server = mem_cluster.serve()
            await server.start()
            client = await framed_connection(server.port)
            client.transport.pause_reading()
            try:
                while not server._sessions:
                    await asyncio.sleep(0.001)
                (session,) = server._sessions
                # A small kernel send buffer, so the front door's own
                # buffering is what the client's silence runs into.
                session.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                client.transport.write(requests)
                frames = mem_cluster.metrics.counter("cluster.server.frames")
                peak, quiet, deadline = 0, 0, loop.time() + 10
                while quiet < 200:  # until no frame is served for a while
                    peak = max(peak, session.buffered)
                    served = frames.value
                    await asyncio.sleep(0)
                    quiet = quiet + 1 if frames.value == served else 0
                    assert loop.time() < deadline
                assert peak <= bound, (peak, bound)
                assert frames.value < count  # the client's reads throttle it
                client.transport.resume_reading()
                for i in range(count):
                    response = protocol.decode_frame(await client.next_body())
                    assert response["rows"] == [[f"{i}{pad}"]]
            finally:
                client.transport.close()
                await server.stop()

        run(go())

    def test_frames_before_a_half_close_are_answered(self, mem_cluster):
        async def go():
            await seed_rows(mem_cluster)
            server = mem_cluster.serve()
            await server.start()
            client = await framed_connection(server.port)
            try:
                for tenant in TENANTS:
                    client.transport.write(
                        protocol.encode_frame(
                            {
                                "op": "execute",
                                "tenant_id": tenant,
                                "sql": "SELECT name FROM account",
                            }
                        )
                    )
                client.transport.write_eof()
                answers = [
                    protocol.decode_frame(await client.next_body())["rows"]
                    for _ in TENANTS
                ]
                assert answers == [[["Acme"]], [["Ball"]], [["Big"]]]
                assert await client.next_body() is None
            finally:
                client.transport.close()
                await server.stop()

        run(go())

    def test_client_gone_while_its_insert_is_queued(self, mem_cluster):
        """The INSERT commits, its answer has nowhere to go, nothing
        reaches the loop's exception handler, and other connections are
        served as before."""
        shard = mem_cluster.shards[mem_cluster.shard_of(17)]
        holding, release = threading.Event(), threading.Event()
        queued: list = []
        submit = shard.pool.submit

        def counting(fn, *args, **kwargs):
            queued.append(fn)
            return submit(fn, *args, **kwargs)

        def park():
            holding.set()
            assert release.wait(10)

        async def go():
            unhandled: list[dict] = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            await seed_rows(mem_cluster)
            server = mem_cluster.serve()
            await server.start()
            other = ClusterClient("127.0.0.1", server.port)
            await other.connect()
            shard.pool.submit = counting
            parked = asyncio.ensure_future(shard.submit(park))
            try:
                while not holding.is_set():
                    await asyncio.sleep(0.001)
                gone = await framed_connection(server.port)
                gone.transport.write(
                    protocol.encode_frame(
                        {
                            "op": "insert",
                            "tenant_id": 17,
                            "table": "account",
                            "values": {"aid": 7, "name": "Gone"},
                        }
                    )
                )
                while len(queued) < 2:  # the park, then the insert
                    await asyncio.sleep(0.001)
                gone.transport.close()
                await asyncio.sleep(0.01)
            finally:
                release.set()
                await parked
            try:
                for _ in range(3):
                    result = await other.execute(
                        17, "SELECT name FROM account WHERE aid = 7"
                    )
                    assert result.rows == [("Gone",)]
            finally:
                await other.close()
                await server.stop()
            assert unhandled == []

        run(go())


class TestDurability:
    def test_close_reopen_round_trip(self, tmp_path):
        cluster = build_cluster(tmp_path / "c")
        run(seed_rows(cluster))
        version = cluster.catalog.version
        cluster.close()
        reopened = Cluster.open(tmp_path / "c")
        try:
            assert reopened.tenant_ids() == [17, 35, 42]
            assert reopened.catalog.version >= version

            async def check():
                result = await reopened.execute(
                    17, "SELECT name, hospital FROM account"
                )
                assert result.rows == [("Acme", "St. Mary")]

            run(check())
        finally:
            reopened.close()

    def test_crash_reopen_keeps_committed_writes(self, tmp_path):
        cluster = build_cluster(tmp_path / "c")
        run(seed_rows(cluster))
        cluster.simulate_crash()
        reopened = Cluster.open(tmp_path / "c")
        try:
            async def check():
                for tenant, name in ((17, "Acme"), (35, "Ball"), (42, "Big")):
                    result = await reopened.execute(
                        tenant, "SELECT name FROM account"
                    )
                    assert result.rows == [(name,)]

            run(check())
        finally:
            reopened.close()

    def test_rejected_admin_call_does_not_brick_the_shard(self, tmp_path):
        """One bad admin request — a duplicate ``create_tenant``, a
        ``drop_tenant`` of nobody — left an ``admin_end`` the shard's
        next open re-interpreted and died on (``tenant 17 already
        exists`` / ``no tenant 999``): it could never be opened again."""
        cluster = build_cluster(tmp_path / "c")
        run(seed_rows(cluster))
        with pytest.raises(Exception, match="already exists"):
            cluster.create_tenant(17)
        with pytest.raises(Exception, match="no tenant"):
            cluster.drop_tenant(999)

        async def rows(of):
            return {
                tenant: (await of.execute(tenant, "SELECT * FROM account")).rows
                for tenant in (17, 35, 42)
            }

        live = run(rows(cluster))
        cluster.simulate_crash()
        reopened = Cluster.open(tmp_path / "c")
        try:
            assert reopened.tenant_ids() == [17, 35, 42]
            assert run(rows(reopened)) == live
            reopened.create_tenant(18)  # and it still takes admin calls
            assert reopened.tenant_ids() == [17, 18, 35, 42]
        finally:
            reopened.close()

    def test_double_close_is_safe(self, tmp_path):
        cluster = build_cluster(tmp_path / "c")
        cluster.close()
        cluster.close()

    def test_memory_cluster_cannot_reopen(self, mem_cluster):
        assert mem_cluster.path is None

    def test_storage_latency_option_accepted(self):
        cluster = build_cluster(
            options=ShardOptions(storage_latency_ms=0.1)
        )
        try:
            async def go():
                await cluster.insert(17, "account", {"aid": 9, "name": "z"})
                result = await cluster.execute(
                    17, "SELECT COUNT(*) FROM account"
                )
                assert result.rows == [(1,)]

            run(go())
        finally:
            cluster.close()


class TestScatterGather:
    """The admin plane fans out to shard workers concurrently: the
    wall-clock cost of a cluster-wide read is the slowest shard, not
    the sum of all shards."""

    @staticmethod
    def _slow_down(cluster, delay, shards=None):
        """Make each shard's tenant_ids job sleep on its worker thread."""
        import time

        for name, shard in cluster.shards.items():
            if shards is not None and name not in shards:
                continue
            original = shard.mtd.tenant_ids

            def slowed(original=original):
                time.sleep(delay)
                return original()

            shard.mtd.tenant_ids = slowed

    def test_gather_matches_serial_union(self, mem_cluster):
        assert run(mem_cluster.gather_tenant_ids()) == [17, 35, 42]

    def test_slow_shards_overlap_not_serialize(self):
        import time

        cluster = build_cluster(shards=4)
        try:
            delay = 0.2
            self._slow_down(cluster, delay)
            start = time.perf_counter()
            ids = run(cluster.gather_tenant_ids())
            elapsed = time.perf_counter() - start
            assert ids == [17, 35, 42]
            # Serial fan-out would cost ~4 * delay; concurrent
            # scatter-gather costs ~1 * delay.  Allow generous slack
            # for thread scheduling while staying far under serial.
            assert elapsed < 2.5 * delay, elapsed
        finally:
            cluster.close()

    def test_one_slow_shard_does_not_block_others(self, mem_cluster):
        import time

        slow = next(iter(mem_cluster.shards))
        self._slow_down(mem_cluster, 0.3, shards={slow})

        async def go():
            # The fast shards' results are available while the slow
            # shard is still sleeping; the gather completes in ~one
            # slow-shard delay.
            start = time.perf_counter()
            ids = await mem_cluster.gather_tenant_ids()
            return ids, time.perf_counter() - start

        ids, elapsed = run(go())
        assert ids == [17, 35, 42]
        assert elapsed < 0.75, elapsed

    def test_per_shard_timeout_names_the_shard(self, mem_cluster):
        slow = next(iter(mem_cluster.shards))
        self._slow_down(mem_cluster, 0.5, shards={slow})
        with pytest.raises(ClusterError, match=slow):
            run(mem_cluster.gather_tenant_ids(timeout=0.05))

    def test_gather_tenant_row_counts_merges_shards(self, mem_cluster):
        run(seed_rows(mem_cluster))
        counts = run(mem_cluster.gather_tenant_row_counts())
        assert counts == {
            17: {"account": 1},
            35: {"account": 1},
            42: {"account": 1},
        }
        # The sync facade sees the same cluster-wide view.
        assert mem_cluster.tenant_row_counts() == counts
