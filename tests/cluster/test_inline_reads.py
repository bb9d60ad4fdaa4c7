"""Run-to-completion reads: where a statement runs, what it waits
behind, who gets the front door next, and the codec that carries it."""

import asyncio
import datetime
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterClient, protocol
from repro.cluster.errors import ShardClosedError
from repro.engine.errors import PlanError

from .conftest import TENANTS, observe_jobs, run, seed_rows

SELECT = "SELECT aid FROM account ORDER BY aid"


def record_threads(shard) -> list[tuple[str, int]]:
    """Note the thread each call of the shard's two data-plane jobs
    runs on; returns the ``(job, thread id)`` list they append to."""
    seen: list[tuple[str, int]] = []
    observe_jobs(
        shard,
        ("_do_execute", "_do_insert"),
        lambda name: seen.append((name, threading.get_ident())),
    )
    return seen


def count_pool_jobs(shard) -> list:
    jobs: list = []
    submit = shard.pool.submit

    def counting(fn, *args, **kwargs):
        jobs.append(fn)
        return submit(fn, *args, **kwargs)

    shard.pool.submit = counting
    return jobs


class TestWhereAStatementRuns:
    def test_idle_select_runs_on_the_callers_thread(self, mem_cluster):
        shard = mem_cluster.shards[mem_cluster.shard_of(17)]
        value = mem_cluster.metrics.value
        prefix = f"cluster.shard.{shard.name}"

        async def go():
            await seed_rows(mem_cluster)
            requests = value(f"{prefix}.requests")
            seen, jobs = record_threads(shard), count_pool_jobs(shard)
            result = await mem_cluster.execute(17, SELECT)
            assert result.rows == [(1,)]
            assert seen == [("_do_execute", threading.get_ident())]
            assert jobs == []
            assert value(f"{prefix}.inline_reads") == 1
            assert value(f"{prefix}.requests") == requests + 1

        run(go())

    def test_everything_that_commits_runs_on_the_shard_thread(
        self, mem_cluster
    ):
        shard = mem_cluster.shards[mem_cluster.shard_of(17)]
        worker = run(shard.submit(threading.get_ident))
        assert worker != threading.get_ident()

        async def go():
            await seed_rows(mem_cluster)
            seen, jobs = record_threads(shard), count_pool_jobs(shard)
            for sql in (
                "INSERT INTO account (aid, name) VALUES (2, 'Two')",
                "UPDATE account SET name = 'Deux' WHERE aid = 2",
                "DELETE FROM account WHERE aid = 2",
            ):
                await mem_cluster.execute(17, sql)
            await mem_cluster.insert(17, "account", {"aid": 3, "name": "Three"})
            assert [thread for _, thread in seen] == [worker] * 4
            assert len(jobs) == 4

        run(go())
        inline = f"cluster.shard.{shard.name}.inline_reads"
        assert mem_cluster.metrics.value(inline) == 0

    def test_create_table_is_refused_on_the_data_plane(self, mem_cluster):
        """One shard would get the table (tenant 2 could not see it and
        tenant 1 could not be moved): the statement is refused before
        any shard's schema changes, and names the call that broadcasts."""

        def base_tables():
            return [
                sorted(table.name for table in shard.mtd.schema.tables())
                for shard in mem_cluster.shards.values()
            ]

        before = base_tables()
        with pytest.raises(PlanError, match="Cluster.define_table"):
            run(mem_cluster.execute(17, "CREATE TABLE note (id INTEGER)"))
        assert base_tables() == before == [before[0]] * len(before)

    def test_closed_shard_refuses_the_inline_read(self, mem_cluster):
        shard = mem_cluster.shards[mem_cluster.shard_of(17)]
        shard.close()
        with pytest.raises(ShardClosedError):
            run(shard.execute(17, SELECT))


class TestBusyShard:
    def test_read_queues_behind_the_job_and_sees_its_write(self, mem_cluster):
        """While a worker job holds the engine, a SELECT for that shard
        waits its turn on the worker; the other shard's reads still run
        to completion on the loop."""
        busy = mem_cluster.shards[mem_cluster.shard_of(17)]
        elsewhere = next(
            t for t in TENANTS if mem_cluster.shard_of(t) != busy.name
        )
        idle = mem_cluster.shards[mem_cluster.shard_of(elsewhere)]
        holding, release = threading.Event(), threading.Event()

        def parked_write():
            busy.mtd.insert(17, "account", {"aid": 99, "name": "parked"})
            holding.set()
            assert release.wait(10)
            return threading.get_ident()

        async def go():
            await seed_rows(mem_cluster)
            job = asyncio.ensure_future(busy.submit(parked_write))
            while not holding.is_set():
                await asyncio.sleep(0.001)
            try:
                queued, inline = record_threads(busy), record_threads(idle)
                jobs = count_pool_jobs(busy)
                read = asyncio.ensure_future(mem_cluster.execute(17, SELECT))
                await asyncio.sleep(0)  # runs it up to its first wait
                assert len(jobs) == 1
                other = await mem_cluster.execute(elsewhere, SELECT)
                assert other.rows == [(1,)]
                assert inline == [("_do_execute", threading.get_ident())]
                assert not read.done() and queued == []
            finally:
                release.set()
            assert (await read).rows == [(1,), (99,)]
            assert queued == [("_do_execute", await job)]

        run(go())
        value = mem_cluster.metrics.value
        assert value(f"cluster.shard.{busy.name}.inline_reads") == 0
        assert value(f"cluster.shard.{idle.name}.inline_reads") == 1


class TestFairness:
    def test_pipelining_connection_does_not_hold_the_front_door(
        self, mem_cluster
    ):
        """A writes 300 point reads without reading a reply, then B
        sends one: B is answered before the server has got through A's."""
        frames = 300
        request = protocol.encode_frame(
            {"op": "execute", "tenant_id": 17, "sql": SELECT, "params": []}
        )

        async def go():
            await seed_rows(mem_cluster)
            server = mem_cluster.serve()
            await server.start()
            b = ClusterClient("127.0.0.1", server.port)
            await b.connect()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(request * frames)
                await writer.drain()
                assert (await b.execute(17, SELECT)).rows == [(1,)]
                served = mem_cluster.metrics.value("cluster.server.frames")
                for _ in range(frames):
                    assert (await protocol.read_frame(reader))["ok"]
            finally:
                writer.close()
                await b.close()
                await server.stop()
            assert served < frames

        run(go())


# -- the codec ---------------------------------------------------------------
#
# The walk-every-cell codec the C hooks replaced, kept as the reference:
# frames must stay byte-identical to it and decode to what it decoded.


def reference_encode(value):
    if isinstance(value, datetime.date) and not isinstance(
        value, datetime.datetime
    ):
        return {"$date": value.isoformat()}
    if isinstance(value, (list, tuple)):
        return [reference_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: reference_encode(v) for k, v in value.items()}
    return value


def reference_decode(value):
    if isinstance(value, dict):
        if set(value) == {"$date"}:
            return datetime.date.fromisoformat(value["$date"])
        return {k: reference_decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [reference_decode(v) for v in value]
    return value


_keys = st.text(max_size=8).filter(lambda key: key != "$date")
_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.dates(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=20,
)


class TestCodec:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(_keys, _values, max_size=5))
    def test_frames_match_the_reference_walk(self, message):
        body = json.dumps(
            reference_encode(message), separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
        frame = protocol.encode_frame(message)
        assert frame[4:] == body
        assert protocol.decode_frame(body) == reference_decode(
            json.loads(body.decode("utf-8"))
        )

    def test_datetime_still_refused(self):
        with pytest.raises(TypeError):
            protocol.encode_frame({"at": datetime.datetime(2001, 2, 3, 4, 5)})

    def test_decoded_rows_become_tuples_with_dates(self):
        rows = [[1, "a", datetime.date(2001, 2, 3)], [2, "b", None]]
        decoded = protocol.decode_frame(
            protocol.encode_frame({"rows": rows})[4:]
        )["rows"]
        assert protocol.decode_rows(decoded) == [tuple(row) for row in rows]
