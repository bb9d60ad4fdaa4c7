"""Online rebalancing: live moves under write traffic, capture-log
gating, rollback, and the crash matrix."""

import asyncio
import functools
import sys

import pytest

from repro.cluster import Cluster, ShardOptions
from repro.cluster.errors import ClusterError, RebalanceInProgressError
from repro.engine.errors import UnknownObjectError
from repro.cluster.rebalance import Rebalancer
from repro.engine.durability.faults import FaultInjector, SimulatedCrash

from ..core.conftest import account_table
from .conftest import (
    build_cluster,
    observe_jobs,
    other_shard,
    run,
    seed_rows,
)

CRASHPOINTS = [
    "rebalance.copy",
    "rebalance.ship",
    "rebalance.cutover",
    "rebalance.purge",
]


async def tenant_aids(cluster: Cluster, tenant: int) -> list[int]:
    result = await cluster.execute(
        tenant, "SELECT aid FROM account ORDER BY aid"
    )
    return [aid for (aid,) in result.rows]


ENGINE_JOBS = (
    "_do_execute", "_do_insert", "adopt", "disown", "begin_capture",
    "snapshot_table", "drain_capture", "end_capture", "apply_captured",
    "_do_tenant_ids", "describe_tenant",
)


def assert_jobs_hold_the_engine(cluster: Cluster) -> tuple[list[str], set[str]]:
    """Note every data-plane, probe and capture job of every shard
    called without the shard's engine mutex held; returns the list of
    offenders (asserted empty by the caller, outside the jobs) and the
    set of job names seen at all."""
    unlocked: list[str] = []
    seen: set[str] = set()

    def observe(shard, name):
        seen.add(name)
        if not shard._engine.locked():
            unlocked.append(f"{shard.name}.{name}")

    for shard in cluster.shards.values():
        observe_jobs(shard, ENGINE_JOBS, functools.partial(observe, shard))
    return unlocked, seen


class TestLiveRebalance:
    def test_move_preserves_all_rows(self, mem_cluster):
        async def go():
            await seed_rows(mem_cluster)
            for i in range(2, 40):
                await mem_cluster.insert(
                    17, "account", {"aid": i, "name": f"r{i}"}
                )
            source = mem_cluster.shard_of(17)
            dest = other_shard(mem_cluster, 17)
            stats = await mem_cluster.rebalance(17, dest)
            assert stats["rows_copied"] == 39
            assert mem_cluster.shard_of(17) == dest
            assert 17 not in mem_cluster.shards[source].mtd.tenant_ids()
            assert await tenant_aids(mem_cluster, 17) == list(range(1, 40))
            # Other tenants untouched.
            assert await tenant_aids(mem_cluster, 35) == [1]

        run(go())

    def test_move_under_concurrent_writes(self, replay_rng):
        """The acceptance bar: no row lost, none duplicated, while a
        writer hammers the moving tenant — and readers, which enter the
        engine from the loop's thread whenever they find the shard
        idle, see every committed row throughout."""
        cluster = build_cluster(
            options=ShardOptions(storage_latency_ms=1.0)
        )
        unlocked, seen = assert_jobs_hold_the_engine(cluster)

        async def go():
            for i in range(60):
                await cluster.insert(17, "account", {"aid": i, "name": f"pre{i}"})
            acked: list[int] = []
            moving = asyncio.Event()

            async def writer():
                aid = 1000
                while not moving.is_set():
                    await cluster.insert(
                        17, "account", {"aid": aid, "name": f"live{aid}"}
                    )
                    acked.append(aid)
                    aid += 1
                    await asyncio.sleep(replay_rng.random() * 0.002)

            async def reader():
                reads = 0
                while not moving.is_set():
                    committed = len(acked)
                    rows = await tenant_aids(cluster, 17)
                    # One insert may be in flight past what was acked.
                    assert rows[: 60 + committed] == (
                        list(range(60)) + acked[:committed]
                    ), "a read missed committed rows"
                    assert len(rows) <= 60 + len(acked) + 1
                    reads += 1
                    await asyncio.sleep(replay_rng.random() * 0.002)
                return reads

            async def stranger():
                # A tenant no shard has: the router asks each of them.
                while not moving.is_set():
                    with pytest.raises(UnknownObjectError):
                        await cluster.execute(999, "SELECT aid FROM account")
                    await asyncio.sleep(replay_rng.random() * 0.002)

            async def mover():
                dest = other_shard(cluster, 17)
                stats = await cluster.rebalance(
                    17, dest, copy_chunk=8, drain_threshold=0
                )
                moving.set()
                return stats

            _, reads, _, _, stats = await asyncio.gather(
                writer(), reader(), reader(), stranger(), mover()
            )
            assert reads > 0
            survivors = await tenant_aids(cluster, 17)
            expected = sorted(set(range(60)) | set(acked))
            assert survivors == expected, "rows lost or duplicated"
            assert stats["dest"] == cluster.shard_of(17)
            # The writer overlapped the move, so the capture log
            # shipped something (or the writer never collided — allow
            # zero only if nothing was acked mid-copy).
            if stats["entries_shipped"] == 0:
                assert len(acked) == 0 or stats["rows_copied"] >= 60

        # Two threads enter each engine here; switch between them often.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run(go())
        finally:
            sys.setswitchinterval(interval)
            cluster.close()
        assert unlocked == []
        assert {"_do_tenant_ids", "describe_tenant"} <= seen
        inline = sum(
            cluster.metrics.value(f"cluster.shard.{name}.inline_reads")
            for name in cluster.shards
        )
        assert inline > 0, "no read ever ran on the loop's thread"

    def test_writes_after_move_land_on_dest(self, mem_cluster):
        async def go():
            await seed_rows(mem_cluster)
            dest = other_shard(mem_cluster, 17)
            await mem_cluster.rebalance(17, dest)
            await mem_cluster.insert(17, "account", {"aid": 50, "name": "post"})
            dest_rows = mem_cluster.shards[dest].mtd.tenant_row_counts(17)
            assert dest_rows == {"account": 2}

        run(go())

    def test_move_back_and_forth(self, mem_cluster):
        async def go():
            await seed_rows(mem_cluster)
            home = mem_cluster.shard_of(17)
            away = other_shard(mem_cluster, 17)
            await mem_cluster.rebalance(17, away)
            await mem_cluster.rebalance(17, home)
            assert mem_cluster.shard_of(17) == home
            assert await tenant_aids(mem_cluster, 17) == [1]
            assert mem_cluster.catalog.rebalance is None

        run(go())

    def test_rejects_noop_and_unknown_dest(self, mem_cluster):
        async def go():
            with pytest.raises(ClusterError):
                await mem_cluster.rebalance(17, mem_cluster.shard_of(17))
            with pytest.raises(ClusterError):
                await mem_cluster.rebalance(17, "nope")

        run(go())

    def test_single_move_at_a_time(self, mem_cluster):
        async def go():
            mem_cluster.catalog.begin_rebalance(
                35, mem_cluster.shard_of(35), other_shard(mem_cluster, 35)
            )
            with pytest.raises(RebalanceInProgressError):
                await mem_cluster.rebalance(17, other_shard(mem_cluster, 17))

        run(go())

    def test_metrics_counted(self, mem_cluster):
        async def go():
            await seed_rows(mem_cluster)
            await mem_cluster.rebalance(17, other_shard(mem_cluster, 17))
            assert (
                mem_cluster.metrics.get("cluster.rebalance.completed").value
                == 1
            )
            assert (
                mem_cluster.metrics.get("cluster.rebalance.rows_copied").value
                >= 1
            )

        run(go())


class TestCaptureGating:
    def test_snapshot_boundary_is_exact(self, mem_cluster):
        """A write before a table's snapshot is in the snapshot; a
        write after is in the capture log; never both, never neither."""
        shard = mem_cluster.shards[mem_cluster.shard_of(17)]
        shard.begin_capture(17)
        shard._do_insert(17, "account", {"aid": 1, "name": "before"})
        snapshot = shard.snapshot_table(17, "account")
        shard._do_insert(17, "account", {"aid": 2, "name": "after"})
        shard._do_execute(
            17, "UPDATE account SET name = 'edited' WHERE aid = 1"
        )
        log = shard.drain_capture()
        assert [values["aid"] for _, values in snapshot] == [1]
        assert [entry["kind"] for entry in log] == ["insert", "sql"]
        assert log[0]["values"]["aid"] == 2
        tail = shard.end_capture()
        assert tail == []

    def test_other_tenants_not_captured(self, mem_cluster):
        shard_17 = mem_cluster.shard_of(17)
        tenant_b = next(
            t for t in (35, 42) if mem_cluster.shard_of(t) == shard_17
        ) if any(
            mem_cluster.shard_of(t) == shard_17 for t in (35, 42)
        ) else None
        shard = mem_cluster.shards[shard_17]
        shard.begin_capture(17)
        shard.snapshot_table(17, "account")
        if tenant_b is not None:
            shard._do_insert(tenant_b, "account", {"aid": 9, "name": "x"})
        assert shard.drain_capture() == []
        shard.end_capture()


class TestRollback:
    def test_ordinary_failure_rolls_back_in_place(
        self, mem_cluster, monkeypatch
    ):
        async def go():
            await seed_rows(mem_cluster)
            source = mem_cluster.shard_of(17)
            dest = other_shard(mem_cluster, 17)

            def explode(*args, **kwargs):
                raise ValueError("disk on fire")

            monkeypatch.setattr(Rebalancer, "_apply_chunk", explode)
            with pytest.raises(ValueError):
                await mem_cluster.rebalance(17, dest)
            monkeypatch.undo()
            # Source still serves; dest holds no debris; journal clear.
            assert mem_cluster.shard_of(17) == source
            assert 17 not in mem_cluster.shards[dest].mtd.tenant_ids()
            assert mem_cluster.catalog.rebalance is None
            assert await tenant_aids(mem_cluster, 17) == [1]
            # And a clean retry succeeds.
            await mem_cluster.rebalance(17, dest)
            assert mem_cluster.shard_of(17) == dest

        run(go())


class TestCrashMatrix:
    @pytest.mark.parametrize("point", CRASHPOINTS)
    def test_crash_then_recover_leaves_one_copy(self, tmp_path, point):
        faults = FaultInjector(crash_at=(point, 1))
        cluster = build_cluster(tmp_path / "c", faults=faults)

        async def setup_and_crash():
            await seed_rows(cluster)
            for i in range(2, 12):
                await cluster.insert(17, "account", {"aid": i, "name": f"r{i}"})
            source = cluster.shard_of(17)
            dest = other_shard(cluster, 17)
            with pytest.raises(SimulatedCrash):
                await cluster.rebalance(17, dest)
            return source, dest

        source, dest = run(setup_and_crash())
        cluster.simulate_crash()

        recovered = Cluster.open(tmp_path / "c")
        try:
            holders = [
                name
                for name, shard in recovered.shards.items()
                if 17 in shard.mtd.tenant_ids()
            ]
            assert len(holders) == 1, (point, holders)
            assert recovered.shard_of(17) == holders[0]
            # Before the commit point the source is authoritative;
            # after it (purge) the destination is.
            expected = dest if point == "rebalance.purge" else source
            assert holders[0] == expected
            assert recovered.catalog.rebalance is None

            async def verify():
                aids = await tenant_aids(recovered, 17)
                assert aids == list(range(1, 12))
                # The cluster still takes writes for the tenant.
                await recovered.insert(17, "account", {"aid": 99, "name": "z"})
                assert 99 in await tenant_aids(recovered, 17)

            run(verify())
        finally:
            recovered.close()

    def test_recovered_cluster_can_rebalance_again(self, tmp_path):
        faults = FaultInjector(crash_at=("rebalance.copy", 1))
        cluster = build_cluster(tmp_path / "c", faults=faults)

        async def crash():
            await seed_rows(cluster)
            with pytest.raises(SimulatedCrash):
                await cluster.rebalance(17, other_shard(cluster, 17))

        run(crash())
        cluster.simulate_crash()
        recovered = Cluster.open(tmp_path / "c")
        try:
            async def retry():
                dest = other_shard(recovered, 17)
                stats = await recovered.rebalance(17, dest)
                assert recovered.shard_of(17) == dest
                assert stats["rows_copied"] == 1

            run(retry())
        finally:
            recovered.close()


class TestShardWorkerHygiene:
    def test_worker_thread_serializes_with_jobs(self, mem_cluster):
        """Jobs and traffic interleave without locks because they share
        the one worker thread."""
        shard = mem_cluster.shards[mem_cluster.shard_of(17)]

        async def go():
            inserts = [
                shard.insert(17, "account", {"aid": i, "name": f"n{i}"})
                for i in range(10)
            ]
            counts = shard.submit(shard.mtd.tenant_row_counts, 17)
            await asyncio.gather(*inserts, counts)
            final = await shard.submit(shard.mtd.tenant_row_counts, 17)
            assert final == {"account": 10}

        run(go())

    def test_table_definition_needs_account(self):
        # Guard: the suite's schema helper defines the account table
        # (a regression here invalidates every test above).
        assert account_table().name == "account"
