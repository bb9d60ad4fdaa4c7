"""Shared fixtures for the cluster suite: the Figure 4 running example
spread over a tenant-sharded cluster."""

import asyncio

import pytest

from repro.cluster import Cluster, ShardOptions

from ..core.conftest import (
    account_table,
    automotive_extension,
    healthcare_extension,
)

TENANTS = (17, 35, 42)


def run(coro):
    """Drive one coroutine to completion (the suite has no async
    plugin; each test owns a short-lived event loop)."""
    return asyncio.run(coro)


def build_cluster(
    path=None, *, shards=2, options: ShardOptions | None = None, **kwargs
) -> Cluster:
    """A cluster with the running-example schema and three tenants."""
    cluster = Cluster(path, shards=shards, options=options, **kwargs)
    cluster.define_table(account_table())
    cluster.define_extension(healthcare_extension())
    cluster.define_extension(automotive_extension())
    cluster.create_tenant(17, extensions=("healthcare",))
    cluster.create_tenant(35)
    cluster.create_tenant(42, extensions=("automotive",))
    return cluster


async def seed_rows(cluster: Cluster) -> None:
    await cluster.insert(
        17,
        "account",
        {
            "aid": 1,
            "name": "Acme",
            "opened": "2001-02-03",
            "hospital": "St. Mary",
            "beds": 135,
        },
    )
    await cluster.insert(
        35, "account", {"aid": 1, "name": "Ball", "opened": "2002-03-04"}
    )
    await cluster.insert(
        42,
        "account",
        {"aid": 1, "name": "Big", "opened": "2003-04-05", "dealers": 65},
    )


def observe_jobs(shard, names, observe) -> None:
    """Call ``observe(name)`` just before each call of the named
    methods of ``shard`` (wrapped on the instance, so both the inline
    path and the worker's jobs go through it)."""

    def wrap(name):
        job = getattr(shard, name)

        def observed(*args, **kwargs):
            observe(name)
            return job(*args, **kwargs)

        setattr(shard, name, observed)

    for name in names:
        wrap(name)


def other_shard(cluster: Cluster, tenant_id: int) -> str:
    """Any shard that does not currently hold ``tenant_id``."""
    home = cluster.shard_of(tenant_id)
    return next(name for name in cluster.shards if name != home)


@pytest.fixture
def mem_cluster():
    cluster = build_cluster()
    yield cluster
    cluster.close()
