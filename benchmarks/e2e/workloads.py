"""The four workloads: op streams, the oracle that checks every answer,
the closed-loop drivers, and the metrics of one run.

Load model: closed loop, one connection per shard (``min(2, nproc)`` on
the reference container is 2), server and load generator on one event
loop like ``bench_cluster``.  Connection *i* drives only the tenants
pinned to shard *i*, so each shard's worker sees one deterministic op
sequence whatever the other connection does.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass

from repro.cluster import Cluster, ClusterClient, ClusterError
from repro.engine.errors import EngineError
from repro.testbed.actions import HEAVY_BATCH, _reporting_queries
from repro.testbed.crm import CRM_PARENTS, CRM_TABLE_NAMES
from repro.testbed.generator import DataGenerator

from benchmarks.e2e import dataset as ds
from benchmarks.e2e.clock import Ruler
from benchmarks.e2e.trace import SERVING_LAYERS, Tracer

#: The measured phase runs as this many equal op counts in a row, with
#: the machine's speed sampled in between (``clock.Ruler``): the speed
#: changes within a few hundred ms, so the samples must be many.
WINDOWS = 100
#: ``report.py`` reads the spread of this many equal parts of the phase.
BLOCKS = 5
WARMUP_SHARE = 0.1
TRACED_SHARE = 0.2
#: Inserted entities get ids far above the loaded ones (as the
#: testbed's ActionExecutor does), so point selects never hit them.
FIRST_FRESH_ID = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    #: (op kind, weight)
    mix: tuple[tuple[str, float], ...]
    #: through ClusterClient over TCP, or in process on the shards' mtd
    tcp: bool
    #: pool resized to a quarter of the shard's pages
    cold: bool
    #: measured ops per second of ``--seconds``, frozen on the seed
    #: commit: a run measures a fixed count, ``rate * seconds`` ops, so
    #: the page and WAL counts of one seed repeat exactly
    rate: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "point_read_hot",
            (("point_select", 1.0),),
            tcp=True,
            cold=False,
            rate=1800,
        ),
        Workload(
            "point_read_cold",
            (("point_select", 1.0),),
            tcp=True,
            cold=True,
            rate=1000,
        ),
        # Figure 6's action mix without Insert-Heavy and Admin.
        Workload(
            "crm_mix_write",
            (
                ("point_select", 50.0),
                ("report", 15.0),
                ("insert", 10.0),
                ("update_light", 17.5),
                ("update_heavy", 7.5),
            ),
            tcp=True,
            cold=False,
            rate=350,
        ),
        Workload(
            "analytics_direct",
            (("report", 70.0), ("rollup", 30.0)),
            tcp=False,
            cold=False,
            rate=3000,
        ),
    )
}

#: The ninth end-to-end metric.  The other eight, their bounds and the
#: per-layer metrics are listed in BENCHMARK.json, which may hold no
#: metric that is 0; its protocol carries this one as ``failed`` and
#: ``attempted``.  Any value above 0 is a regression.
FAILED_OPS_SHARE = {
    "name": "failed_ops_share", "unit": "ratio", "better": "lower", "bound": 0.0,
}

#: ``_reporting_queries`` gives five reports per child table.
REPORTS_PER_CHILD = 5

#: Rollups: (FOR ALL TENANTS statement, the per-tenant statement whose
#: results concatenate to it, whether the tenant id leads each row).
ROLLUPS = (
    (
        "SELECT TENANT_ID(), status, COUNT(*), SUM(amount) FROM opportunity "
        "GROUP BY TENANT_ID(), status FOR ALL TENANTS",
        "SELECT status, COUNT(*), SUM(amount) FROM opportunity "
        "GROUP BY status",
        True,
    ),
    (
        "SELECT TENANT_ID(), COUNT(*), AVG(amount) FROM lineitem "
        "WHERE created > '2005-01-01' GROUP BY TENANT_ID() FOR ALL TENANTS",
        "SELECT COUNT(*), AVG(amount) FROM lineitem "
        "WHERE created > '2005-01-01'",
        True,
    ),
    (
        "SELECT industry, COUNT(*) FROM account GROUP BY industry "
        "FOR ALL TENANTS",
        "SELECT industry, COUNT(*) FROM account GROUP BY industry",
        False,
    ),
    (
        "SELECT TENANT_ID(), COUNT(*) FROM account p, contact c "
        "WHERE c.parent = p.id GROUP BY TENANT_ID() FOR ALL TENANTS",
        "SELECT COUNT(*) FROM account p, contact c WHERE c.parent = p.id",
        True,
    ),
)


# -- ops ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Op:
    kind: str
    shard: str
    tenant: int | None
    table: str
    sql: str = ""
    params: tuple = ()
    values: dict | None = None


class Deck:
    """Seeded draws without replacement, reshuffled when the cards run
    out.  Over a run every card comes up equally often, to within one:
    the share of each op kind is the mix's exactly and every (tenant,
    table) gets the same number of each, so the page and WAL counts per
    op move little from seed to seed and a tight bound can hold."""

    def __init__(self, cards, rng: random.Random) -> None:
        self.cards = list(cards)
        self.rng = rng
        self.hand: list = []

    def draw(self):
        if not self.hand:
            self.hand = self.cards[:]
            self.rng.shuffle(self.hand)
        return self.hand.pop()


class OpStream:
    """The seeded op sequence of one connection: only the tenants of one
    shard, uniform over tenants, tables and loaded ids."""

    def __init__(
        self, workload: Workload, dataset: ds.Dataset, shard: str, seed: int
    ) -> None:
        self.dataset = dataset
        self.shard = shard
        self.rng = random.Random(f"{seed}/{workload.name}/{shard}")
        # Weights are multiples of a half: 50/15/10/17.5/7.5 is 40 cards.
        counts = {kind: round(weight * 2) for kind, weight in workload.mix}
        unit = math.gcd(*counts.values())
        self.kinds = Deck(
            (kind for kind, n in counts.items() for _ in range(n // unit)),
            self.rng,
        )
        tenants = dataset.tenants_of(shard)
        targets = {
            "report": itertools.product(
                tenants, sorted(CRM_PARENTS), range(REPORTS_PER_CHILD)
            ),
            "update_light": itertools.product(
                tenants, CRM_TABLE_NAMES, ("new", "open", "working")
            ),
            "rollup": (fused for fused, _, _ in ROLLUPS),
        }
        self.targets = {
            kind: Deck(
                targets.get(kind) or itertools.product(tenants, CRM_TABLE_NAMES),
                self.rng,
            )
            for kind in counts
        }
        self.generator = DataGenerator(dataset.seed)
        self.fresh: dict[ds.Key, int] = {}

    def __iter__(self) -> "OpStream":
        return self

    def __next__(self) -> Op:
        return getattr(self, self.kinds.draw())()

    def _entity(self) -> int:
        return self.rng.randrange(self.dataset.rows_per_table) + 1

    def point_select(self) -> Op:
        tenant, table = self.targets["point_select"].draw()
        return Op(
            "point_select",
            self.shard,
            tenant,
            table,
            f"SELECT * FROM {table} WHERE id = ?",
            (self._entity(),),
        )

    def report(self) -> Op:
        tenant, child, number = self.targets["report"].draw()
        sql = _reporting_queries(child, CRM_PARENTS[child])[number]
        return Op("report", self.shard, tenant, child, sql)

    def insert(self) -> Op:
        tenant, table = self.targets["insert"].draw()
        key = (tenant, table)
        number = self.fresh.get(key, FIRST_FRESH_ID)
        self.fresh[key] = number + 1
        parents = (
            self.dataset.rows_per_table if table in CRM_PARENTS else None
        )
        values = self.generator.row(
            tenant, self.dataset.views[key], number, parents
        )
        values["id"] = number
        return Op("insert", self.shard, tenant, table, values=values)

    def update_light(self) -> Op:
        tenant, table, status = self.targets["update_light"].draw()
        return Op(
            "update_light",
            self.shard,
            tenant,
            table,
            f"UPDATE {table} SET priority = ? WHERE status = ?",
            (self.rng.randrange(10), status),
        )

    def update_heavy(self) -> Op:
        tenant, table = self.targets["update_heavy"].draw()
        ids = tuple(self._entity() for _ in range(HEAVY_BATCH))
        marks = ", ".join("?" * len(ids))
        return Op(
            "update_heavy",
            self.shard,
            tenant,
            table,
            f"UPDATE {table} SET score = score + 1 WHERE id IN ({marks})",
            ids,
        )

    def rollup(self) -> Op:
        return Op("rollup", self.shard, None, "", self.targets["rollup"].draw())


# -- the oracle --------------------------------------------------------------


def _same(left, right) -> bool:
    """Row sets equal up to order; floats up to summation order."""
    if len(left) != len(right):
        return False
    key = lambda row: tuple((v is None, str(v)) for v in row)  # noqa: E731
    for a, b in zip(sorted(left, key=key), sorted(right, key=key)):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


class Oracle:
    """Client-side model of the data.  Every answer inside the timed
    window is compared with it; writes are applied to it once
    acknowledged, so it is also what must survive the crash."""

    def __init__(self, dataset: ds.Dataset, *, writes: bool) -> None:
        self.dataset = dataset
        self.rows = (
            {key: dict(rows) for key, rows in dataset.rows.items()}
            if writes
            else dataset.rows
        )
        self.attempted = 0
        self.failed = 0
        #: user bytes written by acknowledged inserts and updates
        self.written_bytes = 0

    def _column(self, key: ds.Key, name: str) -> int:
        return [c.lname for c in self.dataset.views[key].columns].index(name)

    def check(self, op: Op, result) -> None:
        self.attempted += 1
        if result is None or not getattr(self, "_" + op.kind)(op, result):
            self.failed += 1

    def _point_select(self, op: Op, result) -> bool:
        expected = self.rows[op.tenant, op.table][op.params[0]]
        return result.rows == [expected]

    def _report(self, op: Op, result) -> bool:
        return result.rowcount == len(result.rows)

    _rollup = _report

    def _insert(self, op: Op, result) -> bool:
        row = tuple(op.values.values())
        self.rows[op.tenant, op.table][op.values["id"]] = row
        self.written_bytes += ds.row_bytes(row)
        return isinstance(result, int)

    def _update_light(self, op: Op, result) -> bool:
        key = (op.tenant, op.table)
        status, priority = self._column(key, "status"), self._column(key, "priority")
        value, wanted = op.params
        rows = self.rows[key]
        hit = [i for i, row in rows.items() if row[status] == wanted]
        for i in hit:
            row = rows[i]
            rows[i] = row[:priority] + (value,) + row[priority + 1 :]
        self.written_bytes += 8 * len(hit)
        return result.rowcount == len(hit)

    def _update_heavy(self, op: Op, result) -> bool:
        key = (op.tenant, op.table)
        score = self._column(key, "score")
        rows = self.rows[key]
        hit = set(op.params) & rows.keys()
        for i in hit:
            row = rows[i]
            if row[score] is not None:
                rows[i] = row[:score] + (row[score] + 1,) + row[score + 1 :]
        self.written_bytes += 8 * len(hit)
        return result.rowcount == len(hit)

    # -- outside the timed window ------------------------------------------

    def expect(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check_rollups(self, cluster: Cluster) -> None:
        """Each rollup against the concatenation of per-tenant results."""
        for shard in cluster.shards.values():
            mtd = shard.mtd
            for fused, per_tenant, leads in ROLLUPS:
                got = mtd.execute_cross(fused).rows
                if leads:
                    want = [
                        (tenant,) + row
                        for tenant in mtd.tenant_ids()
                        for row in mtd.execute(tenant, per_tenant).rows
                    ]
                else:
                    merged: dict = {}
                    for tenant in mtd.tenant_ids():
                        for group, n in mtd.execute(tenant, per_tenant).rows:
                            merged[group] = merged.get(group, 0) + n
                    want = list(merged.items())
                self.expect(_same(got, want))

    def check_report_counts(self, cluster: Cluster, rng: random.Random) -> None:
        """Report 1's counts add up to ``tenant_row_counts`` (sampled:
        two tenants per shard, every child table)."""
        for name, shard in cluster.shards.items():
            mtd = shard.mtd
            tenants = self.dataset.tenants_of(name)
            for tenant in rng.sample(tenants, min(2, len(tenants))):
                counts = mtd.tenant_row_counts(tenant)
                for child in sorted(CRM_PARENTS):
                    sql = _reporting_queries(child, CRM_PARENTS[child])[0]
                    groups = mtd.execute(tenant, sql).rows
                    self.expect(sum(n for _, n in groups) == counts[child])

    def check_state(self, cluster: Cluster) -> None:
        """Every table of every tenant holds exactly the model's rows —
        loaded plus acknowledged inserts, with acknowledged updates.
        Each missing, extra or differing row is one failed op."""
        for (tenant, table), want in self.rows.items():
            mtd = cluster.shards[self.dataset.placement[tenant]].mtd
            got = {
                row[0]: row
                for row in mtd.execute(tenant, f"SELECT * FROM {table}").rows
            }
            self.attempted += len(want)
            self.failed += sum(got.get(i) != row for i, row in want.items())
            self.failed += len(got.keys() - want.keys())


# -- drivers -----------------------------------------------------------------


class Phase:
    """What the load loop saw in one phase."""

    def __init__(self, oracle: Oracle, tracer: Tracer | None) -> None:
        self.oracle = oracle
        self.tracer = tracer
        self.kinds: list[str] = []
        self.latencies: list[float] = []
        #: (ops recorded when the window closed, its wall seconds)
        self.windows: list[tuple[int, float]] = []

    def record(self, op: Op, start: float, end: float, result) -> None:
        self.kinds.append(op.kind)
        self.latencies.append(end - start)
        self.oracle.check(op, result)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def latencies_us(self, kind: str | None = None) -> list[float]:
        """As the clock read them."""
        return [
            latency * 1e6
            for latency, k in zip(self.latencies, self.kinds)
            if kind is None or k == kind
        ]

    def run_windows(self, driver, ops: int) -> Ruler:
        """``ops`` (rounded to whole windows) as WINDOWS runs of the
        driver in a row, each lapped by the returned ruler."""
        each = max(1, round(ops / WINDOWS))
        ruler = Ruler()
        for _ in range(WINDOWS):
            driver.run(each, self)
            self.windows.append((self.ops, ruler.lap()))
        return ruler


class TcpDriver:
    """One ClusterClient per shard against a ClusterServer on the same
    event loop."""

    def __init__(self, cluster: Cluster, streams: list[OpStream]) -> None:
        self.streams = streams
        self.loop = asyncio.new_event_loop()
        self.server = cluster.serve()
        self.loop.run_until_complete(self.server.start())
        self.clients = [
            ClusterClient("127.0.0.1", self.server.port) for _ in streams
        ]
        for client in self.clients:
            self.loop.run_until_complete(client.connect())

    def run(self, ops: int, phase: Phase) -> None:
        """``ops`` in all, split evenly over the connections."""
        each = math.ceil(ops / len(self.clients))

        async def connections() -> None:
            await asyncio.gather(
                *(
                    self._connection(client, stream, each, phase)
                    for client, stream in zip(self.clients, self.streams)
                )
            )

        self.loop.run_until_complete(connections())

    @staticmethod
    async def _connection(client, stream, ops, phase) -> None:
        tracer = phase.tracer
        for op in itertools.islice(stream, ops):
            root = tracer.begin(op.tenant) if tracer else None
            start = time.perf_counter()
            try:
                if op.kind == "insert":
                    result = await client.insert(op.tenant, op.table, op.values)
                else:
                    result = await client.execute(op.tenant, op.sql, op.params)
            except ClusterError:
                result = None
            end = time.perf_counter()
            if root is not None:
                tracer.end(root)
            phase.record(op, start, end, result)

    def close(self) -> None:
        try:
            for client in self.clients:
                self.loop.run_until_complete(client.close())
            self.loop.run_until_complete(self.server.stop())
        finally:
            self.loop.close()


class DirectDriver:
    """A single caller on the shards' MultiTenantDatabase: no server, no
    worker thread.  Ops alternate between the shards."""

    def __init__(self, cluster: Cluster, streams: list[OpStream]) -> None:
        self.mtds = {name: s.mtd for name, s in cluster.shards.items()}
        self.ops = itertools.chain.from_iterable(zip(*streams))

    def run(self, ops: int, phase: Phase) -> None:
        tracer = phase.tracer
        for op in itertools.islice(self.ops, ops):
            mtd = self.mtds[op.shard]
            root = tracer.begin(op.tenant) if tracer else None
            start = time.perf_counter()
            try:
                if op.kind == "rollup":
                    result = mtd.execute_cross(op.sql)
                else:
                    result = mtd.execute(op.tenant, op.sql, op.params)
            except EngineError:
                result = None
            end = time.perf_counter()
            if root is not None:
                tracer.end(root)
            phase.record(op, start, end, result)

    def close(self) -> None:
        pass


# -- counters ----------------------------------------------------------------

_ENGINE_METRICS = (
    "btree.descents",
    "db.plan_cache.hits",
    "db.plan_cache.misses",
    "mt.statement_cache.hits",
    "mt.statement_cache.misses",
    "db.pager.bytes_read",
    "db.pager.bytes_written",
)


def read_counters(cluster: Cluster) -> dict[str, float]:
    """Every counter the metrics use, summed over the shards.  Read
    between phases, when no request is in flight."""
    totals: dict[str, float] = {
        "router.redirects": cluster.metrics.value("cluster.router.redirects")
    }

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0) + value

    for shard in cluster.shards.values():
        db = shard.mtd.db
        pool, wal, executed = db.pool_stats, db.wal_stats, db.exec_stats
        add("pool.logical", pool.logical_total)
        add("pool.physical", pool.physical_total)
        add("pool.evictions", pool.evictions)
        add("pool.writebacks", pool.writebacks)
        add("wal.bytes", wal.bytes_written)
        add("wal.fsyncs", wal.fsyncs)
        add("exec.rows_scanned", executed.rows_scanned + executed.rows_fetched)
        add("exec.rows_output", executed.rows_output)
        for name in _ENGINE_METRICS:
            add(name, db.metrics.value(name))
    return totals


def _delta(after: dict, before: dict) -> dict[str, float]:
    return {name: after[name] - before[name] for name in after}


# -- one run -----------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb() -> float:
    """Peak resident set of this process.  ``VmHWM`` where there is a
    /proc: ``ru_maxrss`` survives exec, so in a spawned process it starts
    at whatever the parent had reached."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def end_to_end(phase: Phase, ruler: Ruler, since_open: dict,
               ops_since_open: int, rss_mb: float, dataset: ds.Dataset,
               oracle: Oracle, setup_s: float) -> dict[str, float]:
    """The page and WAL counts run from ``Cluster.open`` to the end of
    the measured phase, over every op in between (warm-up included):
    what opening and warming cost is in them, and none is 0 on any
    workload.  The timings are the measured phase's alone, in reference
    seconds (``clock.py``)."""
    return {
        "setup_s": setup_s,
        # Over the whole phase, not the median window: checkpoint stalls
        # are as long as a window on crm_mix_write, so a window either
        # holds one or does not and their median flips between the two.
        "throughput_ops_s": phase.ops / ruler.reference_s,
        "p50_us": statistics.median(phase.latencies_us()) * ruler.factor,
        "logical_reads_per_op": since_open["pool.logical"] / ops_since_open,
        "physical_reads_per_op": since_open["pool.physical"] / ops_since_open,
        "wal_bytes_per_op": since_open["wal.bytes"] / ops_since_open,
        "stored_bytes_per_user_byte": dataset.stored_bytes / dataset.user_bytes,
        "peak_rss_mb": rss_mb,
        "failed_ops_share": oracle.failed / oracle.attempted,
    }


def per_layer(untraced: Phase, ruler: Ruler, traced: Phase, counters: dict,
              written_bytes: int, *, tcp: bool) -> tuple[dict, dict]:
    """The per-layer metrics, and each layer's self time in us per op;
    every time as the clock read it.  ``ruler`` is the untraced
    phase's."""
    tracer = traced.tracer
    summary = tracer.summary(tcp=tcp)
    ops = traced.ops
    self_s = summary["self_s"]
    self_us = {layer: seconds * 1e6 / ops for layer, seconds in self_s.items()}

    def us(layer: str) -> float:
        return self_us.get(layer, 0.0)

    checkpoints = summary["checkpoints"]
    hits = counters["mt.statement_cache.hits"]
    plan_hits = counters["db.plan_cache.hits"]
    everything = untraced.latencies_us()
    out = {
        "client.p99_us": percentile(everything, 0.99),
        "client.max_us": max(everything),
    }
    for kind in ("point_select", "report", "insert", "update_light",
                 "update_heavy", "rollup"):
        samples = untraced.latencies_us(kind)
        out[f"client.{kind}_p50_us"] = percentile(samples, 0.5)
        if kind == "point_select":
            out["client.point_select_p99_us"] = percentile(samples, 0.99)
    out.update(
        {
            "codec.self_us_per_op": us("codec"),
            "codec.bytes_per_op": tracer.codec_bytes / ops,
            "wire.self_us_per_op": us("wire"),
            "router.self_us_per_op": us("router"),
            "router.redirects": counters["router.redirects"],
            "shard.hop_us_per_op": us("shard_hop"),
            "shard.self_us_per_op": us("shard"),
            "core.self_us_per_op": us("core"),
            "core.stmt_cache_hit_ratio": _ratio(
                hits, hits + counters["mt.statement_cache.misses"], 1.0
            ),
            "core.physical_stmts_per_op": summary["engine_statements"] / ops,
            "engine.self_us_per_op": us("engine"),
            "engine.plan_cache_hit_ratio": _ratio(
                plan_hits, plan_hits + counters["db.plan_cache.misses"], 1.0
            ),
            "engine.rows_scanned_per_row_returned": _ratio(
                counters["exec.rows_scanned"], counters["exec.rows_output"]
            ),
            "engine.btree_descents_per_op": counters["btree.descents"] / ops,
            "pager.logical_reads_per_op": counters["pool.logical"] / ops,
            "pager.physical_reads_per_op": counters["pool.physical"] / ops,
            "pager.hit_ratio": 1.0
            - _ratio(counters["pool.physical"], counters["pool.logical"]),
            "pager.evictions_per_op": counters["pool.evictions"] / ops,
            "pager.writebacks_per_op": counters["pool.writebacks"] / ops,
            "pagestore.read_us_per_op": us("pagestore"),
            "pagestore.bytes_read_per_op": counters["db.pager.bytes_read"] / ops,
            "pagestore.bytes_written_per_op": counters["db.pager.bytes_written"] / ops,
            "wal.commit_us_per_op": us("wal"),
            "wal.bytes_per_op": counters["wal.bytes"] / ops,
            "wal.fsyncs_per_op": counters["wal.fsyncs"] / ops,
            "wal.bytes_per_user_byte": _ratio(counters["wal.bytes"], written_bytes),
            "checkpoint.count": float(len(checkpoints)),
            "checkpoint.total_ms": sum(checkpoints) * 1e3,
            "checkpoint.max_ms": max(checkpoints, default=0.0) * 1e3,
            "trace.overhead_ratio": statistics.median(traced.latencies_us())
            / statistics.median(everything),
            "trace.machine_speed_ratio": ruler.factor,
            "trace.coverage_ratio": sum(self_s.values()) / sum(traced.latencies),
            "trace.serving_share": sum(us(layer) for layer in SERVING_LAYERS)
            / sum(self_us.values()),
        }
    )
    return out, self_us


@dataclass
class RunResult:
    workload: str
    ops: int
    #: summed client-observed latency of the traced ops, seconds
    traced_client_s: float
    attempted: int
    failed: int
    pool_pages: dict[str, int]
    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None
    layer_self_us: dict[str, float] | None
    windows: dict[str, list[float]]
    spans: list[dict] | None


def run(
    workload: Workload,
    dataset: ds.Dataset,
    cluster: Cluster,
    seed: int,
    ops: int,
    traced_ops: int,
    *,
    setup_s: float,
    wrap=contextlib.nullcontext(),
) -> RunResult:
    """Warm up, measure ``ops`` untraced, measure ``traced_ops`` more
    with spans if any, then check what the workload left behind.
    ``cluster`` is this workload's own opened copy and is closed here;
    ``wrap`` is entered around the traced measurement (the profiler, so
    that it and the spans see the same ops on the same state)."""
    mix = dict(workload.mix)
    oracle = Oracle(dataset, writes="insert" in mix)
    streams = [
        OpStream(workload, dataset, shard, seed) for shard in cluster.shards
    ]
    pools = ds.pool_pages(cluster)
    layers = layer_self_us = spans = None
    traced_client_s = 0.0
    try:
        driver = (TcpDriver if workload.tcp else DirectDriver)(cluster, streams)
        try:
            warm_up = Phase(oracle, None)
            driver.run(max(1, int(ops * WARMUP_SHARE)), warm_up)
            phase = Phase(oracle, None)
            ruler = phase.run_windows(driver, ops)
            since_open = read_counters(cluster)
            # Here, not at the end: spans and the crash check take memory
            # that is not the workload's.
            rss_mb = peak_rss_mb()
            if traced_ops:
                written = oracle.written_bytes
                traced_phase = Phase(oracle, Tracer())
                with traced_phase.tracer.installed(cluster), wrap:
                    driver.run(traced_ops, traced_phase)
                traced_client_s = sum(traced_phase.latencies)
                layers, layer_self_us = per_layer(
                    phase,
                    ruler,
                    traced_phase,
                    _delta(read_counters(cluster), since_open),
                    oracle.written_bytes - written,
                    tcp=workload.tcp,
                )
                spans = traced_phase.tracer.export()
        finally:
            driver.close()
        rng = random.Random(f"{seed}/{workload.name}/oracle")
        if "rollup" in mix:
            oracle.check_rollups(cluster)
        if "report" in mix:
            oracle.check_report_counts(cluster, rng)
        if "insert" in mix:
            # Acknowledged writes are all there, and still there after a
            # power cut that drops everything not yet flushed.
            oracle.check_state(cluster)
            cluster.simulate_crash()
            cluster = Cluster.open(cluster.path)
            oracle.check_state(cluster)
    finally:
        cluster.close()
    # Throughput and p50 of BLOCKS equal parts of the measured phase, in
    # reference seconds like the metrics they belong to.
    windows = {"throughput_ops_s": [], "p50_us": []}
    first = 0
    for index in range(BLOCKS):
        block = phase.windows[
            index * WINDOWS // BLOCKS : (index + 1) * WINDOWS // BLOCKS
        ]
        last = block[-1][0]
        seconds = sum(seconds for _, seconds in block)
        windows["throughput_ops_s"].append(
            (last - first) / (seconds * ruler.factor)
        )
        windows["p50_us"].append(
            statistics.median(phase.latencies[first:last]) * 1e6 * ruler.factor
        )
        first = last
    return RunResult(
        workload.name,
        phase.ops,
        traced_client_s,
        oracle.attempted,
        oracle.failed,
        pools,
        end_to_end(
            phase, ruler, since_open, warm_up.ops + phase.ops, rss_mb, dataset,
            oracle, setup_s,
        ),
        layers,
        layer_self_us,
        windows,
        spans,
    )
