"""Experiment 2 — querying Chunk Tables (Section 6; Figures 8–12).

The test schema: ``parent`` and ``child``, each with an id column and 90
data columns evenly split between INTEGER, DATE and VARCHAR(100);
``child`` additionally references ``parent``.  The conventional layout
keeps both as plain tables; the chunked layouts map the key columns
into ``ChunkIndex``-style indexed chunks and the data columns into
``ChunkData`` chunks of a configurable width (3 … 90 columns).

Query Q2 selects ``s`` data columns from each side joined through the
foreign key and pinned to one random parent::

    SELECT p.id, p.col1, ..., c.col1, ...
    FROM parent p, child c
    WHERE p.id = c.parent AND p.id = ?

This module builds the layouts through the public schema-mapping API
(``chunk`` layout with ``width=w``; the conventional baseline is the
``private`` layout) and measures logical/physical page reads and the
simulated warm/cold response times for any Q2 scale factor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.api import MultiTenantDatabase
from ..core.schema import LogicalColumn, LogicalTable
from ..engine.database import Database
from ..engine.durability import DurabilityOptions
from ..engine.values import DATE, INTEGER, varchar
from ..testbed.simtime import CostModel

#: The single tenant the experiment schema belongs to.
TENANT = 1

#: Chunk widths plotted in Figures 9-12 (plus "conventional").
PAPER_WIDTHS = (3, 6, 15, 30, 90)


def experiment_columns(count: int = 90) -> list[LogicalColumn]:
    """``count`` data columns, evenly distributed between the types
    INTEGER, DATE, and VARCHAR(100), in repeating (int, date, str)
    triples so chunks pack tightly (Section 6.2)."""
    columns: list[LogicalColumn] = []
    kinds = (INTEGER, DATE, varchar(100))
    for i in range(count):
        columns.append(LogicalColumn(f"col{i + 1}", kinds[i % 3]))
    return columns


def parent_table(data_columns: int = 90) -> LogicalTable:
    return LogicalTable(
        "parent",
        tuple(
            [LogicalColumn("id", INTEGER, indexed=True, not_null=True)]
            + experiment_columns(data_columns)
        ),
    )


def child_table(data_columns: int = 90) -> LogicalTable:
    return LogicalTable(
        "child",
        tuple(
            [
                LogicalColumn("id", INTEGER, indexed=True, not_null=True),
                LogicalColumn("parent", INTEGER, indexed=True),
            ]
            + experiment_columns(data_columns)
        ),
    )


def q2_sql(scale: int) -> str:
    """Query Q2 at a scale factor: ``scale`` data columns per side."""
    parts = ["p.id"]
    parts += [f"p.col{i + 1}" for i in range(scale)]
    parts += [f"c.col{i + 1}" for i in range(scale)]
    return (
        "SELECT "
        + ", ".join(parts)
        + " FROM parent p, child c WHERE p.id = c.parent AND p.id = ?"
    )


@dataclass
class ChunkQueryConfig:
    """Scaled-down defaults (paper: 10,000 parents x 100 children)."""

    parents: int = 120
    children_per_parent: int = 8
    data_columns: int = 90
    memory_bytes: int = 24 * 1024 * 1024
    seed: int = 2008
    #: Directory for a disk-backed engine (WAL + page segments); cold
    #: measurements then pay real file reads instead of simulated ones.
    #: ``None`` keeps the historical all-in-memory engine.
    db_path: str | None = None
    #: WAL group-commit batch used in disk-backed mode: the loader is
    #: autocommit-heavy, so batching fsyncs keeps loading tractable.
    group_commit: int = 64


@dataclass
class QueryMeasurement:
    """Counters and simulated times for one (layout, scale) point.

    Built from per-query :class:`~repro.engine.observability.QueryTrace`
    deltas, so the counts are attributable to Q2 alone even on a shared
    database instance."""

    layout: str
    scale: int
    logical_reads: int
    physical_reads: int
    warm_ms: float
    rows: int
    index_reads: int = 0
    index_read_share: float = 0.0


class ChunkQueryExperiment:
    """Builds one layout instance and measures Q2 against it."""

    def __init__(
        self,
        layout: str,
        config: ChunkQueryConfig | None = None,
        *,
        width: int | None = None,
        folded: bool = True,
        storage: str | None = None,
    ) -> None:
        self.config = config or ChunkQueryConfig()
        self.layout_name = layout
        options: dict = {}
        if layout == "chunk":
            options = {"width": width or 6, "folded": folded}
        if storage is not None:
            # Override the layout's storage default (bench_columnar pins
            # row-major heap baselines against columnar runs).
            options["storage"] = storage
        self.label = (
            f"chunk{width}" + ("" if folded else "-vp")
            if layout == "chunk"
            else layout
        )
        db = Database(
            memory_bytes=self.config.memory_bytes,
            path=self.config.db_path,
            durability=DurabilityOptions(group_commit=self.config.group_commit),
        )
        self.mtd = MultiTenantDatabase(layout=layout, db=db, **options)
        self.cost_model = CostModel()
        self._loaded = False

    # -- data loading ------------------------------------------------------

    def load(self) -> None:
        if self._loaded:
            return
        config = self.config
        self.mtd.define_table(parent_table(config.data_columns))
        self.mtd.define_table(child_table(config.data_columns))
        self.mtd.create_tenant(TENANT)
        rng = random.Random(config.seed)
        child_id = 0
        for parent_id in range(1, config.parents + 1):
            self.mtd.insert(
                TENANT, "parent", self._row(rng, {"id": parent_id})
            )
            for _ in range(config.children_per_parent):
                child_id += 1
                self.mtd.insert(
                    TENANT,
                    "child",
                    self._row(rng, {"id": child_id, "parent": parent_id}),
                )
        self._loaded = True

    def _row(self, rng: random.Random, keys: dict) -> dict:
        import datetime

        values = dict(keys)
        for i in range(self.config.data_columns):
            kind = i % 3
            name = f"col{i + 1}"
            if kind == 0:
                values[name] = rng.randrange(100_000)
            elif kind == 1:
                values[name] = datetime.date(2000, 1, 1) + datetime.timedelta(
                    days=rng.randrange(3000)
                )
            else:
                values[name] = f"value-{rng.randrange(100_000):06d}" + "x" * 60
        return values

    # -- measurement -------------------------------------------------------------

    def warm_up(self, scale: int, parent_id: int) -> None:
        self.mtd.execute(TENANT, q2_sql(scale), [parent_id])

    def measure(
        self, scale: int, *, cold: bool = False, repetitions: int = 3
    ) -> QueryMeasurement:
        """Average counters over ``repetitions`` runs of Q2.

        Warm: the same parent id each run so data stays in memory
        ("for all of them, we used the same values for parameter ? so
        the data was in memory", Test 3).  Cold: the buffer pool is
        flushed between runs (Test 5).
        """
        self.load()
        db = self.mtd.db
        physical_sql = self.mtd.transform_sql(TENANT, q2_sql(scale))
        parent_id = 1 + (self.config.seed % self.config.parents)
        if not cold:
            self.warm_up(scale, parent_id)
        logical = physical = index = rows = 0
        ms = 0.0
        for _ in range(repetitions):
            if cold:
                db.flush_cache()
            trace = db.trace(physical_sql, [parent_id], analyze=False)
            logical += trace.logical_reads
            physical += trace.physical_reads
            index += trace.index_reads
            rows = trace.rowcount
            ms += self.cost_model.response_ms(trace.pool, trace.exec)
        return QueryMeasurement(
            layout=self.label,
            scale=scale,
            logical_reads=logical // repetitions,
            physical_reads=physical // repetitions,
            warm_ms=ms / repetitions,
            rows=rows,
            index_reads=index // repetitions,
            index_read_share=index / logical if logical else 0.0,
        )

    def trace(self, scale: int, *, warm: bool = True):
        """One fully analyzed :class:`QueryTrace` of Q2 at ``scale``
        (per-operator rows/timings included) — the Figure 8 annotated
        plan comes from this."""
        self.load()
        physical_sql = self.mtd.transform_sql(TENANT, q2_sql(scale))
        parent_id = 1 + (self.config.seed % self.config.parents)
        if warm:
            self.warm_up(scale, parent_id)
        return self.mtd.db.trace(physical_sql, [parent_id])

    @staticmethod
    def grouping_sql(data_columns: int = 90) -> str:
        """The 'Additional Tests' grouping query: aggregates over INTEGER
        columns spread across several chunks, so narrow layouts pay
        full-table aligning joins.  INTEGER columns are col1, col4, ...
        (every third column)."""
        int_columns = [f"col{i + 1}" for i in range(data_columns) if i % 3 == 0]
        targets = int_columns[1:5]
        aggregates = ", ".join(
            f"MAX(c.{name}) AS m_{name}" for name in targets
        )
        return (
            f"SELECT c.col1, COUNT(*) AS n, {aggregates} FROM child c "
            "GROUP BY c.col1 ORDER BY n DESC LIMIT 10"
        )

    def measure_grouping(self, *, repetitions: int = 2) -> float:
        """Simulated ms for the grouping query (see grouping_sql)."""
        self.load()
        db = self.mtd.db
        sql = self.grouping_sql(self.config.data_columns)
        physical_sql = self.mtd.transform_sql(TENANT, sql)
        db.execute(physical_sql)  # warm
        ms = 0.0
        for _ in range(repetitions):
            trace = db.trace(physical_sql, analyze=False)
            ms += self.cost_model.response_ms(trace.pool, trace.exec)
        return ms / repetitions
