"""Ablation — the chunk-table meta-data budget (shape covers).

Chunk Folding's premise is a bounded "meta-data budget": when the
distinct chunk shapes exceed the number of Chunk Tables the database
can afford, shapes must share tables, padding narrower chunks with
NULLs.  This ablation sweeps the shape budget for a mixed-shape tenant
fleet and reports the table-count / slot-waste / query-cost trade-off.
Also compares the greedy `FoldingPlanner`'s hot/cold split levels.
"""

import pytest

from repro import FoldingPlanner, LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.core.folding import (
    ChunkShape,
    partition_columns,
    select_cover_shapes,
    total_waste,
)
from repro.engine.values import DATE, DOUBLE, INTEGER, varchar
from repro.experiments.report import render_table


def mixed_demand():
    """Chunk-shape demand from a fleet of differently-shaped tables."""
    tables = {
        "orders": [
            LogicalColumn("a", INTEGER),
            LogicalColumn("b", INTEGER),
            LogicalColumn("c", varchar(40)),
            LogicalColumn("d", DATE),
        ],
        "notes": [
            LogicalColumn("x", varchar(80)),
            LogicalColumn("y", varchar(80)),
        ],
        "metrics": [
            LogicalColumn("m1", DOUBLE),
            LogicalColumn("m2", DOUBLE),
            LogicalColumn("m3", INTEGER),
        ],
        "events": [
            LogicalColumn("t", DATE),
            LogicalColumn("kind", varchar(20)),
            LogicalColumn("weight", INTEGER),
        ],
    }
    demand: dict[ChunkShape, int] = {}
    weights = {"orders": 100, "notes": 40, "metrics": 70, "events": 25}
    for name, columns in tables.items():
        for assignment in partition_columns(columns, width=3):
            demand[assignment.shape] = (
                demand.get(assignment.shape, 0) + weights[name]
            )
    return demand


class TestShapeBudgetAblation:
    @pytest.fixture(scope="class")
    def sweep(self):
        demand = mixed_demand()
        out = {}
        for budget in (len(demand), 3, 2, 1):
            covers = select_cover_shapes(demand, budget)
            out[budget] = (len(covers), total_waste(demand, covers))
        return demand, out

    def test_report(self, benchmark, sweep, report):
        demand, out = sweep
        benchmark.pedantic(
            select_cover_shapes, args=(demand, 2), rounds=3
        )
        rows = [
            (budget, tables, waste) for budget, (tables, waste) in out.items()
        ]
        report(
            "ablation_shape_budget",
            render_table(
                "Ablation: chunk-table budget vs. weighted slot waste",
                ["shape budget", "chunk tables", "weighted NULL-slot waste"],
                rows,
            ),
        )

    def test_waste_monotone_in_budget(self, sweep):
        _, out = sweep
        budgets = sorted(out, reverse=True)
        wastes = [out[b][1] for b in budgets]
        assert wastes == sorted(wastes)

    def test_full_budget_wastes_nothing(self, sweep):
        demand, out = sweep
        assert out[len(demand)][1] == 0


class TestUtilizationPlannerAblation:
    """Hot-fraction sweep for the utilization-driven folding planner:
    keeping more hot columns conventional trades meta-data (more
    conventional columns) against reconstruction joins."""

    def build(self, hot_fraction: float) -> MultiTenantDatabase:
        planner = FoldingPlanner(hot_fraction=hot_fraction, chunk_width=2)
        for column in ("id", "name", "status"):
            for _ in range(50):
                planner.record_access("doc", column)
        mtd = MultiTenantDatabase(
            layout="chunk_folding", width=2, planner=planner
        )
        mtd.define_table(
            LogicalTable(
                "doc",
                (
                    LogicalColumn("id", INTEGER, indexed=True, not_null=True),
                    LogicalColumn("name", varchar(40)),
                    LogicalColumn("status", varchar(10)),
                    LogicalColumn("body", varchar(100)),
                    LogicalColumn("created", DATE),
                    LogicalColumn("size", INTEGER),
                ),
            )
        )
        mtd.create_tenant(1)
        for i in range(40):
            mtd.insert(
                1,
                "doc",
                {
                    "id": i,
                    "name": f"d{i}",
                    "status": "open" if i % 2 else "done",
                    "body": "x" * 80,
                    "created": "2008-01-01",
                    "size": i,
                },
            )
        return mtd

    def measure_hot_query(self, mtd) -> int:
        sql = "SELECT name FROM doc WHERE id = ?"
        mtd.execute(1, sql, [7])
        before = mtd.db.pool_stats.snapshot()
        mtd.execute(1, sql, [7])
        return mtd.db.pool_stats.delta(before).logical_total

    @pytest.fixture(scope="class")
    def fleets(self):
        return {f: self.build(f) for f in (0.0, 0.5, 1.0)}

    def test_report(self, benchmark, fleets, report):
        benchmark.pedantic(lambda: None, rounds=1)
        rows = []
        for fraction, mtd in fleets.items():
            conventional_cols = len(
                mtd.db.catalog.table("doc_cf").columns
            ) - 2  # minus tenant, row
            rows.append(
                (
                    fraction,
                    conventional_cols,
                    mtd.db.catalog.table_count,
                    self.measure_hot_query(mtd),
                )
            )
        report(
            "ablation_hot_fraction",
            render_table(
                "Ablation: FoldingPlanner hot fraction",
                [
                    "hot fraction",
                    "conventional columns",
                    "tables",
                    "hot-query reads",
                ],
                rows,
            ),
        )

    def test_hot_query_cheapest_when_hot_columns_conventional(self, fleets):
        assert self.measure_hot_query(fleets[1.0]) <= self.measure_hot_query(
            fleets[0.0]
        )

    def test_lower_fraction_folds_more(self, fleets):
        cols = {
            f: len(m.db.catalog.table("doc_cf").columns) for f, m in fleets.items()
        }
        assert cols[0.0] <= cols[0.5] <= cols[1.0]

    def test_all_fractions_answer_identically(self, fleets):
        sql = "SELECT id, name, status, size FROM doc WHERE status = 'open'"
        reference = None
        for mtd in fleets.values():
            rows = sorted(mtd.execute(1, sql).rows)
            if reference is None:
                reference = rows
            else:
                assert rows == reference
