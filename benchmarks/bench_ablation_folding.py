"""Ablation — the chunk-table meta-data budget (shape covers).

Chunk Folding's premise is a bounded "meta-data budget": when the
distinct chunk shapes exceed the number of Chunk Tables the database
can afford, shapes must share tables, padding narrower chunks with
NULLs.  This ablation sweeps the shape budget for a mixed-shape tenant
fleet and reports the table-count / slot-waste / query-cost trade-off.
"""

import pytest

from repro import LogicalColumn
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
