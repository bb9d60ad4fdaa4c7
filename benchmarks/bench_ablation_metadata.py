"""Ablation — the per-table meta-data cost drives the Figure 7 knee.

The paper quotes DB2 V9.1's 4 KB per table; this ablation re-runs a
two-point variability sweep with 2/4/8 KB per table and shows the
degradation scales with the meta-data budget: the more memory each
table object eats, the smaller the effective buffer pool at high
variability and the worse the index hit ratio.
"""

import pytest

from repro.engine.database import Database
from repro.core.api import MultiTenantDatabase
from repro.experiments.report import render_table
from repro.testbed.controller import Testbed, TestbedConfig
from repro.testbed.crm import build_crm
from repro.testbed.generator import TenantDataProfile

COSTS = (2048, 4096, 8192)


def run_point(table_metadata_cost: int, variability: float):
    config = TestbedConfig(
        variability=variability,
        tenants=60,
        sessions=8,
        actions=240,
        memory_bytes=6 * 1024 * 1024,
        data_profile=TenantDataProfile(default_rows=5),
    )
    testbed = Testbed(config)
    db = Database(
        memory_bytes=config.memory_bytes,
        table_metadata_cost=table_metadata_cost,
    )
    mtd = MultiTenantDatabase(layout=config.layout, db=db)
    # Testbed.setup's build, on the customized engine.
    testbed.tenant_instance = build_crm(
        mtd, testbed.variability, config.data_profile, config.seed
    )
    testbed.mtd = mtd
    results = testbed.run()
    return testbed.metrics(results)


@pytest.fixture(scope="module")
def sweep():
    return {
        cost: {v: run_point(cost, v) for v in (0.0, 1.0)} for cost in COSTS
    }


class TestMetadataCostAblation:
    def test_report(self, benchmark, sweep, report):
        rows = []
        for cost, points in sweep.items():
            rows.append(
                (
                    f"{cost // 1024} KB",
                    round(points[0.0].index_hit_ratio * 100, 2),
                    round(points[1.0].index_hit_ratio * 100, 2),
                    round(
                        points[1.0].throughput_per_minute
                        / points[0.0].throughput_per_minute,
                        2,
                    ),
                )
            )
        benchmark.pedantic(lambda: None, rounds=1)
        report(
            "ablation_metadata_cost",
            render_table(
                "Ablation: per-table meta-data cost vs. degradation",
                [
                    "cost/table",
                    "index hit % (v=0)",
                    "index hit % (v=1)",
                    "throughput ratio v1/v0",
                ],
                rows,
            ),
        )

    def test_higher_cost_hurts_more(self, sweep):
        hit_2k = sweep[2048][1.0].index_hit_ratio
        hit_8k = sweep[8192][1.0].index_hit_ratio
        assert hit_8k <= hit_2k

    def test_buffer_pool_shrinks_with_cost(self, sweep):
        pages = {
            cost: sweep[cost][1.0]  # metrics carry no pool size; recompute
            for cost in COSTS
        }
        # Direct check on the engine instead:
        pools = {}
        for cost in (2048, 8192):
            db = Database(memory_bytes=6 * 1024 * 1024, table_metadata_cost=cost)
            for i in range(100):
                db.execute(f"CREATE TABLE t{i} (x INTEGER)")
            pools[cost] = db.buffer_pool_pages
        assert pools[8192] < pools[2048]

    def test_benchmark_ddl_wallclock(self, benchmark):
        def create_tables():
            db = Database(memory_bytes=4 * 1024 * 1024)
            for i in range(50):
                db.execute(f"CREATE TABLE t{i} (x INTEGER, y VARCHAR(20))")
            return db.catalog.table_count

        count = benchmark(create_tables)
        assert count == 50
