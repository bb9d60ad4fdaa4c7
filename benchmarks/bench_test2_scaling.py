"""Section 6.2, Test 2 — transformation and scaling.

Plans Q2 at increasing scale factors over the width-6 Chunk Table
layout and inspects how the plan grows: region 4/5 of Figure 8 "expands
to a chain of aligning joins where the join column row is looked up
using the meta-data index tcr if columns in different chunks are
accessed".
"""

import pytest

from repro.engine.explain import count_operators
from repro.experiments.chunkqueries import TENANT, q2_sql
from repro.experiments.report import render_table

SCALES = (3, 9, 21, 45, 90)


@pytest.fixture(scope="module")
def experiment(pool):
    return pool.experiment("chunk6")


@pytest.fixture(scope="module")
def plans(experiment):
    return {
        scale: experiment.mtd.db.plan(
            experiment.mtd.transform_sql(TENANT, q2_sql(scale))
        )
        for scale in SCALES
    }


class TestPlanScaling:
    def test_report(self, benchmark, plans, report):
        rows = []
        for scale, plan in plans.items():
            rows.append(
                (
                    scale,
                    count_operators(plan, "IXSCAN"),
                    count_operators(plan, "NLJOIN"),
                    count_operators(plan, "HSJOIN"),
                    count_operators(plan, "FETCH"),
                )
            )
        benchmark.pedantic(count_operators, args=(plans[90], "IXSCAN"), rounds=2)
        report(
            "test2_plan_scaling",
            render_table(
                "Test 2: Q2 plan growth on Chunk6 with the scale factor",
                ["scale", "IXSCAN", "NLJOIN", "HSJOIN", "FETCH"],
                rows,
            ),
        )

    def test_join_chain_grows_with_scale(self, plans):
        joins = {
            scale: count_operators(plan, "NLJOIN")
            + count_operators(plan, "HSJOIN")
            for scale, plan in plans.items()
        }
        values = [joins[s] for s in SCALES]
        assert values == sorted(values)
        assert joins[90] > joins[3]

    def test_expected_chunk_counts(self, plans):
        # Scale s touches ceil(s/6) data chunks per side + 1 ChunkIndex
        # chunk per side -> joins = 2*ceil(s/6) + 1 at the top.
        import math

        for scale in SCALES:
            plan = plans[scale]
            expected_accesses = 2 * math.ceil(scale / 6) + 2
            assert count_operators(plan, "IXSCAN") == expected_accesses

    def test_all_scales_answer_correctly(self, experiment):
        for scale in (3, 45, 90):
            rows = experiment.mtd.execute(TENANT, q2_sql(scale), [3]).rows
            assert len(rows) == experiment.config.children_per_parent
            assert len(rows[0]) == 1 + 2 * scale

    def test_benchmark_wide_query_wallclock(self, benchmark, experiment):
        sql = experiment.mtd.transform_sql(TENANT, q2_sql(45))
        db = experiment.mtd.db
        db.execute(sql, [3])

        def run():
            return db.execute(sql, [3])

        result = benchmark(run)
        assert len(result.rows) == experiment.config.children_per_parent
