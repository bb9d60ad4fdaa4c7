"""Table 2 + Figure 7 — handling many tables (Experiment 1).

Sweeps schema variability over {0.0, 0.5, 0.65, 0.8, 1.0} with a fixed
tenant count, data volume, and workload, reporting baseline compliance,
throughput, 95 % response-time quantiles per action class, and the
buffer-pool hit ratios.

Shape claims asserted (vs. the paper's Table 2):
* baseline compliance falls monotonically from 95 %,
* throughput at variability 1.0 is roughly half of variability 0.0
  (paper: 3,829/7,326 ≈ 0.52),
* the index hit ratio decays faster than the data hit ratio (the
  paper's data ratio stays roughly flat; here it falls too, see
  EXPERIMENTS.md),
* lightweight select/update quantiles grow with variability.
"""

import pytest

from repro.experiments.manytables import ManyTablesExperiment
from repro.experiments.report import render_series, render_table
from repro.testbed.actions import ActionClass
from repro.testbed.controller import Testbed, TestbedConfig


@pytest.fixture(scope="module")
def sweep():
    experiment = ManyTablesExperiment(
        tenants=100, sessions=40, actions=600, memory_bytes=10 * 1024 * 1024
    )
    return experiment.run()


class TestTable2:
    def test_report(self, benchmark, sweep, report):
        header = ["metric"] + [f"v={r.variability}" for r in sweep]
        classes = [
            ActionClass.SELECT_LIGHT,
            ActionClass.SELECT_HEAVY,
            ActionClass.INSERT_LIGHT,
            ActionClass.INSERT_HEAVY,
            ActionClass.UPDATE_LIGHT,
            ActionClass.UPDATE_HEAVY,
        ]
        rows = [
            ["Total tables"] + [r.total_tables for r in sweep],
            ["Baseline compliance [%]"]
            + [round(r.baseline_compliance, 1) for r in sweep],
            ["Throughput [1/min]"]
            + [round(r.throughput_per_minute) for r in sweep],
        ]
        for action in classes:
            rows.append(
                [f"95% RT {action.value} [ms]"]
                + [round(r.quantiles_ms.get(action, 0.0), 1) for r in sweep]
            )
        rows.append(
            ["Bufferpool hit data [%]"] + [round(r.data_hit_pct, 2) for r in sweep]
        )
        rows.append(
            ["Bufferpool hit index [%]"]
            + [round(r.index_hit_pct, 2) for r in sweep]
        )
        benchmark.pedantic(render_table, args=("Table 2", header, rows), rounds=2)
        report(
            "table2_many_tables",
            render_table(
                "Table 2: Experimental Results (scaled reproduction)",
                header,
                rows,
            ),
        )

    def test_figure7_series(self, benchmark, sweep, report):
        benchmark.pedantic(lambda: None, rounds=1)
        report(
            "fig7_series",
            render_series(
                "Figure 7: Results for Various Schema Variability",
                "variability",
                {
                    "compliance_pct": [
                        (r.variability, r.baseline_compliance) for r in sweep
                    ],
                    "throughput_per_min": [
                        (r.variability, r.throughput_per_minute) for r in sweep
                    ],
                    "data_hit_pct": [
                        (r.variability, r.data_hit_pct) for r in sweep
                    ],
                    "index_hit_pct": [
                        (r.variability, r.index_hit_pct) for r in sweep
                    ],
                },
            ),
        )

    # -- shape assertions -------------------------------------------------

    def test_compliance_starts_at_95(self, sweep):
        assert sweep[0].baseline_compliance == pytest.approx(95.0)

    def test_compliance_declines(self, sweep):
        values = [r.baseline_compliance for r in sweep]
        assert values[-1] < values[0]
        assert all(b <= a + 2.0 for a, b in zip(values, values[1:]))

    def test_throughput_roughly_halves(self, sweep):
        ratio = sweep[-1].throughput_per_minute / sweep[0].throughput_per_minute
        assert 0.2 < ratio < 0.8  # paper: 0.52

    def test_index_hit_ratio_decays_faster_than_data(self, sweep):
        index_drop = sweep[0].index_hit_pct - sweep[-1].index_hit_pct
        data_drop = sweep[0].data_hit_pct - sweep[-1].data_hit_pct
        assert index_drop > data_drop
        assert index_drop > 2.0  # paper: 97.5 -> 83.1

    def test_light_queries_slow_down(self, sweep):
        first = sweep[0].quantiles_ms[ActionClass.SELECT_LIGHT]
        last = sweep[-1].quantiles_ms[ActionClass.SELECT_LIGHT]
        assert last > first

    def test_table_counts_match_table1(self, sweep):
        assert [r.total_tables for r in sweep] == [10, 500, 650, 800, 1000]


class TestBenchmarkedAction:
    """Wall-clock timing of the workhorse action (Select Light) at the
    two extreme variabilities."""

    @pytest.fixture(scope="class")
    def testbeds(self):
        out = {}
        for variability in (0.0, 1.0):
            testbed = Testbed(
                TestbedConfig(
                    variability=variability,
                    tenants=30,
                    sessions=4,
                    actions=10,
                    memory_bytes=4 * 1024 * 1024,
                )
            )
            testbed.setup()
            out[variability] = testbed
        return out

    @pytest.mark.parametrize("variability", [0.0, 1.0])
    def test_select_light_wallclock(self, benchmark, testbeds, variability):
        testbed = testbeds[variability]
        mtd = testbed.mtd

        def point_query():
            return mtd.execute(1, "SELECT * FROM account WHERE id = 1")

        result = benchmark(point_query)
        assert result.rows
