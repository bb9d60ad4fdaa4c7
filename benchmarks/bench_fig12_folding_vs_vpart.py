"""Figure 12 (Test 6) — Chunk Folding vs. plain vertical partitioning.

Vertical partitioning keeps each chunk in its own physical table
(identified by table name); Chunk Folding folds chunks of many tables
into shared Chunk Tables with an extra Chunk meta-data column.  The
paper reports >50 % response-time improvements for folding at widths
3-6 (shared tables keep the buffer pool effective) and a ~10 %
degradation at width 90, where the layouts are nearly identical except
for the Chunk column's index overhead (~25 % more physical data reads).
"""

import pytest

from repro.experiments.report import render_series

WIDTHS = (3, 6, 15, 90)
SCALES = (3, 30, 60, 90)


@pytest.fixture(scope="module")
def improvements(pool):
    """% response-time improvement of folding over vertical
    partitioning, cold cache (buffer-pool effects included)."""
    from bench_fig11_cold_cache import cold_ms

    out: dict[int, dict[int, float]] = {}
    for width in WIDTHS:
        out[width] = {}
        for scale in SCALES:
            folded = cold_ms(pool.measure(f"chunk{width}", scale, cold=True))
            unfolded = cold_ms(
                pool.measure(f"chunk{width}-vp", scale, cold=True)
            )
            out[width][scale] = 100.0 * (unfolded - folded) / unfolded
    return out


class TestFigure12:
    def test_report(self, benchmark, improvements, report):
        series = {
            f"chunk{width}": [
                (scale, improvements[width][scale]) for scale in SCALES
            ]
            for width in WIDTHS
        }
        benchmark.pedantic(lambda: None, rounds=1)
        report(
            "fig12_folding_vs_vpart",
            render_series(
                "Figure 12: Response-time improvement of Chunk Folding "
                "over vertical partitioning [%] (cold cache)",
                "q2_scale",
                series,
            ),
        )

    def test_folding_helps_narrow_chunks(self, improvements):
        """Paper: >50 % improvement for the 3- and 6-column configs."""
        assert improvements[3][90] > 20.0
        assert improvements[6][90] > 10.0

    def test_folding_roughly_neutral_at_full_width(self, improvements):
        """Paper: nearly identical layouts at width 90, folding ~10 %
        slower from the extra Chunk column."""
        assert -40.0 < improvements[90][90] < 25.0

    def test_improvement_declines_with_width(self, improvements):
        at_90 = [improvements[width][90] for width in WIDTHS]
        assert at_90[0] > at_90[-1]

    def test_vertical_partitioning_needs_more_tables(self, pool):
        folded = pool.experiment("chunk6").mtd.db.catalog.table_count
        unfolded = pool.experiment("chunk6-vp").mtd.db.catalog.table_count
        assert unfolded > folded

    def test_both_layouts_agree_on_answers(self, pool):
        from repro.experiments.chunkqueries import TENANT, q2_sql

        folded = pool.experiment("chunk6")
        unfolded = pool.experiment("chunk6-vp")
        sql = q2_sql(9)
        assert sorted(folded.mtd.execute(TENANT, sql, [5]).rows) == sorted(
            unfolded.mtd.execute(TENANT, sql, [5]).rows
        )

    def test_benchmark_folded_vs_unfolded_wallclock(self, benchmark, pool):
        from repro.experiments.chunkqueries import TENANT, q2_sql

        exp = pool.experiment("chunk6")
        sql = exp.mtd.transform_sql(TENANT, q2_sql(12))
        exp.mtd.db.execute(sql, [1])

        def run():
            return exp.mtd.db.execute(sql, [1])

        result = benchmark(run)
        assert result.rows
