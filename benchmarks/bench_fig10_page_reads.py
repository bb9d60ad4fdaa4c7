"""Figure 10 (Test 4) — number of logical page reads.

"Every join with an additional base table increases the number of
logical page reads ... the trade-off between conventional tables, where
most meta-data is interpreted at compile time, and Chunk Tables, where
the meta-data must be interpreted at runtime."  The paper also reports
that 74-80 % of the chunked representations' reads were issued by index
accesses.
"""

import pytest

from conftest import BENCH_SCALES, chunk_labels
from repro.experiments.chunkqueries import TENANT, q2_sql
from repro.experiments.report import render_series


@pytest.fixture(scope="module")
def measurements(pool):
    out = {}
    for label in ["conventional"] + chunk_labels():
        out[label] = {
            scale: pool.measure(label, scale) for scale in BENCH_SCALES
        }
    return out


class TestFigure10:
    def test_report(self, benchmark, measurements, report):
        series = {
            label: [(scale, float(m.logical_reads)) for scale, m in points.items()]
            for label, points in measurements.items()
        }
        benchmark.pedantic(lambda: None, rounds=1)
        report(
            "fig10_page_reads",
            render_series(
                "Figure 10: Number of logical page reads",
                "q2_scale",
                series,
            ),
        )

    def test_conventional_reads_fewest_pages(self, measurements):
        for scale in BENCH_SCALES:
            conventional = measurements["conventional"][scale].logical_reads
            for label in chunk_labels():
                assert measurements[label][scale].logical_reads >= conventional

    def test_reads_grow_with_join_count(self, measurements):
        """More chunks touched -> more aligning joins -> more reads."""
        reads = [measurements["chunk3"][s].logical_reads for s in BENCH_SCALES]
        assert reads == sorted(reads)
        assert reads[-1] > reads[0] * 5

    def test_narrowest_chunks_read_most(self, measurements):
        at_90 = {
            label: measurements[label][90].logical_reads
            for label in chunk_labels()
        }
        assert at_90["chunk3"] == max(at_90.values())

    def test_index_reads_dominate_for_chunked(self, pool):
        """Paper: 74-80 % of reads were issued by index accesses."""
        exp = pool.experiment("chunk6")
        sql = exp.mtd.transform_sql(TENANT, q2_sql(45))
        exp.mtd.db.execute(sql, [1])  # warm
        trace = exp.mtd.db.trace(sql, [1])
        assert trace.index_read_share > 0.4
        # The measurement harness reports the same share.
        m = pool.measure("chunk6", 45)
        assert m.index_read_share > 0.4
        assert m.index_reads > 0

    def test_measurements_come_from_traces(self, pool):
        """QueryMeasurement counters equal an independent trace's deltas
        (warm cache, same parameter -> identical logical reads)."""
        exp = pool.experiment("chunk6")
        m = pool.measure("chunk6", 15)
        trace = exp.trace(15)
        assert trace.logical_reads == m.logical_reads
        assert trace.index_reads == m.index_reads

    def test_benchmark_counting_overhead(self, benchmark, pool):
        exp = pool.experiment("chunk6")
        db = exp.mtd.db
        sql = exp.mtd.transform_sql(TENANT, q2_sql(15))
        db.execute(sql, [1])

        def run_and_count():
            return db.trace(sql, [1], analyze=False).logical_reads

        reads = benchmark(run_and_count)
        assert reads > 0
