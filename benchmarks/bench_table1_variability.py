"""Table 1 — Schema Variability and Data Distribution.

Regenerates the paper's configuration table at full scale (10,000
tenants) — pure arithmetic, no database needed — and at the scaled size
the Table 2 benchmark actually runs.
"""

from repro.experiments.report import render_table
from repro.testbed.crm import VariabilityConfig

PAPER_ROWS = [
    (0.0, 1, "10,000"),
    (0.5, 5_000, "2"),
    (0.65, 6_500, "1-2"),
    (0.8, 8_000, "1-2"),
    (1.0, 10_000, "1"),
]


def build_table(tenants: int):
    rows = []
    for variability, _, _ in PAPER_ROWS:
        config = VariabilityConfig(variability, tenants)
        counts = config.tenants_per_instance()
        if min(counts) == max(counts):
            spread = str(counts[0])
        else:
            spread = f"{min(counts)}-{max(counts)}"
        rows.append(
            (variability, config.instances, spread, config.total_tables)
        )
    return rows


class TestTable1:
    def test_full_scale_matches_paper(self, benchmark, report):
        rows = build_table(10_000)
        for (v, instances, _), (rv, ri, _, total) in zip(PAPER_ROWS, rows):
            assert rv == v
            assert ri == instances
            assert total == instances * 10
        benchmark.pedantic(build_table, args=(10_000,), rounds=2)
        report(
            "table1_variability",
            render_table(
                "Table 1: Schema Variability and Data Distribution "
                "(10,000 tenants, as in the paper)",
                ["variability", "instances", "tenants/instance", "total tables"],
                rows,
            ),
        )

    def test_scaled_table(self, benchmark, report):
        rows = benchmark.pedantic(build_table, args=(100,), rounds=2)
        report(
            "table1_variability_scaled",
            render_table(
                "Table 1 (scaled: 100 tenants — the size Table 2's bench runs)",
                ["variability", "instances", "tenants/instance", "total tables"],
                rows,
            ),
        )
        assert rows[0][3] == 10
        assert rows[-1][3] == 1000

    def test_benchmark_config_math(self, benchmark):
        def build():
            return build_table(10_000)

        rows = benchmark(build)
        assert len(rows) == 5
