"""Fused cross-tenant analytics — wall-clock, one statement vs N.

The MTSQL ``FOR TENANTS`` dialect exists so a cross-tenant rollup runs
as **one fused physical statement** per layout group instead of a
per-tenant fan-out loop.  On shared layouts (chunk, universal, pivot,
...) the fused plan scans the shared table once with the tenant set
pushed into the scan and groups by the tenant column, so its cost is
one scan plus grouping — while the loop pays full per-statement
overhead (transform, cache lookup, plan, index probe) once per tenant.

Gate: at 50 tenants the fused grouped-by-tenant rollup must be **>= 3x**
faster than the per-tenant loop on the **chunk** and **universal**
layouts (the paper's two main shared-table designs).  The other layouts
are reported for the trajectory but not gated; ``private`` keeps
per-tenant physical tables, so fusion legitimately buys little there.

Timing rounds are *interleaved* across layouts and both sides (fused /
loop) so machine noise hits every cell equally; each cell reports its
best round.  A parity test asserts the fused rows equal the fan-out
rows merged in tenant order — fusion changes how fast the answer is
computed, never the answer.

Results land in ``benchmarks/results/BENCH_crosstenant.json``; CI
uploads all ``BENCH_*.json`` files as artifacts, so the perf trajectory
is recorded run over run (``benchmarks/collect_bench.py`` merges them).
"""

import json
import pathlib
import time

import pytest

from repro import LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.engine.values import INTEGER, varchar

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_crosstenant.json"
)

TENANTS = 50
ROWS_PER_TENANT = 40

WARMUP = 2
ROUNDS = 5

#: Layouts measured; the gate applies to the paper's two main
#: shared-table designs.
LAYOUTS = ("chunk", "universal", "pivot", "extension", "chunk_folding")
GATED = ("chunk", "universal")
MIN_SPEEDUP = 3.0

#: The fused statement: grouped-by-tenant rollup over the whole fleet.
FUSED_SQL = (
    "SELECT TENANT_ID(), COUNT(*), SUM(val), MAX(val) FROM item "
    "GROUP BY TENANT_ID() ORDER BY TENANT_ID() FOR ALL TENANTS"
)
#: What the fan-out loop runs per tenant to produce the same rows.
LOOP_SQL = "SELECT COUNT(*), SUM(val), MAX(val) FROM item"


def build(layout: str) -> MultiTenantDatabase:
    mtd = MultiTenantDatabase(layout=layout)
    mtd.define_table(
        LogicalTable(
            "item",
            (
                LogicalColumn("id", INTEGER, indexed=True, not_null=True),
                LogicalColumn("cat", varchar(10)),
                LogicalColumn("val", INTEGER),
            ),
        )
    )
    for tenant in range(1, TENANTS + 1):
        mtd.create_tenant(tenant)
        for i in range(ROWS_PER_TENANT):
            mtd.insert(
                tenant,
                "item",
                {"id": i, "cat": f"c{i % 5}", "val": i * 3 + tenant},
            )
    return mtd


def fanout_rows(mtd: MultiTenantDatabase) -> list[tuple]:
    """The loop's merged result: one rollup row per tenant, in tenant
    order — the shape the fused statement returns directly."""
    return [
        (tenant,) + tuple(mtd.execute(tenant, LOOP_SQL).rows[0])
        for tenant in mtd.tenant_ids()
    ]


@pytest.fixture(scope="module")
def measurements():
    databases = {layout: build(layout) for layout in LAYOUTS}
    best: dict[str, list[float]] = {
        layout: [float("inf"), float("inf")] for layout in LAYOUTS
    }
    for round_no in range(WARMUP + ROUNDS):
        for layout, mtd in databases.items():
            start = time.perf_counter()
            mtd.execute_cross(FUSED_SQL)
            fused_s = time.perf_counter() - start
            start = time.perf_counter()
            for tenant in mtd.tenant_ids():
                mtd.execute(tenant, LOOP_SQL)
            loop_s = time.perf_counter() - start
            if round_no >= WARMUP:
                best[layout][0] = min(best[layout][0], fused_s)
                best[layout][1] = min(best[layout][1], loop_s)
    results = {
        "config": {
            "tenants": TENANTS,
            "rows_per_tenant": ROWS_PER_TENANT,
            "rounds": ROUNDS,
            "gated_layouts": list(GATED),
            "min_speedup": MIN_SPEEDUP,
        },
        "layouts": {
            layout: {
                "fused_s": best[layout][0],
                "loop_s": best[layout][1],
                "speedup": best[layout][1] / best[layout][0],
            }
            for layout in LAYOUTS
        },
        "_databases": databases,
    }
    recorded = {
        key: value for key, value in results.items() if not key.startswith("_")
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(recorded, indent=2) + "\n")
    return results


class TestCrossTenantFusion:
    def test_report(self, benchmark, measurements, report):
        benchmark.pedantic(lambda: None, rounds=1)
        lines = [
            f"Fused cross-tenant rollup vs per-tenant fan-out loop, "
            f"{TENANTS} tenants x {ROWS_PER_TENANT} rows "
            f"(best of {ROUNDS} interleaved)",
            f"{'layout':>14} {'fused ms':>9} {'loop ms':>8} {'speedup':>8}",
        ]
        for layout in LAYOUTS:
            cell = measurements["layouts"][layout]
            gate = "  (gated)" if layout in GATED else ""
            lines.append(
                f"{layout:>14} {cell['fused_s'] * 1000:>9.2f} "
                f"{cell['loop_s'] * 1000:>8.2f} "
                f"{cell['speedup']:>7.2f}x{gate}"
            )
        report("BENCH_crosstenant", "\n".join(lines))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_parity(self, measurements, layout):
        """Fused rows must equal the fan-out loop's merged rows."""
        mtd = measurements["_databases"][layout]
        assert mtd.execute_cross(FUSED_SQL).rows == fanout_rows(mtd)

    @pytest.mark.parametrize("layout", GATED)
    def test_speedup_gate(self, measurements, layout):
        """The fused plan must be >= 3x the fan-out loop at 50 tenants
        on the paper's two main shared-table layouts."""
        assert measurements["layouts"][layout]["speedup"] >= MIN_SPEEDUP
