"""The executor on Experiment 2's hardest workloads — work and wall clock.

Not a paper figure: this benchmark pins what the database's
batch-at-a-time executor does on the two workloads the paper's
Experiment 2 stresses hardest, plus a report:

* the "Additional Tests" style *grouping query* — a full child-table
  scan feeding GROUP BY with COUNT/MAX aggregates (low-cardinality
  group key, so scan + accumulation dominates);
* the *Figure 9 warm-cache harness* — Q2 at scale 30, swept over parent
  ids with every page already in the buffer pool;
* a *tenant report* — the children of one parent through the parent
  index (IXSCAN -> FETCH -> GRPBY, the shape of Fig. 8 and of the
  end-to-end ``analytics_direct`` reports), swept over parent ids.

The gates are deterministic.  For each workload, on the conventional
layout and at chunk width 6, the batches operators exchanged, the
``ExecStats`` row counters and the logical page reads are written to
``benchmarks/results/vectorized_work.txt``, which CI holds
byte-identical to the committed file; the row counters and reads there
were checked against a tuple-at-a-time run when they were pinned.
Execution falling back to a row at a time shows as batches equal to
the rows moved, which :meth:`TestVectorizedWork.test_batches_carry_rows`
also refuses.  Wall clock (best of N) is recorded, ungated, in
``benchmarks/results/BENCH_vectorized.json``.
"""

import json
import pathlib
import time

import pytest

from repro.engine.observability import CounterWindow
from repro.experiments.chunkqueries import (
    ChunkQueryConfig,
    ChunkQueryExperiment,
    TENANT,
    q2_sql,
)

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_vectorized.json"
)

#: Paper-like child cardinality (Experiment 2 uses 100 children per
#: parent), so per-row work dominates fixed per-query cost.
CONFIG = ChunkQueryConfig(parents=40, children_per_parent=50)

#: Q2 scale factor for the warm harness (middle of the paper's sweep).
Q2_SCALE = 30
#: Parent ids swept per harness pass.
Q2_PARENTS = 30

WARMUP = 2
ROUNDS = 5

#: The grouping query: GROUP BY the foreign key (40 groups over 2000
#: rows) with COUNT plus MAX aggregates, so the scan/accumulation loop
#: is the work rather than per-group state churn.
GROUPING_SQL = (
    "SELECT c.parent, COUNT(*) AS n, MAX(c.col1) AS m1, MAX(c.col4) AS m4 "
    "FROM child c GROUP BY c.parent ORDER BY n DESC"
)

#: The report: one parent's children (50 rows) found through the
#: parent index, fetched, filtered on a DATE against an ISO literal,
#: and aggregated.
REPORT_SQL = (
    "SELECT c.parent, COUNT(*) AS n, MAX(c.col1) AS m1, MIN(c.col2) AS m2 "
    "FROM child c WHERE c.parent = ? AND c.col2 >= '1990-01-01' "
    "GROUP BY c.parent"
)

LAYOUTS = {"conventional": ("private", {}), "chunk6": ("chunk", {"width": 6})}
WORKLOADS = ("grouping", "fig9", "report")


def best_of(fn, *, warmup: int = WARMUP, rounds: int = ROUNDS) -> float:
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_layout(layout: str, **options) -> dict:
    """Each workload's work (one pass) and best wall clock on one
    loaded database."""
    exp = ChunkQueryExperiment(layout, CONFIG, **options)
    exp.load()
    db = exp.mtd.db
    sweep = [[parent_id] for parent_id in range(1, Q2_PARENTS + 1)]
    runs = {
        name: (db.plan(exp.mtd.transform_sql(TENANT, sql)), params)
        for name, sql, params in (
            ("grouping", GROUPING_SQL, [[]]),
            ("fig9", q2_sql(Q2_SCALE), sweep),
            ("report", REPORT_SQL, sweep),
        )
    }

    def run(name: str) -> None:
        plan, param_sets = runs[name]
        for params in param_sets:
            db.execute_plan(plan, params)

    work, ms = {}, {}
    for name in WORKLOADS:
        window = CounterWindow(pool=db.pool_stats, exec=db.exec_stats)
        run(name)
        deltas = window.deltas()
        work[name] = {
            "batches": deltas["exec"].batches,
            **deltas["exec"].row_counters(),
            "logical_reads": deltas["pool"].logical_total,
        }
        ms[name] = best_of(lambda: run(name)) * 1000.0
    return {"work": work, "executor_ms": ms}


@pytest.fixture(scope="module")
def measurements():
    results = {
        "config": {
            "parents": CONFIG.parents,
            "children_per_parent": CONFIG.children_per_parent,
            "q2_scale": Q2_SCALE,
            "q2_parents_swept": Q2_PARENTS,
            "rounds": ROUNDS,
        },
        **{
            label: measure_layout(layout, **options)
            for label, (layout, options) in LAYOUTS.items()
        },
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


class TestVectorizedWork:
    def test_report(self, benchmark, measurements, report):
        benchmark.pedantic(lambda: None, rounds=1)
        fields = list(measurements["conventional"]["work"]["grouping"])
        lines = [
            f"Executor work per workload, {CONFIG.parents}x"
            f"{CONFIG.children_per_parent}, Q2 scale {Q2_SCALE}, fig9 and "
            f"report swept over {Q2_PARENTS} parent ids",
            f"{'layout':>12} {'workload':>8} "
            + " ".join(f"{field:>{len(field)}}" for field in fields),
        ]
        for label in LAYOUTS:
            for workload in WORKLOADS:
                work = measurements[label]["work"][workload]
                lines.append(
                    f"{label:>12} {workload:>8} "
                    + " ".join(f"{work[f]:>{len(f)}}" for f in fields)
                )
        report("vectorized_work", "\n".join(lines))
        report(
            "BENCH_vectorized",
            "\n".join(
                [f"Executor wall clock, ms (best of {ROUNDS}), ungated"]
                + [
                    f"{label:>12} {workload:>8} "
                    f"{measurements[label]['executor_ms'][workload]:>9.2f}"
                    for label in LAYOUTS
                    for workload in WORKLOADS
                ]
            ),
        )

    def test_batches_carry_rows(self, measurements):
        """Each batch carries many rows: a workload exchanging a batch
        per row it scans or fetches has fallen back to a row at a
        time."""
        for label in LAYOUTS:
            for workload, work in measurements[label]["work"].items():
                moved = work["rows_scanned"] + work["rows_fetched"]
                assert 0 < work["batches"] * 8 <= moved, (label, workload, work)

    def test_json_artifact(self, measurements):
        recorded = json.loads(RESULTS_PATH.read_text())
        for label in LAYOUTS:
            assert set(recorded[label]["executor_ms"]) == set(WORKLOADS)
            assert recorded[label]["work"] == measurements[label]["work"]
