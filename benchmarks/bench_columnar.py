"""Columnar storage — wall-clock, column pages vs row-major heap.

Not a paper figure: this benchmark isolates what the
:class:`ColumnStore` changes under the database's one executor — the
same queries over two identically loaded databases that differ in
storage format only.  Neither format wins everywhere, which is why both
stay and the layout picks (``docs/columnar_storage.md``); the gates pin
the two orderings that decision rests on, each with a wide margin:

* **chunk width 6, grouping** — a scan of a shared chunk table under
  selective meta predicates feeding GROUP BY: late-materializing column
  scans must beat the heap (measured ~1.4x, gate >= 1.1x);
* **conventional, grouping** — the same query over the wide private
  table, where column pages pay for assembling full-width rows: the
  heap must beat them (measured ~8x, gate >= 2x).

The Figure 9 warm harness (Q2 at scale 30 swept over parent ids) is
probe-bound and reported un-gated: the formats are within this
container's noise of each other on it.

Timing rounds are *interleaved* across the two formats so machine noise
hits both equally, and each reports its best round.  A parity test
asserts rows and warm logical reads are identical across formats — the
columnar format changes how fast pages are processed, never which pages
are touched or what comes back.

Results land in ``benchmarks/results/BENCH_columnar.json``; CI uploads
all ``BENCH_*.json`` files as artifacts, so the perf trajectory is
recorded run over run.
"""

import json
import pathlib
import time

import pytest

from repro.experiments.chunkqueries import (
    ChunkQueryConfig,
    ChunkQueryExperiment,
    TENANT,
    q2_sql,
)

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_columnar.json"
)

#: Paper-faithful child cardinality (Experiment 2 loads 100 children
#: per parent); the per-query probe work then dominates fixed per-query
#: cost, which is what the Fig 9 gate measures.
CONFIG = ChunkQueryConfig(parents=30, children_per_parent=100)

#: Q2 scale factor for the warm harness (middle of the paper's sweep,
#: same as bench_vectorized).
Q2_SCALE = 30
#: Parent ids swept per harness pass.
Q2_PARENTS = 20

WARMUP = 2
ROUNDS = 5

#: Same grouping query as bench_vectorized: GROUP BY the foreign key
#: with COUNT plus MAX aggregates over two data columns, so the
#: scan/accumulation loop is the measured cost.
GROUPING_SQL = (
    "SELECT c.parent, COUNT(*) AS n, MAX(c.col1) AS m1, MAX(c.col4) AS m4 "
    "FROM child c GROUP BY c.parent ORDER BY n DESC"
)

STORAGES = ("heap", "columnar")


def _runners(exp: ChunkQueryExperiment):
    """(grouping, fig9) timing thunks for one storage format."""
    db = exp.mtd.db
    grouping_sql = exp.mtd.transform_sql(TENANT, GROUPING_SQL)
    q2 = exp.mtd.transform_sql(TENANT, q2_sql(Q2_SCALE))

    def run_grouping() -> float:
        start = time.perf_counter()
        db.execute(grouping_sql)
        return time.perf_counter() - start

    def run_fig9() -> float:
        start = time.perf_counter()
        for parent_id in range(1, Q2_PARENTS + 1):
            db.execute(q2, [parent_id])
        return time.perf_counter() - start

    return run_grouping, run_fig9


def measure_layout(layout: str, **options) -> dict:
    """Both storage formats, interleaved best-of timing."""
    experiments = {}
    for storage in STORAGES:
        exp = ChunkQueryExperiment(layout, CONFIG, storage=storage, **options)
        exp.load()
        experiments[storage] = exp
    runners = {storage: _runners(experiments[storage]) for storage in STORAGES}
    result: dict = {
        storage: {"grouping_s": float("inf"), "fig9_s": float("inf")}
        for storage in STORAGES
    }
    for round_no in range(WARMUP + ROUNDS):
        for storage, (run_grouping, run_fig9) in runners.items():
            grouping_s = run_grouping()
            fig9_s = run_fig9()
            if round_no >= WARMUP:
                best = result[storage]
                best["grouping_s"] = min(best["grouping_s"], grouping_s)
                best["fig9_s"] = min(best["fig9_s"], fig9_s)
    for workload in ("grouping", "fig9"):
        result[f"speedup_{workload}"] = (
            result["heap"][f"{workload}_s"]
            / result["columnar"][f"{workload}_s"]
        )
    result["_experiments"] = experiments
    return result


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
        "chunk6": measure_layout("chunk", width=6),
        "conventional": measure_layout("private"),
    }
    recorded = {
        label: {
            key: value
            for key, value in section.items()
            if not key.startswith("_")
        }
        if isinstance(section, dict)
        else section
        for label, section in results.items()
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(recorded, indent=2) + "\n")
    return results


class TestColumnarSpeedup:
    def test_report(self, benchmark, measurements, report):
        benchmark.pedantic(lambda: None, rounds=1)
        lines = [
            "Columnar vs row-major storage, wall clock (best of "
            f"{ROUNDS} interleaved), "
            f"{CONFIG.parents}x{CONFIG.children_per_parent}",
            f"{'layout':>14} {'storage':>9} {'grouping ms':>12} {'fig9 ms':>9}",
        ]
        for label in ("chunk6", "conventional"):
            section = measurements[label]
            for storage in STORAGES:
                cell = section[storage]
                lines.append(
                    f"{label:>14} {storage:>9} "
                    f"{cell['grouping_s'] * 1000:>12.2f} "
                    f"{cell['fig9_s'] * 1000:>9.2f}"
                )
            lines.append(
                f"{label:>14} columnar over heap: "
                f"grouping {section['speedup_grouping']:.2f}x, "
                f"fig9 {section['speedup_fig9']:.2f}x"
            )
        report("BENCH_columnar", "\n".join(lines))

    def test_chunk6_grouping_columnar_wins(self, measurements):
        """Shared chunk table, selective meta predicates: column pages
        win."""
        assert measurements["chunk6"]["speedup_grouping"] >= 1.1

    def test_conventional_grouping_heap_wins(self, measurements):
        """Wide private table, full-width rows: the heap wins — the
        reason ``storage`` is the layout's choice, not a global one."""
        assert measurements["conventional"]["speedup_grouping"] <= 0.5

    def test_rows_and_logical_read_parity(self, measurements):
        """Both formats return identical rows and touch identical warm
        page counts — the format changes speed only."""
        experiments = measurements["chunk6"]["_experiments"]
        grouping_rows: list = []
        q2_rows: list = []
        q2_logical: list = []
        for storage in STORAGES:
            exp = experiments[storage]
            db = exp.mtd.db
            grouping_sql = exp.mtd.transform_sql(TENANT, GROUPING_SQL)
            q2 = exp.mtd.transform_sql(TENANT, q2_sql(Q2_SCALE))
            grouping_rows.append(sorted(db.execute(grouping_sql).rows))
            db.execute(q2, [3])  # warm every page the trace will touch
            trace = db.trace(q2, [3], analyze=False)
            q2_rows.append(sorted(trace.rows))
            q2_logical.append(trace.logical_reads)
        assert grouping_rows[0] == grouping_rows[1]
        assert q2_rows[0] == q2_rows[1]
        assert q2_logical[0] == q2_logical[1]

    def test_json_artifact(self, measurements):
        recorded = json.loads(RESULTS_PATH.read_text())
        for label in ("chunk6", "conventional"):
            assert recorded[label]["speedup_grouping"] > 0
            assert recorded[label]["speedup_fig9"] > 0
        assert "_experiments" not in recorded["chunk6"]
