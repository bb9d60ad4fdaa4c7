"""Command-line experiment runner.

Regenerates the paper's tables and figures without pytest::

    python -m repro.experiments table2          # Table 2 + Figure 7
    python -m repro.experiments fig9 fig10      # chunk-width sweeps
    python -m repro.experiments all             # everything

Options scale the workloads (see --help).  The same harnesses back the
`benchmarks/` suite; outputs match `benchmarks/results/`.
"""

from __future__ import annotations

import argparse
import sys

from ..engine.explain import render_plan
from ..testbed.crm import ActionClass
from .chunkqueries import (
    ChunkQueryConfig,
    ChunkQueryExperiment,
    PAPER_WIDTHS,
    TENANT,
    q2_sql,
)
from .manytables import ManyTablesExperiment
from .report import render_series, render_table

SCALES = (3, 15, 30, 45, 60, 75, 90)


def run_table1(args) -> str:
    from ..testbed.crm import PAPER_VARIABILITIES, VariabilityConfig

    rows = []
    for variability in PAPER_VARIABILITIES:
        config = VariabilityConfig(variability, 10_000)
        counts = config.tenants_per_instance()
        spread = (
            str(counts[0])
            if min(counts) == max(counts)
            else f"{min(counts)}-{max(counts)}"
        )
        rows.append((variability, config.instances, spread, config.total_tables))
    return render_table(
        "Table 1: Schema Variability and Data Distribution (10,000 tenants)",
        ["variability", "instances", "tenants/instance", "total tables"],
        rows,
    )


def run_table2(args) -> str:
    experiment = ManyTablesExperiment(
        tenants=args.tenants, sessions=40, actions=args.actions
    )
    sweep = experiment.run()
    header = ["metric"] + [f"v={r.variability}" for r in sweep]
    rows = [
        ["Total tables"] + [r.total_tables for r in sweep],
        ["Baseline compliance [%]"]
        + [round(r.baseline_compliance, 1) for r in sweep],
        ["Throughput [1/min]"]
        + [round(r.throughput_per_minute) for r in sweep],
    ]
    for action in ActionClass:
        if any(action in r.quantiles_ms for r in sweep):
            rows.append(
                [f"95% RT {action.value} [ms]"]
                + [round(r.quantiles_ms.get(action, 0.0), 1) for r in sweep]
            )
    rows.append(
        ["Bufferpool hit data [%]"]
        + [round(r.data_hit_pct, 2) for r in sweep]
    )
    rows.append(
        ["Bufferpool hit index [%]"]
        + [round(r.index_hit_pct, 2) for r in sweep]
    )
    return render_table(
        "Table 2 / Figure 7: Experimental Results (scaled)", header, rows
    )


class _Sweep:
    """Shared chunk-width sweep for fig9/fig10/fig11."""

    def __init__(self, args) -> None:
        config = ChunkQueryConfig(
            parents=args.parents, children_per_parent=args.children
        )
        self.experiments = {"conventional": ChunkQueryExperiment("private", config)}
        for width in PAPER_WIDTHS:
            self.experiments[f"chunk{width}"] = ChunkQueryExperiment(
                "chunk", config, width=width
            )

    def series(self, metric, *, cold=False):
        out = {}
        for label, experiment in self.experiments.items():
            points = []
            for scale in SCALES:
                m = experiment.measure(scale, cold=cold)
                points.append((scale, float(metric(m))))
            out[label] = points
        return out


def run_fig8(args) -> str:
    experiment = ChunkQueryExperiment(
        "chunk",
        ChunkQueryConfig(parents=args.parents, children_per_parent=args.children),
        width=6,
    )
    experiment.load()
    plan = experiment.mtd.db.plan(
        experiment.mtd.transform_sql(TENANT, q2_sql(3))
    )
    trace = experiment.trace(3)
    return (
        "Figure 8: Join plan for simple fragment query (Q2 scale 3, Chunk6)\n\n"
        + render_plan(plan)
        + "\n\nEXPLAIN ANALYZE (measured rows/opens/times):\n\n"
        + (trace.plan or "")
    )


def run_fig9(args) -> str:
    sweep = _Sweep(args)
    return render_series(
        "Figure 9: Response Times with Warm Cache (simulated ms)",
        "q2_scale",
        sweep.series(lambda m: m.warm_ms),
    )


def run_fig10(args) -> str:
    sweep = _Sweep(args)
    reads = render_series(
        "Figure 10: Number of logical page reads",
        "q2_scale",
        sweep.series(lambda m: m.logical_reads),
    )
    share = render_series(
        "Figure 10 (companion): share of reads issued by index accesses [%]",
        "q2_scale",
        sweep.series(lambda m: 100.0 * m.index_read_share),
    )
    return reads + "\n\n" + share


def run_fig11(args) -> str:
    from ..testbed.simtime import CostModel

    cost = CostModel()
    sweep = _Sweep(args)
    return render_series(
        "Figure 11: Response Times with Cold Cache (simulated ms)",
        "q2_scale",
        sweep.series(
            lambda m: m.warm_ms + cost.physical_read_ms * m.physical_reads,
            cold=True,
        ),
    )


def run_grouping(args) -> str:
    config = ChunkQueryConfig(
        parents=args.parents, children_per_parent=args.children
    )
    rows = []
    conventional = ChunkQueryExperiment("private", config).measure_grouping()
    rows.append(("conventional", round(conventional, 2), 1.0))
    for width in PAPER_WIDTHS:
        ms = ChunkQueryExperiment(
            "chunk", config, width=width
        ).measure_grouping()
        rows.append((f"chunk{width}", round(ms, 2), round(ms / conventional, 1)))
    return render_table(
        "Additional Tests: grouping query by layout",
        ["layout", "sim ms", "x conventional"],
        rows,
    )


COMMANDS = {
    "table1": run_table1,
    "table2": run_table2,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "grouping": run_grouping,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "what",
        nargs="+",
        choices=sorted(COMMANDS) + ["all"],
        help="which artifacts to regenerate",
    )
    parser.add_argument("--tenants", type=int, default=100,
                        help="Experiment 1 tenant count (default 100)")
    parser.add_argument("--actions", type=int, default=600,
                        help="Experiment 1 workload size (default 600)")
    parser.add_argument("--parents", type=int, default=60,
                        help="Experiment 2 parent rows (default 60)")
    parser.add_argument("--children", type=int, default=6,
                        help="Experiment 2 children per parent (default 6)")
    args = parser.parse_args(argv)

    names = sorted(COMMANDS) if "all" in args.what else args.what
    for name in names:
        print(COMMANDS[name](args))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
