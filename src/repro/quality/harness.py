"""Execute every plan alternative; record chosen-vs-best per layout.

For each corpus query, on each layout, the harness:

1. transforms the logical SQL through the layout (identity for the
   "conventional" baseline — the raw engine schema, no mapping),
2. enumerates the bounded plan space (:mod:`.planspace`),
3. executes every alternative under EXPLAIN ANALYZE on a reference
   interpreter it builds for itself (:mod:`repro.engine.executor`),
   recording a deterministic *work* cost (row-level executor counters
   plus logical page reads — the same units the planner's cost model
   reasons in, immune to timer noise) and both executors' wall times,
4. harvests per-operator actual rows into the database's
   :class:`~repro.engine.feedback.CardinalityFeedback` store, re-plans,
   and records which plan the optimizer picks *after* feedback.

``chosen_work / best_work`` per query is the optimality ratio the CI
gate enforces on the conventional layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..engine.executor import Executor
from ..engine.explain import render_plan
from ..engine.observability import AnalyzeCollector, CounterWindow
from ..engine.sql.parser import parse_statement
from .corpus import build_engine_database, build_multitenant, generate_query
from .planspace import enumerate_plans

#: Layouts the harness replays: the raw engine schema plus every
#: schema-mapping layout from the registry.
def all_layouts() -> list[str]:
    from ..core.layouts import LAYOUTS

    return ["conventional"] + sorted(LAYOUTS)


def work_cost(exec_delta, pool_delta) -> int:
    """Deterministic plan cost in the planner's own units: rows touched
    plus index probes (weighted — a probe is a B+-tree descent, not one
    row) plus buffer-pool logical reads."""
    return (
        exec_delta.rows_scanned
        + exec_delta.rows_fetched
        + 3 * exec_delta.index_lookups
        + exec_delta.materialized_rows
        + pool_delta.logical_total
    )


@dataclass
class PlanMeasurement:
    """One executed plan alternative."""

    signature: str
    work: int
    wall_ms: dict[str, float]
    rows: int
    is_default: bool

    def to_dict(self) -> dict:
        return {
            "signature": self.signature,
            "work": self.work,
            "wall_ms": {k: round(v, 3) for k, v in self.wall_ms.items()},
            "rows": self.rows,
            "is_default": self.is_default,
        }


@dataclass
class QueryOutcome:
    """Chosen-vs-best for one corpus query on one layout."""

    seed: int
    sql: str
    physical_sql: str
    alternatives: int
    best: PlanMeasurement
    chosen: PlanMeasurement  #: the planner's default pick, pre-feedback
    chosen_after: PlanMeasurement  #: default pick after feedback
    max_q_error: float | None
    plan_changed: bool  #: did feedback change the chosen plan?

    @property
    def ratio_before(self) -> float:
        return self.chosen.work / max(1, self.best.work)

    @property
    def ratio_after(self) -> float:
        return self.chosen_after.work / max(1, self.best.work)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "sql": self.sql,
            "alternatives": self.alternatives,
            "best_work": self.best.work,
            "chosen_work": self.chosen.work,
            "chosen_after_work": self.chosen_after.work,
            "ratio_before": round(self.ratio_before, 4),
            "ratio_after": round(self.ratio_after, 4),
            "max_q_error": (
                round(self.max_q_error, 3)
                if self.max_q_error is not None
                else None
            ),
            "plan_changed": self.plan_changed,
            "wall_ms": self.chosen_after.to_dict()["wall_ms"],
        }


@dataclass
class LayoutOutcome:
    layout: str
    feedback: bool
    queries: list[QueryOutcome] = field(default_factory=list)

    def ratios_after(self) -> list[float]:
        return [q.ratio_after for q in self.queries]

    def optimal_rate(self, threshold: float = 1.5) -> float:
        """Fraction of queries whose post-feedback chosen plan is within
        ``threshold`` of the enumerated best."""
        if not self.queries:
            return 1.0
        within = sum(1 for r in self.ratios_after() if r <= threshold)
        return within / len(self.queries)

    def worst_ratio(self) -> float:
        return max(self.ratios_after(), default=1.0)


@dataclass
class HarnessConfig:
    seeds: tuple[int, ...] = tuple(range(15))
    budget: int = 24
    layouts: tuple[str, ...] = ()  #: empty = all layouts
    feedback: bool = True
    tenant: int = 1

    def resolved_layouts(self) -> list[str]:
        return list(self.layouts) if self.layouts else all_layouts()


def _normalized(rows) -> list:
    return sorted(rows, key=repr)


def _measure(
    db, stmt, directives
) -> tuple[object, AnalyzeCollector, list, PlanMeasurement]:
    """Plan one alternative and execute it on a reference interpreter
    built here, then on the database's executor for its wall time only
    (the differential suites hold its counters to the reference's).

    Returns the reference run's ``(root, collector, rows)`` and the
    measurement.  Feedback learns from that collector: one row at a
    time means one open of an NLJOIN inner per outer row, so ``rows /
    opens`` is the per-probe cardinality the planner estimates.
    """
    root = db.plan_ast(stmt, directives)
    collector = AnalyzeCollector()
    # Counting into the database's ledger lets one window also see an
    # uncorrelated IN-subquery, which the plan runs through ``db``.
    reference = Executor(db.catalog, db.exec_stats)
    db._subquery_results.clear()
    window = CounterWindow(pool=db.pool_stats, exec=db.exec_stats)
    started = time.perf_counter()
    rows = reference.run(root, collector=collector)
    walls = {"reference": (time.perf_counter() - started) * 1000.0}
    deltas = window.deltas()
    started = time.perf_counter()
    db.execute_plan(root, collector=AnalyzeCollector())
    walls["production"] = (time.perf_counter() - started) * 1000.0
    measurement = PlanMeasurement(
        signature=render_plan(root),
        work=work_cost(deltas["exec"], deltas["pool"]),
        wall_ms=walls,
        rows=len(rows),
        is_default=directives is None,
    )
    return root, collector, _normalized(rows), measurement


def run_layout(
    layout: str,
    seeds,
    *,
    budget: int = 24,
    feedback: bool = True,
    tenant: int = 1,
) -> LayoutOutcome:
    """Replay the corpus on one layout; see the module docstring."""
    if layout == "conventional":
        db = build_engine_database()

        def transform(sql: str) -> str:
            return sql

    else:
        mtd = build_multitenant(layout, primary_tenant=tenant)
        db = mtd.db

        def transform(sql: str) -> str:
            return mtd.transform_sql(tenant, sql)

    if not feedback:
        db.feedback = None
    outcome = LayoutOutcome(layout=layout, feedback=feedback)
    for seed in seeds:
        sql = generate_query(seed)
        physical = transform(sql)
        stmt = parse_statement(physical)
        alternatives = enumerate_plans(db, stmt, budget)
        measured: list[PlanMeasurement] = []
        runs: list[tuple[object, AnalyzeCollector]] = []
        reference_rows = None
        for alternative in alternatives:
            root, collector, rows, measurement = _measure(
                db, stmt, alternative.directives
            )
            measured.append(measurement)
            runs.append((root, collector))
            # Every alternative is the same query; answers must agree —
            # the harness doubles as a directive-correctness check.
            if reference_rows is None:
                reference_rows = rows
            elif rows != reference_rows:
                raise RuntimeError(
                    f"plan alternative changed the answer for seed {seed} "
                    f"on {layout}: {measurement.signature}"
                )
        chosen = next(m for m in measured if m.is_default)
        best = min(measured, key=lambda m: m.work)
        default_root, default_collector = runs[measured.index(chosen)]
        q_errors = [
            stat.q_error
            for stat in default_collector.operators(default_root)
            if stat.q_error is not None
        ]
        if db.feedback is not None:
            for root, collector in runs:
                db.feedback.observe_plan(root, collector)
            after_root = db.plan_ast(stmt)
            after_signature = render_plan(after_root)
            by_signature = {m.signature: m for m in measured}
            if after_signature in by_signature:
                chosen_after = by_signature[after_signature]
            else:
                _, _, _, chosen_after = _measure(db, stmt, None)
        else:
            chosen_after = chosen
        outcome.queries.append(
            QueryOutcome(
                seed=seed,
                sql=sql,
                physical_sql=physical,
                alternatives=len(measured),
                best=best,
                chosen=chosen,
                chosen_after=chosen_after,
                max_q_error=max(q_errors) if q_errors else None,
                plan_changed=chosen_after.signature != chosen.signature,
            )
        )
    return outcome


def run_harness(config: HarnessConfig) -> dict[str, LayoutOutcome]:
    """The full sweep: every configured layout over every seed."""
    return {
        layout: run_layout(
            layout,
            config.seeds,
            budget=config.budget,
            feedback=config.feedback,
            tenant=config.tenant,
        )
        for layout in config.resolved_layouts()
    }
