"""EXPLAIN ANALYZE: per-operator row counts and wall times.

The executor wraps every physical operator's batch iterator in a timing
shim when a collector is supplied, so each node accumulates how many
rows it produced, how many times it was opened (NLJOIN inners re-open
per outer row), and the wall time spent producing its rows.  Times are
*inclusive* — a node's time contains its children's, exactly like the
"actual time" column of PostgreSQL's EXPLAIN ANALYZE or the DB2 snapshot
figures the paper's Figure 8 plans come from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from ..plan import physical as phys


@dataclass
class OperatorStats:
    """Measured execution of one physical operator."""

    op_name: str
    detail: str
    rows: int = 0
    opens: int = 0
    time_ms: float = 0.0
    #: The planner's cardinality estimate for this operator (copied from
    #: :attr:`PNode.est_rows <repro.engine.plan.physical.PNode>`), or
    #: None when the planner made no claim.  ``actual vs est`` is what
    #: Q-error measures.
    est_rows: float | None = None

    @property
    def q_error(self) -> float | None:
        """``max(est/actual, actual/est)`` per probe — the standard
        cardinality-estimation error metric (1.0 is perfect).  None when
        there is no estimate or the operator never ran.  Both sides are
        +1-smoothed so empty operators yield a finite error (an estimate
        of 60 against 0 actual rows reads 61, not 6e10)."""
        if self.est_rows is None or self.opens == 0:
            return None
        actual = self.rows / self.opens + 1.0
        est = max(self.est_rows, 0.0) + 1.0
        return max(est / actual, actual / est)


class AnalyzeCollector:
    """Accumulates :class:`OperatorStats` keyed by plan-node identity."""

    def __init__(self) -> None:
        self._stats: dict[int, OperatorStats] = {}

    def stats_for(self, node: phys.PNode) -> OperatorStats | None:
        return self._stats.get(id(node))

    def _ensure(self, node: phys.PNode) -> OperatorStats:
        stat = self._stats.get(id(node))
        if stat is None:
            stat = OperatorStats(
                node.op_name,
                node.describe(),
                est_rows=getattr(node, "est_rows", None),
            )
            self._stats[id(node)] = stat
        return stat

    def wrap_batches(
        self, node: phys.PNode, batches: Iterator[list]
    ) -> Iterator[list]:
        """Time an operator's batch iterator: one timing probe per
        batch, charging only time spent inside ``next()`` (producing),
        not the consumer's, and rows accumulated from batch lengths."""
        stat = self._ensure(node)
        stat.opens += 1
        it = iter(batches)
        while True:
            t0 = time.perf_counter()
            try:
                batch = next(it)
            except StopIteration:
                stat.time_ms += (time.perf_counter() - t0) * 1000.0
                return
            stat.time_ms += (time.perf_counter() - t0) * 1000.0
            stat.rows += len(batch)
            yield batch

    # -- reporting --------------------------------------------------------

    def operators(self, root: phys.PNode) -> list[OperatorStats]:
        """Stats in plan (pre-)order; nodes never opened appear with
        zero counts so the tree stays complete."""
        out: list[OperatorStats] = []

        def visit(node: phys.PNode) -> None:
            stat = self.stats_for(node)
            if stat is None:
                stat = OperatorStats(
                    node.op_name,
                    node.describe(),
                    est_rows=getattr(node, "est_rows", None),
                )
            out.append(stat)
            for child in node.children():
                visit(child)

        visit(root)
        return out


def render_analyzed_plan(root: phys.PNode, collector: AnalyzeCollector) -> str:
    """The Figure 8 operator tree annotated with measured counts.

    Example line::

        IXSCAN  [chunk_i1s1 AS f0 via ...]  (rows=8 opens=1 time=0.113ms)
    """
    lines: list[str] = []

    def visit(node: phys.PNode, depth: int) -> None:
        detail = node.describe()
        suffix = f"  [{detail}]" if detail else ""
        stat = collector.stats_for(node)
        est = getattr(node, "est_rows", None)
        est_ann = f" est={est:.1f}" if est is not None else ""
        if stat is None:
            ann = "  (never executed)"
        else:
            ann = (
                f"  (rows={stat.rows} opens={stat.opens} "
                f"time={stat.time_ms:.3f}ms{est_ann})"
            )
        lines.append("  " * depth + node.op_name + suffix + ann)
        for child in node.children():
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
