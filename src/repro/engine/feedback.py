"""Cardinality feedback: observed selectivities folded into the planner.

The planner's access estimates (:meth:`Planner._estimate_access
<repro.engine.optimizer.Planner._estimate_access>`) are static guesses —
index prefix statistics when an index matches, a fixed ``0.5`` per bound
column otherwise.  Shared multi-tenant layouts are exactly where those
guesses go wrong: every physical table carries tenant/table/chunk
meta-data conjuncts whose real selectivity depends on the tenant
population, not on anything the catalog knows.

:class:`CardinalityFeedback` closes the loop TAQO-style.  After an
EXPLAIN ANALYZE run, :meth:`observe_plan` records per-access *actual*
rows-per-probe keyed by ``(table, bound equality columns)``; the planner
consults :meth:`estimate` with the same key before falling back to its
static model.  Observations are folded with an exponential moving
average so one outlier probe does not whipsaw the plan.

Plan-cache coupling: :attr:`version` advances only when an observation
*moves* a stored estimate by more than :data:`TOLERANCE` (or creates one) —
i.e. when re-planning could actually change a choice.  Cached plans
(:class:`~repro.engine.statement_cache.PreparedStatement`) remember the
feedback version they were planned under and lazily re-plan on
mismatch, so feedback invalidates exactly like a catalog change without
flushing the cache on every probe.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .observability.metrics import MetricsRegistry
from .plan import physical as phys

#: Weight of the newest observation in the moving average.
SMOOTHING = 0.5
#: Relative change below which an observation does not bump
#: :attr:`CardinalityFeedback.version`: too small to expect another plan.
TOLERANCE = 1.2


class CardinalityFeedback:
    """Observed rows-per-access keyed by ``(table, bound columns)``."""

    def __init__(self, metrics=None) -> None:
        self._estimates: dict[tuple, float] = {}
        metrics = metrics or MetricsRegistry()
        self._c_observations = metrics.counter("db.feedback.observations")
        self._c_revisions = metrics.counter("db.feedback.revisions")
        #: Monotonic revision; plan caches revalidate against this.
        self.version = 0

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def key(table_name: str, bound_columns: Iterable[str]) -> tuple:
        return (
            table_name.lower(),
            tuple(sorted(c.lower() for c in bound_columns)),
        )

    # -- store --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._estimates)

    def estimate(
        self, table_name: str, bound_columns: Iterable[str]
    ) -> float | None:
        """The learned rows-per-access for this key, or ``None``."""
        return self._estimates.get(self.key(table_name, bound_columns))

    def observe(
        self, table_name: str, bound_columns: Iterable[str], actual_rows: float
    ) -> bool:
        """Fold one observed rows-per-access; returns True when the
        stored estimate changed enough to bump :attr:`version`."""
        key = self.key(table_name, bound_columns)
        if not key[1]:
            # An unrestricted access: the catalog's row count is already
            # exact, nothing to learn.
            return False
        actual = max(0.0, float(actual_rows))
        previous = self._estimates.get(key)
        if previous is None:
            value = actual
        else:
            value = previous + SMOOTHING * (actual - previous)
        self._estimates[key] = value
        self._c_observations.inc()
        if previous is None:
            changed = True
        else:
            lo, hi = sorted((max(previous, 1e-9), max(value, 1e-9)))
            changed = hi / lo > TOLERANCE
        if changed:
            self.version += 1
            self._c_revisions.inc()
        return changed

    def observe_plan(self, root: phys.PNode, collector) -> int:
        """Harvest every feedback-keyed access in an analyzed plan.

        ``collector`` is the :class:`AnalyzeCollector
        <repro.engine.observability.analyze.AnalyzeCollector>` the plan
        ran under.  Rows are normalized per *open* so an NLJOIN inner
        probed N times teaches its per-probe cardinality, matching what
        :meth:`Planner._estimate_access` estimates.  Returns the number
        of observations folded in.
        """
        observed = 0

        def visit(node: phys.PNode) -> None:
            nonlocal observed
            key = getattr(node, "feedback_key", None)
            if key is not None:
                stat = collector.stats_for(node)
                if stat is not None and stat.opens > 0:
                    self.observe(key[0], key[1], stat.rows / stat.opens)
                    observed += 1
            for child in node.children():
                visit(child)

        visit(root)
        return observed

    def snapshot(self) -> Mapping[tuple, float]:
        """A copy of the learned estimates (for reports / debugging)."""
        return dict(self._estimates)

    def clear(self) -> None:
        """Forget everything; bumps the version so cached plans re-plan
        back onto the static model."""
        if self._estimates:
            self._estimates.clear()
            self.version += 1
