"""Engine-wide observability: metrics registry, query traces, EXPLAIN
ANALYZE.

Three pieces, layered exactly like the measurements in the paper:

* :mod:`metrics` — the one counter mechanism: a component stores its
  counters as fields of a :class:`CounterSet`, the named
  :class:`MetricsRegistry` (``db.metrics``) reads those live fields
  beside its own counters/gauges/histograms, and ``snapshot`` /
  ``delta`` (:class:`CounterWindow` for several sets) difference them.
* :mod:`trace` — :class:`QueryTrace`, per-statement deltas of the pool /
  executor / lock / WAL counter sets plus wall time; ``db.trace(sql)``
  is ``db.execute(sql)`` inside such a window.  Experiments attribute
  page reads to individual queries with it (Figure 10, Table 2).
* :mod:`analyze` — per-operator row counts and timings collected while a
  plan runs; rendered as the annotated Figure 8 operator tree by
  ``EXPLAIN ANALYZE`` / ``db.explain_analyze(sql)``.
"""

from .analyze import (  # noqa: F401
    AnalyzeCollector,
    OperatorStats,
    render_analyzed_plan,
)
from .metrics import (  # noqa: F401
    Counter,
    CounterSet,
    CounterWindow,
    Gauge,
    Histogram,
    HISTOGRAM_RESERVOIR,
    MetricsRegistry,
)
from .trace import QueryTrace  # noqa: F401
