"""Optimizer-quality harness (TAQO-style).

The differential suites prove the engine returns the *same answers* as
SQLite and across layouts; this package measures whether it picks *good
plans*.  For each query in the seeded corpus (:mod:`.corpus`) it
enumerates the bounded plan space (:mod:`.planspace`), executes every
alternative under EXPLAIN ANALYZE (:mod:`.harness`),
and reports chosen-vs-best cost, per-operator Q-error, and the effect
of cardinality feedback (:class:`~repro.engine.feedback.CardinalityFeedback`)
per schema-mapping layout (:mod:`.report`).

``python -m repro.quality`` runs it from the command line; the CI
``optimizer-quality`` job gates on the optimal-plan rate it reports.
"""

from .corpus import generate_query  # noqa: F401
from .harness import HarnessConfig, all_layouts, run_harness, run_layout  # noqa: F401
from .planspace import Alternative, enumerate_plans  # noqa: F401
from .report import evaluate_gate, render_report, report_to_json  # noqa: F401
