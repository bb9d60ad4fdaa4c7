"""Static analysis over the engine's and schema-mapping layer's IRs.

Three passes:

1. :mod:`repro.analysis.semantic` — a report over the findings of the
   engine's binder (:mod:`repro.engine.plan.bind`), which resolves
   names and types for the planner, ``Database.prepare`` and the
   schema-mapping layer's transformers alike.
2. :mod:`repro.analysis.isolation` — proves every access to a shared
   physical table is dominated by tenant-identifying meta conjuncts.
3. :mod:`repro.analysis.invariants` — layout invariants: fragment
   coverage, type/cast consistency, meta-row agreement, row alignment.

``python -m repro.analysis`` runs passes 2 and 3 over the Figure 5 CRM
testbed at the Table 1 variability levels (see
:mod:`repro.analysis.runner`).  Pass 1 runs there too, but inside the
layers' ``prepare_ast`` calls: a statement the binder refused would
surface as an exception, not as a finding.

The engine imports nothing from this package: the sanitizer
``Database(sanitize=True)`` attaches comes through the hook
:mod:`repro.analysis.sanitizers` installs on ``Database``.
"""

from .findings import AnalysisReport, Finding, RULES, Rule, Severity
from .semantic import analyze_sql, analyze_statement

__all__ = [
    "AnalysisReport",
    "Finding",
    "RULES",
    "Rule",
    "Severity",
    "analyze_sql",
    "analyze_statement",
]
