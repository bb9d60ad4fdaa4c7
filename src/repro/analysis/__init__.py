"""Static analysis over the engine's and schema-mapping layer's IRs.

Three passes:

1. :mod:`repro.analysis.semantic` — name/type resolution of SQL ASTs
   against the engine's physical catalog, run at ``Database.prepare``
   time.
2. :mod:`repro.analysis.isolation` — proves every access to a shared
   physical table is dominated by tenant-identifying meta conjuncts.
3. :mod:`repro.analysis.invariants` — layout invariants: fragment
   coverage, type/cast consistency, meta-row agreement, row alignment.

``python -m repro.analysis`` runs all passes over the Figure 5 CRM
testbed at the Table 1 variability levels (see
:mod:`repro.analysis.runner`).

This package is imported by ``repro.engine.database`` (the prepare-time
gate), so the eager imports here must stay below the engine: findings
and semantic only.
"""

from .findings import AnalysisReport, Finding, RULES, Rule, Severity
from .semantic import CatalogProvider, SemanticAnalyzer

__all__ = [
    "AnalysisReport",
    "CatalogProvider",
    "Finding",
    "RULES",
    "Rule",
    "SemanticAnalyzer",
    "Severity",
]
