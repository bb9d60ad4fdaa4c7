"""Pass 1 — semantic analysis: a report over the binder's findings.

Names and types are resolved by the engine's binder
(:mod:`repro.engine.plan.bind`), the one pass the planner, ``Database.
prepare`` and the schema-mapping layer's transformers all run.  This
module only renders its findings as an :class:`AnalysisReport` under
the SEM rule ids: unknown tables and columns, ambiguous references,
duplicate bindings, statement shape mismatches, unknown functions,
aggregate misuse, and type-incompatible comparisons and assignments.

The ``columns`` argument is the binder's column source, e.g.
``db.catalog.columns`` for a physical :class:`~repro.engine.database.
Database`.
"""

from __future__ import annotations

from ..engine.errors import UnsupportedSyntaxError
from ..engine.plan.bind import ColumnSource, bind_statement
from ..engine.sql import ast
from ..engine.sql.parser import parse_statement
from .findings import AnalysisReport, Finding


def analyze_statement(
    stmt: ast.Statement, columns: ColumnSource, locus: str = ""
) -> AnalysisReport:
    """The binder's findings on one statement (DDL has none: the
    catalog checks it)."""
    report = AnalysisReport(checked=1)
    for finding in bind_statement(stmt, columns).findings:
        report.add(Finding(finding.rule_id, finding.message, locus))
    return report


def analyze_sql(sql: str, columns: ColumnSource, locus: str = "") -> AnalysisReport:
    """Parse and analyze SQL text.  A construct the parser refuses by
    name (an outer join) is a finding, not an exception; any other parse
    error propagates."""
    try:
        stmt = parse_statement(sql)
    except UnsupportedSyntaxError as exc:
        report = AnalysisReport(checked=1)
        report.add(Finding(exc.rule_id, str(exc), locus or sql))
        return report
    return analyze_statement(stmt, columns, locus or sql)
