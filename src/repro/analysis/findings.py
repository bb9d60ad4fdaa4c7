"""Structured findings shared by every analysis pass.

A finding is one rule violation: a rule id from the catalog below, a
severity, a human-readable message, and a *locus* describing where the
problem lives (a statement, a layout/tenant/table coordinate, a
physical-table meta tuple, ...).  Reports aggregate findings and feed
the ``analysis.*`` counters of a :class:`MetricsRegistry`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class Severity(enum.IntEnum):
    """Finding severity; strict gates fail on ERROR."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Rule:
    """One entry of the rule catalog."""

    rule_id: str
    severity: Severity
    title: str


#: The rule catalog.  ``docs/analysis_rules.md`` mirrors this table.
RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        # -- semantic analyzer (SEM) ---------------------------------------
        Rule("SEM001", Severity.ERROR, "unknown table"),
        Rule("SEM002", Severity.ERROR, "unknown column or alias"),
        Rule("SEM003", Severity.ERROR, "ambiguous column reference"),
        Rule("SEM004", Severity.ERROR, "duplicate source binding"),
        Rule("SEM005", Severity.ERROR, "statement shape mismatch"),
        Rule("SEM006", Severity.ERROR, "unknown function or wrong arity"),
        Rule("SEM007", Severity.ERROR, "type-incompatible comparison"),
        Rule("SEM008", Severity.ERROR, "type-incompatible assignment"),
        Rule("SEM009", Severity.ERROR, "aggregate misuse"),
        Rule("SEM010", Severity.WARNING, "non-boolean predicate"),
        Rule("SEM011", Severity.ERROR, "unsupported construct (outer join)"),
        # -- tenant-isolation verifier (ISO) -------------------------------
        Rule("ISO001", Severity.ERROR, "unguarded scan of shared table"),
        Rule("ISO002", Severity.ERROR, "unguarded DML on shared table"),
        Rule("ISO003", Severity.ERROR, "tenant literal in shape-shared statement"),
        Rule("ISO004", Severity.ERROR, "missing meta discriminator conjunct"),
        Rule("ISO005", Severity.ERROR, "tenant guard binds wrong tenant"),
        Rule("ISO006", Severity.ERROR, "tenant guard exceeds declared cross-tenant set"),
        # -- layout invariant checker (LAY) --------------------------------
        Rule("LAY001", Severity.ERROR, "fragments do not cover logical schema"),
        Rule("LAY002", Severity.WARNING, "column stored by multiple fragments"),
        Rule("LAY003", Severity.ERROR, "fragment type/cast inconsistent with catalog"),
        Rule("LAY004", Severity.ERROR, "orphaned meta rows in shared table"),
        Rule("LAY005", Severity.ERROR, "migration does not preserve column set"),
        Rule("LAY006", Severity.ERROR, "row-alignment gap between fragments"),
        Rule("LAY007", Severity.ERROR, "stored row width, page fill or free map drifted"),
        # -- dynamic durability/leak sanitizers (CON; 001 and 005 retired) --
        Rule("CON002", Severity.ERROR, "data-page mutation without covering WAL append"),
        Rule("CON003", Severity.ERROR, "dirty page written back beyond flushed WAL tail"),
        Rule("CON004", Severity.ERROR, "buffer-pool pin leaked past statement end"),
        Rule("CON006", Severity.ERROR, "transaction left open at close"),
        # -- protocol lint rules (LNT) -------------------------------------
        Rule("LNT001", Severity.ERROR, "page mutation outside WAL-logged storage helpers"),
        Rule("LNT002", Severity.ERROR, "handler would swallow SimulatedCrash"),
        Rule("LNT003", Severity.ERROR, "crashpoint never exercised by the fault census"),
        Rule("LNT004", Severity.ERROR, "metrics-registry lookup on a statement path"),
        Rule("LNT005", Severity.ERROR, "private engine name imported above the engine"),
    )
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one locus."""

    rule_id: str
    message: str
    locus: str = ""
    severity: Severity | None = None

    def __post_init__(self) -> None:
        if self.rule_id not in RULES:
            raise KeyError(f"unknown analysis rule {self.rule_id!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", RULES[self.rule_id].severity)

    def render(self) -> str:
        where = f" [{self.locus}]" if self.locus else ""
        return f"{self.severity}: {self.rule_id} {self.message}{where}"


@dataclass
class AnalysisReport:
    """An ordered collection of findings with severity roll-ups."""

    findings: list[Finding] = field(default_factory=list)
    #: Statements / invariant checks examined (for coverage reporting).
    checked: int = 0

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, other: AnalysisReport) -> None:
        self.findings.extend(other.findings)
        self.checked += other.checked

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    def count_into(self, metrics: Any) -> None:
        """Feed the ``analysis.*`` counters of a metrics registry."""
        metrics.counter("analysis.checked").inc(self.checked)
        metrics.counter("analysis.findings").inc(len(self.findings))
        metrics.counter("analysis.errors").inc(len(self.errors))
        metrics.counter("analysis.warnings").inc(len(self.warnings))
        for rule_id, count in self.by_rule().items():
            metrics.counter(f"analysis.rule.{rule_id}").inc(count)

    def render(self, *, limit: int | None = None) -> str:
        lines = [f.render() for f in self.findings]
        if limit is not None and len(lines) > limit:
            hidden = len(lines) - limit
            lines = lines[:limit] + [f"... {hidden} more finding(s)"]
        lines.append(
            f"{self.checked} check(s): {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)
