"""The Result Database: response-time collection and the paper's
metrics (95 % quantiles per class, baseline compliance, throughput,
buffer-pool hit ratios)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .crm import ActionClass


@dataclass(frozen=True)
class ActionResult:
    """One timed action."""

    action: ActionClass
    tenant_id: int
    session_id: int
    start_ms: float
    response_ms: float

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.response_ms


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (the 95 % response-time quantiles of
    Table 2); 0.0 for empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class ResultSet:
    """Collects :class:`ActionResult` rows for one run."""

    def __init__(self) -> None:
        self.results: list[ActionResult] = []

    def record(self, result: ActionResult) -> None:
        self.results.append(result)

    def __len__(self) -> int:
        return len(self.results)

    def strip_ramp_up(self, fraction: float = 0.1) -> "ResultSet":
        """Drop the warm-up prefix ('the ramp-up phase during which the
        system reached steady state was stripped off')."""
        cut = int(len(self.results) * fraction)
        trimmed = ResultSet()
        trimmed.results = self.results[cut:]
        return trimmed

    def by_class(self) -> dict[ActionClass, list[float]]:
        out: dict[ActionClass, list[float]] = {}
        for result in self.results:
            out.setdefault(result.action, []).append(result.response_ms)
        return out

    def quantiles(self, q: float = 0.95) -> dict[ActionClass, float]:
        return {
            action: quantile(times, q) for action, times in self.by_class().items()
        }

    def baseline_compliance(
        self, baseline: dict[ActionClass, float]
    ) -> float:
        """Percentage of actions whose response time is within the
        baseline quantile for their class (Table 2, first row)."""
        if not self.results:
            return 100.0
        within = sum(
            1
            for r in self.results
            if r.response_ms <= baseline.get(r.action, float("inf"))
        )
        return 100.0 * within / len(self.results)

    def throughput_per_minute(self, sessions: int) -> float:
        """Actions per simulated minute.

        Sessions run concurrently; the run's wall-clock is the busiest
        session's clock.
        """
        if not self.results:
            return 0.0
        end = max(r.end_ms for r in self.results)
        start = min(r.start_ms for r in self.results)
        elapsed_ms = max(1e-9, end - start)
        return len(self.results) / (elapsed_ms / 60_000.0)


@dataclass
class RunMetrics:
    """Everything one Table 2 column reports."""

    variability: float
    total_tables: int
    baseline_compliance: float
    throughput_per_minute: float
    quantiles_ms: dict[ActionClass, float]
    data_hit_ratio: float
    index_hit_ratio: float

    def row(self) -> dict[str, object]:
        out: dict[str, object] = {
            "variability": self.variability,
            "tables": self.total_tables,
            "compliance_pct": round(self.baseline_compliance, 1),
            "throughput_per_min": round(self.throughput_per_minute, 1),
            "data_hit_pct": round(100 * self.data_hit_ratio, 2),
            "index_hit_pct": round(100 * self.index_hit_ratio, 2),
        }
        for action, value in self.quantiles_ms.items():
            out[f"q95_{action.name.lower()}_ms"] = round(value, 1)
        return out
