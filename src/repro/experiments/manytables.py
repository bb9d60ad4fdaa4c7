"""Experiment 1 — handling many tables (Section 5; Table 2, Figure 7).

Fixes the number of tenants, the data per tenant, and the workload, and
sweeps the *schema variability* (Table 1).  Reports, per configuration:
baseline compliance (vs. the variability-0.0 run's 95 % quantiles),
throughput, the 95 % response-time quantiles per action class, and the
buffer-pool hit ratios split data/index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..testbed.controller import Testbed, TestbedConfig
from ..testbed.crm import PAPER_VARIABILITIES, ActionClass
from ..testbed.generator import TenantDataProfile


@dataclass
class ManyTablesRow:
    """One Table 2 column."""

    variability: float
    total_tables: int
    baseline_compliance: float
    throughput_per_minute: float
    quantiles_ms: dict[ActionClass, float]
    data_hit_pct: float
    index_hit_pct: float
    #: Actions behind each class's quantile.
    action_counts: dict[ActionClass, int] = field(default_factory=dict)


@dataclass
class ManyTablesExperiment:
    """Scaled sweep (defaults documented in DESIGN.md §2: tenants and
    memory scaled together from the paper's 10,000 tenants / 1 GB)."""

    tenants: int = 100
    sessions: int = 40
    actions: int = 600
    memory_bytes: int = 10 * 1024 * 1024
    variabilities: tuple[float, ...] = PAPER_VARIABILITIES
    seed: int = 2008
    data_profile: TenantDataProfile = field(default_factory=TenantDataProfile)

    def run(self) -> list[ManyTablesRow]:
        rows: list[ManyTablesRow] = []
        baseline: dict[ActionClass, float] | None = None
        for variability in self.variabilities:
            testbed = Testbed(
                TestbedConfig(
                    variability=variability,
                    tenants=self.tenants,
                    sessions=self.sessions,
                    actions=self.actions,
                    memory_bytes=self.memory_bytes,
                    seed=self.seed,
                    data_profile=self.data_profile,
                )
            )
            testbed.setup()
            results = testbed.run()
            quantiles = results.quantiles(0.95)
            if baseline is None:
                # "The 95% quantiles were computed for each query class
                # of the schema variability 0.0 configuration: this is
                # the baseline."  Its own compliance is 95% by
                # definition.
                baseline = quantiles
                compliance = 95.0
            else:
                compliance = results.baseline_compliance(baseline)
            metrics = testbed.metrics(results, baseline)
            rows.append(
                ManyTablesRow(
                    variability=variability,
                    total_tables=testbed.variability.total_tables,
                    baseline_compliance=compliance,
                    throughput_per_minute=metrics.throughput_per_minute,
                    quantiles_ms=quantiles,
                    data_hit_pct=100 * metrics.data_hit_ratio,
                    index_hit_pct=100 * metrics.index_hit_ratio,
                    action_counts={a: len(t) for a, t in results.by_class().items()},
                )
            )
        return rows

    # -- the paper's three Figure 7 series -------------------------------------

    @staticmethod
    def figure7a(rows: list[ManyTablesRow]) -> list[tuple[float, float]]:
        """(variability, baseline compliance %)"""
        return [(r.variability, r.baseline_compliance) for r in rows]

    @staticmethod
    def figure7b(rows: list[ManyTablesRow]) -> list[tuple[float, float]]:
        """(variability, transactions/minute)"""
        return [(r.variability, r.throughput_per_minute) for r in rows]

    @staticmethod
    def figure7c(
        rows: list[ManyTablesRow],
    ) -> list[tuple[float, float, float]]:
        """(variability, data hit %, index hit %)"""
        return [(r.variability, r.data_hit_pct, r.index_hit_pct) for r in rows]
