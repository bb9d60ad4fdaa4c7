"""Deterministic simulated-time cost model.

The paper measures wall-clock response times on a specific testbed
(2.8 GHz Xeon, 1 GB RAM, NFS storage over 2 GBit/s trunks).  We cannot
reproduce that hardware, so the testbed charges simulated milliseconds
for the *work counters* the engine reports — the quantities that
actually drive the paper's curves:

* buffer-pool misses dominate (NFS random page read ≈ a few ms),
* logical reads, row touches, and sorts model CPU,
* lock conflicts model the contention the paper observed for
  heavyweight selects and concurrent inserts (Section 5),
* DDL pays a fixed online-DDL penalty.

Constants are calibrated so the variability-0.0 configuration lands in
the magnitude range of Table 2; only *relative* behaviour across
configurations is claimed (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.vexecutor import ExecStats
from ..engine.pager import PoolStats


@dataclass(frozen=True)
class CostModel:
    """Milliseconds charged per unit of engine work."""

    base_ms: float = 0.4  # per-request overhead (network, parse)
    logical_read_ms: float = 0.02
    physical_read_ms: float = 4.0  # NFS random page read
    write_ms: float = 0.08
    row_ms: float = 0.004
    sort_ms: float = 1.5
    materialized_row_ms: float = 0.01
    lock_conflict_ms: float = 12.0
    ddl_ms: float = 40.0
    statement_ms: float = 0.15

    def response_ms(
        self,
        pool_delta: PoolStats,
        exec_delta: ExecStats,
        *,
        lock_conflicts: int = 0,
        ddl_statements: int = 0,
    ) -> float:
        """Simulated response time for one action's work."""
        row_work = (
            exec_delta.rows_scanned
            + exec_delta.rows_fetched
            + exec_delta.rows_joined
            + exec_delta.rows_output
        )
        return (
            self.base_ms
            + self.logical_read_ms * pool_delta.logical_total
            + self.physical_read_ms * pool_delta.physical_total
            + self.write_ms * pool_delta.writes
            + self.row_ms * row_work
            + self.sort_ms * exec_delta.sorts
            + self.materialized_row_ms * exec_delta.materialized_rows
            + self.lock_conflict_ms * lock_conflicts
            + self.ddl_ms * ddl_statements
            + self.statement_ms * exec_delta.statements
        )
