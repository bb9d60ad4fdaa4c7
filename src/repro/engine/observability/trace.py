"""Per-query traces: one statement's engine work, attributed.

A :class:`QueryTrace` is the unit the experiments consume: it snapshots
the buffer-pool, executor, and lock counters around one statement and
keeps the deltas, the wall time, the result, and — for SELECTs — the
EXPLAIN ANALYZE operator tree.  ``Database.trace(sql)`` produces one;
the Figure 10 / 11 benchmarks and Experiment 2 harness read page-read
counts from traces instead of hand-rolled global snapshot/delta pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .analyze import OperatorStats

if TYPE_CHECKING:  # pragma: no cover - the components import this package
    from ..durability.wal import WalStats
    from ..vexecutor import ExecStats
    from ..locks import LockStats
    from ..pager import PoolStats


@dataclass
class QueryTrace:
    """Everything the engine did on behalf of one statement."""

    sql: str
    params: tuple
    columns: list[str]
    rows: list[tuple]
    rowcount: int
    elapsed_ms: float
    pool: PoolStats
    exec: ExecStats
    locks: LockStats
    #: WAL activity (records appended, bytes flushed, fsyncs) caused by
    #: this statement; all-zero in memory mode.
    wal: WalStats
    operators: list[OperatorStats] = field(default_factory=list)
    plan: str | None = None
    #: Whether the statement was served from the plan cache (SELECTs:
    #: cached plan reused without re-planning; DML: parse skipped).
    cache_hit: bool = False

    # -- the counters the paper's figures are built from ------------------

    @property
    def logical_reads(self) -> int:
        """Figure 10's y-axis for this query."""
        return self.pool.logical_total

    @property
    def physical_reads(self) -> int:
        return self.pool.physical_total

    @property
    def data_reads(self) -> int:
        return self.pool.logical_data

    @property
    def index_reads(self) -> int:
        return self.pool.logical_index

    @property
    def index_read_share(self) -> float:
        """Fraction of logical reads issued by index accesses (the paper
        reports 74-80 % for the chunked representations)."""
        total = self.pool.logical_total
        return self.pool.logical_index / total if total else 0.0

    def scalar(self) -> object:
        return self.rows[0][0] if self.rows and self.rows[0] else None

    def render(self) -> str:
        """Human-readable trace: header, counters, then the analyzed
        plan when one was captured."""
        lines = [
            f"-- trace: {self.sql}",
            f"rows={self.rowcount} elapsed={self.elapsed_ms:.3f}ms",
            (
                f"pool: logical={self.pool.logical_total} "
                f"(data={self.pool.logical_data} index={self.pool.logical_index}) "
                f"physical={self.pool.physical_total} "
                f"writes={self.pool.writes} evictions={self.pool.evictions}"
            ),
            (
                f"exec: scanned={self.exec.rows_scanned} "
                f"fetched={self.exec.rows_fetched} "
                f"joined={self.exec.rows_joined} "
                f"lookups={self.exec.index_lookups} "
                f"sorts={self.exec.sorts} "
                f"batches={self.exec.batches}"
            ),
            (
                f"locks: acquisitions={self.locks.acquisitions} "
                f"conflicts={self.locks.conflicts} "
                f"waits={self.locks.waits} wait_ms={self.locks.wait_ms:.3f}"
            ),
        ]
        if self.wal.records or self.wal.bytes_written:
            lines.append(
                f"wal: records={self.wal.records} "
                f"bytes={self.wal.bytes_written} "
                f"flushes={self.wal.flushes} fsyncs={self.wal.fsyncs}"
            )
        if self.plan:
            lines.append(self.plan)
        return "\n".join(lines)
