"""Lightweight lock accounting for contention modelling.

The paper attributes two effects in Experiment 1 to locking (Section 5):
heavyweight selects doing partial scans "with some locking" interfere
with each other, and concurrent inserts wait on page locks.  The testbed
runs sessions cooperatively (one at a time), so instead of real blocking
we *account* conflicts: a session acquiring a resource already held by
another session records a conflict, and the testbed's cost model charges
a wait penalty per conflict.

Resources are arbitrary hashable keys — the testbed uses
``("page", page_id)`` for insert targets and ``("table", name)`` for
scan locks.

With a sanitizer attached (``Database(sanitize=True)``), every
acquisition and release is additionally reported to the lockset race
detector, which treats "the last session to acquire" as the session the
engine is currently executing for (execution is cooperative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .observability.metrics import CounterSet, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.sanitizers import Sanitizer


@dataclass
class LockStats(CounterSet, prefix="locks"):
    """Monotonic lock counters.  ``waits`` counts conflict events that
    were charged a wait; ``wait_ms`` accumulates the simulated wait
    durations (Experiment 1's contention penalties).  ``upgrades``
    counts shared→exclusive conversions by a session already holding
    the resource — those are mode changes, not fresh holds, and
    deadlock-prone in real lock managers, so they are ledgered apart."""

    acquisitions: int = 0
    conflicts: int = 0
    waits: int = 0
    wait_ms: float = 0.0
    upgrades: int = 0


class LockTable:
    """Conflict-accounting lock table (non-blocking)."""

    def __init__(self, *, metrics=None) -> None:
        self._holders: dict[object, dict[int, bool]] = {}
        metrics = metrics or MetricsRegistry()
        self.stats: LockStats = metrics.counter_set(LockStats)
        self._h_wait = metrics.histogram("locks.wait_duration_ms")
        #: Optional dynamic sanitizer (lockset race detection).
        self.sanitizer: "Sanitizer" | None = None

    def acquire(self, session_id: int, resource: object, *, exclusive: bool) -> int:
        """Record an acquisition; returns the number of conflicting holders.

        Re-entrant acquires are idempotent holds: a session already
        holding the resource keeps one entry, with the mode sticky at
        the strongest requested so far (a shared→exclusive *upgrade* is
        counted separately under ``stats.upgrades``; a downgrade
        request leaves the exclusive hold in place)."""
        holders = self._holders.setdefault(resource, {})
        conflicts = 0
        for other, other_exclusive in holders.items():
            if other == session_id:
                continue
            if exclusive or other_exclusive:
                conflicts += 1
        previous = holders.get(session_id)
        holders[session_id] = exclusive or bool(previous)
        self.stats.acquisitions += 1
        if previous is False and exclusive:
            self.stats.upgrades += 1
        self.stats.conflicts += conflicts
        if self.sanitizer is not None:
            self.sanitizer.on_lock_acquire(session_id, resource, exclusive)
        return conflicts

    def record_wait(self, waits: int, wait_ms: float) -> None:
        """Charge ``waits`` conflict events totalling ``wait_ms`` of
        simulated wait time (the testbed's cost model computes the
        durations; the engine owns the ledger)."""
        if waits < 0 or wait_ms < 0:
            raise ValueError("lock waits cannot be negative")
        if waits == 0:
            return
        self.stats.waits += waits
        self.stats.wait_ms += wait_ms
        self._h_wait.observe(wait_ms / waits)

    def release(self, session_id: int, resource: object) -> bool:
        """Release one resource held by one session; returns whether the
        session actually held it.  Emptied resource entries are removed
        so ``_holders`` never retains dead keys."""
        holders = self._holders.get(resource)
        if holders is None:
            return False
        held = holders.pop(session_id, None)
        if not holders:
            del self._holders[resource]
        return held is not None

    def release_session(self, session_id: int) -> None:
        """Release everything a session holds (end of its action).
        Emptied resource entries are dropped — a long-lived lock table
        must not accumulate dead resource keys."""
        for resource in list(self._holders):
            holders = self._holders[resource]
            holders.pop(session_id, None)
            if not holders:
                del self._holders[resource]
        if self.sanitizer is not None:
            self.sanitizer.on_lock_release(session_id)

    def held_by(self, session_id: int) -> int:
        """Number of distinct resources the session holds.  Re-entrant
        acquires of one resource count once (one hold per resource)."""
        return sum(1 for h in self._holders.values() if session_id in h)

    def resources_held(self, session_id: int) -> list[object]:
        """The resources a session currently holds (lockset order is
        insertion order of first acquisition)."""
        return [
            resource
            for resource, holders in self._holders.items()
            if session_id in holders
        ]
