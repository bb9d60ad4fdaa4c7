"""Workers: simulated application-server database sessions.

"A Worker process engages in multiple client sessions, each of which
simulates the activities of a single connection from an application
server's database connection pool."  Sessions here are cooperative —
one statement executes at a time — but each keeps its own simulated
clock, and lock overlap between sessions is tracked in simulated time,
so contention effects appear without real threads (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.observability import CounterWindow
from .actions import ActionClass, ActionExecutor
from .simtime import CostModel


@dataclass
class HeldLock:
    session_id: int
    resource: object
    exclusive: bool
    until_ms: float


class LockOverlap:
    """Conflict accounting across sessions in simulated time."""

    def __init__(self) -> None:
        self._held: list[HeldLock] = []

    def conflicts(
        self, session_id: int, resources: list[tuple[object, bool]], now_ms: float
    ) -> int:
        self._held = [h for h in self._held if h.until_ms > now_ms]
        count = 0
        for resource, exclusive in resources:
            for held in self._held:
                if held.session_id == session_id:
                    continue
                if held.resource != resource:
                    continue
                if exclusive or held.exclusive:
                    count += 1
        return count

    def hold(
        self,
        session_id: int,
        resources: list[tuple[object, bool]],
        until_ms: float,
    ) -> None:
        for resource, exclusive in resources:
            self._held.append(HeldLock(session_id, resource, exclusive, until_ms))


def action_resources(
    action: ActionClass, tenant_id: int, table: str | None
) -> list[tuple[object, bool]]:
    """Lock footprint of one action: heavyweight selects take a shared
    table lock (their partial scans 'do a partial table scan with some
    locking'); inserts take an exclusive lock on the table's insert
    point ('the database locks the pages where the tuples are
    inserted'); updates take exclusive row-range locks."""
    if table is None:
        return []
    if action is ActionClass.SELECT_HEAVY:
        return [(("table", table), False)]
    if action in (ActionClass.INSERT_LIGHT, ActionClass.INSERT_HEAVY):
        return [(("insert-point", table), True)]
    if action in (ActionClass.UPDATE_LIGHT, ActionClass.UPDATE_HEAVY):
        return [(("rows", table, tenant_id), True)]
    return []


class Session:
    """One database connection with its own simulated clock."""

    def __init__(self, session_id: int) -> None:
        self.session_id = session_id
        self.clock_ms = 0.0

    def advance(self, response_ms: float) -> None:
        self.clock_ms += response_ms


class Worker:
    """Executes actions and times them with the cost model."""

    def __init__(
        self,
        mtd,
        executor: ActionExecutor,
        cost_model: CostModel,
        overlap: LockOverlap,
        *,
        transactional: bool = False,
    ) -> None:
        self.mtd = mtd
        self.executor = executor
        self.cost_model = cost_model
        self.overlap = overlap
        #: §4.2: "the maximum granularity for a transaction is ... the
        #: duration of a single user request" — when enabled, each
        #: action runs inside one engine transaction.
        self.transactional = transactional

    def execute(
        self, session: Session, action: ActionClass, tenant_id: int
    ) -> float:
        """Run one action for a session; returns simulated response ms."""
        db = self.mtd.db
        window = CounterWindow(pool=db.pool_stats, exec=db.exec_stats)
        ddl_before = db.catalog.ddl_statements

        if self.transactional:
            db.execute("BEGIN")
            try:
                table = self.executor.run(action, tenant_id)
                db.transactions.commit_if_active()  # DDL may have committed
            except Exception:
                if db.transactions.active:
                    db.execute("ROLLBACK")
                raise
        else:
            table = self.executor.run(action, tenant_id)

        # Execution is cooperative, so lock overlap is evaluated in
        # *simulated* time after the fact: this action conflicts with
        # any lock another session still holds at this session's clock.
        resources = action_resources(action, tenant_id, table)
        conflicts = self.overlap.conflicts(
            session.session_id, resources, session.clock_ms
        )

        deltas = window.deltas()
        ddl_delta = db.catalog.ddl_statements - ddl_before
        response_ms = self.cost_model.response_ms(
            deltas["pool"],
            deltas["exec"],
            lock_conflicts=conflicts,
            ddl_statements=ddl_delta,
        )
        if conflicts:
            # The cost model charged the wait; record it in the engine's
            # lock ledger so ``locks.waits`` / ``locks.wait_ms`` reflect
            # the contention the run simulated.
            db.locks.record_wait(
                conflicts, conflicts * self.cost_model.lock_conflict_ms
            )
        db.metrics.histogram(
            f"testbed.action.{action.value.lower().replace(' ', '_')}.ms"
        ).observe(response_ms)
        self.overlap.hold(
            session.session_id, resources, session.clock_ms + response_ms
        )
        return response_ms
