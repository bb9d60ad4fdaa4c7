"""Dynamic concurrency & durability sanitizers (the ``CON`` rules).

The static passes prove properties of *emitted statements*; the
sanitizers instrument the *running engine* — the FoundationDB idea of
running the real system under checking rather than a model of it.  A
:class:`Sanitizer` is attached by ``Database(sanitize=True)`` (or the
``REPRO_SANITIZE=1`` environment variable) and receives callbacks from
the lock table, the buffer pool, the heap/column stores, the
transaction manager, and the durability manager:

* **Lockset race detection (CON001)** — the Eraser algorithm: every
  shared resource (a heap/columnstore row here) keeps a candidate set
  of locks, refined on each access to the intersection with the locks
  the accessing session holds.  A resource written by two sessions
  whose candidate set becomes empty has no lock consistently protecting
  it — a data race once execution stops being cooperative.  Sessions
  are identified by the lock table's session ids; engine-internal work
  runs as session 0, so single-session usage never reports.
* **Write-ahead protocol (CON002/CON003)** — every statement that
  dirties a DATA page must append at least one logical redo record
  before its commit terminal, and no dirty page may reach the page
  store with an LSN beyond the flushed WAL tail.  The ``skip-wal-append``
  seeded mutation (a transaction manager that "forgets" its redo
  records) exists to prove CON002 fires.
* **Resource leaks (CON004/CON005/CON006)** — buffer-pool pins still
  held at a statement boundary, lock-table sessions never released by
  ``release_session``, and a transaction still open when the database
  closes.

Findings accumulate in an :class:`AnalysisReport` and feed the
``analysis.rule.CON*`` metrics as they are found; nothing raises — the
report is checked by ``python -m repro.analysis --sanitize`` and by
tests, so instrumented suites run unchanged.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Hashable, Iterator

from .findings import AnalysisReport, Finding

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.database import Database

#: Environment switch honoured by ``Database()`` when ``sanitize`` is
#: not passed explicitly.
SANITIZE_ENV = "REPRO_SANITIZE"


def env_sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests instrumentation."""
    return os.environ.get(SANITIZE_ENV, "") not in ("", "0")


# -- Eraser lockset state ---------------------------------------------------

_VIRGIN = 0  #: never accessed
_EXCLUSIVE = 1  #: accessed by exactly one session so far
_SHARED = 2  #: read by several sessions, never written since shared
_SHARED_MODIFIED = 3  #: written while shared: lockset violations report


class _ResourceState:
    """Per-resource Eraser state: owner, phase, candidate lockset."""

    __slots__ = ("state", "owner", "lockset", "reported")

    def __init__(self, owner: int) -> None:
        self.state = _EXCLUSIVE
        self.owner = owner
        self.lockset: frozenset[Hashable] | None = None
        self.reported = False


class Sanitizer:
    """Dynamic checker state for one :class:`Database`.

    All callbacks are cheap no-state-change paths when nothing
    interesting happened; the engine guards every call site with an
    ``is not None`` check so un-instrumented databases pay one attribute
    load at most.
    """

    def __init__(self, metrics: Any = None) -> None:
        self.report = AnalysisReport()
        self._metrics = metrics
        self._db: "Database" | None = None
        #: The session whose work the engine is currently executing.
        #: Cooperative scheduling means "the last session to acquire a
        #: lock" — the testbed and the stress suites acquire before they
        #: execute.  Session 0 is the engine-internal default.
        self.current_session = 0
        #: session id -> resources currently held (from the lock table).
        self._locks_held: dict[int, set[Hashable]] = {}
        #: Eraser state per shared resource.
        self._resources: dict[Hashable, _ResourceState] = {}
        #: DATA-page mutations / logical row records this statement (a
        #: write ``Table`` undoes on refusal rewinds ``data_dirties``).
        self.data_dirties = 0
        self._wal_row_records = 0
        #: Pages already reported for pin leaks (report once per page).
        self._pin_reported: set[int] = set()

    # -- wiring ------------------------------------------------------------

    def attach(self, db: "Database") -> None:
        """Hook every subsystem of ``db`` up to this sanitizer."""
        self._db = db
        db.locks.sanitizer = self
        db.pool.sanitizer = self
        db.transactions.sanitizer = self
        if db.durability is not None:
            db.durability.sanitizer = self

    @property
    def findings(self) -> int:
        return len(self.report.findings)

    def _report(self, rule_id: str, message: str, locus: str = "") -> None:
        self.report.add(Finding(rule_id, message, locus))
        if self._metrics is not None:
            self._metrics.counter("analysis.sanitizer.findings").inc()
            self._metrics.counter(f"analysis.rule.{rule_id}").inc()

    # -- session / lock tracking ------------------------------------------

    @contextmanager
    def session(self, session_id: int) -> Iterator[None]:
        previous = self.current_session
        self.current_session = session_id
        try:
            yield
        finally:
            self.current_session = previous

    def on_lock_acquire(
        self, session_id: int, resource: Hashable, exclusive: bool
    ) -> None:
        self.current_session = session_id
        self._locks_held.setdefault(session_id, set()).add(resource)

    def on_lock_release(self, session_id: int) -> None:
        self._locks_held.pop(session_id, None)
        if self.current_session == session_id:
            self.current_session = 0

    # -- lockset race detection (CON001) ----------------------------------

    def on_row_access(self, resource: Hashable, *, write: bool) -> None:
        """One session touched one shared row (Eraser state machine)."""
        session = self.current_session
        state = self._resources.get(resource)
        if state is None:
            self._resources[resource] = _ResourceState(session)
            return
        if state.state == _EXCLUSIVE:
            if state.owner == session:
                return
            # Second session: the candidate lockset starts as whatever
            # the new accessor holds (first-access locks are unknowable
            # after the fact; Eraser refines from here).
            state.lockset = frozenset(self._locks_held.get(session, ()))
            state.state = _SHARED_MODIFIED if write else _SHARED
        else:
            held = self._locks_held.get(session, ())
            assert state.lockset is not None
            state.lockset = state.lockset & frozenset(held)
            if write:
                state.state = _SHARED_MODIFIED
        if (
            state.state == _SHARED_MODIFIED
            and not state.lockset
            and not state.reported
        ):
            state.reported = True
            self._report(
                "CON001",
                f"resource {resource!r} written by concurrent sessions "
                "with no common lock",
                f"session={session}",
            )

    # -- write-ahead protocol (CON002/CON003) ------------------------------

    def _replaying(self) -> bool:
        db = self._db
        return (
            db is not None
            and db.durability is not None
            and db.durability.replaying
        )

    def on_page_dirty(self, page: Any) -> None:
        """A resident page was mutated (``BufferPool.mark_dirty``)."""
        if page.kind.value != "data" or self._replaying():
            return
        self.data_dirties += 1

    def on_wal_row_record(self) -> None:
        """A logical redo record (ins/del/upd) reached the WAL."""
        self._wal_row_records += 1

    def on_page_writeback(self, page: Any) -> None:
        """A dirty page is about to reach the page store; the WAL rule
        must already have flushed the log through its LSN."""
        db = self._db
        if db is None or db.durability is None:
            return
        flushed = db.durability.wal.flushed_lsn
        if page.lsn > flushed:
            self._report(
                "CON003",
                f"page {page.page_id} written back at lsn={page.lsn} "
                f"with WAL flushed only to {flushed}",
                f"segment={page.segment_id}",
            )

    # -- statement boundaries / leaks --------------------------------------

    def on_statement_end(self) -> None:
        """Statement (or transaction-terminal) boundary checks."""
        self.report.checked += 1
        db = self._db
        if (
            db is not None
            and db.durability is not None
            and not db.durability.replaying
            and self.data_dirties > 0
            and self._wal_row_records == 0
        ):
            self._report(
                "CON002",
                f"{self.data_dirties} data-page mutation(s) reached the "
                "statement boundary without a covering WAL append",
                f"session={self.current_session}",
            )
        self.data_dirties = 0
        self._wal_row_records = 0
        if db is not None:
            self._check_pins(db)

    def _check_pins(self, db: "Database") -> None:
        for page_id, frame in db.pool._frames.items():
            if frame.pins > 0 and page_id not in self._pin_reported:
                self._pin_reported.add(page_id)
                self._report(
                    "CON004",
                    f"page {page_id} still pinned ({frame.pins}) at "
                    "statement end",
                )

    def on_close(self, db: "Database") -> None:
        """End-of-life checks, run by ``Database.close``."""
        self.report.checked += 1
        for resource, holders in db.locks._holders.items():
            for session_id in holders:
                self._report(
                    "CON005",
                    f"session {session_id} never released {resource!r} "
                    "(missing release_session)",
                )
        if db.transactions.active:
            self._report("CON006", "transaction still open at close")
        self._check_pins(db)


# -- the CLI scenario -------------------------------------------------------
#
# ``python -m repro.analysis --sanitize`` needs a workload that drives
# every instrumented path with a *correct* locking and logging
# discipline: multi-session locked read-modify-writes, index and scan
# reads, a checkpoint mid-run (write-ahead rule under writeback), a
# rollback, and a clean close.  On an unmutated engine the report must
# come back empty; the ``skip-wal-append`` seeded mutation must make
# CON002 fire.

#: Seeded defect: the transaction manager drops its logical redo
#: records (see ``DurabilityManager.log``).
MUTATE_SKIP_APPEND = "skip-wal-append"

_SESSIONS = 3
_ROUNDS = 8
_ROWS = 4
_TIMING_SAMPLES = 3


def run_sanitized_scenario(
    mutate: str | None = None,
) -> tuple[AnalysisReport, float]:
    """Run the scripted sanitizer workload; returns ``(report,
    overhead)`` where overhead is instrumented wall-clock over a
    matching un-instrumented run (the "< 3x" budget the CI gate
    documents).  Each side is the best of ``_TIMING_SAMPLES`` runs: one
    run is ~0.1 s of mostly fsync, and a single stalled fsync on either
    side would otherwise decide the ratio."""
    baseline = min(
        _run_scenario(sanitize=False, mutate=None)[1]
        for _ in range(_TIMING_SAMPLES)
    )
    runs = [
        _run_scenario(sanitize=True, mutate=mutate)
        for _ in range(_TIMING_SAMPLES)
    ]
    report = runs[0][0]
    sanitized = min(elapsed for _, elapsed in runs)
    overhead = sanitized / baseline if baseline > 0 else 1.0
    return report, overhead


def _run_scenario(
    *, sanitize: bool, mutate: str | None
) -> tuple[AnalysisReport, float]:
    import shutil
    import tempfile

    from ..engine.database import Database
    from ..engine.durability import DurabilityOptions

    path = tempfile.mkdtemp(prefix="repro-sanitize-")
    started = time.perf_counter()
    try:
        db = Database(
            path=path,
            sanitize=sanitize,
            durability=DurabilityOptions(mutate=mutate),
        )
        db.execute(
            "CREATE TABLE counters (id INTEGER NOT NULL, value INTEGER NOT NULL)"
        )
        db.execute("CREATE UNIQUE INDEX counters_pk ON counters (id)")
        for row_id in range(_ROWS):
            db.execute("INSERT INTO counters VALUES (?, ?)", [row_id, 0])
        for round_no in range(_ROUNDS):
            for session in range(1, _SESSIONS + 1):
                row_id = (round_no + session) % _ROWS
                db.execute("BEGIN")
                db.locks.acquire(
                    session, ("rows", "counters", row_id), exclusive=True
                )
                current = db.execute(
                    "SELECT value FROM counters WHERE id = ?", [row_id]
                ).scalar()
                db.execute(
                    "UPDATE counters SET value = ? WHERE id = ?",
                    [int(current) + 1, row_id],
                )
                # Every third transaction aborts: the rollback path
                # must log its compensation records too.
                if (round_no + session) % 3 == 0:
                    db.execute("ROLLBACK")
                else:
                    db.execute("COMMIT")
                db.locks.release_session(session)
            if round_no == _ROUNDS // 2:
                # Mid-run checkpoint: dirty frames write back under the
                # WAL rule while the sanitizer watches (CON003 path).
                db.checkpoint()
        # A shared scan.  The reader takes the *same row locks* the
        # writers used (shared mode): Eraser has no lock-granularity
        # model, so a table-level lock would read as a disjoint lockset.
        db.locks.acquire(1, ("table", "counters"), exclusive=False)
        for row_id in range(_ROWS):
            db.locks.acquire(1, ("rows", "counters", row_id), exclusive=False)
        db.execute("SELECT id, value FROM counters WHERE id >= 0")
        db.locks.release_session(1)
        db.close()
        report = (
            db.sanitizer.report if db.sanitizer is not None else AnalysisReport()
        )
        return report, time.perf_counter() - started
    finally:
        shutil.rmtree(path, ignore_errors=True)
