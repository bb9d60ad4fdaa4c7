"""Dynamic durability & leak sanitizers (the ``CON`` rules).

The static passes prove properties of *emitted statements*; the
sanitizers instrument the *running engine* — the FoundationDB idea of
running the real system under checking rather than a model of it.  A
:class:`Sanitizer` is attached by ``Database(sanitize=True)`` (or the
``REPRO_SANITIZE=1`` environment variable), through the
``Database.sanitizer_hook`` this module installs — importing
:mod:`repro` imports it, and the engine imports nothing from here — and
receives callbacks from
the buffer pool, the transaction manager, and the durability manager
(``Table`` reads it through its heap to rewind a refused write):

* **Write-ahead protocol (CON002/CON003)** — every statement that
  dirties a DATA page must append at least one logical redo record
  before its commit terminal, and no dirty page may reach the page
  store before the record of its latest change is flushed (a page is
  stamped with the log's end before that record is appended, so its
  LSN must lie below the flushed WAL tail).  The ``skip-wal-append``
  seeded mutation (a transaction manager that "forgets" its redo
  records) exists to prove CON002 fires.
* **Resource leaks (CON004/CON006)** — buffer-pool pins still held at
  a statement boundary, and a transaction still open when the database
  closes.

CON001 (a lockset race checker) and CON005 (a lock-table leak) are
retired with the lock table they read; their ids are not reused.

Findings accumulate in an :class:`AnalysisReport` and feed the
``analysis.rule.CON*`` metrics as they are found; nothing raises — the
report is checked by ``python -m repro.analysis --sanitize`` and by
tests, so instrumented suites run unchanged.
"""

from __future__ import annotations

import os
import time
from typing import Any

from ..engine.database import Database
from .findings import AnalysisReport, Finding

#: Environment switch honoured by ``Database()`` when ``sanitize`` is
#: not passed explicitly.
SANITIZE_ENV = "REPRO_SANITIZE"


def env_sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests instrumentation."""
    return os.environ.get(SANITIZE_ENV, "") not in ("", "0")


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
        #: DATA-page mutations / logical row records this statement (a
        #: write ``Table`` undoes on refusal rewinds ``data_dirties``).
        self.data_dirties = 0
        self._wal_row_records = 0
        #: Pages already reported for pin leaks (report once per page).
        self._pin_reported: set[int] = set()

    # -- wiring ------------------------------------------------------------

    def attach(self, db: "Database") -> None:
        """Hook ``db`` and every subsystem of it up to this sanitizer."""
        self._db = db
        db.sanitizer = self
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
        must already have flushed the log past its LSN, where the record
        of the page's latest change starts, unless nothing is buffered."""
        db = self._db
        if db is None or db.durability is None:
            return
        wal = db.durability.wal
        flushed = wal.flushed_lsn
        if page.lsn >= flushed and wal.end_lsn > flushed:
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
        if db.transactions.active:
            self._report("CON006", "transaction still open at close")
        self._check_pins(db)


def _attach_if_asked(db: Database, sanitize: bool | None) -> None:
    if sanitize is None:
        sanitize = env_sanitize_enabled()
    if sanitize:
        Sanitizer(metrics=db.metrics).attach(db)


Database.sanitizer_hook = _attach_if_asked


# -- the CLI scenario -------------------------------------------------------
#
# ``python -m repro.analysis --sanitize`` needs a workload that drives
# every instrumented path with a *correct* logging discipline:
# read-modify-write transactions, index and scan reads, a checkpoint
# mid-run (write-ahead rule under writeback), a rollback, and a clean
# close.  On an unmutated engine the report must come back empty; the
# ``skip-wal-append`` seeded mutation must make CON002 fire.

#: Seeded defect: the transaction manager drops its logical redo
#: records (see ``DurabilityManager.log``).
MUTATE_SKIP_APPEND = "skip-wal-append"

_WRITERS = 3
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
            for writer in range(1, _WRITERS + 1):
                row_id = (round_no + writer) % _ROWS
                db.execute("BEGIN")
                current = db.execute(
                    "SELECT value FROM counters WHERE id = ?", [row_id]
                ).scalar()
                db.execute(
                    "UPDATE counters SET value = ? WHERE id = ?",
                    [int(current) + 1, row_id],
                )
                # Every third transaction aborts: the rollback path
                # must log its compensation records too.
                if (round_no + writer) % 3 == 0:
                    db.execute("ROLLBACK")
                else:
                    db.execute("COMMIT")
            if round_no == _ROUNDS // 2:
                # Mid-run checkpoint: dirty frames write back under the
                # WAL rule while the sanitizer watches (CON003 path).
                db.checkpoint()
        db.execute("SELECT id, value FROM counters WHERE id >= 0")
        db.close()
        report = (
            db.sanitizer.report if db.sanitizer is not None else AnalysisReport()
        )
        return report, time.perf_counter() - started
    finally:
        shutil.rmtree(path, ignore_errors=True)
