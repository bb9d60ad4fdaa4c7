"""Prepared statements and the engine-level plan cache.

Parsing and planning are pure functions of (SQL text, catalog version,
optimizer profile), so their results can be reused: a
:class:`PreparedStatement` pins the parsed AST and lazily caches the
compiled plan, revalidating it against :attr:`Catalog.version
<repro.engine.catalog.Catalog.version>` and the active optimizer
profile before every run.  :class:`Database
<repro.engine.database.Database>` keeps an :class:`LruCache` of
prepared statements keyed by SQL text so repeated ``execute()`` calls
skip parse *and* plan entirely.

Counters (``db.plan_cache.hits`` / ``misses`` / ``evictions`` /
``invalidations``, and ``adhoc`` for plans and DML programs built with
no handle to keep them) feed the engine's :class:`MetricsRegistry
<repro.engine.observability.MetricsRegistry>`.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .errors import PlanError
from .observability.metrics import MetricsRegistry
from .sql import ast

#: Statement types that can be prepared (everything else — DDL,
#: transaction control — is re-dispatched per call).
PREPARABLE = (ast.Select, ast.Insert, ast.Update, ast.Delete)


def count_params(node: object) -> int:
    """Number of ``?`` parameter slots a statement consumes (one past
    the highest :class:`ast.Param` index found anywhere in the tree)."""
    highest = -1

    def walk(obj: object) -> None:
        nonlocal highest
        if isinstance(obj, ast.Param):
            if obj.index > highest:
                highest = obj.index
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for field in dataclasses.fields(obj):
                walk(getattr(obj, field.name))

    walk(node)
    return highest + 1


class LruCache:
    """A bounded mapping with least-recently-used eviction.

    ``capacity == 0`` disables the cache (every ``get`` misses, ``put``
    is a no-op).  Hit/miss accounting stays with the caller — what a
    lookup *means* differs per layer — but evictions are counted here,
    under ``<prefix>.evictions``.
    """

    def __init__(self, capacity: int, metrics=None, prefix: str = "") -> None:
        self.capacity = capacity
        self._c_evictions = (metrics or MetricsRegistry()).counter(
            f"{prefix}.evictions"
        )
        self._entries: dict = {}

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: object) -> object | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        # Python dicts preserve insertion order; re-inserting moves the
        # key to the most-recently-used end.
        del self._entries[key]
        self._entries[key] = entry
        return entry

    def put(self, key: object, value: object) -> None:
        if not self.enabled:
            return
        self._entries.pop(key, None)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self._c_evictions.inc()

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        count = len(self._entries)
        self._entries.clear()
        return count


class PreparedStatement:
    """A statement parsed once, planned lazily, executable many times.

    For SELECTs the physical plan is cached on the handle and reused as
    long as ``(catalog.version, optimizer profile, feedback version)``
    are unchanged; a mismatch triggers a re-plan (counted as
    ``db.plan_cache.invalidations``).  INSERT, UPDATE and DELETE keep
    their compiled program the same way, until ``catalog.version``
    moves: value / SET / conjunct closures, and for UPDATE/DELETE the
    constant-equality candidates with the index chosen per usable set —
    the candidates are evaluated against the parameters of each run, so
    a parameter value still decides which index serves it.
    """

    __slots__ = (
        "database",
        "stmt",
        "_sql",
        "plan",
        "program",
        "catalog_version",
        "profile",
        "feedback_version",
    )

    def __init__(self, database, stmt: ast.Statement, sql: str | None = None):
        if not isinstance(stmt, PREPARABLE):
            raise PlanError(
                "only SELECT/INSERT/UPDATE/DELETE statements can be "
                f"prepared, not {type(stmt).__name__}"
            )
        self.database = database
        self.stmt = stmt
        self._sql = sql
        self.plan = None
        self.program = None
        self.catalog_version: int | None = None
        self.profile = None
        #: Cardinality-feedback revision the cached plan was planned
        #: under; new observations that could change a plan choice bump
        #: the store's version and lazily re-plan here.
        self.feedback_version: int | None = None

    @property
    def sql(self) -> str:
        if self._sql is None:
            self._sql = self.stmt.sql()
        return self._sql

    def execute(self, params: Sequence[object] = ()):
        """Run the statement; returns a :class:`Result
        <repro.engine.database.Result>`."""
        return self.database._execute_prepared(self, params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "planned" if self.plan is not None else "unplanned"
        return f"<PreparedStatement {state} {self.sql!r}>"
