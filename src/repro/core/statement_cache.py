"""Shape-keyed caching of transformed statements.

The §6.1 query transformation is a pure function of (logical SQL,
layout, tenant schema shape): tenants subscribing to the same extension
set produce *identical* physical statements except for the tenant-id
meta-data literals.  The cache therefore keys entries by
``(logical sql, layout identity, shape key)`` and parameterizes the
tenant identity (see :class:`TenantParamAllocator
<repro.core.transform.query.TenantParamAllocator>`), so thousands of
tenants collapse onto a handful of entries — the paper's Table 1
schema-variability model turned into a cache-locality win.

Each entry pins a :class:`PreparedStatement
<repro.engine.statement_cache.PreparedStatement>`, so a warm hit skips
transformation, SQL rendering, parsing, *and* planning.  Entries also
remember the flattening context (optimizer profile, flatten switch,
predicate order) under which they were built and are rebuilt on
mismatch; schema administration (extension definition/grant/alter,
tenant migration, tenant removal) clears the cache outright.

Counters: ``mt.statement_cache.hits`` / ``misses`` / ``evictions`` /
``invalidations`` in the engine's metrics registry.
"""

from __future__ import annotations

from typing import Sequence

from ..engine.database import Result
from ..engine.statement_cache import LruCache, PreparedStatement
from .transform.crosstenant import MergeSpec, merge_results
from .transform.query import TenantParamAllocator

#: Metrics namespace of the schema-mapping statement cache.
METRICS_PREFIX = "mt.statement_cache"


class CachedStatement:
    """One transformed SELECT, prepared and shared across a shape."""

    __slots__ = ("prepared", "tenant_params", "context")

    def __init__(
        self,
        prepared: PreparedStatement,
        tenant_params: TenantParamAllocator,
        context: tuple,
    ) -> None:
        self.prepared = prepared
        self.tenant_params = tenant_params
        self.context = context

    def execute(self, tenant_id: int, params: Sequence[object]):
        """Run for one tenant: the tenant id fills the allocated
        meta-data parameter slots after the logical parameters."""
        return self.prepared.execute(self.tenant_params.bind(params, tenant_id))


class CrossTenantStatement:
    """One transformed ``FOR TENANTS`` SELECT: a prepared fused
    statement per structure group plus the merge recipe recombining the
    group results.  The declared tenant set is baked into the statements
    as literals, so the cache key (not a parameter slot) carries the
    tenant identity."""

    __slots__ = ("prepared", "merge", "output_names", "context")

    def __init__(
        self,
        prepared: list[PreparedStatement],
        merge: MergeSpec | None,
        output_names: list[str],
        context: tuple,
    ) -> None:
        self.prepared = prepared
        self.merge = merge
        self.output_names = output_names
        self.context = context

    def execute(self, params: Sequence[object]) -> Result:
        results = [p.execute(tuple(params)) for p in self.prepared]
        if self.merge is None:
            return results[0]
        rows = merge_results(self.merge, [r.rows for r in results], params)
        return Result(list(self.output_names), rows, len(rows))


class StatementCache:
    """The shape-keyed transformed-statement cache of one
    :class:`~repro.core.api.MultiTenantDatabase`."""

    def __init__(self, capacity: int, metrics) -> None:
        self._entries = LruCache(capacity, metrics, METRICS_PREFIX)
        self._c_hits = metrics.counter(f"{METRICS_PREFIX}.hits")
        self._c_misses = metrics.counter(f"{METRICS_PREFIX}.misses")
        self._c_invalidations = metrics.counter(
            f"{METRICS_PREFIX}.invalidations"
        )

    @property
    def enabled(self) -> bool:
        return self._entries.enabled

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple, context: tuple) -> CachedStatement | None:
        """A usable entry for ``key``, or ``None``.  An entry built
        under a different flattening context counts as an invalidation
        (the caller rebuilds and re-stores)."""
        if not self._entries.enabled:
            return None
        entry = self._entries.get(key)
        if entry is not None and entry.context != context:
            self._c_invalidations.inc()
            entry = None
        if entry is None:
            self._c_misses.inc()
            return None
        self._c_hits.inc()
        return entry

    def store(self, key: tuple, entry: CachedStatement) -> None:
        self._entries.put(key, entry)

    def invalidate_all(self) -> int:
        """Drop everything (schema administration changed tenant shapes
        or physical structure); returns entries dropped."""
        dropped = self._entries.clear()
        if dropped:
            self._c_invalidations.inc(dropped)
        return dropped


class LogicalPreparedStatement:
    """A logical statement prepared against a
    :class:`~repro.core.api.MultiTenantDatabase`.

    The handle is tenant-agnostic — ``execute(tenant_id, params)`` binds
    the tenant per call, sharing shape-keyed cache entries underneath —
    so application servers keep one handle per action card, not one per
    tenant.
    """

    __slots__ = ("_mtd", "sql", "stmt")

    def __init__(self, mtd, sql: str, stmt) -> None:
        self._mtd = mtd
        self.sql = sql
        self.stmt = stmt

    def execute(self, tenant_id: int, params: Sequence[object] = ()):
        return self._mtd._execute_parsed(tenant_id, self.sql, self.stmt, params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LogicalPreparedStatement {self.sql!r}>"
