"""The reference interpreter: pull-based, tuple at a time.

No :class:`~repro.engine.database.Database` runs this.  It specifies
what the executor (:mod:`repro.engine.vexecutor`) must do: the
differential suites, ``bench_vectorized`` and the optimizer-quality
harness build ``Executor(db.catalog, stats)`` and call
:meth:`Executor.run` on a plan the database planned — same page touches
through the same buffer pool, same ``ExecStats`` row counters.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .catalog import Catalog
from .errors import PlanError
from .expr_batch import sort_rows
from .plan import physical as phys
from .values import sort_key
from .vexecutor import ExecStats, _NATIVE_ORDER, index_entries


# _AggState per-row dispatch codes, resolved once per group instead of
# per-row string-tuple membership tests.
_AGG_COUNT_STAR = 0
_AGG_SUM = 1  # SUM and AVG share the running-total fold
_AGG_MIN = 2
_AGG_MAX = 3
_AGG_COUNT = 4  # COUNT(col): the count increment is the whole fold


class _AggState:
    """Accumulator for one aggregate within one group."""

    __slots__ = ("spec", "op", "count", "total", "best", "seen")

    def __init__(self, spec: phys.AggSpec) -> None:
        self.spec = spec
        func = spec.func
        if func == "COUNT_STAR":
            self.op = _AGG_COUNT_STAR
        elif func in ("SUM", "AVG"):
            self.op = _AGG_SUM
        elif func == "MIN":
            self.op = _AGG_MIN
        elif func == "MAX":
            self.op = _AGG_MAX
        else:
            self.op = _AGG_COUNT
        self.count = 0
        self.total = None
        self.best = None
        self.seen: set | None = set() if spec.distinct else None

    def add(self, row: tuple, params: Sequence[object]) -> None:
        if self.op == _AGG_COUNT_STAR:
            self.count += 1
            return
        spec = self.spec
        assert spec.arg is not None
        self.add_value(spec.arg(row, params))

    def add_value(self, value: object) -> None:
        """Fold one already-evaluated argument value (the vectorized
        engine precomputes argument columns per batch)."""
        op = self.op
        if op == _AGG_COUNT_STAR:
            self.count += 1
            return
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if op == _AGG_COUNT:
            return
        if op == _AGG_SUM:
            self.total = value if self.total is None else self.total + value
        elif op == _AGG_MIN:
            best = self.best
            if best is None:
                self.best = value
            elif type(value) is type(best) and type(value) in _NATIVE_ORDER:
                # Fast path: same natively comparable type, no decorated
                # ``sort_key`` tuples per row.
                if value < best:
                    self.best = value
            elif sort_key(value) < sort_key(best):
                self.best = value
        else:
            best = self.best
            if best is None:
                self.best = value
            elif type(value) is type(best) and type(value) in _NATIVE_ORDER:
                if value > best:
                    self.best = value
            elif sort_key(value) > sort_key(best):
                self.best = value

    def final(self) -> object:
        func = self.spec.func
        if func in ("COUNT", "COUNT_STAR"):
            return self.count
        if func == "SUM":
            return self.total
        if func == "AVG":
            if self.count == 0:
                return None
            return self.total / self.count
        return self.best


class Executor:
    """Executes physical plans against a catalog, tuple at a time.

    This is the reference interpreter: simple, streaming, and row
    accurate.  The hot read path normally runs through the vectorized
    sibling (:class:`repro.engine.vexecutor.VectorizedExecutor`); this
    engine is kept for differential testing and as the specification of
    the execution semantics.  ``stats`` may be shared with another
    executor so one :class:`Database` reports a single set of counters.
    """

    def __init__(self, catalog: Catalog, stats: ExecStats | None = None) -> None:
        self._catalog = catalog
        self.stats = stats if stats is not None else ExecStats()
        #: Active EXPLAIN ANALYZE collector (None when not analyzing).
        self._collector = None

    # -- public -----------------------------------------------------------

    def run(
        self,
        root: phys.PReturn,
        params: Sequence[object] = (),
        *,
        collector=None,
    ) -> list[tuple]:
        """Execute a plan.  ``collector`` (an
        :class:`~repro.engine.observability.AnalyzeCollector`) wraps each
        operator with row/time accounting for EXPLAIN ANALYZE."""
        self.stats.statements += 1
        cache: dict[int, list[tuple]] = {}
        previous, self._collector = self._collector, collector
        try:
            rows = list(self._iterate(root, (), params, cache))
        finally:
            self._collector = previous
        self.stats.rows_output += len(rows)
        return rows

    # -- node dispatch ----------------------------------------------------------

    def _iterate(
        self,
        node: phys.PNode,
        outer_row: tuple,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[tuple]:
        iterator = self._dispatch(node, outer_row, params, cache)
        if self._collector is not None:
            return self._collector.wrap(node, iterator)
        return iterator

    def _dispatch(
        self,
        node: phys.PNode,
        outer_row: tuple,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[tuple]:
        if isinstance(node, phys.PTableScan):
            yield from self._scan_table(node, params)
        elif isinstance(node, phys.PIndexScan):
            yield from self._scan_index_only(node, outer_row, params)
        elif isinstance(node, phys.PFetch):
            yield from self._fetch(node, outer_row, params)
        elif isinstance(node, phys.PMaterialize):
            key = id(node)
            if key not in cache:
                rows = []
                for row in self._iterate(node.child, (), params, cache):
                    if all(p(row, params) is True for p in node.residual):
                        rows.append(row)
                cache[key] = rows
                self.stats.materialized_rows += len(rows)
            yield from cache[key]
        elif isinstance(node, phys.PNLJoin):
            for left_row in self._iterate(node.outer, outer_row, params, cache):
                for right_row in self._iterate(node.inner, left_row, params, cache):
                    self.stats.rows_joined += 1
                    yield left_row + right_row
        elif isinstance(node, phys.PHSJoin):
            table: dict[tuple, list[tuple]] = {}
            for row in self._iterate(node.right, (), params, cache):
                key = tuple(k(row, params) for k in node.right_keys)
                if any(v is None for v in key):
                    continue
                table.setdefault(key, []).append(row)
            for row in self._iterate(node.left, outer_row, params, cache):
                key = tuple(k(row, params) for k in node.left_keys)
                if any(v is None for v in key):
                    continue
                for match in table.get(key, ()):
                    self.stats.rows_joined += 1
                    yield row + match
        elif isinstance(node, phys.PFilter):
            for row in self._iterate(node.child, outer_row, params, cache):
                if all(p(row, params) is True for p in node.predicates):
                    yield row
        elif isinstance(node, phys.PGroup):
            yield from self._group(node, params, cache)
        elif isinstance(node, phys.PProject):
            for row in self._iterate(node.child, outer_row, params, cache):
                yield tuple(e(row, params) for e in node.exprs)
        elif isinstance(node, phys.PSort):
            rows = list(self._iterate(node.child, outer_row, params, cache))
            self.stats.sorts += 1
            # One composite decorated key per row, one sort — not one
            # full re-sort (with per-row key lambdas) per ORDER BY key.
            yield from sort_rows(node, rows, params)
        elif isinstance(node, phys.PDistinct):
            seen: set = set()
            for row in self._iterate(node.child, outer_row, params, cache):
                if row not in seen:
                    seen.add(row)
                    yield row
        elif isinstance(node, phys.PLimit):
            yield from itertools.islice(
                self._iterate(node.child, outer_row, params, cache), node.limit
            )
        elif isinstance(node, phys.PReturn):
            yield from self._iterate(node.child, outer_row, params, cache)
        else:  # pragma: no cover
            raise PlanError(f"unknown physical node {type(node).__name__}")

    # -- leaves -------------------------------------------------------------------

    def _scan_table(
        self, node: phys.PTableScan, params: Sequence[object]
    ) -> Iterator[tuple]:
        table = self._catalog.table(node.table_name)
        for _rid, row in table.heap.scan():
            self.stats.rows_scanned += 1
            if all(p(row, params) is True for p in node.residual):
                yield row

    def _index_entries(
        self, node: phys.PIndexScan, outer_row: tuple, params: Sequence[object]
    ) -> Iterator[tuple]:
        """Yield (key, rid) pairs for the scan's equality prefix."""
        return index_entries(self._catalog, self.stats, node, outer_row, params)

    def _scan_index_only(
        self, node: phys.PIndexScan, outer_row: tuple, params: Sequence[object]
    ) -> Iterator[tuple]:
        table = self._catalog.table(node.table_name)
        info = table.indexes[node.index_name.lower()]
        width = len(table.columns)
        for key, _rid in self._index_entries(node, outer_row, params):
            row = [None] * width
            for pos, value in zip(info.column_positions, key):
                row[pos] = value
            row_tuple = tuple(row)
            self.stats.rows_scanned += 1
            if all(p(row_tuple, params) is True for p in node.residual):
                yield row_tuple

    def _fetch(
        self, node: phys.PFetch, outer_row: tuple, params: Sequence[object]
    ) -> Iterator[tuple]:
        table = self._catalog.table(node.table_name)
        child = node.child
        entries = self._index_entries(child, outer_row, params)
        if self._collector is not None:
            # Attribute the (key, rid) production to the IXSCAN child so
            # the analyzed tree shows its row count, not "never executed".
            entries = self._collector.wrap(child, entries)
        for _key, rid in entries:
            row = table.heap.fetch(rid)
            self.stats.rows_fetched += 1
            if all(p(row, params) is True for p in child.residual):
                yield row

    # -- grouping --------------------------------------------------------------------

    def _group(
        self,
        node: phys.PGroup,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[tuple]:
        groups: dict[tuple, list[_AggState]] = {}
        for row in self._iterate(node.child, (), params, cache):
            key = tuple(g(row, params) for g in node.group_exprs)
            states = groups.get(key)
            if states is None:
                states = [_AggState(spec) for spec in node.aggs]
                groups[key] = states
            for state in states:
                state.add(row, params)
        if not groups and not node.group_exprs:
            # Global aggregate over the empty input still yields one row.
            groups[()] = [_AggState(spec) for spec in node.aggs]
        for key, states in groups.items():
            pseudo = key + tuple(state.final() for state in states)
            if node.having is not None and node.having(pseudo, params) is not True:
                continue
            yield tuple(out.post(pseudo, params) for out in node.outputs)
