"""The executor: batch-at-a-time (vectorized) execution of physical plans.

Every :class:`~repro.engine.database.Database` runs its plans here.
Every page touch goes through the buffer pool, so the paper's metrics
(logical/physical page reads, hit ratios) accumulate as a side effect
of simply running queries; row-level work is counted in
:class:`ExecStats`, and the testbed's cost model turns both into
simulated response times.

Operators exchange fixed-size batches (lists of row tuples,
:data:`BATCH_ROWS` each) and every predicate / projection / key
extraction is compiled **once per plan node** into a batch-level
closure by :mod:`repro.engine.expr_batch`.  Per-row cost is one closure
call per batch whose inner loop is a C-level comprehension or
``itemgetter``, not one Python dispatch per operator per row.

Index access is batch-native too (:func:`index_batches`): the B-tree
hands IXSCAN lists of (key, rid) entries, taking each leaf's matching
run with one slice, and FETCH reads a batch's rows with
``heap.fetch_many``, one buffer-pool call per run of RIDs on the same
page that counts one logical read per row — so page touches, LRU order
and every counter equal a fetch per RID.

The semantics are specified by the tuple-at-a-time reference
interpreter the test suites build beside it (``engine/executor.py``;
nothing on the serving path imports it).  Accounting is bit-identical
to it where it matters: all :class:`ExecStats` row counters, every
buffer pool page touch, and every index traversal happen in the same
order and quantity for the same plan, and EXPLAIN ANALYZE
(:class:`~repro.engine.observability.AnalyzeCollector`, batch-aware
shim) shows the same per-operator rows — the differential suites assert
this across all seven schema-mapping layouts.  The one intentional
divergence: under ``LIMIT`` this executor may scan up to one batch
beyond the cutoff where the reference stops mid-row.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence

from .catalog import Catalog
from .errors import ExecutionError, PlanError
from .expr_batch import (
    _codegen,
    compile_filter,
    compile_tuples,
    compile_values,
    node_program,
    sort_rows,
)
from .observability.metrics import CounterSet, MetricsRegistry
from .plan import physical as phys
from .values import sort_key

#: Default rows per batch.  Large enough to amortize per-batch Python
#: overhead, small enough to keep working sets cache-resident.
BATCH_ROWS = 256

_row_of = itemgetter(1)  # (rid, row) -> row


@dataclass
class ExecStats(CounterSet, prefix="db.exec"):
    """Row-level work counters for one database (cumulative).

    The row counters are a property of the plan, not of how it is run:
    the reference interpreter produces identical values for the same
    plan (the differential suites assert this).  ``batches`` counts the
    batches operators exchanged; the reference exchanges none.
    """

    rows_scanned: int = 0
    index_lookups: int = 0
    rows_fetched: int = 0
    rows_joined: int = 0
    rows_output: int = 0
    sorts: int = 0
    materialized_rows: int = 0
    statements: int = 0
    batches: int = 0

    def row_counters(self) -> dict:
        """The counters the reference interpreter must reproduce for an
        identical plan (all but ``batches``)."""
        return {k: v for k, v in vars(self).items() if k != "batches"}


#: Exact types whose native comparisons match ``sort_key`` ordering
#: within a column (bool is excluded: ``sort_key`` segregates it).
_NATIVE_ORDER = (int, float, str, datetime.date)


def index_batches(
    catalog: Catalog,
    stats: ExecStats,
    node: phys.PIndexScan,
    outer_row: tuple,
    params: Sequence[object],
    batch_rows: int,
) -> Iterator[list[tuple]]:
    """Lists of at most ``batch_rows`` (key, rid) entries for an index
    scan: its equality prefix, optionally bounded by a range.

    The one index access routine: the executor consumes the batches,
    the reference interpreter flattens them (``batch_rows=1``), so
    index access patterns (and the page reads they cause) cannot drift
    apart.  The B-tree takes each leaf's matching entries as one slice
    and reads the next leaf only when a batch needs more entries.
    """
    table = catalog.table(node.table_name)
    info = table.indexes.get(node.index_name.lower())
    if info is None:
        raise ExecutionError(
            f"index {node.index_name} vanished from {node.table_name}"
        )
    prefix = tuple(e(outer_row, params) for e in node.key_exprs)
    stats.index_lookups += 1
    if node.range_low is None and node.range_high is None:
        if (
            info.unique
            and len(prefix) == len(info.column_names)
            and None not in prefix
        ):
            # Full-key probe on a unique index: exact-match descent
            # instead of a prefix iteration — the hot case of every
            # aligning reconstruction join.
            rids = info.btree.search(prefix)
            if rids:
                yield [(prefix, rid) for rid in rids]
            return
        yield from info.btree.prefix_batches(prefix, batch_rows)
        return
    low = prefix
    high = prefix
    if node.range_low is not None:
        value = node.range_low(outer_row, params)
        if value is None:
            return  # NULL bound matches nothing
        low = prefix + (value,)
    if node.range_high is not None:
        value = node.range_high(outer_row, params)
        if value is None:
            return
        high = prefix + (value,)
    yield from info.btree.range_batches(low, high, batch_rows)


def index_entries(
    catalog: Catalog,
    stats: ExecStats,
    node: phys.PIndexScan,
    outer_row: tuple,
    params: Sequence[object],
) -> Iterator[tuple]:
    """:func:`index_batches` flattened at batch size 1: (key, rid) pairs
    one at a time, each leaf read only once the previous leaf's entries
    are consumed — the access order of the reference interpreter and of
    the join probes, which fetch each row as its entry arrives."""
    for batch in index_batches(catalog, stats, node, outer_row, params, 1):
        yield from batch


def _finalize_agg(spec: phys.AggSpec, acc) -> object:
    """Fold one group's accumulated raw values into the aggregate result.

    Must agree exactly with the reference interpreter's per-row
    ``_AggState`` accumulator: NULLs are skipped,
    DISTINCT deduplicates by hash equality, SUM chains ``+`` for
    non-numeric operands, and MIN/MAX fall back to ``sort_key`` ordering
    the moment a group's column mixes types.  Homogeneous native columns
    — the overwhelmingly common case — fold with C-speed builtins.
    """
    func = spec.func
    if func == "COUNT_STAR":
        return acc
    if spec.distinct:
        values, seen = [], set()
        for v in acc:
            if v is None or v in seen:
                continue
            seen.add(v)
            values.append(v)
        if func == "COUNT":
            return len(values)
    else:
        if func == "COUNT":
            # COUNT(col) counts without materializing a NULL-stripped
            # copy of the accumulator.
            return len(acc) - acc.count(None)
        # NULL-free accumulators (the common case) fold in place, no
        # copy — SUM/AVG/MIN/MAX all share this.
        values = acc if None not in acc else [v for v in acc if v is not None]
    if not values:
        return None
    if func in ("SUM", "AVG"):
        if set(map(type, values)) <= {int, float}:
            total = sum(values)
        else:
            total = values[0]
            for v in values[1:]:
                total = total + v
        return total / len(values) if func == "AVG" else total
    kinds = set(map(type, values))
    if len(kinds) == 1 and next(iter(kinds)) in _NATIVE_ORDER:
        return min(values) if func == "MIN" else max(values)
    return (min if func == "MIN" else max)(values, key=sort_key)


def _rebatch(rows: list, batch_rows: int) -> Iterator[list]:
    """Yield an in-memory row list as batches (no copy when it fits)."""
    if len(rows) <= batch_rows:
        if rows:
            yield rows
        return
    for start in range(0, len(rows), batch_rows):
        yield rows[start : start + batch_rows]


def _index_row_builder(positions: Sequence[int], width: int):
    """Codegen: (key, rid) entries -> index-only row tuples.

    ``positions[i]`` is the row slot filled from key component ``i``;
    every other slot reads NULL (never populated by an index-only scan).
    """
    by_slot = {position: i for i, position in enumerate(positions)}
    parts = [
        f"k[{by_slot[slot]}]" if slot in by_slot else "None"
        for slot in range(width)
    ]
    body = ", ".join(parts) + ("," if len(parts) == 1 else "")
    return _codegen(f"lambda entries: [({body}) for k, _ in entries]", {})


class VectorizedExecutor:
    """Executes physical plans batch at a time.

    ``run(root, params, collector=)`` is the whole contract (the
    reference interpreter offers the same one).  ``stats`` is the
    database's one :class:`ExecStats`; ``batch_rows`` exists for the
    tests that cut batches at awkward sizes.
    """

    def __init__(
        self,
        catalog: Catalog,
        stats: ExecStats | None = None,
        *,
        batch_rows: int = BATCH_ROWS,
        metrics=None,
    ) -> None:
        self._catalog = catalog
        self.stats = stats if stats is not None else ExecStats()
        self.batch_rows = max(1, batch_rows)
        self._collector = None
        self._batch_hist = (metrics or MetricsRegistry()).histogram(
            "mt.exec.batch_rows"
        )

    # -- public -----------------------------------------------------------

    def run(
        self,
        root: phys.PReturn,
        params: Sequence[object] = (),
        *,
        collector=None,
    ) -> list[tuple]:
        """Execute a plan and return all result rows."""
        self.stats.statements += 1
        cache: dict[int, list[tuple]] = {}
        previous, self._collector = self._collector, collector
        try:
            rows: list[tuple] = []
            for batch in self._batches(root, (), params, cache):
                rows.extend(batch)
        finally:
            self._collector = previous
        self.stats.rows_output += len(rows)
        return rows

    # -- batch plumbing ---------------------------------------------------

    def _batches(
        self,
        node: phys.PNode,
        outer_row: tuple,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[list]:
        gen = self._dispatch(node, outer_row, params, cache)
        if self._collector is not None:
            gen = self._collector.wrap_batches(node, gen)
        return self._counted(gen)

    def _counted(self, gen: Iterator[list]) -> Iterator[list]:
        stats = self.stats
        observe = self._batch_hist.observe
        for batch in gen:
            stats.batches += 1
            observe(len(batch))
            yield batch

    def _program(self, node: phys.PNode, key: str, builder):
        return node_program(node, key, builder)

    # -- node dispatch ----------------------------------------------------

    def _dispatch(
        self,
        node: phys.PNode,
        outer_row: tuple,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[list]:
        if isinstance(node, phys.PTableScan):
            return self._scan_table(node, params)
        if isinstance(node, phys.PIndexScan):
            return self._scan_index_only(node, outer_row, params)
        if isinstance(node, phys.PFetch):
            return self._fetch(node, outer_row, params)
        if isinstance(node, phys.PMaterialize):
            return self._materialize(node, params, cache)
        if isinstance(node, phys.PNLJoin):
            return self._nljoin(node, outer_row, params, cache)
        if isinstance(node, phys.PHSJoin):
            return self._hsjoin(node, outer_row, params, cache)
        if isinstance(node, phys.PFilter):
            return self._filter(node, outer_row, params, cache)
        if isinstance(node, phys.PGroup):
            return self._group(node, params, cache)
        if isinstance(node, phys.PProject):
            return self._project(node, outer_row, params, cache)
        if isinstance(node, phys.PSort):
            return self._sort(node, outer_row, params, cache)
        if isinstance(node, phys.PDistinct):
            return self._distinct(node, outer_row, params, cache)
        if isinstance(node, phys.PLimit):
            return self._limit(node, outer_row, params, cache)
        if isinstance(node, phys.PReturn):
            return self._batches(node.child, outer_row, params, cache)
        raise PlanError(
            f"unknown physical node {type(node).__name__}"
        )  # pragma: no cover

    # -- leaves -----------------------------------------------------------

    def _scan_table(
        self, node: phys.PTableScan, params: Sequence[object]
    ) -> Iterator[list]:
        table = self._catalog.table(node.table_name)
        residual = self._program(
            node, "residual", lambda: compile_filter(node.residual)
        )
        stats = self.stats
        if (
            node.used_columns is not None
            and getattr(table.heap, "storage_kind", None) == "columnar"
        ):
            batches = table.heap.scan_batches(
                self.batch_rows, node.used_columns
            )
        else:
            batches = table.heap.scan_batches(self.batch_rows)
        for batch in batches:
            stats.rows_scanned += len(batch)
            if residual is not None:
                batch = residual(batch, params)
                if not batch:
                    continue
            yield batch

    def _scan_index_only(
        self, node: phys.PIndexScan, outer_row: tuple, params: Sequence[object]
    ) -> Iterator[list]:
        table = self._catalog.table(node.table_name)
        info = table.indexes[node.index_name.lower()]
        build = self._program(
            node,
            "index_rows",
            lambda: _index_row_builder(
                info.column_positions, len(table.columns)
            ),
        )
        residual = self._program(
            node, "residual", lambda: compile_filter(node.residual)
        )
        stats = self.stats
        for entry_batch in index_batches(
            self._catalog, stats, node, outer_row, params, self.batch_rows
        ):
            rows = build(entry_batch)
            stats.rows_scanned += len(rows)
            if residual is not None:
                rows = residual(rows, params)
                if not rows:
                    continue
            yield rows

    def _fetch(
        self, node: phys.PFetch, outer_row: tuple, params: Sequence[object]
    ) -> Iterator[list]:
        table = self._catalog.table(node.table_name)
        child = node.child
        residual = self._program(
            child, "residual", lambda: compile_filter(child.residual)
        )
        stats = self.stats
        entry_batches = index_batches(
            self._catalog, stats, child, outer_row, params, self.batch_rows
        )
        if self._collector is not None:
            # Attribute (key, rid) production to the IXSCAN child so the
            # analyzed tree shows its row count, not "never executed".
            entry_batches = self._collector.wrap_batches(child, entry_batches)
        fetch_many = table.heap.fetch_many
        for entry_batch in entry_batches:
            rows = fetch_many([rid for _key, rid in entry_batch])
            stats.rows_fetched += len(rows)
            if residual is not None:
                rows = residual(rows, params)
                if not rows:
                    continue
            yield rows

    def _materialize(
        self,
        node: phys.PMaterialize,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[list]:
        key = id(node)
        if key not in cache:
            residual = self._program(
                node, "residual", lambda: compile_filter(node.residual)
            )
            rows: list[tuple] = []
            for batch in self._batches(node.child, (), params, cache):
                if residual is not None:
                    batch = residual(batch, params)
                rows.extend(batch)
            cache[key] = rows
            self.stats.materialized_rows += len(rows)
        yield from _rebatch(cache[key], self.batch_rows)

    # -- joins ------------------------------------------------------------

    def _nljoin(
        self,
        node: phys.PNLJoin,
        outer_row: tuple,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[list]:
        batch_rows = self.batch_rows
        stats = self.stats
        # Index nested loops probe the inner side once per outer row and
        # typically hit a handful of rows; for a bare access node the
        # batch plumbing (generator layers + per-batch accounting) costs
        # more than the rows, so probe it with a fused row-level closure.
        # Page touches, index traversals, and row counters are identical
        # by construction.  EXPLAIN ANALYZE keeps the generic path so
        # per-operator rows stay attributed.
        probe = None
        if self._collector is None:
            probe = self._inner_probe(node.inner, params)
        out: list[tuple] = []
        for left_batch in self._batches(node.outer, outer_row, params, cache):
            for left_row in left_batch:
                # The inner access node re-runs per outer row, keyed by
                # it (IXSCAN key_exprs close over the outer schema) —
                # same access pattern as the reference interpreter.
                if probe is not None:
                    inner_rows = probe(left_row)
                    if inner_rows:
                        if len(inner_rows) == 1:
                            # Aligning joins hit exactly one inner row
                            # per probe; skip the comprehension.
                            stats.rows_joined += 1
                            out.append(left_row + inner_rows[0])
                        else:
                            stats.rows_joined += len(inner_rows)
                            out.extend(
                                [left_row + right for right in inner_rows]
                            )
                else:
                    for inner_batch in self._batches(
                        node.inner, left_row, params, cache
                    ):
                        stats.rows_joined += len(inner_batch)
                        out.extend(
                            [left_row + right for right in inner_batch]
                        )
                if len(out) >= batch_rows:
                    yield out
                    out = []
        if out:
            yield out

    def _inner_probe(self, inner: phys.PNode, params: Sequence[object]):
        """Row-level probe closure for an access-node join inner, or
        ``None`` when the inner side needs the generic batch path."""
        catalog = self._catalog
        stats = self.stats
        batch_rows = self.batch_rows
        if isinstance(inner, phys.PFetch):
            child = inner.child
            residual = self._program(
                child, "residual", lambda: compile_filter(child.residual)
            )
            table = catalog.table(inner.table_name)
            fetch = table.heap.fetch
            info = table.indexes.get(child.index_name.lower())
            key_exprs = child.key_exprs
            if (
                info is not None
                and info.unique
                and child.range_low is None
                and child.range_high is None
                and len(key_exprs) == len(info.column_names)
            ):
                # Full-key probe on a unique index — the aligning
                # reconstruction join's hot case.  Fuse out the
                # index_entries generator: same descent, same counters,
                # no per-row generator frames, and ``search_one``
                # instead of ``search`` so the hit path allocates
                # nothing but the fetched row.  (NULL keys keep the
                # generic prefix semantics via prefix_batches, exactly
                # as index_entries would.)
                search_one = info.btree.search_one
                prefix_batches = info.btree.prefix_batches

                # Probe keys in reconstruction joins are mostly
                # constant (Tenant/Table/Chunk literals) with a single
                # row-dependent column; pre-fill the constants once per
                # closure instead of re-evaluating every expression per
                # probe.  Compiled readers advertise their shape via
                # the .const/.param/.slot metadata; anything fancier
                # falls back to the generic evaluation.
                _sent = object()
                template: list = []
                slot_positions: list[tuple[int, int]] = []
                generic = False
                for i, e in enumerate(key_exprs):
                    const = getattr(e, "const", _sent)
                    if const is not _sent:
                        template.append(const)
                        continue
                    if getattr(e, "param", None) is not None:
                        template.append(e(None, params))
                        continue
                    slot = getattr(e, "slot", None)
                    if slot is not None:
                        template.append(None)
                        slot_positions.append((i, slot))
                        continue
                    generic = True
                    break
                if generic:
                    def make_key(left_row: tuple) -> tuple:
                        return tuple(
                            [e(left_row, params) for e in key_exprs]
                        )
                elif len(slot_positions) == 1:
                    (pos0, slot0) = slot_positions[0]

                    def make_key(
                        left_row: tuple, base=template, i=pos0, s=slot0
                    ) -> tuple:
                        base[i] = left_row[s]
                        return tuple(base)
                else:
                    def make_key(
                        left_row: tuple, base=template, ps=slot_positions
                    ) -> tuple:
                        for i, s in ps:
                            base[i] = left_row[s]
                        return tuple(base)

                def probe_unique(left_row: tuple) -> list[tuple]:
                    key = make_key(left_row)
                    stats.index_lookups += 1
                    if None in key:
                        rows = [
                            fetch(rid)
                            for batch in prefix_batches(key, 1)
                            for _k, rid in batch
                        ]
                        stats.rows_fetched += len(rows)
                        if residual is not None and rows:
                            rows = residual(rows, params)
                        return rows
                    rid = search_one(key)
                    if rid is None:
                        return []
                    stats.rows_fetched += 1
                    rows = [fetch(rid)]
                    if residual is not None:
                        rows = residual(rows, params)
                    return rows

                return probe_unique

            def probe(left_row: tuple) -> list[tuple]:
                rows = [
                    fetch(rid)
                    for _key, rid in index_entries(
                        catalog, stats, child, left_row, params
                    )
                ]
                stats.rows_fetched += len(rows)
                if residual is not None and rows:
                    rows = residual(rows, params)
                return rows

            return probe
        if isinstance(inner, phys.PIndexScan):
            table = catalog.table(inner.table_name)
            info = table.indexes[inner.index_name.lower()]
            build = self._program(
                inner,
                "index_rows",
                lambda: _index_row_builder(
                    info.column_positions, len(table.columns)
                ),
            )
            residual = self._program(
                inner, "residual", lambda: compile_filter(inner.residual)
            )

            def probe(left_row: tuple) -> list[tuple]:
                rows = build(
                    [
                        entry
                        for batch in index_batches(
                            catalog, stats, inner, left_row, params, batch_rows
                        )
                        for entry in batch
                    ]
                )
                stats.rows_scanned += len(rows)
                if residual is not None and rows:
                    rows = residual(rows, params)
                return rows

            return probe
        return None

    def _hsjoin(
        self,
        node: phys.PHSJoin,
        outer_row: tuple,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[list]:
        left_keys = self._program(
            node, "left_keys", lambda: compile_tuples(node.left_keys)
        )
        right_keys = self._program(
            node, "right_keys", lambda: compile_tuples(node.right_keys)
        )
        table: dict[tuple, list[tuple]] = {}
        setdefault = table.setdefault
        for batch in self._batches(node.right, (), params, cache):
            for row, key in zip(batch, right_keys(batch, params)):
                if None in key:
                    continue  # NULL join keys never match
                setdefault(key, []).append(row)
        stats = self.stats
        get = table.get
        for batch in self._batches(node.left, outer_row, params, cache):
            out: list[tuple] = []
            extend = out.extend
            for row, key in zip(batch, left_keys(batch, params)):
                if None in key:
                    continue
                matches = get(key)
                if matches:
                    stats.rows_joined += len(matches)
                    extend(row + match for match in matches)
            if out:
                yield out

    # -- row transforms ---------------------------------------------------

    def _filter(
        self,
        node: phys.PFilter,
        outer_row: tuple,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[list]:
        predicate = self._program(
            node, "predicates", lambda: compile_filter(node.predicates)
        )
        for batch in self._batches(node.child, outer_row, params, cache):
            if predicate is not None:
                batch = predicate(batch, params)
                if not batch:
                    continue
            yield batch

    def _project(
        self,
        node: phys.PProject,
        outer_row: tuple,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[list]:
        project = self._program(
            node, "project", lambda: compile_tuples(node.exprs)
        )
        for batch in self._batches(node.child, outer_row, params, cache):
            yield project(batch, params)

    def _sort(
        self,
        node: phys.PSort,
        outer_row: tuple,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[list]:
        rows: list[tuple] = []
        for batch in self._batches(node.child, outer_row, params, cache):
            rows.extend(batch)
        self.stats.sorts += 1
        yield from _rebatch(sort_rows(node, rows, params), self.batch_rows)

    def _distinct(
        self,
        node: phys.PDistinct,
        outer_row: tuple,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[list]:
        seen: set = set()
        add = seen.add
        for batch in self._batches(node.child, outer_row, params, cache):
            out = []
            append = out.append
            for row in batch:
                if row not in seen:
                    add(row)
                    append(row)
            if out:
                yield out

    def _limit(
        self,
        node: phys.PLimit,
        outer_row: tuple,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[list]:
        remaining = node.limit
        if remaining <= 0:
            return
        for batch in self._batches(node.child, outer_row, params, cache):
            if len(batch) >= remaining:
                yield batch[:remaining]
                return
            remaining -= len(batch)
            yield batch

    # -- grouping ---------------------------------------------------------

    def _group(
        self,
        node: phys.PGroup,
        params: Sequence[object],
        cache: dict[int, list[tuple]],
    ) -> Iterator[list]:
        single_key = len(node.group_exprs) == 1
        if single_key:
            # One grouping column: key on the raw values (often the
            # stored column itself) instead of allocating a 1-tuple per
            # row — tuples reappear only on output.
            group_keys = self._program(
                node,
                "group_key_values",
                lambda: compile_values(node.group_exprs[0]),
            )
        else:
            group_keys = self._program(
                node, "group_keys", lambda: compile_tuples(node.group_exprs)
            )
        arg_programs = self._program(
            node,
            "agg_args",
            lambda: [
                compile_values(spec.arg) if spec.arg is not None else None
                for spec in node.aggs
            ],
        )
        specs = node.aggs
        stars = [spec.func == "COUNT_STAR" for spec in specs]
        # key -> one accumulator per aggregate: a running count for
        # COUNT(*), a raw value list otherwise.  Per-row Python work is
        # one dict probe plus one int append; value movement and the
        # aggregate folds happen batch-at-a-time at C speed.
        groups: dict[tuple, list] = {}
        get = groups.get
        for batch in self._batches(node.child, (), params, cache):
            keys = group_keys(batch, params)
            columns = [
                program(batch, params) if program is not None else None
                for program in arg_programs
            ]
            index_lists: dict[tuple, list[int]] = {}
            index_get = index_lists.get
            for i, key in enumerate(keys):
                rows = index_get(key)
                if rows is None:
                    index_lists[key] = [i]
                else:
                    rows.append(i)
            for key, idxs in index_lists.items():
                accs = groups.get(key)
                if accs is None:
                    accs = groups[key] = [
                        0 if star else [] for star in stars
                    ]
                for j, column in enumerate(columns):
                    if stars[j]:
                        accs[j] += len(idxs)
                    elif column is not None:
                        accs[j].extend([column[i] for i in idxs])
        if not groups and not node.group_exprs:
            # Global aggregate over the empty input still yields one row.
            groups[()] = [0 if star else [] for star in stars]
        having = node.having
        outputs = node.outputs
        out: list[tuple] = []
        batch_rows = self.batch_rows
        for key, accs in groups.items():
            key_tuple = (key,) if single_key else key
            pseudo = key_tuple + tuple(
                _finalize_agg(spec, acc) for spec, acc in zip(specs, accs)
            )
            if having is not None and having(pseudo, params) is not True:
                continue
            out.append(tuple(spec.post(pseudo, params) for spec in outputs))
            if len(out) >= batch_rows:
                yield out
                out = []
        if out:
            yield out
