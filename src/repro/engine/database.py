"""The :class:`Database` facade.

One object per simulated database server: a buffer pool sized from a
memory budget minus the catalog's meta-data consumption, a planner with
a configurable optimizer profile, and one executor.  ``execute()`` takes
SQL text plus positional parameters and returns a :class:`Result`.

>>> db = Database()
>>> _ = db.execute("CREATE TABLE t (id INTEGER NOT NULL, name VARCHAR(20))")
>>> _ = db.execute("INSERT INTO t VALUES (1, 'x')")
>>> db.execute("SELECT name FROM t WHERE id = ?", [1]).rows
[('x',)]
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

from .catalog import Catalog, Column, TABLE_METADATA_COST
from .durability import DurabilityManager, DurabilityOptions
from .durability.wal import WalStats
from .errors import EngineError, PlanError, SemanticError
from .expr import Compiled, ExprCompiler, Schema, Slot
from .expr_batch import BatchFn, compile_filter
from .heap import InsertStrategy
from .observability import (
    AnalyzeCollector,
    CounterWindow,
    MetricsRegistry,
    QueryTrace,
    render_analyzed_plan,
)
from .optimizer import OptimizerProfile, Planner
from .pager import DEFAULT_PAGE_SIZE, BufferPool, PoolStats
from .plan import physical as phys
from .plan.bind import Bound, bind_statement, cast_params
from .sql import ast
from .sql.parser import parse_statement
from .statement_cache import LruCache, PREPARABLE, PreparedStatement
from .transactions import TransactionManager
from .values import parse_type
from .vexecutor import BATCH_ROWS, ExecStats, VectorizedExecutor, index_batches

#: Default server memory budget. The paper's server had 1 GB; the
#: default here is scaled down with the default workloads (Section 2 of
#: DESIGN.md documents the scaling).
DEFAULT_MEMORY = 16 * 1024 * 1024


@dataclass
class Result:
    """Outcome of one statement."""

    columns: list[str]
    rows: list[tuple]
    rowcount: int

    def scalar(self) -> object:
        if not self.rows or not self.rows[0]:
            raise EngineError("result has no scalar value")
        return self.rows[0][0]


@dataclass
class _InsertProgram:
    """A precompiled INSERT: value thunks plus target column layout."""

    table_name: str
    rows: list[list]
    positions: tuple[int, ...] | None
    width: int


@dataclass
class _WriteProgram:
    """A precompiled UPDATE or DELETE: everything :meth:`Database.
    _match_rows` and the SET loop need that does not depend on the
    parameter values."""

    table_name: str
    #: ``(column position, compiled SET expression)``; empty for DELETE.
    assignments: list[tuple[int, Compiled]]
    #: Where the rows come from (:meth:`Planner.plan_rows`): a TBSCAN,
    #: or an IXSCAN under a FETCH, perhaps under a FILTER.
    access: phys.PNode
    #: Its TBSCAN or IXSCAN, and the leaf's residuals plus the FILTER's
    #: predicates as one batch program (``None``: every row matches).
    leaf: phys.PNode
    test: BatchFn | None
    #: :attr:`Bound.param_casts`, applied to the parameters rows match.
    param_casts: dict


class Database:
    """An instrumented single-node relational database."""

    #: ``(db, sanitize)`` -> attaches a sanitizer before recovery, so
    #: replay runs instrumented; :mod:`repro.analysis.sanitizers` sets it.
    sanitizer_hook: Callable[[Database, bool | None], None] | None = None

    def __init__(
        self,
        *,
        memory_bytes: int = DEFAULT_MEMORY,
        profile: OptimizerProfile = OptimizerProfile.ADVANCED,
        table_metadata_cost: int = TABLE_METADATA_COST,
        insert_strategy: InsertStrategy = InsertStrategy.FIRST_FIT,
        plan_cache_size: int = 256,
        path: str | None = None,
        durability: DurabilityOptions | None = None,
        sanitize: bool | None = None,
    ) -> None:
        #: Set before anything that can fail, so :meth:`close` is safe
        #: on a partially constructed instance.
        self._closed = False
        self.memory_bytes = memory_bytes
        self.page_size = DEFAULT_PAGE_SIZE
        #: Engine-wide observability: every subsystem below feeds this.
        self.metrics = MetricsRegistry()
        #: Disk-backed when a ``path`` is given: WAL + page store live in
        #: that directory and opening it again recovers to the last
        #: committed state.  ``path=None`` keeps the historical
        #: all-in-memory behaviour, byte-for-byte.
        self.durability = (
            DurabilityManager(path, metrics=self.metrics, options=durability)
            if path is not None
            else None
        )
        self.pool = BufferPool(
            max(1, memory_bytes // DEFAULT_PAGE_SIZE),
            DEFAULT_PAGE_SIZE,
            metrics=self.metrics,
            store=self.durability.store if self.durability else None,
            durability=self.durability,
        )
        self.catalog = Catalog(
            self.pool,
            table_metadata_cost=table_metadata_cost,
            insert_strategy=insert_strategy,
        )
        self.transactions = TransactionManager(
            self.catalog, metrics=self.metrics, durability=self.durability
        )
        self._planner = Planner(self.catalog, profile, self._execute_subquery)
        self._executor = VectorizedExecutor(
            self.catalog,
            self.metrics.counter_set(ExecStats),
            metrics=self.metrics,
        )
        #: Prepared statements keyed by SQL text; ``plan_cache_size=0``
        #: disables caching (every statement parses and plans afresh).
        self._statements = LruCache(
            plan_cache_size, self.metrics, "db.plan_cache"
        )
        self._c_plan_hits = self.metrics.counter("db.plan_cache.hits")
        self._c_plan_misses = self.metrics.counter("db.plan_cache.misses")
        self._c_plan_invalidations = self.metrics.counter(
            "db.plan_cache.invalidations"
        )
        #: SELECTs planned and DML programs compiled with no handle to
        #: keep them — work the two counters above never see.
        self._c_plan_adhoc = self.metrics.counter("db.plan_cache.adhoc")
        #: ``id(subquery AST)`` -> value set, for the statement now
        #: executing (see :meth:`_execute_subquery`).
        self._subquery_results: dict[int, set] = {}
        self._c_rejections = self.metrics.counter("analysis.semantic.rejections")
        self._h_statement_ms = self.metrics.histogram("db.statement_ms")
        #: Dynamic sanitizer, if :attr:`sanitizer_hook` attached one; it
        #: suppresses write-ahead checks during replay itself.
        self.sanitizer = None
        if Database.sanitizer_hook is not None:
            Database.sanitizer_hook(self, sanitize)
        if self.durability is not None:
            from .durability.recovery import recover

            try:
                recover(self)
            except BaseException:
                # A failed open must release the WAL / page-store file
                # handles so the caller can retry, repair, or discard
                # the directory; close() afterwards is a no-op.
                self._closed = True
                self.durability.close()
                raise

    # -- configuration ------------------------------------------------------

    @property
    def profile(self) -> OptimizerProfile:
        return self._planner.profile

    @profile.setter
    def profile(self, profile: OptimizerProfile) -> None:
        self._planner.profile = profile

    # -- statistics ----------------------------------------------------------

    @property
    def pool_stats(self) -> PoolStats:
        return self.pool.stats

    @property
    def exec_stats(self) -> ExecStats:
        return self._executor.stats

    def flush_cache(self) -> None:
        """Empty the buffer pool (cold-cache experiments)."""
        self.pool.flush()

    @property
    def buffer_pool_pages(self) -> int:
        return self.pool.capacity_pages

    # -- durability ---------------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.durability is not None

    @property
    def wal_stats(self) -> WalStats:
        if self.durability is None:
            return WalStats()
        return self.durability.wal.stats

    def checkpoint(self) -> bool:
        """Force a checkpoint now (no-op in memory mode)."""
        if self.durability is None:
            return False
        return self.durability.checkpoint(self)

    def crashpoint(self, name: str) -> None:
        """Hit a named fault-injection crashpoint (no-op in memory mode
        or with an unarmed injector)."""
        if self.durability is not None:
            self.durability.faults.crashpoint(name)

    def admin_operation(self, op: str, end_state):
        """Crash-atomicity bracket for a multi-statement administrative
        operation (see :meth:`DurabilityManager.admin_operation`); a
        plain no-op context in memory mode."""
        if self.durability is None:
            return nullcontext()
        return self.durability.admin_operation(op, end_state)

    @property
    def recovered_admin_state(self):
        """What the last completed admin operation recorded at its end
        (``None``: none ever did) — the schema-mapping layer restores
        itself from this one value after a crash."""
        if self.durability is None:
            return None
        return self.durability.admin_state

    @contextmanager
    def atomic(self):
        """Run a block inside one transaction (crash-atomic in durable
        mode).  Nested entry and memory mode are pass-throughs; a
        simulated crash (``BaseException``) propagates without rollback,
        like a real power cut."""
        if self.durability is None or self.transactions.active:
            yield
            return
        self.transactions.begin()
        try:
            yield
        except Exception:
            # DDL inside the block commits the transaction out from
            # under us (DDL is non-transactional); nothing to undo then.
            if self.transactions.active:
                self.transactions.rollback()
            raise
        else:
            if self.transactions.active:
                self.transactions.commit()

    def close(self) -> None:
        """Flush the WAL and close the on-disk files (durable mode);
        end-of-life leak checks when a sanitizer is attached.

        Idempotent, and safe on a partially constructed instance (a
        failed open releases its files itself), so owners like cluster
        shard workers can tear down unconditionally in error paths.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        durability = getattr(self, "durability", None)
        if durability is not None:
            self.transactions.end_statement()
            durability.wal.flush()
            durability.close()
        # Leak checks last: a raised sanitizer finding must not leave
        # the on-disk files open behind it.
        sanitizer = getattr(self, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.on_close(self)
        if durability is not None:
            # Its store is closed: these pages can be neither read again
            # nor written.  Let go of them by reference count, not
            # whenever the cycle collector next finds the database.
            self.pool.drop_frames()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- planning / explain -----------------------------------------------------

    def plan(self, sql: str, directives=None):
        stmt = parse_statement(sql)
        if not isinstance(stmt, ast.Select):
            raise PlanError("only SELECT statements can be planned/explained")
        return self._planner.plan_select(stmt, directives)

    def plan_ast(self, select: ast.Select, directives=None):
        """Plan an already-parsed SELECT, optionally pinning parts of
        the plan (:class:`~repro.engine.optimizer.PlanDirectives`) — the
        entry point the plan-space enumerator uses."""
        return self._planner.plan_select(select, directives)

    def execute_plan(
        self, root, params: Sequence[object] = (), collector=None
    ) -> Result:
        """Execute a physical plan built by :meth:`plan` /
        :meth:`plan_ast`, optionally under an :class:`AnalyzeCollector`."""
        self._subquery_results.clear()
        rows = self._executor.run(root, params, collector=collector)
        return Result(list(root.column_names), rows, len(rows))

    def explain(self, sql: str) -> str:
        from .explain import render_plan

        return render_plan(self.plan(sql))

    def explain_analyze(self, sql: str, params: Sequence[object] = ()) -> str:
        """Execute ``sql`` and render its plan annotated with measured
        per-operator row counts, open counts, and wall times."""
        trace = self.trace(sql, params, analyze=True)
        if trace.plan is None:
            raise PlanError("only SELECT statements can be analyzed")
        return trace.plan

    # -- tracing -----------------------------------------------------------------

    def trace(
        self,
        sql: str,
        params: Sequence[object] = (),
        *,
        analyze: bool = True,
    ) -> QueryTrace:
        """Execute one statement and return a :class:`QueryTrace` with
        the buffer-pool / executor / WAL deltas it caused.

        SELECTs additionally capture the EXPLAIN ANALYZE operator tree
        unless ``analyze=False``.  The experiments build Figure 10 and
        Table 2 from these traces instead of global counter snapshots.
        """
        window = CounterWindow(
            pool=self.pool.stats,
            exec=self._executor.stats,
            wal=self.wal_stats,
        )
        collector = AnalyzeCollector() if analyze else None
        started = time.perf_counter()
        result, root, cache_hit = self._execute_text(sql, params, collector)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._h_statement_ms.observe(elapsed_ms)
        analyzed = collector is not None and root is not None
        return QueryTrace(
            sql=sql,
            params=tuple(params),
            columns=result.columns,
            rows=result.rows,
            rowcount=result.rowcount,
            elapsed_ms=elapsed_ms,
            operators=collector.operators(root) if analyzed else [],
            plan=render_analyzed_plan(root, collector) if analyzed else None,
            cache_hit=cache_hit,
            **window.deltas(),
        )

    # -- execution -----------------------------------------------------------------

    _EXPLAIN_RE = re.compile(r"^\s*EXPLAIN(\s+ANALYZE)?\b", re.IGNORECASE)

    def execute(self, sql: str, params: Sequence[object] = ()) -> Result:
        return self._execute_text(sql, params)[0]

    def _execute_text(
        self, sql: str, params: Sequence[object], collector=None
    ) -> tuple[Result, object, bool]:
        """SQL text, through the plan cache, down the statement path.
        Returns ``(result, plan root or None, cache_hit)`` — a SELECT's
        hit is a reused plan, a DML statement's a skipped parse."""
        match = self._EXPLAIN_RE.match(sql)
        if match:
            body = sql[match.end():].strip()
            if match.group(1):
                text = self.explain_analyze(body, params)
            else:
                text = self.explain(body)
            lines = text.splitlines()
            plan = Result(["plan"], [(line,) for line in lines], len(lines))
            return plan, None, False
        head = sql.strip().rstrip(";").upper()
        if head in ("BEGIN", "BEGIN TRANSACTION", "START TRANSACTION"):
            self.transactions.begin()
            return Result([], [], 0), None, False
        if head == "COMMIT":
            self.transactions.commit()
            return Result([], [], 0), None, False
        if head == "ROLLBACK":
            self.transactions.rollback()
            return Result([], [], 0), None, False
        stmt, prepared, text_hit = self._lookup_statement(sql)
        result, root, reused = self._run_statement(
            stmt, prepared, params, collector
        )
        return result, root, reused if root is not None else text_hit

    def _lookup_statement(
        self, sql: str
    ) -> tuple[ast.Statement, PreparedStatement | None, bool]:
        """Resolve SQL text through the plan cache.

        Returns ``(stmt, prepared, hit)`` — ``prepared`` is ``None`` for
        non-preparable statements (DDL) and when the cache is disabled
        (nothing would keep what the handle caches).
        """
        if not self._statements.enabled:
            return parse_statement(sql), None, False
        prepared = self._statements.get(sql)
        if prepared is not None:
            self._c_plan_hits.inc()
            return prepared.stmt, prepared, True
        stmt = parse_statement(sql)
        if isinstance(stmt, PREPARABLE):
            prepared = PreparedStatement(self, stmt, sql)
            self._c_plan_misses.inc()
            self._statements.put(sql, prepared)
        return stmt, prepared, False

    def _run_statement(
        self,
        stmt: ast.Statement,
        prepared: PreparedStatement | None,
        params: Sequence[object],
        collector=None,
    ) -> tuple[Result, object, bool]:
        """The one statement path: ``execute``, ``execute_ast``, a
        prepared handle and ``trace`` all end here.  ``prepared``, when
        the caller holds one, keeps the plan / DML program between
        runs; without one both are built for this run and discarded
        (``db.plan_cache.adhoc``).  Returns ``(result, plan root or
        None, plan reused)``."""
        if isinstance(stmt, ast.Select):
            if prepared is not None:
                root, reused = self._prepared_plan(prepared)
            else:
                root, reused = self._plan_adhoc(stmt), False
            return self.execute_plan(root, params, collector), root, reused
        if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            self._subquery_results.clear()
            try:
                if prepared is not None:
                    program = self._prepared_program(prepared)
                else:
                    self._c_plan_adhoc.inc()
                    program = self._compile_dml(
                        bind_statement(stmt, self.catalog.columns)
                    )
                if isinstance(program, _InsertProgram):
                    count = self._run_insert(program, params)
                elif isinstance(stmt, ast.Update):
                    count = self._run_update(program, params)
                else:
                    count = self._run_delete(program, params)
            except Exception:
                # A failed autocommit statement leaves its partial effects
                # in place (no statement-level rollback here), so the WAL
                # terminal must make replay reproduce that partial state.
                # A SimulatedCrash (BaseException) skips this: a crash mid
                # statement means the statement never committed.
                self.transactions.end_statement()
                raise
            self.transactions.end_statement()
            self._executor.stats.statements += 1
            self._maybe_auto_checkpoint()
            return Result([], [], count), None, False
        if not isinstance(
            stmt,
            (ast.CreateTable, ast.CreateIndex, ast.DropTable, ast.DropIndex),
        ):
            raise PlanError(f"unsupported statement {type(stmt).__name__}")
        # DDL is non-transactional: it commits any open transaction,
        # matching the online-DDL behaviour Section 3 discusses.
        self.transactions.commit_if_active()
        self.apply_ddl(stmt)
        self._resize_pool()
        self._maybe_auto_checkpoint()
        return Result([], [], 0), None, False

    def execute_ast(
        self, stmt: ast.Statement, params: Sequence[object] = ()
    ) -> Result:
        """Execute an already-parsed statement — callers holding an AST
        (the schema-mapping layer, migrations) skip the text round
        trip entirely."""
        return self._run_statement(stmt, None, params)[0]

    def _maybe_auto_checkpoint(self) -> None:
        """After every statement that is not a SELECT, whatever its
        entry point (one never runs inside another): checkpoint if
        enough log has accumulated since the last one.  Never after a
        SELECT: it appended no log, so a checkpoint due now was left by
        an earlier commit, and a read must not be the statement that
        pays for it."""
        if self.durability is not None:
            self.durability.maybe_checkpoint(self)

    # -- prepared statements ------------------------------------------------------

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse and bind a statement once for repeated execution (it
        plans on first execution).  The handle is shared with the plan
        cache, so ``prepare`` of a hot statement parses and binds nothing;
        its verdict (:class:`SemanticError` on a binder error) is the kept
        binding's, whether or not ``execute`` cached the text first."""
        stmt, prepared, _ = self._lookup_statement(sql)
        if prepared is None:
            prepared = PreparedStatement(self, stmt, sql)
        self._refuse(self._bound(prepared))
        return prepared

    def prepare_ast(self, stmt: ast.Statement) -> PreparedStatement:
        """Prepare an already-parsed statement (not text-cache keyed —
        the caller owns the handle's lifetime)."""
        prepared = PreparedStatement(self, stmt)
        self._refuse(self._bound(prepared))
        return prepared

    def _bound(self, prepared: PreparedStatement) -> Bound:
        """The handle's binding, bound again only when the catalog moved
        since, which also drops the plan or program built on it."""
        version = self.catalog.version
        if prepared.bound is None or prepared.catalog_version != version:
            if prepared.plan is not None or prepared.program is not None:
                self._c_plan_invalidations.inc()
            prepared.bound = bind_statement(prepared.stmt, self.catalog.columns)
            prepared.plan = prepared.program = None
            prepared.catalog_version = version
        return prepared.bound

    def _refuse(self, bound: Bound) -> None:
        errors = bound.errors
        if errors:
            self._c_rejections.inc()
            raise SemanticError(errors)

    def _execute_prepared(
        self, prepared: PreparedStatement, params: Sequence[object]
    ) -> Result:
        return self._run_statement(prepared.stmt, prepared, params)[0]

    def _prepared_plan(self, prepared: PreparedStatement):
        """The statement's physical plan, reusing the cached one while
        ``(catalog.version, profile)`` still match.  Returns ``(plan,
        reused)``."""
        bound = self._bound(prepared)
        profile = self._planner.profile
        if prepared.plan is not None and prepared.profile is profile:
            return prepared.plan, True
        if prepared.plan is not None:
            self._c_plan_invalidations.inc()
        prepared.plan = self._planner.plan_select(bound)
        prepared.profile = profile
        return prepared.plan, False

    def _prepared_program(
        self, prepared: PreparedStatement
    ) -> "_InsertProgram | _WriteProgram":
        """The handle's DML program, recompiled when the catalog or the
        profile moved (the index its access path chose may be gone, or
        no longer the one a SELECT would take)."""
        bound = self._bound(prepared)
        profile = self._planner.profile
        if prepared.program is not None and prepared.profile is profile:
            return prepared.program
        if prepared.program is not None:
            self._c_plan_invalidations.inc()
        prepared.program = self._compile_dml(bound)
        prepared.profile = profile
        return prepared.program

    # -- SELECT -----------------------------------------------------------------

    def _plan_adhoc(self, select: ast.Select):
        """Plan a SELECT no handle will keep."""
        self._c_plan_adhoc.inc()
        return self._planner.plan_select(select)

    def _execute_subquery(self, select: ast.Select):
        """The value set of an uncorrelated ``IN (SELECT ...)`` as a
        function of the parameters.  The plan lives as long as the
        compiled expression asking (planned on first use, counted as
        ``db.plan_cache.adhoc``, and again when the catalog or profile
        moved); the set is computed once per statement execution."""
        handle = PreparedStatement(self, select)

        def members(params: Sequence[object]) -> set:
            found = self._subquery_results.get(id(handle))
            if found is None:
                root, reused = self._prepared_plan(handle)
                if not reused:
                    self._c_plan_adhoc.inc()
                found = {row[0] for row in self._executor.run(root, params)}
                self._subquery_results[id(handle)] = found
            return found

        return members

    # -- DDL ---------------------------------------------------------------------

    def apply_ddl(
        self,
        stmt: ast.CreateTable | ast.CreateIndex | ast.DropTable | ast.DropIndex,
    ) -> None:
        """Apply one DDL statement to the catalog, then log its SQL text
        — after it applied: failed DDL must never replay.  Recovery's
        redo of a DDL record comes here too (replay logs nothing)."""
        catalog = self.catalog
        if isinstance(stmt, ast.CreateTable):
            catalog.create_table(
                stmt.table,
                [
                    Column(c.name, parse_type(c.type_text), c.not_null)
                    for c in stmt.columns
                ],
            )
        elif isinstance(stmt, ast.CreateIndex):
            catalog.create_index(
                stmt.index, stmt.table, list(stmt.columns), unique=stmt.unique
            )
        elif isinstance(stmt, ast.DropTable):
            catalog.drop_table(stmt.table)
        else:
            catalog.drop_index(stmt.table, stmt.index)
        if self.durability is not None:
            self.durability.log_ddl(stmt.sql())

    def _resize_pool(self) -> None:
        """Meta-data comes out of the same memory the pool uses — the
        Experiment 1 mechanism."""
        available = self.memory_bytes - self.catalog.metadata_bytes
        self.pool.resize(max(1, available // self.page_size))

    # -- DML -------------------------------------------------------------------------

    def _compile_insert(self, stmt: ast.Insert) -> "_InsertProgram":
        """Precompile a bound INSERT's value expressions and column layout;
        the program stays valid until the catalog version changes."""
        table = self.catalog.table(stmt.table)
        compiler = ExprCompiler(Schema([]))
        rows = [[compiler.compile(e) for e in row] for row in stmt.rows]
        positions = (
            tuple(table.column_position(name) for name in stmt.columns)
            if stmt.columns
            else None
        )
        return _InsertProgram(table.name, rows, positions, len(table.columns))

    def _run_insert(
        self, program: "_InsertProgram", params: Sequence[object]
    ) -> int:
        table = self.catalog.table(program.table_name)
        for compiled_row in program.rows:
            values = [fn((), params) for fn in compiled_row]
            if program.positions is not None:
                full = [None] * program.width
                for position, value in zip(program.positions, values):
                    full[position] = value
                values = full
            row = tuple(values)
            rid = table.insert_row(row)
            self.transactions.record_insert(table, rid, row)
        return len(program.rows)

    def _compile_dml(self, bound: Bound) -> "_InsertProgram | _WriteProgram":
        """The program of a bound INSERT, UPDATE or DELETE; raises what
        the binder refused it for."""
        bound.checked()
        if isinstance(bound.stmt, ast.Insert):
            return self._compile_insert(bound.stmt)
        return self._compile_write(bound)

    def _compile_write(self, bound: Bound) -> "_WriteProgram":
        """Precompile an UPDATE/DELETE: its SET closures, and the access
        path the planner picks for ``SELECT * FROM t WHERE <same WHERE>``."""
        table = self.catalog.table(bound.stmt.table)
        binding = table.name.lower()
        schema = Schema([Slot(binding, c.lname) for c in table.columns])
        compiler = ExprCompiler(schema, self._execute_subquery)
        assignments = [
            (table.column_position(col), compiler.compile(expr))
            for col, expr in bound.assignments
        ]
        access = leaf = self._planner.plan_rows(bound.block)
        predicates = access.predicates if isinstance(access, phys.PFilter) else []
        while not isinstance(leaf, (phys.PTableScan, phys.PIndexScan)):
            leaf = leaf.child
        test = compile_filter([*leaf.residual, *predicates])
        return _WriteProgram(
            table.name, assignments, access, leaf, test, bound.param_casts
        )

    def _row_batches(self, table, leaf: phys.PNode, params: Sequence[object]):
        """Lists of ``(rid, row)`` pairs from a write's TBSCAN or IXSCAN,
        counted as the executor counts its scans and FETCHes (a FETCH's
        ``fetch_many`` counts pages as one ``fetch`` per RID does)."""
        stats = self._executor.stats
        if isinstance(leaf, phys.PTableScan):
            scan = table.heap.scan()
            while pairs := list(islice(scan, BATCH_ROWS)):
                stats.rows_scanned += len(pairs)
                yield pairs
            return
        for entries in index_batches(self.catalog, stats, leaf, (), params, BATCH_ROWS):
            rids = [rid for _key, rid in entries]
            stats.rows_fetched += len(rids)
            yield list(zip(rids, table.heap.fetch_many(rids)))

    def _match_rows(
        self, table, program: "_WriteProgram", params: Sequence[object]
    ) -> list:
        """``(rid, row)`` pairs the program's access path yields, tested
        a batch at a time by the filter program a SELECT's scan or FETCH
        runs.  Each row is read once, here, and handed to the write that
        matched it."""
        matched = []
        params = cast_params(program.param_casts, params)
        for pairs in self._row_batches(table, program.leaf, params):
            if program.test is not None:
                # The filter keeps some of the very row objects it is given.
                rows = program.test([row for _rid, row in pairs], params)
                kept = set(map(id, rows))
                pairs = [pair for pair in pairs if id(pair[1]) in kept]
            matched += pairs
        return matched

    def _run_update(
        self, program: "_WriteProgram", params: Sequence[object]
    ) -> int:
        table = self.catalog.table(program.table_name)
        matched = self._match_rows(table, program, params)
        assigned = [position for position, _ in program.assignments]
        for rid, old_row in matched:
            new_row = list(old_row)
            # SET expressions all see the pre-update row, per SQL.
            for position, compiled in program.assignments:
                new_row[position] = compiled(old_row, params)
            new_rid = table.update_row(rid, old_row, new_row, assigned)
            self.transactions.record_update(
                table, rid, old_row, new_rid, new_row, assigned
            )
        return len(matched)

    def _run_delete(
        self, program: "_WriteProgram", params: Sequence[object]
    ) -> int:
        table = self.catalog.table(program.table_name)
        matched = self._match_rows(table, program, params)
        for rid, row in matched:
            table.delete_row(rid, row)
            self.transactions.record_delete(table, rid, row)
        return len(matched)
