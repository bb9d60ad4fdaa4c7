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
from typing import Sequence

from .catalog import (
    Catalog,
    Column,
    IndexInfo,
    TABLE_METADATA_COST,
)
from .durability import DurabilityManager, DurabilityOptions
from .durability.wal import WalStats
from .errors import EngineError, PlanError, SemanticError
from .expr import Compiled, ExprCompiler, Schema, Slot
from .feedback import CardinalityFeedback
from .heap import InsertStrategy
from .locks import LockTable
from .observability import (
    AnalyzeCollector,
    CounterWindow,
    MetricsRegistry,
    QueryTrace,
    render_analyzed_plan,
)
from .optimizer import OptimizerProfile, Planner
from .pager import DEFAULT_PAGE_SIZE, BufferPool, PoolStats
from .plan.logical import split_conjuncts
from .sql import ast
from .sql.parser import parse_statement
from .statement_cache import LruCache, PREPARABLE, PreparedStatement
from .transactions import TransactionManager
from .values import parse_type
from .vexecutor import ExecStats, VectorizedExecutor

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
    #: One closure per WHERE conjunct.
    predicate: list[Compiled]
    #: Per ``column = <row-independent expr>`` conjunct, its usable
    #: orientations as ``(column, compiled constant)``.  Evaluated
    #: against the parameters of each run; one that raises
    #: :class:`EngineError` is skipped, so the usable-column set — and
    #: with it the index — can differ between runs.
    eq_candidates: list[list[tuple[str, Compiled]]]
    #: Index chosen per usable-column set, filled on first use.
    indexes: dict[tuple[str, ...], IndexInfo | None]


class Database:
    """An instrumented single-node relational database."""

    def __init__(
        self,
        *,
        memory_bytes: int = DEFAULT_MEMORY,
        profile: OptimizerProfile = OptimizerProfile.ADVANCED,
        table_metadata_cost: int = TABLE_METADATA_COST,
        insert_strategy: InsertStrategy = InsertStrategy.FIRST_FIT,
        prefix_compression: bool = True,
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
            prefix_compression=prefix_compression,
        )
        self.locks = LockTable(metrics=self.metrics)
        self.transactions = TransactionManager(
            metrics=self.metrics, durability=self.durability
        )
        #: Observed selectivities fed back into the planner (pluggable —
        #: see the ``feedback`` property).
        self._feedback = CardinalityFeedback(metrics=self.metrics)
        self._planner = Planner(
            self.catalog,
            profile,
            self._execute_subquery,
            feedback=self._feedback,
        )
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
        #: Dynamic sanitizer (``sanitize=True``, or the REPRO_SANITIZE
        #: environment variable when the argument is left at ``None``).
        #: Attached before recovery so replayed work runs instrumented
        #: too; the sanitizer suppresses write-ahead checks during
        #: replay itself.
        from ..analysis.sanitizers import Sanitizer, env_sanitize_enabled

        if sanitize is None:
            sanitize = env_sanitize_enabled()
        self.sanitizer: Sanitizer | None = None
        if sanitize:
            self.sanitizer = Sanitizer(metrics=self.metrics)
            self.sanitizer.attach(self)
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

    @property
    def feedback(self) -> CardinalityFeedback:
        """The cardinality-feedback store the planner consults.
        Pluggable: assigning a different store (or ``None`` to disable
        feedback) re-points the planner immediately; cached plans
        re-plan lazily via their recorded feedback version."""
        return self._feedback

    @feedback.setter
    def feedback(self, store: CardinalityFeedback | None) -> None:
        self._feedback = store
        self._planner.feedback = store

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
        columns = [slot.name for slot in root.schema.slots]
        return Result(columns, rows, len(rows))

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
        the buffer-pool / executor / lock / WAL deltas it caused.

        SELECTs additionally capture the EXPLAIN ANALYZE operator tree
        unless ``analyze=False``.  The experiments build Figure 10 and
        Table 2 from these traces instead of global counter snapshots.
        """
        window = CounterWindow(
            pool=self.pool.stats,
            exec=self._executor.stats,
            locks=self.locks.stats,
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
                    program = self._compile_dml(stmt)
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
        if isinstance(stmt, ast.CreateTable):
            self._run_create_table(stmt)
        elif isinstance(stmt, ast.CreateIndex):
            self.catalog.create_index(
                stmt.index, stmt.table, list(stmt.columns), unique=stmt.unique
            )
            self._log_ddl(
                op="create_index",
                index=stmt.index,
                table=stmt.table,
                columns=list(stmt.columns),
                unique=stmt.unique,
            )
        elif isinstance(stmt, ast.DropTable):
            self.catalog.drop_table(stmt.table)
            self._log_ddl(op="drop_table", table=stmt.table)
        else:
            self.catalog.drop_index(stmt.table, stmt.index)
            self._log_ddl(op="drop_index", table=stmt.table, index=stmt.index)
        self._resize_pool()
        self._maybe_auto_checkpoint()
        return Result([], [], 0), None, False

    def _log_ddl(self, **ddl) -> None:
        """WAL a DDL statement *after* it applied — failed DDL must
        never replay."""
        if self.durability is not None:
            self.durability.log_ddl(ddl)

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
        """Parse (and, on first execution, plan) a statement once for
        repeated execution.  The handle is shared with the internal plan
        cache, so ``prepare`` of an already-hot statement is free."""
        if self._statements.enabled:
            prepared = self._statements.get(sql)
            if prepared is not None:
                return prepared
        stmt = parse_statement(sql)
        prepared = PreparedStatement(self, stmt, sql)
        self.analyze_statement(stmt, sql)
        self._statements.put(sql, prepared)
        return prepared

    def prepare_ast(self, stmt: ast.Statement) -> PreparedStatement:
        """Prepare an already-parsed statement (not text-cache keyed —
        the caller owns the handle's lifetime)."""
        prepared = PreparedStatement(self, stmt)
        self.analyze_statement(stmt)
        return prepared

    def analyze_statement(self, stmt: ast.Statement, sql: str = ""):
        """Run the static semantic analyzer over one statement.

        Called on every ``prepare`` so semantically invalid statements
        are rejected with a rule id *before* planning and before they
        can poison the plan cache.  Returns the (clean) report; raises
        :class:`SemanticError` when any ERROR-severity finding exists.
        """
        from ..analysis.semantic import CatalogProvider, SemanticAnalyzer

        locus = sql or type(stmt).__name__
        report = SemanticAnalyzer(CatalogProvider(self.catalog)).analyze(
            stmt, locus
        )
        if not report.ok:
            self._c_rejections.inc()
            raise SemanticError(report.errors)
        return report

    def _execute_prepared(
        self, prepared: PreparedStatement, params: Sequence[object]
    ) -> Result:
        return self._run_statement(prepared.stmt, prepared, params)[0]

    def _prepared_plan(self, prepared: PreparedStatement):
        """The statement's physical plan, reusing the cached one while
        ``(catalog.version, profile, feedback version)`` still match.
        Returns ``(plan, reused)``."""
        version = self.catalog.version
        profile = self._planner.profile
        feedback_version = (
            self._feedback.version if self._feedback is not None else None
        )
        if (
            prepared.plan is not None
            and prepared.catalog_version == version
            and prepared.profile is profile
            and prepared.feedback_version == feedback_version
        ):
            return prepared.plan, True
        if prepared.plan is not None:
            self._c_plan_invalidations.inc()
        prepared.plan = self._planner.plan_select(prepared.stmt)
        prepared.catalog_version = version
        prepared.profile = profile
        prepared.feedback_version = feedback_version
        return prepared.plan, False

    def _prepared_program(
        self, prepared: PreparedStatement
    ) -> "_InsertProgram | _WriteProgram":
        """The handle's DML program, recompiled when the catalog moved
        (an index it chose may be gone, a better one may exist)."""
        version = self.catalog.version
        program = prepared.program
        if program is not None and prepared.catalog_version == version:
            return program
        if program is not None:
            self._c_plan_invalidations.inc()
        program = self._compile_dml(prepared.stmt)
        prepared.program = program
        prepared.catalog_version = version
        return program

    # -- SELECT -----------------------------------------------------------------

    def _plan_adhoc(self, select: ast.Select):
        """Plan a SELECT no handle will keep."""
        self._c_plan_adhoc.inc()
        return self._planner.plan_select(select)

    def _execute_subquery(self, select: ast.Select, params: Sequence[object]) -> set:
        """The value set of an uncorrelated ``IN (SELECT ...)``, run
        once per statement execution: compiled expressions outlive the
        execution (cached plans, DML programs), the set must not."""
        members = self._subquery_results.get(id(select))
        if members is None:
            root = self._plan_adhoc(select)
            members = {row[0] for row in self._executor.run(root, params)}
            self._subquery_results[id(select)] = members
        return members

    # -- DDL ---------------------------------------------------------------------

    def _run_create_table(self, stmt: ast.CreateTable) -> None:
        columns = [
            Column(c.name, parse_type(c.type_text), c.not_null) for c in stmt.columns
        ]
        self.catalog.create_table(stmt.table, columns, storage=stmt.storage)
        self._log_ddl(
            op="create_table",
            table=stmt.table,
            columns=[(c.name, c.type_text, c.not_null) for c in stmt.columns],
            storage=stmt.storage,
        )

    def _resize_pool(self) -> None:
        """Meta-data comes out of the same memory the pool uses — the
        Experiment 1 mechanism."""
        available = self.memory_bytes - self.catalog.metadata_bytes
        self.pool.resize(max(1, available // self.page_size))

    # -- DML -------------------------------------------------------------------------

    def _compile_insert(self, stmt: ast.Insert) -> "_InsertProgram":
        """Precompile an INSERT's value expressions and column layout;
        the program stays valid until the catalog version changes."""
        table = self.catalog.table(stmt.table)
        compiler = ExprCompiler(Schema([]))
        expected = len(stmt.columns) if stmt.columns else len(table.columns)
        rows = []
        for row_exprs in stmt.rows:
            if len(row_exprs) != expected:
                raise PlanError("INSERT arity mismatch")
            rows.append([compiler.compile(e) for e in row_exprs])
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

    def _compile_dml(
        self, stmt: ast.Insert | ast.Update | ast.Delete
    ) -> "_InsertProgram | _WriteProgram":
        if isinstance(stmt, ast.Insert):
            return self._compile_insert(stmt)
        return self._compile_write(stmt)

    def _compile_write(self, stmt: ast.Update | ast.Delete) -> "_WriteProgram":
        """Precompile an UPDATE/DELETE: SET and conjunct closures, and
        the constant-equality conjuncts an index prefix can come from."""
        table = self.catalog.table(stmt.table)
        binding = table.name.lower()
        schema = Schema([Slot(binding, c.lname) for c in table.columns])
        compiler = ExprCompiler(schema, self._execute_subquery)
        assignments = (
            [
                (table.column_position(col), compiler.compile(expr))
                for col, expr in stmt.assignments
            ]
            if isinstance(stmt, ast.Update)
            else []
        )
        conjuncts = split_conjuncts(stmt.where)
        const_compiler = ExprCompiler(Schema([]), self._execute_subquery)
        eq_candidates = []
        for conjunct in conjuncts:
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            alternatives = []
            for lhs, rhs in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if (
                    isinstance(lhs, ast.ColumnRef)
                    and table.has_column(lhs.column)
                    and not isinstance(rhs, ast.ColumnRef)
                ):
                    try:
                        constant = const_compiler.compile(rhs)
                    except EngineError:
                        continue  # reads a column: not a constant
                    alternatives.append((lhs.column.lower(), constant))
            if alternatives:
                eq_candidates.append(alternatives)
        predicate = [compiler.compile(c) for c in conjuncts]
        return _WriteProgram(
            table.name, assignments, predicate, eq_candidates, {}
        )

    def _match_rows(
        self, table, program: "_WriteProgram", params: Sequence[object]
    ) -> list:
        """``(rid, row)`` pairs matching a DML predicate, using the best
        index available.  Each row is read once, here, and handed to
        the write that matched it."""
        eq_values: dict[str, object] = {}
        for alternatives in program.eq_candidates:
            for column, constant in alternatives:
                try:
                    value = constant((), params)
                except EngineError:
                    continue
                eq_values.setdefault(column, value)
                break
        predicate = program.predicate

        info = None
        if eq_values:
            usable = tuple(eq_values)
            if usable not in program.indexes:
                program.indexes[usable] = table.find_index(usable)
            info = program.indexes[usable]
        matched = []
        if info is not None:
            prefix = []
            for col in info.column_names:
                if col.lower() in eq_values:
                    prefix.append(eq_values[col.lower()])
                else:
                    break
            self._executor.stats.index_lookups += 1
            if info.unique and len(prefix) == len(info.column_names):
                rid = info.btree.search_one(tuple(prefix))
                rids = () if rid is None else (rid,)
            else:
                # Batch size 1: each row is fetched as its entry arrives.
                rids = (b[0][1] for b in info.btree.prefix_batches(tuple(prefix), 1))
            for rid in rids:
                row = table.heap.fetch(rid)
                self._executor.stats.rows_fetched += 1
                if all(p(row, params) is True for p in predicate):
                    matched.append((rid, row))
        else:
            for rid, row in table.heap.scan():
                self._executor.stats.rows_scanned += 1
                if all(p(row, params) is True for p in predicate):
                    matched.append((rid, row))
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
