"""Pass 2 — tenant-isolation verification of physical statements.

With shape-shared prepared statements (PR 2) one physical statement
serves every tenant, so a single missing ``tenant = ?`` conjunct leaks
every tenant at once.  This pass *proves* the guard discipline
statically: every scan of, join branch over, or DML write-set on a
shared physical table must be dominated by an equality conjunct on each
of the table's meta-data discriminator columns (Tenant, and Table /
Chunk / Col where the layout uses them), at the top level of the
predicate (a guard inside an OR branch dominates nothing).

The discipline differs by statement provenance:

* directly-executed statements (backfills, migration, ``drop_tenant``)
  carry *literal* meta values — the literal must match the tenant the
  statement was issued for;
* the DML fan-out runs prepared, shape-shared templates whose tenant
  guard is a parameter; they are verified as *recorded* executions, the
  value bound to the guard must be the tenant the statement was issued
  for (:attr:`GuardContext.bound_params`);
* shape-shared cached statements must carry hidden *parameters*
  allocated by :class:`~repro.core.transform.query.TenantParamAllocator`
  in the slot range ``[base_params, base_params + count)`` — a literal
  tenant id frozen into a shared statement serves the wrong tenant for
  everyone else (rule ISO003);
* fused cross-tenant statements (MTSQL ``FOR TENANTS``) declare a
  tenant *set*: every tenant guard must be a literal equality or a
  literal ``tenant IN (...)`` list dominated by the declared set.  This
  is a rule of its own (ISO006), not an exemption — a fused statement
  reading one tenant more than the clause names is exactly the leak the
  single-tenant rules exist to prevent, widened by parameterization.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.plan.logical import split_conjuncts
from ..engine.sql import ast
from .findings import AnalysisReport, Finding

#: The meta column whose conjunct carries tenant identity.
TENANT_COLUMN = "tenant"


@dataclass(frozen=True)
class GuardContext:
    """How one statement was produced, deciding the guard discipline."""

    #: Tenant the statement was issued for (literals must match);
    #: ``None`` when unknown (skip the ISO005 value check).
    expected_tenant: int | None = None
    #: ``(start, stop)`` slot range of hidden tenant parameters for
    #: shape-shared cached statements; ``None`` for direct statements.
    tenant_param_range: tuple[int, int] | None = None
    #: Declared tenant set of a fused cross-tenant statement: tenant
    #: guards must be literals (or literal IN-lists) dominated by this
    #: set (rule ISO006); ``None`` for single-tenant statements.
    tenant_set: tuple[int, ...] | None = None
    #: The parameters a *recorded* statement ran with: a ``tenant = ?``
    #: guard is then judged by the value bound to it, which must be
    #: ``expected_tenant`` — the discipline of the DML templates, whose
    #: every execution is recorded; ``None`` for statements checked
    #: without having run.
    bound_params: tuple | None = None


class IsolationVerifier:
    """Checks statements against a shared-table map."""

    def __init__(self, shared: dict[str, frozenset[str]]) -> None:
        self.shared = {name.lower(): cols for name, cols in shared.items()}

    # -- public ------------------------------------------------------------

    def check_statement(
        self,
        stmt: ast.Statement,
        context: GuardContext | None = None,
        locus: str = "",
    ) -> AnalysisReport:
        report = AnalysisReport(checked=1)
        self._report = report
        self._context = context or GuardContext()
        self._locus = locus or stmt.sql()
        if isinstance(stmt, ast.Select):
            self._check_select(stmt)
        elif isinstance(stmt, ast.Insert):
            self._check_insert(stmt)
        elif isinstance(stmt, (ast.Update, ast.Delete)):
            self._check_write(stmt)
        return report

    # -- helpers -----------------------------------------------------------

    def _flag(self, rule_id: str, message: str) -> None:
        self._report.add(Finding(rule_id, message, self._locus))

    def _guard_ok(self, rhs: ast.Expr, table: str, meta_col: str) -> bool:
        """Whether one ``meta_col = rhs`` conjunct is an acceptable guard."""
        context = self._context
        is_tenant = meta_col == TENANT_COLUMN
        if isinstance(rhs, ast.InList):
            # A tenant IN-list dominates only for declared cross-tenant
            # statements; anywhere else it is no guard at all.
            if not is_tenant or context.tenant_set is None or rhs.negated:
                return False
            values = [
                item.value
                for item in rhs.items
                if isinstance(item, ast.Literal) and item.value is not None
            ]
            if len(values) != len(rhs.items):
                return False
            outside = sorted(
                set(values) - set(context.tenant_set), key=repr
            )
            if outside:
                self._flag(
                    "ISO006",
                    f"tenant IN-list on {table} includes {outside} beyond "
                    f"the declared tenant set {sorted(context.tenant_set)}",
                )
            return True
        if isinstance(rhs, ast.Literal):
            if rhs.value is None:
                return False
            if (
                is_tenant
                and context.tenant_set is not None
                and rhs.value not in context.tenant_set
            ):
                self._flag(
                    "ISO006",
                    f"tenant guard on {table} binds {rhs.value!r}, outside "
                    f"the declared tenant set {sorted(context.tenant_set)}",
                )
                return True
            if is_tenant and context.tenant_param_range is not None:
                self._flag(
                    "ISO003",
                    f"shape-shared statement hard-codes tenant "
                    f"{rhs.value!r} on {table}",
                )
                return True  # guarded, but for the wrong discipline
            if (
                is_tenant
                and context.expected_tenant is not None
                and rhs.value != context.expected_tenant
            ):
                self._flag(
                    "ISO005",
                    f"{table}.{meta_col} guard binds {rhs.value!r}, "
                    f"statement issued for tenant {context.expected_tenant}",
                )
            return True
        if isinstance(rhs, ast.Param):
            if is_tenant and context.tenant_set is not None:
                # Cross-tenant domination must be checkable statically:
                # a parameter slot could widen the set at bind time.
                self._flag(
                    "ISO006",
                    f"tenant guard on {table} is a parameter; cross-tenant "
                    f"statements must bind the declared set as literals",
                )
                return True
            if is_tenant and context.tenant_param_range is not None:
                start, stop = context.tenant_param_range
                if not (start <= rhs.index < stop):
                    self._flag(
                        "ISO003",
                        f"tenant guard on {table} uses parameter "
                        f"{rhs.index}, outside the allocator range "
                        f"[{start}, {stop})",
                    )
                return True
            if is_tenant and context.bound_params is not None:
                bound = (
                    context.bound_params[rhs.index]
                    if rhs.index < len(context.bound_params)
                    else None
                )
                if bound is None:
                    return False
                if (
                    context.expected_tenant is not None
                    and bound != context.expected_tenant
                ):
                    self._flag(
                        "ISO005",
                        f"{table}.{meta_col} guard is bound to {bound!r}, "
                        f"statement issued for tenant "
                        f"{context.expected_tenant}",
                    )
                return True
            if is_tenant:
                self._flag(
                    "ISO001",
                    f"tenant guard on {table} is an unmanaged parameter "
                    f"(no allocator binds it to the tenant)",
                )
                return True  # structurally guarded; provenance flagged
            return True
        return False

    def _collect_guards(
        self, conjuncts: list[ast.Expr]
    ) -> dict[tuple[str | None, str], ast.Expr]:
        """Top-level ``column = constant`` conjuncts by (binding, column).

        ``column IN (...)`` conjuncts are collected as the
        :class:`~repro.engine.sql.ast.InList` node itself — whether an
        IN-list counts as a guard is :meth:`_guard_ok`'s call (only the
        tenant column of declared cross-tenant statements)."""
        guards: dict[tuple[str | None, str], ast.Expr] = {}
        for conjunct in conjuncts:
            if isinstance(conjunct, ast.InList) and isinstance(
                conjunct.operand, ast.ColumnRef
            ):
                ref = conjunct.operand
                binding = ref.table.lower() if ref.table else None
                guards.setdefault((binding, ref.column.lower()), conjunct)
                continue
            if not (
                isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
            ):
                continue
            for ref, rhs in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if isinstance(ref, ast.ColumnRef) and isinstance(
                    rhs, (ast.Literal, ast.Param)
                ):
                    binding = ref.table.lower() if ref.table else None
                    guards.setdefault((binding, ref.column.lower()), rhs)
        return guards

    # -- SELECT ------------------------------------------------------------

    def _check_select(self, select: ast.Select) -> None:
        conjuncts = split_conjuncts(select.where)
        guards = self._collect_guards(conjuncts)
        single = len(select.sources) == 1
        for source in select.sources:
            if isinstance(source, ast.SubquerySource):
                self._check_select(source.select)
                continue
            required = self.shared.get(source.name.lower())
            if required is None:
                continue
            binding = source.binding.lower()
            for meta_col in sorted(required):
                rhs = guards.get((binding, meta_col))
                if rhs is None and single:
                    rhs = guards.get((None, meta_col))
                if rhs is None or not self._guard_ok(
                    rhs, source.name, meta_col
                ):
                    rule = "ISO001" if meta_col == TENANT_COLUMN else "ISO004"
                    self._flag(
                        rule,
                        f"scan of shared table {source.name} (as "
                        f"{source.binding}) lacks a dominating "
                        f"{meta_col} = <const> conjunct",
                    )
        for conjunct in conjuncts:
            self._walk_subqueries(conjunct)
        if select.having is not None:
            self._walk_subqueries(select.having)

    def _walk_subqueries(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.InSubquery):
            self._walk_subqueries(expr.operand)
            self._check_select(expr.subquery)
        elif isinstance(expr, ast.BinaryOp):
            self._walk_subqueries(expr.left)
            self._walk_subqueries(expr.right)
        elif isinstance(expr, (ast.UnaryOp, ast.IsNull)):
            self._walk_subqueries(expr.operand)
        elif isinstance(expr, ast.FuncCall):
            for arg in expr.args:
                self._walk_subqueries(arg)
        elif isinstance(expr, ast.InList):
            self._walk_subqueries(expr.operand)
            for item in expr.items:
                self._walk_subqueries(item)

    # -- DML ---------------------------------------------------------------

    def _check_insert(self, insert: ast.Insert) -> None:
        required = self.shared.get(insert.table.lower())
        if required is None:
            return
        positions = {name.lower(): i for i, name in enumerate(insert.columns)}
        for meta_col in sorted(required):
            position = positions.get(meta_col)
            if position is None:
                self._flag(
                    "ISO002",
                    f"INSERT INTO shared table {insert.table} omits "
                    f"meta column {meta_col}",
                )
                continue
            for row in insert.rows:
                if position >= len(row):
                    continue  # arity error; the semantic pass owns it
                value = row[position]
                if not self._guard_ok(value, insert.table, meta_col):
                    self._flag(
                        "ISO002",
                        f"INSERT INTO shared table {insert.table} writes a "
                        f"non-constant {meta_col}",
                    )

    def _check_write(self, stmt: ast.Update | ast.Delete) -> None:
        required = self.shared.get(stmt.table.lower())
        if required is None:
            if isinstance(stmt, ast.Update):
                for _, value in stmt.assignments:
                    self._walk_subqueries(value)
            if stmt.where is not None:
                self._walk_subqueries(stmt.where)
            return
        conjuncts = split_conjuncts(stmt.where)
        guards = self._collect_guards(conjuncts)
        verb = "UPDATE" if isinstance(stmt, ast.Update) else "DELETE"
        for meta_col in sorted(required):
            rhs = guards.get((None, meta_col)) or guards.get(
                (stmt.table.lower(), meta_col)
            )
            if rhs is None or not self._guard_ok(rhs, stmt.table, meta_col):
                rule = "ISO002" if meta_col == TENANT_COLUMN else "ISO004"
                self._flag(
                    rule,
                    f"{verb} on shared table {stmt.table} lacks a "
                    f"dominating {meta_col} = <const> conjunct",
                )
        for conjunct in conjuncts:
            self._walk_subqueries(conjunct)
