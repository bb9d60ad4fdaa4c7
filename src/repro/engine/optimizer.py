"""Query planner with two optimizer profiles.

The paper's Test 1 (Section 6.2) contrasts a *sophisticated* optimizer
(DB2) with a *less-sophisticated* one (MySQL).  We model both as
profiles of one planner:

* :attr:`OptimizerProfile.ADVANCED` — unnests FROM-subqueries
  (Fegaras–Maier rule N8), propagates equality predicates transitively
  (so a constant bound to ``p.id`` also restricts ``c.parent``, as DB2
  does in Figure 8), picks the index with the longest usable equality
  prefix, and orders joins greedily by estimated cardinality.

* :attr:`OptimizerProfile.SIMPLE` — materializes FROM-subqueries before
  applying outer predicates, keeps the textual FROM order (except that
  the driving table is the one named by the *textually first* indexable
  constant predicate), and selects indexes by first-come predicate
  order.  Predicate order in the SQL text therefore changes the plan,
  reproducing the ~5x effect the paper reports for MySQL.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .catalog import Catalog, Table
from .errors import EngineError, PlanError
from .expr import (
    ExprCompiler,
    GroupedScope,
    Schema,
    Slot,
    SubqueryHook,
    referenced_bindings,
)
from .plan.bind import Bound, bind_statement
from .plan.logical import (
    QueryBlock,
    build_block,
    flatten_block,
    output_position,
)
from .plan import physical as phys
from .sql import ast
from .values import TypeKind


class OptimizerProfile(enum.Enum):
    SIMPLE = "simple"
    ADVANCED = "advanced"


#: Work units per row for one sequential scan.  A scan evaluates
#: residual predicates as comprehensions over native column lists and
#: assembles only surviving rows, so its per-row unit is well under a
#: tuple-at-a-time unit; 0.25 is calibrated against the bench_columnar
#: microbenchmarks (selective meta-predicate scans over chunk tables).
_SCAN_UNIT = 0.25


def _seq_scan_cost(table: Table) -> float:
    """Work units for one full sequential scan of ``table``."""
    return float(max(1, table.row_count)) * _SCAN_UNIT


@dataclass(frozen=True)
class PlanDirectives:
    """Pin parts of a plan, for plan-space enumeration.

    Positions index the top-level FROM list *after* profile-dependent
    flattening (see :meth:`Planner.source_count`), in textual order —
    binding names are not stable across planning calls (flattening
    renames shadowed inner bindings with a global counter), positions
    are.  ``None`` entries leave the planner's own choice in place, so
    ``PlanDirectives()`` reproduces the default plan.  Directives apply
    to the outermost query block only; derived tables plan normally.
    """

    #: Permutation of FROM positions to join in, or None for the
    #: profile's own ordering.
    join_order: tuple[int, ...] | None = None
    #: Per-position access forcing: "scan" forbids index access,
    #: "index"/None keep the default selection.
    access_paths: tuple[str | None, ...] = ()
    #: Per-position join method forcing for non-driving sources:
    #: "nl" or "hash"; None keeps the cost-based choice.
    join_methods: tuple[str | None, ...] = ()

    def access_for(self, position: int) -> str | None:
        if position < len(self.access_paths):
            return self.access_paths[position]
        return None

    def join_for(self, position: int) -> str | None:
        if position < len(self.join_methods):
            return self.join_methods[position]
        return None


# ---------------------------------------------------------------------------
# helpers on expressions
# ---------------------------------------------------------------------------


def _is_constant(expr: ast.Expr) -> bool:
    """True when the expression references no table at all."""
    return not referenced_bindings(expr)


def _eq_sides(conjunct: ast.Expr) -> tuple[ast.Expr, ast.Expr] | None:
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
        return conjunct.left, conjunct.right
    return None


_RANGE_OPS = {"<", "<=", ">", ">="}
#: A comparison read the other way round: ``5 < c.x`` is ``c.x > 5``.
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
#: Column types whose values are counted, not measured, within a range:
#: ``x BETWEEN 2 AND 4`` keeps 3 of the integers 0..6.
_DISCRETE = {TypeKind.INTEGER, TypeKind.BIGINT, TypeKind.DATE}


def _column_of(expr: ast.Expr, binding: str) -> bool:
    return (
        isinstance(expr, ast.ColumnRef)
        and expr.table is not None
        and expr.table.lower() == binding
    )


def _comparison(expr: ast.Expr, binding: str) -> tuple[str, str, ast.Expr] | None:
    """``(column, op, other side)`` for ``binding.column <op> e`` written
    either way round, where ``e`` references no table; else ``None``."""
    if not (isinstance(expr, ast.BinaryOp) and expr.op in _FLIP):
        return None
    for column, other, op in (
        (expr.left, expr.right, expr.op),
        (expr.right, expr.left, _FLIP[expr.op]),
    ):
        if _column_of(column, binding) and _is_constant(other):
            return column.column.lower(), op, other
    return None


def _in_column(expr: ast.Expr, binding: str) -> str | None:
    """The column of ``binding.column IN (constants)``, else ``None``."""
    if (
        isinstance(expr, ast.InList)
        and not expr.negated
        and _column_of(expr.operand, binding)
        and all(_is_constant(item) for item in expr.items)
    ):
        return expr.operand.column.lower()
    return None


def _in_lists(
    conjuncts: Sequence[_Conjunct], binding: str
) -> dict[str, ast.InList]:
    """Column -> the textually first :func:`_in_column` list on it."""
    lists: dict[str, ast.InList] = {}
    for conjunct in sorted(conjuncts, key=lambda c: c.order):
        column = _in_column(conjunct.expr, binding)
        if column is not None:
            lists.setdefault(column, conjunct.expr)
    return lists


def _literal(table: Table, column: str, expr) -> object:
    """``expr``'s value as ``column`` would store it, or ``None`` when it
    is not a literal, is NULL, or does not fit the column's type."""
    if not isinstance(expr, ast.Literal) or expr.value is None:
        return None
    try:
        return table.columns[table.column_position(column)].type.check(expr.value)
    except EngineError:
        return None


def _position(value) -> float | None:
    """Where a value sits on its column's number line (dates by day);
    ``None`` for text and booleans, which have no share of a span."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, datetime.date):
        return value.toordinal()
    return None


def _tighter(pick, old, new):
    return new if old is None else old if new is None else pick(old, new)


def _range_bound(table: Table, binding: str, expr: ast.Expr):
    """``(column, low, high)`` for a range conjunct against a literal the
    statistics can place — inclusive bounds as positions, the open side
    ``None`` — else ``None``."""
    compared = _comparison(expr, binding)
    if compared is None or compared[1] not in _RANGE_OPS:
        return None
    column, op, other = compared
    value = _position(_literal(table, column, other))
    if value is None:
        return None
    step = _step(table, column)
    if op == ">":
        return column, value + step, None
    if op == ">=":
        return column, value, None
    if op == "<":
        return column, None, value - step
    return column, None, value


def _step(table: Table, column: str) -> int:
    kind = table.columns[table.column_position(column)].type.kind
    return 1 if kind in _DISCRETE else 0


def _range_fraction(table: Table, column: str, low, high) -> float:
    """Share of ``column``'s [min, max] that ``[low, high]`` covers."""
    stats = table.column_stats(column)
    if stats.ndv == 0:
        return 0.0
    first, last = _position(stats.low), _position(stats.high)
    step = _step(table, column)
    low = first if low is None else max(low, first)
    high = last if high is None else min(high, last)
    if high < low:
        return 0.0
    span = last - first + step
    return min(1.0, (high - low + step) / span) if span > 0 else 1.0


#: Operators that neither add nor drop rows — they inherit their child's
#: cardinality estimate so EXPLAIN shows an estimate on every
#: row-preserving operator.  GRPBY/DISTINCT reduce by an unknown factor
#: and deliberately stay unestimated.
_PASS_THROUGH = (phys.PReturn, phys.PSort, phys.PProject, phys.PMaterialize)


def _inherit_estimates(root: phys.PNode) -> None:
    def visit(node: phys.PNode) -> None:
        for child in node.children():
            visit(child)
        if node.est_rows is not None:
            return
        if isinstance(node, _PASS_THROUGH):
            kids = node.children()
            if kids:
                node.est_rows = kids[0].est_rows
        elif isinstance(node, phys.PLimit):
            child_est = node.child.est_rows
            if child_est is not None:
                node.est_rows = min(float(node.limit), child_est)

    visit(root)


@dataclass
class _Entry:
    """One FROM source being planned."""

    binding: str
    schema: Schema
    table: Table | None = None  # None for derived tables
    derived_plan: phys.PNode | None = None
    est_rows: float = 1.0
    #: Index into the block's FROM list (what PlanDirectives key on).
    position: int = 0


@dataclass
class _Conjunct:
    expr: ast.Expr
    order: int  # textual position
    bindings: frozenset[str] = frozenset()
    derived: bool = False  # added by transitive propagation

    @property
    def sql(self) -> str:
        return self.expr.sql()


class Planner:
    """Plans SELECT statements into physical trees."""

    def __init__(
        self,
        catalog: Catalog,
        profile: OptimizerProfile = OptimizerProfile.ADVANCED,
        subquery_executor: SubqueryHook | None = None,
    ) -> None:
        self._catalog = catalog
        self.profile = profile
        self._subquery_executor = subquery_executor
        #: Directives for the block currently being planned (top of
        #: stack); derived tables push None so directives never leak
        #: into inner blocks.
        self._directive_stack: list[PlanDirectives | None] = []

    # -- public entry ------------------------------------------------------

    def plan_select(
        self,
        select: ast.Select | Bound,
        directives: PlanDirectives | None = None,
    ) -> phys.PReturn:
        """Plan a SELECT, binding it first unless it comes bound (a
        prepared handle keeps its binding until the catalog moves)."""
        bound = (
            select
            if isinstance(select, Bound)
            else bind_statement(select, self._catalog.columns)
        )
        if bound.stmt.tenants is not None:
            raise PlanError(
                "FOR TENANTS is a multi-tenant dialect clause; execute it "
                "through MultiTenantDatabase.execute_cross, not the raw engine"
            )
        block = self._unnested(bound.checked().block)
        self._directive_stack.append(directives)
        try:
            root = self._plan_block(block)
        finally:
            self._directive_stack.pop()
        ret = phys.PReturn(
            schema=root.schema, child=root, param_casts=bound.param_casts
        )
        _inherit_estimates(ret)
        return ret

    def plan_rows(self, block: QueryBlock) -> phys.PNode:
        """The access path of an UPDATE's or DELETE's rows (its bound
        FROM and WHERE, :attr:`Bound.block`): the scan or index probe
        :meth:`_access` picks for ``SELECT * FROM table WHERE ...``,
        under a FILTER for conjuncts that bind no column (``? = 1``).
        A write thus chooses the index a read of the same WHERE does."""
        entry = self._make_entry(block.sources[0])
        conjuncts = self._classify(block.conjuncts)
        if self.profile is OptimizerProfile.ADVANCED:
            conjuncts = self._propagate_equalities(conjuncts)
        consumed: set[int] = set()
        # Every column, as for ``SELECT *``: the write reads whole rows.
        needed = {entry.binding: {slot.name for slot in entry.schema.slots}}
        node = self._access(entry, conjuncts, Schema([]), None, consumed, needed)
        return self._apply_filters(node, conjuncts, {entry.binding}, consumed)

    def source_count(self, select: ast.Select) -> int:
        """How many FROM sources the outermost block has after this
        profile's flattening — the position space
        :class:`PlanDirectives` index into."""
        bound = bind_statement(select, self._catalog.columns).checked()
        return len(self._unnested(bound.block).sources)

    def _unnested(self, block: QueryBlock) -> QueryBlock:
        """A bound block as this profile plans it: ADVANCED unnests its
        FROM subqueries (Fegaras–Maier N8), SIMPLE keeps them."""
        if self.profile is OptimizerProfile.ADVANCED:
            return flatten_block(block)
        return block

    @property
    def _directives(self) -> PlanDirectives | None:
        if self._directive_stack:
            return self._directive_stack[-1]
        return None

    # -- block planning -------------------------------------------------------

    def _plan_block(self, block: QueryBlock) -> phys.PNode:
        entries = [
            self._make_entry(source, position)
            for position, source in enumerate(block.sources)
        ]
        conjuncts = self._classify(block.conjuncts)
        if self.profile is OptimizerProfile.ADVANCED:
            conjuncts = self._propagate_equalities(conjuncts)
        needed = self._needed_columns(block)

        order = self._order_entries(entries, conjuncts)
        consumed: set[int] = set()
        placed: set[str] = {order[0].binding}
        node = self._access(
            order[0], conjuncts, Schema([]), None, consumed, needed
        )
        outer_est = node.est_rows
        node = self._apply_filters(node, conjuncts, placed, consumed)
        if node.est_rows is not None:
            outer_est = node.est_rows
        for entry in order[1:]:
            entry_est = self._entry_estimate(entry, conjuncts, placed)
            node = self._join(
                node, entry, conjuncts, placed, consumed, needed, outer_est
            )
            outer_est *= max(1.0, entry_est)
            node.est_rows = outer_est
            placed.add(entry.binding)
            node = self._apply_filters(node, conjuncts, placed, consumed)
            if node.est_rows is not None:
                outer_est = node.est_rows

        leftover = [c for c in conjuncts if id(c) not in consumed and not c.derived]
        if leftover:
            raise PlanError(
                f"unplaced predicates: {[c.sql for c in leftover]}"
            )  # pragma: no cover - indicates a planner bug

        if block.is_aggregating:
            node = self._plan_group(node, block)
            node = self._plan_order(node, block, grouped=True)
        else:
            node = self._plan_order(node, block, grouped=False)
        if block.distinct:
            node = phys.PDistinct(schema=node.schema, child=node)
        if block.limit is not None:
            node = phys.PLimit(schema=node.schema, child=node, limit=block.limit)
        return node

    # -- entries ----------------------------------------------------------------

    def _make_entry(self, source: ast.Source, position: int = 0) -> _Entry:
        binding = source.binding.lower()
        if isinstance(source, ast.TableSource):
            table = self._catalog.table(source.name)
            schema = Schema([Slot(binding, c.lname) for c in table.columns])
            return _Entry(
                binding=binding,
                schema=schema,
                table=table,
                est_rows=float(max(1, table.row_count)),
                position=position,
            )
        # Derived tables plan with no directives in scope — directives
        # describe the outermost block only.
        self._directive_stack.append(None)
        try:
            inner = self._plan_block(self._unnested(build_block(source.select)))
        finally:
            self._directive_stack.pop()
        names = build_block(source.select).output_names()
        schema = Schema([Slot(binding, n) for n in names])
        return _Entry(
            binding=binding,
            schema=schema,
            derived_plan=inner,
            est_rows=1000.0,
            position=position,
        )

    # -- conjunct classification ---------------------------------------------------

    @staticmethod
    def _classify(exprs: list[ast.Expr]) -> list[_Conjunct]:
        return [
            _Conjunct(
                expr, order, frozenset(b for b in referenced_bindings(expr) if b != "?")
            )
            for order, expr in enumerate(exprs)
        ]

    def _propagate_equalities(self, conjuncts: list[_Conjunct]) -> list[_Conjunct]:
        """Derive constant restrictions through equality classes.

        From ``p.id = c.parent`` and ``p.id = ?`` derive ``c.parent = ?``
        — the pushdown the paper observed in DB2's plan (Figure 8,
        region 1).
        """
        parent: dict[tuple[str, str], tuple[str, str]] = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        col_eq_col: list[tuple[tuple[str, str], tuple[str, str]]] = []
        const_binds: dict[tuple[str, str], tuple[ast.Expr, int]] = {}
        for conjunct in conjuncts:
            sides = _eq_sides(conjunct.expr)
            if sides is None:
                continue
            left, right = sides
            l_col = isinstance(left, ast.ColumnRef)
            r_col = isinstance(right, ast.ColumnRef)
            if l_col and r_col:
                a = (left.table, left.column)
                b = (right.table, right.column)
                union(a, b)
                col_eq_col.append((a, b))
            elif l_col and _is_constant(right):
                const_binds[(left.table, left.column)] = (right, conjunct.order)
            elif r_col and _is_constant(left):
                const_binds[(right.table, right.column)] = (left, conjunct.order)

        existing = {
            (col, rhs.sql())
            for col, (rhs, _) in const_binds.items()
        }
        derived: list[_Conjunct] = []
        for col, (rhs, order) in list(const_binds.items()):
            root = find(col)
            for other in list(parent.keys()) + [root]:
                if other == col:
                    continue
                if find(other) != root:
                    continue
                key = (other, rhs.sql())
                if key in existing or other in const_binds:
                    continue
                existing.add(key)
                expr = ast.BinaryOp("=", ast.ColumnRef(other[0], other[1]), rhs)
                derived.append(
                    _Conjunct(expr, order, frozenset({other[0]}), derived=True)
                )
        return conjuncts + derived

    def _needed_columns(self, block: QueryBlock) -> dict[str, set[str]]:
        """Per-binding referenced columns; the ``""`` key marks the map
        *incomplete* (an unqualified reference: an ORDER BY alias inside
        an expression) — consumers that need a proven-complete set
        (column pruning) must then stand down.  The per-binding sets
        stay usable either way for cost heuristics (index-only covering
        checks re-verify against residuals separately).

        An ORDER BY key that :func:`output_position` resolves to a
        select item adds nothing: it sorts on that item, whose own
        columns are counted (``_plan_order`` evaluates it as the item)."""
        needed: dict[str, set[str]] = {}
        expressions = chain(
            [item.expr for item in block.items],
            block.conjuncts,
            block.group_by,
            [] if block.having is None else [block.having],
            [
                order_item.expr
                for order_item in block.order_by
                if output_position(block, order_item.expr) is None
            ],
        )
        for expr in expressions:
            for node in ast.walk(expr):
                if not isinstance(node, ast.ColumnRef):
                    continue
                if node.table is None:
                    needed[""] = set()
                else:
                    needed.setdefault(node.table.lower(), set()).add(
                        node.column.lower()
                    )
        return needed

    # -- join ordering -----------------------------------------------------------

    def _order_entries(
        self, entries: list[_Entry], conjuncts: list[_Conjunct]
    ) -> list[_Entry]:
        directives = self._directives
        if directives is not None and directives.join_order is not None:
            by_position = {e.position: e for e in entries}
            if sorted(directives.join_order) != sorted(by_position):
                raise PlanError(
                    f"join_order {directives.join_order} does not cover "
                    f"FROM positions {sorted(by_position)}"
                )
            return [by_position[p] for p in directives.join_order]
        if len(entries) == 1:
            return entries
        if self.profile is OptimizerProfile.SIMPLE:
            return self._order_simple(entries, conjuncts)
        return self._order_advanced(entries, conjuncts)

    def _order_simple(
        self, entries: list[_Entry], conjuncts: list[_Conjunct]
    ) -> list[_Entry]:
        by_binding = {e.binding: e for e in entries}
        driver: _Entry | None = None
        for conjunct in sorted(conjuncts, key=lambda c: c.order):
            sides = _eq_sides(conjunct.expr)
            if sides is None:
                continue
            for left, right in (sides, sides[::-1]):
                if (
                    isinstance(left, ast.ColumnRef)
                    and left.table
                    and _is_constant(right)
                ):
                    entry = by_binding.get(left.table.lower())
                    if entry is None:
                        continue
                    if entry.table is not None and entry.table.find_index(
                        (left.column,)
                    ):
                        driver = entry
                        break
                    if entry.table is None:
                        driver = entry
                        break
            if driver is not None:
                break
        ordered = list(entries)
        if driver is not None:
            ordered.remove(driver)
            ordered.insert(0, driver)
        return ordered

    def _order_advanced(
        self, entries: list[_Entry], conjuncts: list[_Conjunct]
    ) -> list[_Entry]:
        remaining = list(entries)
        ordered: list[_Entry] = []
        placed: set[str] = set()

        def start_cost(entry: _Entry) -> float:
            return self._entry_estimate(entry, conjuncts, set())

        def next_cost(entry: _Entry) -> tuple[int, float]:
            connected = any(
                entry.binding in c.bindings and c.bindings & placed
                for c in conjuncts
            )
            rows = self._entry_estimate(entry, conjuncts, placed)
            return (0 if connected else 1, rows)

        first = min(remaining, key=start_cost)
        ordered.append(first)
        placed.add(first.binding)
        remaining.remove(first)
        while remaining:
            best = min(remaining, key=next_cost)
            ordered.append(best)
            placed.add(best.binding)
            remaining.remove(best)
        return ordered

    def _eq_map(
        self,
        entry: _Entry,
        conjuncts: list[_Conjunct],
        placed_bindings: set[str],
    ) -> dict[str, tuple[ast.Expr, _Conjunct]]:
        """Columns of ``entry`` bound by equality to expressions that are
        evaluable from ``placed_bindings`` (plus constants/params).
        Textual order decides ties; first bind wins."""
        eq_map: dict[str, tuple[ast.Expr, _Conjunct]] = {}
        allowed = placed_bindings
        for conjunct in sorted(conjuncts, key=lambda c: (c.derived, c.order)):
            sides = _eq_sides(conjunct.expr)
            if sides is None:
                continue
            for left, right in (sides, sides[::-1]):
                if not (
                    isinstance(left, ast.ColumnRef)
                    and left.table
                    and left.table.lower() == entry.binding
                ):
                    continue
                rhs_bindings = {
                    b for b in referenced_bindings(right) if b != "?"
                }
                if rhs_bindings - allowed:
                    continue
                if rhs_bindings and entry.binding in rhs_bindings:
                    continue
                column = left.column.lower()
                if column not in eq_map:
                    eq_map[column] = (right, conjunct)
                break
        return eq_map

    @staticmethod
    def _bound(eq_map: dict[str, tuple[ast.Expr, _Conjunct]]) -> dict:
        """``column -> expression it is bound to``, from an eq map."""
        return {column: rhs for column, (rhs, _) in eq_map.items()}

    def _entry_estimate(
        self, entry: _Entry, conjuncts: list[_Conjunct], placed: set[str]
    ) -> float:
        """Rows one access of ``entry`` yields once ``placed`` is joined:
        its equality bindings, then its own other conjuncts."""
        eq_map = self._eq_map(entry, conjuncts, placed)
        chosen = {id(conjunct) for _, conjunct in eq_map.values()}
        residuals = [
            c.expr
            for c in conjuncts
            if c.bindings == {entry.binding}
            and not c.derived
            and id(c) not in chosen
        ]
        return self._estimate_access(entry, self._bound(eq_map), residuals)

    def _estimate_access(
        self,
        entry: _Entry,
        bound: dict[str, ast.Expr | None],
        residuals: Sequence[ast.Expr] = (),
    ) -> float:
        """Rows one access of ``entry`` yields with ``bound``'s columns
        bound by equality (to the expression given, or ``None`` when
        unknown) and the single-table ``residuals`` applied.

        The index with the longest prefix over the bound columns answers
        them from its distinct-prefix counts (a full unique match is one
        row); every other bound column keeps :meth:`_eq_fraction` of the
        rows and the residuals :meth:`_selectivity`."""
        if entry.table is None:
            return entry.est_rows
        table = entry.table
        rows = float(max(1, table.row_count))
        rest = {column.lower(): rhs for column, rhs in bound.items()}
        info = table.find_index(tuple(rest)) if rest else None
        if info is not None:
            matched = 0
            for column in info.column_names:
                if column.lower() not in rest:
                    break
                del rest[column.lower()]
                matched += 1
            if matched == len(info.column_names) and info.unique:
                return 1.0
            rows = max(1.0, rows / info.btree.prefix_distinct(matched))
        for column, rhs in sorted(rest.items()):
            rows *= self._eq_fraction(table, column, rhs)
        return rows * self._selectivity(table, entry.binding, residuals)

    def _eq_fraction(self, table: Table, column: str, rhs) -> float:
        """Share of ``table``'s rows with ``column = rhs``: 1/NDV.  An
        index ``column`` leads answers from its distinct-prefix count,
        with no statistics gathered; any other column reads its column
        statistics, which also know that a literal outside [min, max]
        matches nothing."""
        info = table.find_index((column,))
        if info is not None:
            return 1.0 / info.btree.prefix_distinct(1)
        stats = table.column_stats(column)
        value = _literal(table, column, rhs)
        if stats.ndv == 0 or (
            value is not None and not stats.low <= value <= stats.high
        ):
            return 0.0
        return 1.0 / stats.ndv

    def _selectivity(
        self, table: Table, binding: str, exprs: Sequence[ast.Expr]
    ) -> float:
        """Share of ``table``'s rows that pass the single-table conjuncts
        ``exprs``.  ``col = v`` keeps :meth:`_eq_fraction`, ``col <> v``
        the rest, an IN-list the sum over its distinct values; the range
        bounds on one column meet in one interval, kept as its share of
        the column's [min, max].  What the statistics cannot read — a
        range against a parameter, an expression, LIKE — keeps every
        row."""
        fraction = 1.0
        spans: dict[str, tuple] = {}
        for expr in exprs:
            span = _range_bound(table, binding, expr)
            if span is not None:
                column, low, high = span
                old_low, old_high = spans.get(column, (None, None))
                spans[column] = (
                    _tighter(max, old_low, low), _tighter(min, old_high, high)
                )
            elif isinstance(expr, ast.InList):
                column = _in_column(expr, binding)
                if column is not None:
                    items = {item.sql(): item for item in expr.items}
                    fraction *= min(1.0, sum(
                        self._eq_fraction(table, column, item)
                        for item in items.values()
                    ))
            else:
                compared = _comparison(expr, binding)
                if compared is not None and compared[1] in ("=", "<>"):
                    column, op, other = compared
                    share = self._eq_fraction(table, column, other)
                    fraction *= share if op == "=" else 1.0 - share
        for column, (low, high) in sorted(spans.items()):
            fraction *= _range_fraction(table, column, low, high)
        return fraction

    # -- access paths -------------------------------------------------------------

    def _access(
        self,
        entry: _Entry,
        conjuncts: list[_Conjunct],
        outer_schema: Schema,
        placed: set[str] | None,
        consumed: set[int],
        needed: dict[str, set[str]],
    ) -> phys.PNode:
        placed_bindings = placed or set()
        if entry.table is None:
            return self._derived_access(entry, conjuncts, consumed)
        table = entry.table
        eq_map = self._eq_map(entry, conjuncts, placed_bindings)
        directives = self._directives
        forced_access = (
            directives.access_for(entry.position)
            if directives is not None
            else None
        )
        range_low = range_high = in_list = None
        range_sql: list[str] = []
        range_col: str | None = None
        index_info, prefix = self._choose_index(entry, eq_map, conjuncts)

        # An IN list, else range bounds, on the column right after the
        # equality prefix narrows the scan; the original predicates stay
        # in the residual (exclusive bounds, item types and NULLs are
        # decided there), so the keys are correctness-neutral.
        if index_info is None:
            index_info, range_low, range_high, range_sql = self._range_index(
                entry, conjuncts, placed_bindings
            )
            prefix = []
            if index_info is not None:
                range_col = index_info.column_names[0].lower()
        elif len(prefix) < len(index_info.column_names):
            next_col = index_info.column_names[len(prefix)].lower()
            in_list = _in_lists(conjuncts, entry.binding).get(next_col)
            if in_list is not None:
                items = ", ".join(item.sql() for item in in_list.items)
                range_sql = [f"{entry.binding}.{next_col} IN ({items})"]
            else:
                range_low, range_high, range_sql = self._range_bounds(
                    entry, conjuncts, placed_bindings, next_col
                )
            if range_low is not None or range_high is not None:
                range_col = next_col
        if forced_access == "scan":
            # Directive: no index access at all.  Join equalities that
            # would have driven an index probe fall through to the
            # post-join FILTER, so the plan stays correct — just
            # (usually) worse, which is the point of enumerating it.
            index_info, prefix = None, []
            range_low = range_high = in_list = None
            range_sql = []

        # Equality columns this access node itself enforces (via index
        # keys or single-binding residuals).
        single_eq_cols = {
            col
            for col, (_, cj) in eq_map.items()
            if cj.bindings == frozenset({entry.binding})
        }
        eq_conjunct_ids = {id(cj) for _, cj in eq_map.values()}
        single = [
            c
            for c in conjuncts
            if id(c) not in consumed
            and c.bindings == frozenset({entry.binding})
        ]
        # Ranges, IN-lists, <> …: what the estimate scales by beyond the
        # equality bindings.
        residual_exprs = [
            c.expr
            for c in single
            if id(c) not in eq_conjunct_ids and not c.derived
        ]
        # The range conjuncts on the index range column that statistics
        # can place: they decide how many index entries the scan reads.
        spans = [_range_bound(table, entry.binding, e) for e in residual_exprs]
        ranges = [
            expr
            for expr, span in zip(residual_exprs, spans)
            if span is not None and span[0] == range_col
        ]

        def annotate(node: phys.PNode, enforced) -> phys.PNode:
            node.est_rows = self._estimate_access(
                entry, {col: eq_map[col][0] for col in enforced}, residual_exprs
            )
            return node

        # A wide range is demoted to TBSCAN when the data says its index
        # entries cost more than one sequential scan: a B+-tree descent
        # plus per-entry work against the scan.  Only the ADVANCED
        # profile costs access paths; join probes (a prefix column bound
        # by another table) are the join method's call, and a range the
        # statistics cannot place (a parameter bound) keeps its index.
        if (
            index_info is not None
            and ranges
            and forced_access is None
            and self.profile is OptimizerProfile.ADVANCED
            and set(prefix) <= single_eq_cols
        ):
            entries = self._estimate_access(
                entry, {col: eq_map[col][0] for col in prefix}, ranges
            )
            index_cols = {c.lower() for c in index_info.column_names}
            covers = set(needed.get(entry.binding, set())) <= index_cols
            per_entry = 1.0 if covers else 2.5
            if _seq_scan_cost(table) < 3.0 + per_entry * entries:
                index_info, prefix = None, []
                range_low = range_high = None
                range_sql = []

        usable_range = range_low is not None or range_high is not None
        if index_info is None or not (prefix or usable_range):
            residual_conjuncts = single
            compiler = ExprCompiler(entry.schema, self._subquery_executor)
            node: phys.PNode = phys.PTableScan(
                schema=entry.schema,
                table_name=table.name,
                binding=entry.binding,
                residual=[compiler.compile(c.expr) for c in residual_conjuncts],
                residual_sql=[c.sql for c in residual_conjuncts],
                used_columns=self._used_slots(entry, needed, residual_conjuncts),
            )
            consumed.update(id(c) for c in residual_conjuncts)
            self._consume_derived_duplicates(conjuncts, consumed, placed_bindings | {entry.binding})
            return annotate(node, single_eq_cols)

        key_compiler = ExprCompiler(outer_schema, self._subquery_executor)
        key_exprs, key_sql = [], []
        for column in prefix:
            rhs, conjunct = eq_map[column]
            key_exprs.append(key_compiler.compile(rhs))
            key_sql.append(f"{entry.binding}.{column} = {rhs.sql()}")
            consumed.add(id(conjunct))

        needed_cols = set(needed.get(entry.binding, set()))
        index_cols = {c.lower() for c in index_info.column_names}
        residual_conjuncts = [
            c
            for c in single
            if id(c) not in consumed
        ]
        residual_ok_index_only = all(
            self._columns_of_binding(c.expr, entry.binding) <= index_cols
            for c in residual_conjuncts
        )
        index_only = needed_cols <= index_cols and residual_ok_index_only

        compiler = ExprCompiler(entry.schema, self._subquery_executor)
        bound_compiler = ExprCompiler(outer_schema, self._subquery_executor)
        ixscan = phys.PIndexScan(
            schema=entry.schema,
            table_name=table.name,
            binding=entry.binding,
            index_name=index_info.name,
            key_exprs=key_exprs,
            key_sql=key_sql,
            index_only=index_only,
            residual=[compiler.compile(c.expr) for c in residual_conjuncts],
            residual_sql=[c.sql for c in residual_conjuncts],
            range_low=bound_compiler.compile(range_low)
            if range_low is not None
            else None,
            range_high=bound_compiler.compile(range_high)
            if range_high is not None
            else None,
            in_keys=[bound_compiler.compile(item) for item in in_list.items]
            if in_list is not None
            else None,
            range_sql=range_sql,
        )
        consumed.update(id(c) for c in residual_conjuncts)
        self._consume_derived_duplicates(conjuncts, consumed, placed_bindings | {entry.binding})
        enforced = set(prefix) | single_eq_cols
        if index_only:
            return annotate(ixscan, enforced)
        # The IXSCAN yields the entries its prefix and range or IN list
        # match, before residuals; the FETCH above it what survives them.
        ixscan.est_rows = self._estimate_access(
            entry,
            {col: eq_map[col][0] for col in prefix},
            ranges if in_list is None else [in_list],
        )
        fetch = phys.PFetch(
            schema=entry.schema, child=ixscan, table_name=table.name
        )
        return annotate(fetch, enforced)

    def _range_bounds(
        self,
        entry: _Entry,
        conjuncts: list[_Conjunct],
        placed_bindings: set[str],
        column: str,
    ) -> tuple[ast.Expr | None, ast.Expr | None, list[str]]:
        """Range restrictions on one column, evaluable from the outer
        context.  The first usable lower and upper bound win; the
        original conjuncts stay in the residual (not consumed)."""
        low = high = None
        sqls: list[str] = []
        for conjunct in sorted(conjuncts, key=lambda c: c.order):
            if conjunct.derived:
                continue
            expr = conjunct.expr
            if not (
                isinstance(expr, ast.BinaryOp) and expr.op in _RANGE_OPS
            ):
                continue
            for lhs, rhs, op in (
                (expr.left, expr.right, expr.op),
                (expr.right, expr.left, _FLIP[expr.op]),
            ):
                if not (
                    isinstance(lhs, ast.ColumnRef)
                    and lhs.table
                    and lhs.table.lower() == entry.binding
                    and lhs.column.lower() == column
                ):
                    continue
                rhs_bindings = {
                    b for b in referenced_bindings(rhs) if b != "?"
                }
                if rhs_bindings - placed_bindings:
                    continue
                if op in (">", ">=") and low is None:
                    low = rhs
                    sqls.append(f"{entry.binding}.{column} >= {rhs.sql()}")
                elif op in ("<", "<=") and high is None:
                    high = rhs
                    sqls.append(f"{entry.binding}.{column} <= {rhs.sql()}")
                break
        return low, high, sqls

    def _range_index(
        self,
        entry: _Entry,
        conjuncts: list[_Conjunct],
        placed_bindings: set[str],
    ):
        """When no equality prefix exists, try an index whose leading
        column carries a range restriction."""
        table = entry.table
        assert table is not None
        for info in table.indexes.values():
            leading = info.column_names[0].lower()
            low, high, sqls = self._range_bounds(
                entry, conjuncts, placed_bindings, leading
            )
            if low is not None or high is not None:
                return info, low, high, sqls
        return None, None, None, []

    def _consume_derived_duplicates(
        self, conjuncts: list[_Conjunct], consumed: set[int], available: set[str]
    ) -> None:
        """Derived (propagated) equalities never need re-checking: they are
        implied by the originals.  Mark available ones consumed."""
        for conjunct in conjuncts:
            if conjunct.derived and conjunct.bindings <= available:
                consumed.add(id(conjunct))

    def _used_slots(
        self,
        entry: "_Entry",
        needed: dict[str, set[str]],
        residuals: list["_Conjunct"],
    ) -> list[int] | None:
        """Slot positions a table scan provably needs, or ``None``.

        ``None`` (prune nothing) whenever the block's reference map is
        incomplete or pruning would not drop anything.  Residuals are
        walked rather than trusted to appear in ``needed``: derived
        (pushed-down) conjuncts are not part of the block's own
        conjunct list.  Every reference is bound, so each name has its
        slot.
        """
        if "" in needed:
            return None
        names = set(needed.get(entry.binding, set()))
        for conjunct in residuals:
            names |= self._columns_of_binding(conjunct.expr, entry.binding)
        schema = entry.schema
        if len(names) >= len(schema.slots):
            return None
        return sorted(schema.resolve(entry.binding, name) for name in names)

    @staticmethod
    def _columns_of_binding(expr: ast.Expr, binding: str) -> set[str]:
        return {
            node.column.lower()
            for node in ast.walk(expr)
            if isinstance(node, ast.ColumnRef)
            and node.table
            and node.table.lower() == binding
        }

    def _choose_index(
        self,
        entry: _Entry,
        eq_map: dict[str, tuple[ast.Expr, _Conjunct]],
        conjuncts: list[_Conjunct],
    ):
        """The index to probe and its equality prefix, or ``(None, [])``.
        An IN list on the column right after a non-empty prefix counts as
        one more prefix column, below a true equality there; ADVANCED
        breaks ties towards unique indexes, both profiles then towards
        the first."""
        table = entry.table
        assert table is not None
        indexes = list(table.indexes.values())
        advanced = self.profile is OptimizerProfile.ADVANCED
        if not advanced:
            # SIMPLE: the index whose leading column is bound by the
            # textually first predicate wins, even if another index
            # would match longer.
            leading = {info.column_names[0].lower() for info in indexes}
            ordered = sorted(eq_map, key=lambda col: eq_map[col][1].order)
            first = next((col for col in ordered if col in leading), None)
            indexes = [i for i in indexes if i.column_names[0].lower() == first]
        listed = _in_lists(conjuncts, entry.binding)
        best, prefix, best_score = None, [], (1,)  # one prefix column at least
        for info in indexes:
            names = [c.lower() for c in info.column_names]
            n = next((i for i, c in enumerate(names) if c not in eq_map), len(names))
            keys = 0 < n < len(names) and names[n] in listed
            score = (n + keys, not keys, advanced and info.unique)
            if score > best_score:
                best, prefix, best_score = info, names[:n], score
        return best, prefix

    def _derived_access(
        self, entry: _Entry, conjuncts: list[_Conjunct], consumed: set[int]
    ) -> phys.PNode:
        single = [
            c
            for c in conjuncts
            if id(c) not in consumed and c.bindings == frozenset({entry.binding})
        ]
        compiler = ExprCompiler(entry.schema, self._subquery_executor)
        node = phys.PMaterialize(
            schema=entry.schema,
            child=entry.derived_plan,
            binding=entry.binding,
            residual=[compiler.compile(c.expr) for c in single],
            residual_sql=[c.sql for c in single],
        )
        consumed.update(id(c) for c in single)
        node.est_rows = entry.est_rows * (0.5 ** len(single))
        return node

    # -- joins --------------------------------------------------------------------

    def _join(
        self,
        outer: phys.PNode,
        entry: _Entry,
        conjuncts: list[_Conjunct],
        placed: set[str],
        consumed: set[int],
        needed: dict[str, set[str]],
        outer_est: float = 100.0,
    ) -> phys.PNode:
        combined = outer.schema.extend(entry.schema)
        directives = self._directives
        forced_join = (
            directives.join_for(entry.position)
            if directives is not None
            else None
        )
        if entry.table is not None:
            if forced_join == "hash":
                return self._hash_join(
                    outer, entry, conjuncts, placed, consumed, needed, combined
                )
            if forced_join == "nl":
                inner = self._access(
                    entry, conjuncts, outer.schema, placed, consumed, needed
                )
                return phys.PNLJoin(schema=combined, outer=outer, inner=inner)
            eq_with_outer = self._eq_map(entry, conjuncts, placed)
            join_cols = [
                col
                for col, (rhs, _) in eq_with_outer.items()
                if referenced_bindings(rhs) & placed
            ]
            _, prefix = self._choose_index(entry, eq_with_outer, conjuncts)
            use_nl = any(col in join_cols for col in prefix)
            # Constant-only restrictions (including transitively derived
            # ones like c.parent = ? from p.id = c.parent AND p.id = ?).
            const_only = self._eq_map(entry, conjuncts, placed_bindings=set())
            if self.profile is OptimizerProfile.ADVANCED and join_cols:
                # Cost-based choice (Figure 8's shape), in the same work
                # units the quality harness measures: an index probe is
                # ~3 units of B+-tree descent plus ~2.5 per fetched row
                # (fetch + data page); a scan is ~1 per row.  NLJOIN
                # pays a probe per outer row; HSJOIN pays the inner
                # access once (constant-restricted when an index
                # matches, a full scan otherwise), materializes the
                # build, then probes per outer row.
                est_full = self._estimate_access(
                    entry, self._bound(eq_with_outer)
                )
                est_const = self._estimate_access(
                    entry, self._bound(const_only)
                )
                _, const_prefix = self._choose_index(entry, const_only, conjuncts)
                if const_prefix:
                    # A hash build's scan is cheap per row (predicates
                    # run as column comprehensions before row
                    # assembly), so it may beat even a const-prefix
                    # index access.
                    inner_access = min(
                        3.0 + 2.5 * est_const, _seq_scan_cost(entry.table)
                    )
                else:
                    inner_access = _seq_scan_cost(entry.table)
                nl_cost = outer_est * (3.0 + 2.5 * est_full)
                hs_cost = inner_access + est_const + outer_est
                if not use_nl or hs_cost < nl_cost:
                    return self._hash_join(
                        outer,
                        entry,
                        conjuncts,
                        placed,
                        consumed,
                        needed,
                        combined,
                    )
            if use_nl:
                inner = self._access(
                    entry, conjuncts, outer.schema, placed, consumed, needed
                )
                return phys.PNLJoin(schema=combined, outer=outer, inner=inner)
            if join_cols:
                return self._hash_join(
                    outer, entry, conjuncts, placed, consumed, needed, combined
                )
            # No join predicate: cross join via nested loop re-scan.
            inner = self._access(
                entry, conjuncts, outer.schema, placed, consumed, needed
            )
            return phys.PNLJoin(schema=combined, outer=outer, inner=inner)
        # Derived table inner: hash join if possible, else NL over cache.
        join_conjuncts = self._joinable_eqs(entry, conjuncts, placed, consumed)
        inner = self._derived_access(entry, conjuncts, consumed)
        if forced_join == "nl":
            # Join equalities stay unconsumed and land in the post-join
            # FILTER.
            return phys.PNLJoin(schema=combined, outer=outer, inner=inner)
        if join_conjuncts:
            return self._build_hsjoin(
                outer, inner, entry, join_conjuncts, consumed, combined
            )
        return phys.PNLJoin(schema=combined, outer=outer, inner=inner)

    def _joinable_eqs(
        self,
        entry: _Entry,
        conjuncts: list[_Conjunct],
        placed: set[str],
        consumed: set[int],
    ) -> list[tuple[ast.Expr, ast.Expr, _Conjunct]]:
        """(outer_expr, inner_expr, conjunct) equality pairs."""
        pairs = []
        for conjunct in conjuncts:
            if id(conjunct) in consumed:
                continue
            sides = _eq_sides(conjunct.expr)
            if sides is None:
                continue
            left, right = sides
            lb = {b for b in referenced_bindings(left) if b != "?"}
            rb = {b for b in referenced_bindings(right) if b != "?"}
            # A true join pair needs the outer side to reference at least
            # one placed binding; constant = column restrictions belong
            # to the inner access path instead.
            if lb and lb <= placed and rb == {entry.binding}:
                pairs.append((left, right, conjunct))
            elif rb and rb <= placed and lb == {entry.binding}:
                pairs.append((right, left, conjunct))
        return pairs

    def _hash_join(
        self,
        outer: phys.PNode,
        entry: _Entry,
        conjuncts: list[_Conjunct],
        placed: set[str],
        consumed: set[int],
        needed: dict[str, set[str]],
        combined: Schema,
    ) -> phys.PNode:
        join_pairs = self._joinable_eqs(entry, conjuncts, placed, consumed)
        inner = self._access(
            entry, conjuncts, Schema([]), set(), consumed, needed
        )
        return self._build_hsjoin(outer, inner, entry, join_pairs, consumed, combined)

    def _build_hsjoin(
        self,
        outer: phys.PNode,
        inner: phys.PNode,
        entry: _Entry,
        join_pairs: list[tuple[ast.Expr, ast.Expr, _Conjunct]],
        consumed: set[int],
        combined: Schema,
    ) -> phys.PNode:
        outer_compiler = ExprCompiler(outer.schema, self._subquery_executor)
        inner_compiler = ExprCompiler(entry.schema, self._subquery_executor)
        left_keys, right_keys, key_sql = [], [], []
        for outer_expr, inner_expr, conjunct in join_pairs:
            left_keys.append(outer_compiler.compile(outer_expr))
            right_keys.append(inner_compiler.compile(inner_expr))
            key_sql.append(f"{outer_expr.sql()} = {inner_expr.sql()}")
            consumed.add(id(conjunct))
        if not left_keys:
            return phys.PNLJoin(schema=combined, outer=outer, inner=inner)
        return phys.PHSJoin(
            schema=combined,
            left=outer,
            right=inner,
            left_keys=left_keys,
            right_keys=right_keys,
            key_sql=key_sql,
        )

    def _apply_filters(
        self,
        node: phys.PNode,
        conjuncts: list[_Conjunct],
        placed: set[str],
        consumed: set[int],
    ) -> phys.PNode:
        pending = [
            c
            for c in conjuncts
            if id(c) not in consumed and c.bindings <= placed and not c.derived
        ]
        self._consume_derived_duplicates(conjuncts, consumed, placed)
        if not pending:
            return node
        compiler = ExprCompiler(node.schema, self._subquery_executor)
        predicates = [compiler.compile(c.expr) for c in pending]
        consumed.update(id(c) for c in pending)
        filt = phys.PFilter(
            schema=node.schema,
            child=node,
            predicates=predicates,
            predicate_sql=[c.sql for c in pending],
        )
        if node.est_rows is not None:
            filt.est_rows = node.est_rows * (0.5 ** len(pending))
        return filt

    # -- grouping / projection / ordering -------------------------------------------

    def _plan_group(self, node: phys.PNode, block: QueryBlock) -> phys.PNode:
        child_compiler = ExprCompiler(node.schema, self._subquery_executor)
        group_exprs = [child_compiler.compile(e) for e in block.group_by]

        # HAVING, select items and ORDER BY keys are compiled against
        # the (group keys ..., agg values ...) pseudo-row.
        scope = GroupedScope(block, self._subquery_executor)

        aggs: list[phys.AggSpec] = []
        for call in scope.aggregates:
            if call.star:
                aggs.append(phys.AggSpec("COUNT_STAR", None))
                continue
            aggs.append(
                phys.AggSpec(
                    call.name.upper(),
                    child_compiler.compile(call.args[0]),
                    call.distinct,
                )
            )

        outputs = [
            phys.OutputSpec(post=scope.compile(item.expr))
            for item in block.items
        ]
        having = (
            scope.compile(block.having) if block.having is not None else None
        )
        out_schema = Schema(
            [Slot(None, name) for name in block.output_names()]
        )
        grp = phys.PGroup(
            schema=out_schema,
            child=node,
            group_exprs=group_exprs,
            aggs=aggs,
            outputs=outputs,
            having=having,
        )
        # ORDER BY for grouped queries is handled against the pseudo rows
        # by storing compiled order keys on the node via _plan_order.
        grp._scope = scope  # type: ignore[attr-defined]
        return grp

    def _plan_order(
        self, node: phys.PNode, block: QueryBlock, *, grouped: bool
    ) -> phys.PNode:
        if grouped:
            out_schema = node.schema
            if not block.order_by:
                return node
            out_compiler = ExprCompiler(out_schema, self._subquery_executor)
            scope = node._scope  # type: ignore[attr-defined]
            output_width = len(out_schema.slots)
            keys: list[tuple] = []
            hidden = 0
            for order_item in block.order_by:
                expr = order_item.expr
                out_position = output_position(block, expr)
                qualified = (
                    isinstance(expr, ast.ColumnRef) and expr.table is not None
                )
                compiled = None
                if out_position is not None:
                    compiled = (
                        lambda row, params, i=out_position: row[i]
                    )
                elif not qualified:
                    try:
                        # Expressions over aliases / output columns sort
                        # on the visible row.
                        compiled = out_compiler.compile(expr)
                    except EngineError:
                        compiled = None
                if compiled is None:
                    # Anything else (ORDER BY COUNT(*), ORDER BY a group
                    # expression not in the select list) becomes a hidden
                    # output computed from the pseudo (keys+aggs) row.
                    post = scope.compile(expr)
                    position = output_width + hidden
                    hidden += 1
                    node.outputs.append(phys.OutputSpec(post=post))
                    node.schema.slots.append(Slot(None, f"__ord{position}"))
                    compiled = (
                        lambda row, params, position=position: row[position]
                    )
                keys.append((compiled, order_item.descending))
            sort = phys.PSort(schema=node.schema, child=node, keys=keys)
            if hidden == 0:
                return sort
            # Strip the hidden sort keys.
            visible = Schema(node.schema.slots[:output_width])
            return phys.PProject(
                schema=visible,
                child=sort,
                exprs=[
                    (lambda row, params, i=i: row[i])
                    for i in range(output_width)
                ],
                labels=[slot.name for slot in visible.slots],
            )

        # Non-aggregated: decide sort placement (before or after project).
        out_names = block.output_names()
        out_schema = Schema([Slot(None, n) for n in out_names])
        child_compiler = ExprCompiler(node.schema, self._subquery_executor)
        exprs = [child_compiler.compile(i.expr) for i in block.items]
        project = phys.PProject(
            schema=out_schema,
            child=node,
            exprs=exprs,
            labels=[i.sql() for i in block.items],
        )
        if not block.order_by:
            return project
        # Post-projection sort when every key denotes an output column
        # (by position — see output_position for why name matching
        # alone is unsound after flattening).
        post_keys, ok = [], True
        for order_item in block.order_by:
            position = output_position(block, order_item.expr)
            if position is None:
                ok = False
                break
            post_keys.append(
                (
                    lambda row, params, i=position: row[i],
                    order_item.descending,
                )
            )
        if ok:
            return phys.PSort(schema=out_schema, child=project, keys=post_keys)
        try:
            # A key that denotes a select item sorts on the item (the
            # columns _needed_columns counted for it), never on a source
            # column its alias happens to share a name with.
            pre_keys = []
            for order_item in block.order_by:
                position = output_position(block, order_item.expr)
                pre_keys.append(
                    (
                        child_compiler.compile(order_item.expr)
                        if position is None
                        else exprs[position],
                        order_item.descending,
                    )
                )
        except EngineError:
            # Expressions over output aliases (ORDER BY alias + 1): only
            # the projected row can evaluate them.
            out_compiler = ExprCompiler(out_schema, self._subquery_executor)
            post_keys = [
                (out_compiler.compile(o.expr), o.descending)
                for o in block.order_by
            ]
            return phys.PSort(
                schema=out_schema, child=project, keys=post_keys
            )
        sort = phys.PSort(schema=node.schema, child=node, keys=pre_keys)
        return phys.PProject(
            schema=out_schema,
            child=sort,
            exprs=exprs,
            labels=[i.sql() for i in block.items],
        )
