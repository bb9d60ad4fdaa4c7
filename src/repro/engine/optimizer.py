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

import enum
from dataclasses import dataclass
from typing import Callable

from .catalog import Catalog, Table
from .errors import EngineError, PlanError, UnknownObjectError
from .expr import (
    ExprCompiler,
    GroupedScope,
    Schema,
    Slot,
    referenced_bindings,
)
from .plan.logical import (
    QueryBlock,
    build_block,
    flatten_block,
    output_name,
    qualify_block,
)
from .plan import physical as phys
from .sql import ast


class OptimizerProfile(enum.Enum):
    SIMPLE = "simple"
    ADVANCED = "advanced"


#: Work units per row for one sequential scan, by storage format.  A
#: columnar scan evaluates residual predicates as comprehensions over
#: native column lists and assembles only surviving rows, so its
#: per-row unit is well under the heap's tuple-at-a-time unit; 0.25 is
#: calibrated against the bench_columnar microbenchmarks (selective
#: meta-predicate scans over chunk tables).
_SCAN_UNITS = {"columnar": 0.25}


def _seq_scan_cost(table: Table) -> float:
    """Work units for one full sequential scan of ``table``."""
    unit = _SCAN_UNITS.get(table.storage, 1.0)
    return float(max(1, table.row_count)) * unit


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
        subquery_executor: Callable[[ast.Select], set] | None = None,
        feedback=None,
    ) -> None:
        self._catalog = catalog
        self.profile = profile
        self._subquery_executor = subquery_executor
        #: Optional :class:`~repro.engine.feedback.CardinalityFeedback`
        #: consulted by :meth:`_estimate_access` before static guesses.
        self.feedback = feedback
        #: Directives for the block currently being planned (top of
        #: stack); derived tables push None so directives never leak
        #: into inner blocks.
        self._directive_stack: list[PlanDirectives | None] = []

    # -- public entry ------------------------------------------------------

    def plan_select(
        self,
        select: ast.Select,
        directives: PlanDirectives | None = None,
    ) -> phys.PReturn:
        if select.tenants is not None:
            raise PlanError(
                "FOR TENANTS is a multi-tenant dialect clause; execute it "
                "through MultiTenantDatabase.execute_cross, not the raw engine"
            )
        block = qualify_block(build_block(select), self._column_lookup)
        if self.profile is OptimizerProfile.ADVANCED:
            block = flatten_block(block)
        self._directive_stack.append(directives)
        try:
            root = self._plan_block(block)
        finally:
            self._directive_stack.pop()
        ret = phys.PReturn(schema=root.schema, child=root)
        _inherit_estimates(ret)
        return ret

    def source_count(self, select: ast.Select) -> int:
        """How many FROM sources the outermost block has after this
        profile's flattening — the position space
        :class:`PlanDirectives` index into."""
        block = qualify_block(build_block(select), self._column_lookup)
        if self.profile is OptimizerProfile.ADVANCED:
            block = flatten_block(block)
        return len(block.sources)

    @property
    def _directives(self) -> PlanDirectives | None:
        if self._directive_stack:
            return self._directive_stack[-1]
        return None

    def _column_lookup(self, table_name: str) -> list[str]:
        return [c.lname for c in self._catalog.table(table_name).columns]

    # -- block planning -------------------------------------------------------

    def _plan_block(self, block: QueryBlock) -> phys.PNode:
        entries = [
            self._make_entry(source, position)
            for position, source in enumerate(block.sources)
        ]
        if not entries:
            raise PlanError("SELECT without FROM is not supported")
        conjuncts = self._classify(block.conjuncts, entries)
        if self.profile is OptimizerProfile.ADVANCED:
            conjuncts = self._propagate_equalities(conjuncts)
        needed = self._needed_columns(block)

        order = self._order_entries(entries, conjuncts)
        consumed: set[int] = set()
        placed: set[str] = {order[0].binding}
        node = self._access(
            order[0], conjuncts, Schema([]), None, consumed, needed
        )
        if node.est_rows is None:
            node.est_rows = self._estimate_access(
                order[0],
                list(self._eq_map(order[0], conjuncts, set()).keys()),
            )
        # The access node's annotation is feedback-aware (it may carry a
        # learned post-residual cardinality), so the running estimate
        # reads it rather than re-deriving the static guess.
        outer_est = node.est_rows
        node = self._apply_filters(node, conjuncts, placed, consumed)
        if node.est_rows is not None:
            outer_est = node.est_rows
        for entry in order[1:]:
            entry_est = self._estimate_access(
                entry,
                list(self._eq_map(entry, conjuncts, placed).keys()),
            )
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
            inner = self._plan_block(self._qualified_inner(source.select))
        finally:
            self._directive_stack.pop()
        names = []
        inner_block = build_block(source.select)
        for i, item in enumerate(inner_block.items):
            names.append(output_name(item, i))
        schema = Schema([Slot(binding, n) for n in names])
        return _Entry(
            binding=binding,
            schema=schema,
            derived_plan=inner,
            est_rows=1000.0,
            position=position,
        )

    def _qualified_inner(self, select: ast.Select) -> QueryBlock:
        block = qualify_block(build_block(select), self._column_lookup)
        if self.profile is OptimizerProfile.ADVANCED:
            block = flatten_block(block)
        return block

    # -- conjunct classification ---------------------------------------------------

    def _classify(
        self, exprs: list[ast.Expr], entries: list[_Entry]
    ) -> list[_Conjunct]:
        known = {e.binding for e in entries}
        out = []
        for order, expr in enumerate(exprs):
            bindings = frozenset(b for b in referenced_bindings(expr) if b != "?")
            unknown = bindings - known
            if unknown:
                raise PlanError(f"predicate references unknown bindings {unknown}")
            out.append(_Conjunct(expr, order, bindings))
        return out

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
        *incomplete* (an unqualified reference or a node ``ast.walk``
        rejects as not an expression) — consumers that need a proven-complete
        set (column pruning) must then stand down.  The per-binding sets
        stay usable either way for cost heuristics (index-only covering
        checks re-verify against residuals separately)."""
        needed: dict[str, set[str]] = {}
        for expr in block.expressions():
            try:
                for node in ast.walk(expr):
                    if not isinstance(node, ast.ColumnRef):
                        continue
                    if node.table is None:
                        needed[""] = set()
                    else:
                        needed.setdefault(node.table.lower(), set()).add(
                            node.column.lower()
                        )
            except TypeError:  # not an expression (``*``): nothing proven
                needed[""] = set()
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
            eq_map = self._eq_map(entry, conjuncts, placed_bindings=set())
            return self._estimate_access(entry, list(eq_map.keys()))

        def next_cost(entry: _Entry) -> tuple[int, float]:
            eq_map = self._eq_map(entry, conjuncts, placed_bindings=placed)
            connected = any(
                entry.binding in c.bindings and c.bindings & placed
                for c in conjuncts
            )
            rows = self._estimate_access(entry, list(eq_map.keys()))
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
    def _literal_inlist(expr: ast.Expr) -> tuple[str, frozenset] | None:
        """``(column, values)`` for a non-negated all-literal IN-list on a
        column, else ``None``.  Fused cross-tenant statements push their
        tenant-set predicate down as exactly this shape."""
        if (
            isinstance(expr, ast.InList)
            and not expr.negated
            and isinstance(expr.operand, ast.ColumnRef)
            and expr.items
            and all(isinstance(i, ast.Literal) for i in expr.items)
        ):
            values = frozenset(i.value for i in expr.items)
            return expr.operand.column.lower(), values
        return None

    def _residual_fp(self, conjunct: _Conjunct) -> str:
        """Feedback fingerprint for a residual conjunct.

        Literal IN-lists normalize to ``<column> in#<k>`` so feedback
        learned for one tenant set transfers to every other set of the
        same size — a per-literal fingerprint would mint one feedback
        key per tenant combination and never be seen twice."""
        inlist = self._literal_inlist(conjunct.expr)
        if inlist is not None:
            column, values = inlist
            return f"res:{column} in#{len(values)}"
        return f"res:{conjunct.sql}"

    def _inlist_cap(
        self, entry: _Entry, residuals: list[_Conjunct]
    ) -> float | None:
        """Static cardinality cap from literal IN-list residuals.

        ``col IN (v1..vk)`` matches at most k times the rows one
        equality on ``col`` would — so a fused cross-tenant scan's
        estimate scales with |tenant set| instead of collapsing to the
        bare table cardinality (pruning 2 of 50 tenants should look 25x
        cheaper, and the join order should react accordingly)."""
        cap = None
        for conjunct in residuals:
            inlist = self._literal_inlist(conjunct.expr)
            if inlist is None:
                continue
            column, values = inlist
            per_value = self._estimate_access(entry, [column])
            estimate = len(values) * per_value
            cap = estimate if cap is None else min(cap, estimate)
        return cap

    def _estimate_access(self, entry: _Entry, bound_columns: list[str]) -> float:
        if entry.table is None:
            return entry.est_rows
        table = entry.table
        rows = float(max(1, table.row_count))
        if not bound_columns:
            return rows
        if self.feedback is not None:
            learned = self.feedback.estimate(table.name, bound_columns)
            if learned is not None:
                # Observed rows-per-access overrides the static guess.
                return max(0.1, learned)
        info = table.find_index(tuple(bound_columns))
        if info is None:
            return rows * (0.5 ** len(bound_columns))
        matched = 0
        bound = {c.lower() for c in bound_columns}
        for col in info.column_names:
            if col.lower() in bound:
                matched += 1
            else:
                break
        if matched == len(info.column_names) and info.unique:
            return 1.0
        # Rows per matched prefix, from the index's incremental
        # distinct-prefix statistics.
        distinct = info.btree.prefix_distinct(matched)
        return max(1.0, rows / max(1, distinct))

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
        range_low = range_high = None
        range_sql: list[str] = []
        range_col: str | None = None
        index_info, prefix = self._choose_index(entry, eq_map, conjuncts)

        # Range bounds on the column right after the equality prefix
        # narrow the scan; the original (possibly exclusive)
        # predicates stay in the residual, so bounds are
        # correctness-neutral.
        if index_info is None:
            index_info, range_low, range_high, range_sql = self._range_index(
                entry, conjuncts, placed_bindings
            )
            prefix = []
            if index_info is not None:
                range_col = index_info.column_names[0].lower()
        elif len(prefix) < len(index_info.column_names):
            next_col = index_info.column_names[len(prefix)].lower()
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
            # range_col survives so the scan's feedback key matches the
            # index path's key for the same (eq, range) shape.
            index_info, prefix = None, []
            range_low = range_high = None
            range_sql = []

        # Equality columns this access node itself enforces (via index
        # keys or single-binding residuals) — what an analyzed run's
        # actual rows can legitimately teach the feedback store about.
        single_eq_cols = {
            col
            for col, (_, cj) in eq_map.items()
            if cj.bindings == frozenset({entry.binding})
        }
        # Range restrictions get a pseudo-column in the *pre-residual*
        # feedback key ("id:range") — how many index entries the range
        # matches is learned per (table, shape), not per constant.
        range_marker = {f"{range_col}:range"} if range_col is not None else set()
        # Non-equality residuals (ranges, IN lists, <>…) each contribute
        # a fingerprint to the *result* key.  Without them, an access
        # whose residual filters rows would teach its pure eq-column key
        # a too-small cardinality and poison every other query that
        # binds the same columns without those residuals.
        eq_conjunct_ids = {id(cj) for _, cj in eq_map.values()}
        single = [
            c
            for c in conjuncts
            if id(c) not in consumed
            and c.bindings == frozenset({entry.binding})
        ]
        non_eq_residuals = [c for c in single if id(c) not in eq_conjunct_ids]
        residual_fps = {self._residual_fp(c) for c in non_eq_residuals}
        # Literal IN-lists (tenant-set pushdowns) bound the estimate
        # statically: k values match at most k single-value probes.
        inlist_cap = self._inlist_cap(entry, non_eq_residuals)

        def annotate(
            node: phys.PNode,
            enforced: set[str],
            extra_key: set[str] | None = None,
        ) -> phys.PNode:
            key_cols = set(enforced) | set(extra_key or ())
            learned = (
                self.feedback.estimate(table.name, sorted(key_cols))
                if self.feedback is not None and key_cols
                else None
            )
            if learned is not None:
                # The full (eq ∪ residual-shape) key was observed: use
                # the measured result cardinality directly.
                node.est_rows = max(0.1, learned)
            else:
                node.est_rows = self._estimate_access(entry, sorted(enforced))
                if inlist_cap is not None:
                    node.est_rows = max(
                        0.1, min(node.est_rows, inlist_cap)
                    )
            if key_cols:
                node.feedback_key = (
                    table.name.lower(),
                    tuple(sorted(key_cols)),
                )
            return node

        # Feedback-driven access demotion: once an analyzed run has
        # taught us how many index entries this (prefix, range shape)
        # access matches, compare a B+-tree descent plus per-entry work
        # against one sequential scan and demote wide index ranges to
        # TBSCAN.  Join probes (prefix columns bound by another table)
        # are exempt — their per-probe cost is the join method's call.
        if (
            index_info is not None
            and forced_access is None
            and self.feedback is not None
            and set(prefix) <= single_eq_cols
        ):
            learned = self.feedback.estimate(
                table.name, sorted(set(prefix) | range_marker)
            )
            if learned is not None:
                index_cols = {c.lower() for c in index_info.column_names}
                covers = set(needed.get(entry.binding, set())) <= index_cols
                per_entry = 1.0 if covers else 2.5
                index_cost = 3.0 + per_entry * max(0.1, learned)
                if _seq_scan_cost(table) < index_cost:
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
            # A (possibly demoted) scan's result key matches the index
            # path's: same eq columns, same residual fingerprints.
            return annotate(node, single_eq_cols, residual_fps)

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
            range_sql=range_sql,
        )
        consumed.update(id(c) for c in residual_conjuncts)
        self._consume_derived_duplicates(conjuncts, consumed, placed_bindings | {entry.binding})
        enforced = set(prefix) | single_eq_cols
        if index_only:
            return annotate(ixscan, enforced, residual_fps)
        # The IXSCAN's own stats count prefix/range matches *before*
        # residuals — exactly the per-entry cost the demotion decision
        # needs — so it carries the pre-residual key; the FETCH above it
        # carries the post-residual result key.
        ixscan.est_rows = self._estimate_access(entry, sorted(set(prefix)))
        pre_key = set(prefix) | range_marker
        if pre_key:
            ixscan.feedback_key = (table.name.lower(), tuple(sorted(pre_key)))
        fetch = phys.PFetch(
            schema=entry.schema, child=ixscan, table_name=table.name
        )
        return annotate(fetch, enforced, residual_fps)

    _RANGE_OPS = {"<", "<=", ">", ">="}
    _FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

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
                isinstance(expr, ast.BinaryOp) and expr.op in self._RANGE_OPS
            ):
                continue
            for lhs, rhs, op in (
                (expr.left, expr.right, expr.op),
                (expr.right, expr.left, self._FLIP[expr.op]),
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
        incomplete, a residual's columns cannot be proven, a name fails
        to resolve, or pruning would not drop anything.  Residuals are
        re-walked strictly rather than trusted to appear in ``needed``:
        derived (pushed-down) conjuncts are not part of the block's own
        conjunct list.
        """
        if "" in needed:
            return None
        names = set(needed.get(entry.binding, set()))
        for conjunct in residuals:
            cols = self._strict_columns(conjunct.expr, entry.binding)
            if cols is None:
                return None
            names |= cols
        schema = entry.schema
        if len(names) >= len(schema.slots):
            return None
        try:
            return sorted(
                schema.resolve(entry.binding, name) for name in names
            )
        except (UnknownObjectError, PlanError):
            return None

    @staticmethod
    def _strict_columns(expr: ast.Expr, binding: str) -> set[str] | None:
        """Columns of ``binding`` referenced in ``expr``, or ``None``
        when the set cannot be proven complete (an unqualified reference
        or a node ``ast.walk`` rejects as not an expression)."""
        cols: set[str] = set()
        try:
            for node in ast.walk(expr):
                if isinstance(node, ast.ColumnRef):
                    if node.table is None:
                        return None
                    if node.table.lower() == binding:
                        cols.add(node.column.lower())
        except TypeError:
            return None
        return cols

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
        table = entry.table
        assert table is not None
        if not eq_map:
            return None, []
        if self.profile is OptimizerProfile.ADVANCED:
            info = table.find_index(tuple(eq_map.keys()))
            if info is None:
                return None, []
            prefix = []
            for col in info.column_names:
                if col.lower() in eq_map:
                    prefix.append(col.lower())
                else:
                    break
            return info, prefix
        # SIMPLE: the index whose leading column is bound by the textually
        # first predicate wins, even if another index would match longer.
        ordered_cols = [
            col
            for col, (_, conjunct) in sorted(
                eq_map.items(), key=lambda kv: kv[1][1].order
            )
        ]
        for col in ordered_cols:
            candidates = [
                info
                for info in table.indexes.values()
                if info.column_names[0].lower() == col
            ]
            if not candidates:
                continue
            best, best_prefix = None, []
            for info in candidates:
                prefix = []
                for c in info.column_names:
                    if c.lower() in eq_map:
                        prefix.append(c.lower())
                    else:
                        break
                if len(prefix) > len(best_prefix):
                    best, best_prefix = info, prefix
            if best is not None:
                return best, best_prefix
        return None, []

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
                    entry, list(eq_with_outer.keys())
                )
                est_const = self._estimate_access(
                    entry, list(const_only.keys())
                )
                _, const_prefix = self._choose_index(entry, const_only, conjuncts)
                if const_prefix:
                    inner_access = 3.0 + 2.5 * est_const
                    if entry.table.storage == "columnar":
                        # Hash-build scans are cheaper per row on
                        # columnar tables (predicates run as column
                        # comprehensions before row assembly), so the
                        # build may beat even a const-prefix index
                        # access; ADVANCED plans shift toward hash
                        # joins over columnar inners.  Heap costing is
                        # deliberately untouched — the optimizer-quality
                        # harness pins conventional-layout plans.
                        inner_access = min(
                            inner_access, _seq_scan_cost(entry.table)
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
            if len(call.args) != 1:
                raise PlanError(f"{call.name} takes exactly one argument")
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

    @staticmethod
    def _output_position(
        block: QueryBlock, expr: ast.Expr
    ) -> int | None:
        """The output column an ORDER BY key denotes, if any.

        Matching is by exact expression text against a select item, or
        by a (unique) unqualified reference to an output name.  Name
        matching alone is NOT sound for qualified refs: after subquery
        flattening, a physical column (``f0.val``) can collide with an
        output name (``val``) that projects a *different* expression,
        and the schema resolver's name-only fallback would silently
        sort on the wrong column."""
        rendered = expr.sql()
        for position, item in enumerate(block.items):
            if item.expr.sql() == rendered:
                return position
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            lowered = [n.lower() for n in block.output_names()]
            name = expr.column.lower()
            if lowered.count(name) == 1:
                return lowered.index(name)
        return None

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
                out_position = self._output_position(block, expr)
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
                    try:
                        post = scope.compile(expr)
                    except EngineError:
                        raise PlanError(
                            f"ORDER BY {expr.sql()} must reference output "
                            "columns, GROUP BY expressions, or aggregates"
                        ) from None
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
        # (by position — see _output_position for why name matching
        # alone is unsound after flattening).
        post_keys, ok = [], True
        for order_item in block.order_by:
            position = self._output_position(block, order_item.expr)
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
            pre_keys = [
                (child_compiler.compile(o.expr), o.descending)
                for o in block.order_by
            ]
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
