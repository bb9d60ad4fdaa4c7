"""Physical plan nodes.

Operator names follow the DB2 vocabulary the paper's Figure 8 uses:
``TBSCAN``, ``IXSCAN``, ``FETCH``, ``NLJOIN``, ``HSJOIN``, ``GRPBY``,
``SORT``, ``FILTER``, ``RETURN`` — so rendered plans are directly
comparable with the figure.

Nodes are built by :mod:`repro.engine.optimizer` with expressions
already compiled (closures over slot positions); the executor only walks
the tree and pulls rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..expr import Compiled, Schema


@dataclass
class PNode:
    """Base physical node."""

    schema: Schema

    # Planner annotations (deliberately *not* dataclass fields — every
    # subclass would otherwise need defaults after them).  ``est_rows``
    # is the optimizer's cardinality estimate for this operator's
    # output.
    est_rows = None  # type: float | None

    @property
    def op_name(self) -> str:
        return type(self).__name__

    def children(self) -> list["PNode"]:
        return []

    def describe(self) -> str:
        return ""


@dataclass
class PTableScan(PNode):
    table_name: str
    binding: str
    residual: list[Compiled] = field(default_factory=list)
    residual_sql: list[str] = field(default_factory=list)
    #: Slot positions the plan can prove it reads (``None`` = all).  A
    #: scan materializes only these columns; the rest stay on
    #: their pages (NULL-filled if a batch is ever row-assembled).  Big
    #: win for the Universal Table, whose physical row is ~60 columns
    #: wide while a typical fused cross-tenant query touches a handful.
    used_columns: list[int] | None = None

    @property
    def op_name(self) -> str:
        return "TBSCAN"

    def describe(self) -> str:
        return f"{self.table_name} AS {self.binding}"


@dataclass
class PIndexScan(PNode):
    """Equality-prefix index scan, optionally narrowed on the next index
    column by range bounds or by the items of an IN list
    (``BTreeIndex.in_batches``, one walk over the keys in order).

    ``key_exprs`` are compiled against the *outer* schema (empty for the
    leftmost access; the current outer row for NLJOIN inners).  When
    ``index_only`` the schema's non-index slots are never populated and
    no FETCH child is added above.
    """

    table_name: str
    binding: str
    index_name: str
    key_exprs: list[Compiled] = field(default_factory=list)
    key_sql: list[str] = field(default_factory=list)
    index_only: bool = False
    residual: list[Compiled] = field(default_factory=list)
    residual_sql: list[str] = field(default_factory=list)
    #: Optional range bounds on the column following the equality
    #: prefix; bounds are inclusive at scan level (exact exclusivity is
    #: re-checked by the residual predicates).
    range_low: Compiled | None = None
    range_high: Compiled | None = None
    #: The items of ``col IN (...)`` on that column, probed as keys
    #: instead of range bounds; the IN list stays a residual.
    in_keys: list[Compiled] | None = None
    #: EXPLAIN text of the range bounds or the IN list.
    range_sql: list[str] = field(default_factory=list)

    @property
    def op_name(self) -> str:
        return "IXSCAN"

    def describe(self) -> str:
        keys = ", ".join(self.key_sql + self.range_sql)
        tail = " (index-only)" if self.index_only else ""
        return f"{self.table_name} AS {self.binding} via {self.index_name}({keys}){tail}"


@dataclass
class PFetch(PNode):
    """RID-to-row fetch above an IXSCAN (reads data pages)."""

    child: PIndexScan = None  # type: ignore[assignment]
    table_name: str = ""

    @property
    def op_name(self) -> str:
        return "FETCH"

    def children(self) -> list[PNode]:
        return [self.child]

    def describe(self) -> str:
        return self.table_name


@dataclass
class PMaterialize(PNode):
    """Evaluate a derived table once and buffer it (SIMPLE profile's
    treatment of FROM subqueries — the penalty Test 1 measures)."""

    child: PNode = None  # type: ignore[assignment]
    binding: str = ""
    residual: list[Compiled] = field(default_factory=list)
    residual_sql: list[str] = field(default_factory=list)

    @property
    def op_name(self) -> str:
        return "MATERIALIZE"

    def children(self) -> list[PNode]:
        return [self.child]

    def describe(self) -> str:
        return f"derived table {self.binding}"


@dataclass
class PNLJoin(PNode):
    outer: PNode = None  # type: ignore[assignment]
    inner: PNode = None  # type: ignore[assignment]  # access node, re-run per outer row

    @property
    def op_name(self) -> str:
        return "NLJOIN"

    def children(self) -> list[PNode]:
        return [self.outer, self.inner]


@dataclass
class PHSJoin(PNode):
    left: PNode = None  # type: ignore[assignment]
    right: PNode = None  # type: ignore[assignment]  # build side
    left_keys: list[Compiled] = field(default_factory=list)
    right_keys: list[Compiled] = field(default_factory=list)
    key_sql: list[str] = field(default_factory=list)

    @property
    def op_name(self) -> str:
        return "HSJOIN"

    def children(self) -> list[PNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return " AND ".join(self.key_sql)


@dataclass
class PFilter(PNode):
    child: PNode = None  # type: ignore[assignment]
    predicates: list[Compiled] = field(default_factory=list)
    predicate_sql: list[str] = field(default_factory=list)

    @property
    def op_name(self) -> str:
        return "FILTER"

    def children(self) -> list[PNode]:
        return [self.child]

    def describe(self) -> str:
        return " AND ".join(self.predicate_sql)


@dataclass
class AggSpec:
    """One aggregate computed by GRPBY."""

    func: str  # COUNT / SUM / AVG / MIN / MAX / COUNT_STAR
    arg: Compiled | None
    distinct: bool = False


@dataclass
class OutputSpec:
    """How one output column of a GRPBY is produced: either a group key
    (``group_index``) or an aggregate (``agg_index``), optionally wrapped
    by a scalar post-expression compiled against (keys + aggs) tuples."""

    group_index: int | None = None
    agg_index: int | None = None
    post: Compiled | None = None


@dataclass
class PGroup(PNode):
    child: PNode = None  # type: ignore[assignment]
    group_exprs: list[Compiled] = field(default_factory=list)
    aggs: list[AggSpec] = field(default_factory=list)
    outputs: list[OutputSpec] = field(default_factory=list)
    having: Compiled | None = None

    @property
    def op_name(self) -> str:
        return "GRPBY"

    def children(self) -> list[PNode]:
        return [self.child]

    def describe(self) -> str:
        return f"{len(self.group_exprs)} keys, {len(self.aggs)} aggregates"


@dataclass
class PProject(PNode):
    child: PNode = None  # type: ignore[assignment]
    exprs: list[Compiled] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    @property
    def op_name(self) -> str:
        return "PROJECT"

    def children(self) -> list[PNode]:
        return [self.child]

    def describe(self) -> str:
        return ", ".join(self.labels)


@dataclass
class PSort(PNode):
    child: PNode = None  # type: ignore[assignment]
    keys: list[tuple[Compiled, bool]] = field(default_factory=list)  # (expr, desc)

    @property
    def op_name(self) -> str:
        return "SORT"

    def children(self) -> list[PNode]:
        return [self.child]


@dataclass
class PDistinct(PNode):
    child: PNode = None  # type: ignore[assignment]

    @property
    def op_name(self) -> str:
        return "DISTINCT"

    def children(self) -> list[PNode]:
        return [self.child]


@dataclass
class PLimit(PNode):
    child: PNode = None  # type: ignore[assignment]
    limit: int = 0

    @property
    def op_name(self) -> str:
        return "LIMIT"

    def children(self) -> list[PNode]:
        return [self.child]

    def describe(self) -> str:
        return str(self.limit)


@dataclass
class PReturn(PNode):
    child: PNode = None  # type: ignore[assignment]
    #: Parameter slot -> the column type that casts it at each run
    #: (:attr:`~repro.engine.plan.bind.Bound.param_casts`).
    param_casts: dict = field(default_factory=dict)

    @property
    def op_name(self) -> str:
        return "RETURN"

    @cached_property
    def column_names(self) -> list[str]:
        """Once per plan; each result gets a copy."""
        return [slot.name for slot in self.schema.slots]

    def children(self) -> list[PNode]:
        return [self.child]
