"""A pure-Python, page-accurate relational engine.

This package is the *substrate* of the reproduction: the role DB2 and
MySQL play in the paper.  It provides an instrumented buffer pool
(logical/physical page reads, hit ratios split data/index), B+-tree
indexes with prefix compression, slotted-page heap files, a SQL subset,
and a planner with two optimizer profiles (ADVANCED ≈ DB2,
SIMPLE ≈ MySQL) — everything Experiments 1 and 2 measure.
"""

from .catalog import Catalog, Column, IndexInfo, Table  # noqa: F401
from .database import Database, Result  # noqa: F401
from .errors import (  # noqa: F401
    CatalogError,
    ConstraintError,
    EngineError,
    ExecutionError,
    NotNullViolation,
    ParseError,
    PlanError,
    TypeMismatchError,
    UniqueViolation,
    UnknownObjectError,
)
from .explain import count_operators, plan_shape, render_plan  # noqa: F401
from .heap import InsertStrategy, RowId  # noqa: F401
from .observability import (  # noqa: F401
    AnalyzeCollector,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    OperatorStats,
    QueryTrace,
    render_analyzed_plan,
)
from .optimizer import OptimizerProfile, PlanDirectives, Planner  # noqa: F401
from .pager import DEFAULT_PAGE_SIZE, BufferPool, PageKind, PoolStats  # noqa: F401
from .vexecutor import ExecStats, VectorizedExecutor  # noqa: F401
from .values import (  # noqa: F401
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    SqlType,
    TypeKind,
    parse_type,
    varchar,
)
