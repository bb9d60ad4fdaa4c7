"""Reproduction of *Multi-Tenant Databases for Software as a Service:
Schema-Mapping Techniques* (Aulbach, Grust, Jacobs, Kemper, Rittinger —
SIGMOD 2008).

Packages:

* :mod:`repro.engine`  — an instrumented pure-Python relational engine
  (the substrate playing DB2/MySQL's role).
* :mod:`repro.core`    — schema-mapping layouts, query/DML
  transformation, and Chunk Folding (the paper's contribution).
* :mod:`repro.testbed` — the MTD multi-tenant CRM testbed (Section 4).
* :mod:`repro.experiments` — harnesses regenerating every table/figure.
"""

from .core import (  # noqa: F401
    Extension,
    LogicalColumn,
    LogicalTable,
    MultiTenantDatabase,
    PredicateOrder,
)
from .engine import Database, OptimizerProfile  # noqa: F401
from .analysis import sanitizers  # noqa: F401  (installs the sanitizer hook)

__version__ = "1.0.0"
