"""Query and DML transformation (Sections 6.1 and 6.3 of the paper)."""

from .query import QueryTransformer, build_reconstruction, used_columns  # noqa: F401
from .dml import DmlTransformer  # noqa: F401
from .flatten import flatten_transformed, order_predicates, PredicateOrder  # noqa: F401
