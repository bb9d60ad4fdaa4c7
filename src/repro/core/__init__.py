"""The paper's contribution: multi-tenant schema mapping & Chunk Folding."""

from .api import MultiTenantDatabase  # noqa: F401
from .capacity import (  # noqa: F401
    ApplicationProfile,
    CapacityModel,
    figure2_estimates,
)
from .folding import (  # noqa: F401
    ChunkAssignment,
    ChunkShape,
    FoldingDecision,
    FoldingPlanner,
    assign_cover,
    merge_shapes,
    partition_columns,
    select_cover_shapes,
    shape_fits,
    shape_waste,
    total_waste,
)
from .layouts import LAYOUTS, make_layout  # noqa: F401
from .layouts.base import ColumnLoc, Fragment, Layout  # noqa: F401
from .migration import Migrator  # noqa: F401
from .schema import (  # noqa: F401
    Extension,
    LogicalColumn,
    LogicalTable,
    MultiTenantSchema,
    TenantConfig,
)
from .transform.dml import DmlTransformer  # noqa: F401
from .transform.flatten import PredicateOrder  # noqa: F401
from .transform.query import QueryTransformer, build_reconstruction  # noqa: F401
