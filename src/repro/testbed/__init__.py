"""The MTD testbed: a simulated multi-tenant hosted CRM service
(Section 4 of the paper).  :mod:`.crm` is its one model of the
application; the rest runs it."""

from .controller import Controller, TestbedConfig, Testbed  # noqa: F401
from .crm import ActionClass, ACTION_DISTRIBUTION, Card, CardDeck  # noqa: F401
from .crm import CRM_TABLE_NAMES, build_crm, crm_tables, crm_extensions  # noqa: F401
from .crm import VariabilityConfig, distribute_tenants  # noqa: F401
from .generator import DataGenerator, TenantDataProfile  # noqa: F401
from .results import ActionResult, ResultSet, RunMetrics  # noqa: F401
from .simtime import CostModel  # noqa: F401
