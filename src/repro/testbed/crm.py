"""The CRM application schema of Figure 5.

Ten tables in a classic DAG-structured OLTP shape with one-to-many
relationships from child to parent:

::

    Campaign          Account
       ▲            ▲   ▲   ▲
       Lead   Opportunity Asset Contact
                 ▲    ▲          ▲   ▲
           LineItem  Product   Case Contract

Each table has about 20 columns; the first is the entity id.  "Every
table has a primary index on the entity ID and a unique compound index
on the tenant ID and the entity ID.  In addition, there are twelve
indexes on selected columns for reporting queries and update tasks."
The twelve reporting indexes are the columns marked ``indexed=True``
below (beyond the entity/parent ids).

To "programmatically increase the overall number of tables without
making them too synthetic", multiple copies of the 10-table schema are
created (:func:`crm_tables` with an instance number); each copy
represents a logically different set of entities (Section 4.1).

This module is the testbed's one model of the application, in the
sense of TAQO's "Model": the schema, the Table 1 variability levels,
the Figure 6 card deck, and for each action class the statement shapes
it issues and how it draws their parameters, plus :func:`build_crm`,
which loads a multi-tenant database with it.  The testbed's workers,
the analysis testbed and its isolation corpus all draw from here, so
the statements the isolation gate proves are the ones the testbed runs.
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from ..core.schema import Extension, LogicalColumn, LogicalTable
from ..engine.errors import PlanError
from ..engine.values import BOOLEAN, DATE, DOUBLE, INTEGER, varchar
from .generator import DataGenerator, TenantDataProfile

#: Base table names in definition order.
CRM_TABLE_NAMES = (
    "campaign",
    "account",
    "lead",
    "opportunity",
    "asset",
    "contact",
    "lineitem",
    "product",
    "case_file",  # "case" alone would collide with the SQL keyword
    "contract",
)

#: child -> parent relationships (one-to-many, child holds parent id).
CRM_PARENTS = {
    "lead": "campaign",
    "opportunity": "account",
    "asset": "account",
    "contact": "account",
    "lineitem": "opportunity",
    "product": "opportunity",
    "case_file": "contact",
    "contract": "contact",
}

#: (table, column) pairs carrying the twelve reporting indexes.
REPORTING_INDEXES = (
    ("campaign", "status"),
    ("campaign", "start_date"),
    ("account", "name"),
    ("account", "industry"),
    ("lead", "status"),
    ("opportunity", "stage"),
    ("opportunity", "close_date"),
    ("contact", "last_name"),
    ("lineitem", "ship_date"),
    ("product", "family"),
    ("case_file", "status"),
    ("contract", "end_date"),
)


def _payload_columns(table: str) -> list[LogicalColumn]:
    """~16 generic payload columns so each table lands near the paper's
    'about 20 columns'."""
    indexed = {c for t, c in REPORTING_INDEXES if t == table}

    def col(name, sql_type):
        return LogicalColumn(name, sql_type, indexed=name in indexed)

    return [
        col("name", varchar(60)),
        col("status", varchar(20)),
        col("stage", varchar(20)),
        col("industry", varchar(30)),
        col("family", varchar(30)),
        col("last_name", varchar(40)),
        col("description", varchar(120)),
        col("owner", varchar(40)),
        col("amount", DOUBLE),
        col("quantity", INTEGER),
        col("score", INTEGER),
        col("priority", INTEGER),
        col("active", BOOLEAN),
        col("start_date", DATE),
        col("close_date", DATE),
        col("ship_date", DATE),
        col("end_date", DATE),
        col("created", DATE),
    ]


def instance_table_name(base: str, instance: int) -> str:
    """Physical-logical name of one schema-instance copy of a table."""
    return base if instance == 0 else f"{base}_i{instance}"


def crm_tables(instance: int = 0) -> list[LogicalTable]:
    """One full copy of the 10-table CRM schema."""
    tables = []
    for base in CRM_TABLE_NAMES:
        columns = [LogicalColumn("id", INTEGER, indexed=True, not_null=True)]
        parent = CRM_PARENTS.get(base)
        if parent is not None:
            columns.append(LogicalColumn("parent", INTEGER, indexed=True))
        columns.extend(_payload_columns(base))
        tables.append(
            LogicalTable(instance_table_name(base, instance), tuple(columns))
        )
    return tables


def crm_extensions(instance: int = 0) -> list[Extension]:
    """Optional per-vertical extensions ('the testbed will eventually
    offer a set of possible extensions for each base table') — used by
    the Chunk Folding experiments."""
    account = instance_table_name("account", instance)
    contact = instance_table_name("contact", instance)
    suffix = "" if instance == 0 else f"_i{instance}"
    return [
        Extension(
            f"healthcare{suffix}",
            account,
            (
                LogicalColumn("hospital", varchar(60)),
                LogicalColumn("beds", INTEGER),
                LogicalColumn("accreditation", varchar(30)),
            ),
        ),
        Extension(
            f"automotive{suffix}",
            account,
            (
                LogicalColumn("dealers", INTEGER),
                LogicalColumn("fleet_size", INTEGER),
            ),
        ),
        Extension(
            f"gdpr{suffix}",
            contact,
            (
                LogicalColumn("consent", BOOLEAN),
                LogicalColumn("consent_date", DATE),
            ),
        ),
    ]


# -- Table 1: schema variability --------------------------------------------
#
# The Experiment 1 knob: with ``variability`` 0.0 a single schema
# instance is shared by all tenants (10 tables total); with 1.0 every
# tenant has a private instance (tenants x 10 tables).  "Between these
# two extremes, tenants are distributed as evenly as possible among the
# schema instances."

#: Table 1's schema-variability levels: the columns of Table 2 and the
#: points of Figure 7.
PAPER_VARIABILITIES = (0.0, 0.5, 0.65, 0.8, 1.0)


@dataclass(frozen=True)
class VariabilityConfig:
    """One row of Table 1 (scaled by the tenant count)."""

    variability: float
    tenants: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.variability <= 1.0:
            raise PlanError("schema variability must be in [0, 1]")
        if self.tenants < 1:
            raise PlanError("need at least one tenant")

    @property
    def instances(self) -> int:
        return max(1, round(self.variability * self.tenants))

    @property
    def total_tables(self) -> int:
        return self.instances * 10

    def tenants_per_instance(self) -> list[int]:
        """Tenant counts per instance, distributed as evenly as possible
        with the fuller instances first (matching the paper's example:
        at 0.65, 'the first 3,500 schema instances have two tenants
        while the rest have only one')."""
        base, extra = divmod(self.tenants, self.instances)
        return [base + 1] * extra + [base] * (self.instances - extra)


def distribute_tenants(config: VariabilityConfig) -> dict[int, int]:
    """tenant_id (1-based) -> instance number (0-based)."""
    assignment: dict[int, int] = {}
    tenant = 1
    for instance, count in enumerate(config.tenants_per_instance()):
        for _ in range(count):
            assignment[tenant] = instance
            tenant += 1
    return assignment


# -- Figure 6: the action classes and the card deck --------------------------


class ActionClass(enum.Enum):
    SELECT_LIGHT = "Select Light"
    SELECT_HEAVY = "Select Heavy"
    INSERT_LIGHT = "Insert Light"
    INSERT_HEAVY = "Insert Heavy"
    UPDATE_LIGHT = "Update Light"
    UPDATE_HEAVY = "Update Heavy"
    ADMIN = "Administrative"
    TENANT_ADD = "Tenant Add"
    TENANT_DELETE = "Tenant Delete"


#: Figure 6 percentages.
ACTION_DISTRIBUTION = {
    ActionClass.SELECT_LIGHT: 50.0,
    ActionClass.SELECT_HEAVY: 15.0,
    ActionClass.INSERT_LIGHT: 9.59,
    ActionClass.INSERT_HEAVY: 0.3,
    ActionClass.UPDATE_LIGHT: 17.6,
    ActionClass.UPDATE_HEAVY: 7.5,
    ActionClass.ADMIN: 0.01,
}

#: Variant mix with tenant churn ("administrative operations for the
#: business as a whole, in particular, adding and deleting tenants").
CHURN_DISTRIBUTION = {
    **ACTION_DISTRIBUTION,
    ActionClass.SELECT_LIGHT: 49.0,
    ActionClass.TENANT_ADD: 0.6,
    ActionClass.TENANT_DELETE: 0.4,
}

#: Batch size for heavyweight DML; the paper uses "several hundred"
#: entity instances — scaled with the rest of the data volume.
HEAVY_BATCH = 25


@dataclass(frozen=True)
class Card:
    action: ActionClass
    tenant_id: int


class CardDeck:
    """The Controller's shuffled deck of (action, tenant) cards.

    "Following the TPC-C benchmark, the Controller creates a deck of
    'action cards' with a particular distribution, shuffles it, and deals
    cards to the Workers.  The Controller also randomly selects tenants,
    with an equal distribution, and assigns one to each card."
    """

    def __init__(
        self,
        size: int,
        tenant_ids: list[int],
        seed: int = 7,
        distribution: dict[ActionClass, float] | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("deck size must be positive")
        if not tenant_ids:
            raise ValueError("need at least one tenant")
        self._rng = random.Random(seed)
        dist = distribution or ACTION_DISTRIBUTION
        actions = self._materialize(size, dist)
        self._cards = [
            Card(action, self._rng.choice(tenant_ids)) for action in actions
        ]
        self._rng.shuffle(self._cards)
        self._next = 0

    def _materialize(
        self, size: int, distribution: dict[ActionClass, float]
    ) -> list[ActionClass]:
        """Largest-remainder apportionment so small classes (Admin at
        0.01 %) still appear in large decks and every deck size sums
        exactly."""
        total = sum(distribution.values())
        exact = {
            action: size * share / total for action, share in distribution.items()
        }
        counts = {action: int(v) for action, v in exact.items()}
        leftover = size - sum(counts.values())
        by_remainder = sorted(
            exact, key=lambda a: exact[a] - counts[a], reverse=True
        )
        for action in by_remainder[:leftover]:
            counts[action] += 1
        cards: list[ActionClass] = []
        for action, count in counts.items():
            cards.extend([action] * count)
        return cards

    def __len__(self) -> int:
        return len(self._cards)

    def deal(self) -> Card | None:
        """Next card, or None when the deck is exhausted."""
        if self._next >= len(self._cards):
            return None
        card = self._cards[self._next]
        self._next += 1
        return card

    def class_counts(self) -> dict[ActionClass, int]:
        return Counter(card.action for card in self._cards)


# -- each action class's statements ------------------------------------------


#: The five reporting queries of the Select Heavy class, parameterized
#: by (child, parent) table names.  They "perform aggregation and/or
#: parent-child-rollup" and are "simple enough to run against an
#: operational OLTP system".
def _reporting_queries(child: str, parent: str) -> list[str]:
    return [
        # 1: status breakdown of a table (aggregation + grouping).
        f"SELECT status, COUNT(*) AS n FROM {child} GROUP BY status "
        f"ORDER BY n DESC",
        # 2: parent-child rollup: children per parent.
        f"SELECT p.name, COUNT(*) AS n FROM {parent} p, {child} c "
        f"WHERE c.parent = p.id GROUP BY p.name ORDER BY n DESC LIMIT 10",
        # 3: value rollup over the join.
        f"SELECT p.id, SUM(c.amount) AS total FROM {parent} p, {child} c "
        f"WHERE c.parent = p.id GROUP BY p.id ORDER BY total DESC LIMIT 10",
        # 4: date-windowed aggregate.
        f"SELECT COUNT(*), AVG(amount) FROM {child} "
        f"WHERE created > '2005-01-01'",
        # 5: top entities by score.
        f"SELECT name, score FROM {child} WHERE score IS NOT NULL "
        f"ORDER BY score DESC LIMIT 20",
    ]


#: The shape of each action class that picks one table, over
#: ``{table}``; None for the Insert classes, whose statement is
#: :func:`insert_entity`.
TABLE_SHAPES: dict[ActionClass, str | None] = {
    # All attributes of one entity, as for an entity detail page.
    ActionClass.SELECT_LIGHT: "SELECT * FROM {table} WHERE id = ?",
    # One new entity, as if manually entered in the browser, or a batch
    # of them imported via the Web Service interface.
    ActionClass.INSERT_LIGHT: None,
    ActionClass.INSERT_HEAVY: None,
    # A small set selected by an indexed filter condition.
    ActionClass.UPDATE_LIGHT: "UPDATE {table} SET priority = ? WHERE status = ?",
    # A batch of entities selected by primary key.
    ActionClass.UPDATE_HEAVY: "UPDATE {table} SET score = score + 1 "
    f"WHERE id IN ({', '.join('?' * HEAVY_BATCH)})",
}

#: The Insert classes number new entities from here up, above every
#: loaded row, per (tenant, table).
FIRST_INSERTED_ID = 100_000


@dataclass(frozen=True)
class Statement:
    """One logical statement: ``sql`` with ``params``, or, where ``sql``
    is None, one generated row into ``table`` (:func:`insert_entity`).
    ``action`` is the class that issues it against ``table``, if any."""

    sql: str | None
    params: tuple = ()
    action: ActionClass | None = None
    table: str = ""

    @property
    def is_dml(self) -> bool:
        return self.sql is None or not self.sql.startswith("SELECT")


def _targets(action: ActionClass, instance: int) -> list[tuple[str, list]]:
    """The tables an action class picks from on schema ``instance``,
    each with the shapes it may issue there: a child table and its five
    reports for Select Heavy, any table and its one shape otherwise."""
    if action is ActionClass.SELECT_HEAVY:
        targets = []
        for child in sorted(CRM_PARENTS):
            table = instance_table_name(child, instance)
            parent = instance_table_name(CRM_PARENTS[child], instance)
            targets.append((table, _reporting_queries(table, parent)))
        return targets
    shape = TABLE_SHAPES[action]
    tables = [instance_table_name(base, instance) for base in CRM_TABLE_NAMES]
    return [(table, [shape and shape.format(table=table)]) for table in tables]


def action_statements(instance: int) -> list[Statement]:
    """Every statement shape the action classes issue on one schema
    instance, without parameters (Insert Heavy inserts as Insert Light
    does)."""
    return [
        Statement(sql, action=action, table=table)
        for action in (*TABLE_SHAPES, ActionClass.SELECT_HEAVY)
        if action is not ActionClass.INSERT_HEAVY
        for table, shapes in _targets(action, instance)
        for sql in shapes
    ]


def draw_params(
    action: ActionClass | None, rng: random.Random, rows: int
) -> tuple:
    """The parameters of a one-table shape of ``action`` (none for any
    other statement); ``rows``, the table's loaded row count, bounds the
    entity ids drawn."""
    if action is ActionClass.SELECT_LIGHT:
        return (rng.randrange(rows) + 1,)
    if action is ActionClass.UPDATE_LIGHT:
        status = rng.choice(("new", "open", "working"))
        return (rng.randrange(10), status)
    if action is ActionClass.UPDATE_HEAVY:
        return tuple(rng.randrange(rows) + 1 for _ in range(HEAVY_BATCH))
    return ()


def draw_statement(
    action: ActionClass,
    rng: random.Random,
    instance: int,
    profile: TenantDataProfile,
) -> Statement:
    """The statement a query or DML ``action`` issues next on schema
    ``instance``: its table, its shape and its parameters, drawn from
    ``rng`` in that order."""
    table, shapes = rng.choice(_targets(action, instance))
    if action is ActionClass.SELECT_HEAVY:
        # One of five fixed business-activity-monitoring queries.
        return Statement(rng.choice(shapes), action=action, table=table)
    params = draw_params(action, rng, profile.rows_for(table))
    return Statement(shapes[0], params, action, table)


def insert_entity(
    mtd,
    generator: DataGenerator,
    tenant_id: int,
    table: str,
    entity_id: int,
    profile: TenantDataProfile,
) -> None:
    """The Insert classes' statement: one generated row for the
    tenant's view of ``table`` (granted extensions included), inserted
    through ``mtd.insert`` as entity ``entity_id``."""
    logical = mtd.schema.logical_table(tenant_id, table)
    values = generator.row(tenant_id, logical, entity_id, profile.rows_for(table))
    values["id"] = entity_id
    mtd.insert(tenant_id, table, values)


# -- building the testbed ----------------------------------------------------


def load_tenant(
    mtd,
    generator: DataGenerator,
    tenant_id: int,
    instance: int,
    profile: TenantDataProfile,
) -> None:
    """Populate every table of one tenant's schema instance.  Parents
    are loaded before children (definition order follows the DAG), so
    a child row's ``parent`` names a loaded row.  Rows are generated
    against the tenant's *view*, so granted extensions get data too."""
    for base in CRM_TABLE_NAMES:
        table = instance_table_name(base, instance)
        parent = CRM_PARENTS.get(base)
        parents = profile.rows_for(parent) if parent else None
        logical = mtd.schema.logical_table(tenant_id, table)
        for row_number in range(profile.rows_for(base)):
            values = generator.row(tenant_id, logical, row_number, parents)
            mtd.insert(tenant_id, table, values)


def build_crm(
    mtd,
    variability: VariabilityConfig,
    profile: TenantDataProfile,
    seed: int = 2008,
    grants: Sequence[tuple[str, ...]] = (),
) -> dict[int, int]:
    """Load ``mtd`` with the testbed: every schema instance's ten
    tables, the tenants spread over them, and ``DataGenerator(seed)``
    rows for each.  With ``grants``, instance 0's extensions are defined
    too and its tenants take the grant sets in turn.  Returns tenant ->
    schema instance."""
    for instance in range(variability.instances):
        for table in crm_tables(instance):
            mtd.define_table(table)
    if grants:
        for extension in crm_extensions(0):
            mtd.define_extension(extension)
    assignment = distribute_tenants(variability)
    generator = DataGenerator(seed)
    for index, (tenant_id, instance) in enumerate(assignment.items()):
        extensions = grants[index % len(grants)] if grants and instance == 0 else ()
        mtd.create_tenant(tenant_id, extensions)
        load_tenant(mtd, generator, tenant_id, instance, profile)
    return assignment
