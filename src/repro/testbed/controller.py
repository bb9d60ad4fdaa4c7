"""The Controller and the testbed driver (Section 4).

The Controller deals cards from the shuffled deck to the session with
the earliest simulated clock (event-driven concurrency), collects
response times into the Result Database, strips ramp-up, and rolls the
run up into the Table 2 metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.api import MultiTenantDatabase
from ..engine.database import Database
from ..engine.pager import PageKind
from .actions import ActionClass, ActionExecutor
from .crm import crm_tables
from .deck import CardDeck
from .generator import DataGenerator, TenantDataProfile
from .results import ActionResult, ResultSet, RunMetrics
from .simtime import CostModel
from .variability import VariabilityConfig, distribute_tenants
from .worker import LockOverlap, Session, Worker


@dataclass
class TestbedConfig:
    """One experiment configuration.

    (Not a pytest class, despite the name.)

    Defaults are the documented 1/100-ish scale of the paper's setup
    (10,000 tenants, 1 GB RAM, 40 sessions): the trends of Table 2 /
    Figure 7 depend on the *ratio* of meta-data to buffer-pool memory,
    which the scaling preserves.
    """

    __test__ = False  # not a pytest collection target

    variability: float = 0.0
    tenants: int = 100
    sessions: int = 10
    actions: int = 500
    memory_bytes: int = 10 * 1024 * 1024
    layout: str = "extension"  # §4.1: the testbed models this layout
    data_profile: TenantDataProfile = field(default_factory=TenantDataProfile)
    seed: int = 2008
    ramp_up_fraction: float = 0.1
    cost_model: CostModel = field(default_factory=CostModel)
    layout_options: dict = field(default_factory=dict)
    #: When set, the System Under Test runs on a disk-backed engine
    #: rooted at this directory (WAL + page segments), so testbed runs
    #: can crash and recover; ``None`` keeps the all-in-memory engine.
    db_path: str | None = None


class Controller:
    """Deals cards to sessions and collects results."""

    def __init__(
        self,
        worker: Worker,
        deck: CardDeck,
        sessions: list[Session],
    ) -> None:
        self.worker = worker
        self.deck = deck
        self.sessions = sessions
        self.results = ResultSet()

    def run(self) -> ResultSet:
        while True:
            card = self.deck.deal()
            if card is None:
                break
            session = min(self.sessions, key=lambda s: s.clock_ms)
            start = session.clock_ms
            response = self.worker.execute(session, card.action, card.tenant_id)
            self.results.record(
                ActionResult(
                    action=card.action,
                    tenant_id=card.tenant_id,
                    session_id=session.session_id,
                    start_ms=start,
                    response_ms=response,
                )
            )
            session.advance(response)
        return self.results


class Testbed:
    """Builds the System Under Test for one configuration and runs it."""

    __test__ = False  # not a pytest collection target

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self.variability = VariabilityConfig(config.variability, config.tenants)
        self.tenant_instance = distribute_tenants(self.variability)
        self.mtd: MultiTenantDatabase | None = None
        self._pool_before = None

    # -- setup -------------------------------------------------------------

    def setup(self) -> MultiTenantDatabase:
        """Create schema instances, tenants, and load synthetic data."""
        config = self.config
        db = Database(memory_bytes=config.memory_bytes, path=config.db_path)
        mtd = MultiTenantDatabase(
            layout=config.layout, db=db, **config.layout_options
        )
        instance_tables = {}
        for instance in range(self.variability.instances):
            tables = crm_tables(instance)
            instance_tables[instance] = tables
            for table in tables:
                mtd.define_table(table)
        generator = DataGenerator(config.seed)
        profile = config.data_profile
        for tenant_id, instance in self.tenant_instance.items():
            mtd.create_tenant(tenant_id)
            generator.load_tenant(
                mtd, tenant_id, instance_tables[instance], profile
            )
        self.mtd = mtd
        return mtd

    # -- running ---------------------------------------------------------------

    def run(self) -> ResultSet:
        if self.mtd is None:
            self.setup()
        config = self.config
        executor = ActionExecutor(
            self.mtd,
            config.data_profile,
            DataGenerator(config.seed),
            self.tenant_instance,
            seed=config.seed + 1,
        )
        worker = Worker(self.mtd, executor, config.cost_model, LockOverlap())
        deck = CardDeck(
            config.actions,
            sorted(self.tenant_instance),
            seed=config.seed + 2,
        )
        sessions = [Session(i) for i in range(config.sessions)]
        # Snapshot the pool counters so metrics() reports the run window
        # (steady-state work), not the data load.
        self._pool_before = self.mtd.db.pool_stats.snapshot()
        controller = Controller(worker, deck, sessions)
        results = controller.run()
        return results.strip_ramp_up(config.ramp_up_fraction)

    # -- metrics --------------------------------------------------------------------

    def metrics(
        self,
        results: ResultSet,
        baseline: dict[ActionClass, float] | None = None,
    ) -> RunMetrics:
        assert self.mtd is not None
        pool = self.mtd.db.pool_stats
        if self._pool_before is not None:
            pool = pool.delta(self._pool_before)
        quantiles = results.quantiles(0.95)
        compliance = (
            results.baseline_compliance(baseline) if baseline else 95.0
        )
        return RunMetrics(
            variability=self.config.variability,
            total_tables=self.variability.total_tables,
            baseline_compliance=compliance,
            throughput_per_minute=results.throughput_per_minute(
                self.config.sessions
            ),
            quantiles_ms=quantiles,
            data_hit_ratio=pool.hit_ratio(PageKind.DATA),
            index_hit_ratio=pool.hit_ratio(PageKind.INDEX),
        )
