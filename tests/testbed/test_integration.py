"""End-to-end testbed runs at miniature scale."""

import pytest

from repro.testbed import Testbed, TestbedConfig
from repro.testbed.actions import ActionClass
from repro.testbed.generator import TenantDataProfile


@pytest.fixture(scope="module")
def small_run():
    config = TestbedConfig(
        variability=0.5,
        tenants=12,
        sessions=4,
        actions=120,
        memory_bytes=2 * 1024 * 1024,
        data_profile=TenantDataProfile(default_rows=4),
    )
    testbed = Testbed(config)
    testbed.setup()
    results = testbed.run()
    return testbed, results


class TestEndToEnd:
    def test_all_cards_executed(self, small_run):
        _, results = small_run
        # 10% ramp-up stripped from 120 cards.
        assert len(results) == 108

    def test_setup_created_expected_tables(self, small_run):
        testbed, _ = small_run
        # variability 0.5 with 12 tenants -> 6 instances x 10 tables,
        # extension layout: one physical table per logical table.
        assert testbed.mtd.db.catalog.table_count == 60

    def test_data_loaded_for_every_tenant(self, small_run):
        testbed, _ = small_run
        for tenant in (1, 6, 12):
            count = testbed.mtd.execute(
                tenant,
                f"SELECT COUNT(*) FROM "
                f"{self._account_table(testbed, tenant)}",
            ).rows[0][0]
            assert count >= 4

    @staticmethod
    def _account_table(testbed, tenant):
        instance = testbed.tenant_instance[tenant]
        return "account" if instance == 0 else f"account_i{instance}"

    def test_response_times_positive(self, small_run):
        _, results = small_run
        assert all(r.response_ms > 0 for r in results.results)

    def test_multiple_action_classes_appear(self, small_run):
        _, results = small_run
        classes = {r.action for r in results.results}
        assert ActionClass.SELECT_LIGHT in classes
        assert ActionClass.SELECT_HEAVY in classes
        assert len(classes) >= 4

    def test_metrics_computable(self, small_run):
        testbed, results = small_run
        metrics = testbed.metrics(results)
        assert metrics.total_tables == 60
        assert metrics.throughput_per_minute > 0
        assert 0.0 <= metrics.index_hit_ratio <= 1.0

    def test_sessions_share_the_load(self, small_run):
        _, results = small_run
        sessions = {r.session_id for r in results.results}
        assert len(sessions) == 4

    def test_deterministic_rerun(self):
        def run_once():
            config = TestbedConfig(
                variability=0.0,
                tenants=5,
                sessions=2,
                actions=40,
                memory_bytes=2 * 1024 * 1024,
                data_profile=TenantDataProfile(default_rows=3),
            )
            testbed = Testbed(config)
            testbed.setup()
            results = testbed.run()
            return [(r.action, round(r.response_ms, 6)) for r in results.results]

        assert run_once() == run_once()


class TestTransactionalWorker:
    def test_actions_run_inside_transactions(self):
        from repro.testbed.actions import ActionClass, ActionExecutor
        from repro.testbed.crm import crm_tables, load_tenant
        from repro.testbed.generator import DataGenerator, TenantDataProfile
        from repro.testbed.simtime import CostModel
        from repro.testbed.worker import LockOverlap, Session, Worker
        from repro.core.api import MultiTenantDatabase

        mtd = MultiTenantDatabase(layout="extension")
        for table in crm_tables():
            mtd.define_table(table)
        profile = TenantDataProfile(default_rows=2)
        generator = DataGenerator(seed=1)
        mtd.create_tenant(1)
        load_tenant(mtd, generator, 1, 0, profile)
        executor = ActionExecutor(mtd, profile, generator, {1: 0}, seed=4)
        worker = Worker(
            mtd, executor, CostModel(), LockOverlap(), transactional=True
        )
        session = Session(0)
        for action in (
            ActionClass.SELECT_LIGHT,
            ActionClass.INSERT_LIGHT,
            ActionClass.UPDATE_LIGHT,
            ActionClass.ADMIN,
        ):
            worker.execute(session, action, 1)
        assert not mtd.db.transactions.active
        # Three non-DDL actions committed explicitly; the ADMIN action's
        # DDL committed its transaction implicitly.
        assert mtd.db.metrics.value("txn.committed") >= 3


class TestVariabilityEffect:
    """The Experiment 1 mechanism at miniature scale: higher schema
    variability -> more tables -> less effective buffer pool."""

    @pytest.fixture(scope="class")
    def sweep(self):
        metrics = {}
        for variability in (0.0, 1.0):
            config = TestbedConfig(
                variability=variability,
                tenants=30,
                sessions=4,
                actions=200,
                memory_bytes=1_500_000,
                data_profile=TenantDataProfile(default_rows=4),
            )
            testbed = Testbed(config)
            testbed.setup()
            results = testbed.run()
            metrics[variability] = testbed.metrics(results)
        return metrics

    def test_throughput_degrades_with_variability(self, sweep):
        assert (
            sweep[1.0].throughput_per_minute < sweep[0.0].throughput_per_minute
        )

    def test_index_hit_ratio_degrades(self, sweep):
        assert sweep[1.0].index_hit_ratio < sweep[0.0].index_hit_ratio

    def test_more_tables_at_high_variability(self, sweep):
        assert sweep[1.0].total_tables == 300
        assert sweep[0.0].total_tables == 10
