"""Tests for tenant churn: the add/delete-tenant administrative
actions and the churn workload mix."""

import pytest

from repro.core.api import MultiTenantDatabase
from repro.testbed.actions import ActionExecutor
from repro.testbed.crm import (
    ACTION_DISTRIBUTION,
    CHURN_DISTRIBUTION,
    ActionClass,
    CardDeck,
    crm_tables,
    load_tenant,
)
from repro.testbed.generator import DataGenerator, TenantDataProfile


@pytest.fixture
def executor():
    mtd = MultiTenantDatabase(layout="extension")
    for table in crm_tables():
        mtd.define_table(table)
    profile = TenantDataProfile(default_rows=2)
    generator = DataGenerator(seed=1)
    mtd.create_tenant(1)
    load_tenant(mtd, generator, 1, 0, profile)
    return ActionExecutor(mtd, profile, generator, {1: 0}, seed=3)


class TestChurnActions:
    def test_tenant_add_creates_and_loads(self, executor):
        executor.run(ActionClass.TENANT_ADD, 1)
        new_tenant = executor._churn_tenants[-1]
        count = executor.mtd.execute(
            new_tenant, "SELECT COUNT(*) FROM account"
        ).rows[0][0]
        assert count == 2

    def test_tenant_delete_removes_latest_churned(self, executor):
        executor.run(ActionClass.TENANT_ADD, 1)
        victim = executor._churn_tenants[-1]
        executor.run(ActionClass.TENANT_DELETE, 1)
        from repro.engine.errors import UnknownObjectError

        with pytest.raises(UnknownObjectError):
            executor.mtd.execute(victim, "SELECT COUNT(*) FROM account")

    def test_delete_without_churned_tenants_is_noop(self, executor):
        executor.run(ActionClass.TENANT_DELETE, 1)
        assert executor.mtd.execute(1, "SELECT COUNT(*) FROM account").rows

    def test_original_tenants_never_deleted(self, executor):
        executor.run(ActionClass.TENANT_ADD, 1)
        executor.run(ActionClass.TENANT_DELETE, 1)
        executor.run(ActionClass.TENANT_DELETE, 1)
        assert executor.mtd.execute(
            1, "SELECT COUNT(*) FROM account"
        ).rows == [(2,)]

    def test_churned_tenant_usable_for_workload(self, executor):
        executor.run(ActionClass.TENANT_ADD, 1)
        new_tenant = executor._churn_tenants[-1]
        executor.run(ActionClass.SELECT_LIGHT, new_tenant)
        executor.run(ActionClass.INSERT_LIGHT, new_tenant)

    def test_churn_sequence(self, executor):
        for _ in range(3):
            executor.run(ActionClass.TENANT_ADD, 1)
        assert len(executor._churn_tenants) == 3
        executor.run(ActionClass.TENANT_DELETE, 1)
        assert len(executor._churn_tenants) == 2


class TestChurnDistribution:
    def test_includes_churn_classes(self):
        assert ActionClass.TENANT_ADD in CHURN_DISTRIBUTION
        assert ActionClass.TENANT_DELETE in CHURN_DISTRIBUTION
        assert ActionClass.TENANT_ADD not in ACTION_DISTRIBUTION

    def test_deck_with_churn_mix(self):
        deck = CardDeck(
            2000, [1, 2], seed=1, distribution=CHURN_DISTRIBUTION
        )
        counts = deck.class_counts()
        assert counts[ActionClass.TENANT_ADD] >= counts[ActionClass.TENANT_DELETE]
        assert counts[ActionClass.TENANT_ADD] > 0

    def test_churn_deck_runs_end_to_end(self, executor):
        deck = CardDeck(
            40, [1], seed=2, distribution=CHURN_DISTRIBUTION
        )
        while True:
            card = deck.deal()
            if card is None:
                break
            executor.run(card.action, card.tenant_id)
        # Original tenant intact, data present.
        assert executor.mtd.execute(
            1, "SELECT COUNT(*) FROM account"
        ).rows[0][0] >= 2
