"""Tests for the testbed components: deck, variability, generator,
results, cost model, and lock overlap."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.vexecutor import ExecStats
from repro.engine.pager import PoolStats
from repro.testbed.crm import (
    ActionClass,
    CardDeck,
    VariabilityConfig,
    crm_tables,
    distribute_tenants,
)
from repro.testbed.generator import DataGenerator, TenantDataProfile
from repro.testbed.results import ActionResult, ResultSet, quantile
from repro.testbed.simtime import CostModel
from repro.testbed.worker import LockOverlap, action_resources


class TestVariability:
    """Table 1 of the paper (scaled): instances and tenant spread."""

    @pytest.mark.parametrize(
        "variability,tenants,instances",
        [(0.0, 10_000, 1), (0.5, 10_000, 5_000), (0.65, 10_000, 6_500),
         (0.8, 10_000, 8_000), (1.0, 10_000, 10_000)],
    )
    def test_paper_instance_counts(self, variability, tenants, instances):
        config = VariabilityConfig(variability, tenants)
        assert config.instances == instances
        assert config.total_tables == instances * 10

    def test_paper_example_065(self):
        """'With schema variability 0.65, the first 3,500 schema
        instances have two tenants while the rest have only one.'"""
        config = VariabilityConfig(0.65, 10_000)
        counts = config.tenants_per_instance()
        assert counts[:3500] == [2] * 3500
        assert counts[3500:] == [1] * 3000

    def test_distribution_covers_all_tenants(self):
        config = VariabilityConfig(0.3, 97)
        assignment = distribute_tenants(config)
        assert sorted(assignment) == list(range(1, 98))
        assert set(assignment.values()) == set(range(config.instances))

    def test_bounds_validated(self):
        from repro.engine.errors import PlanError

        with pytest.raises(PlanError):
            VariabilityConfig(1.5, 10)
        with pytest.raises(PlanError):
            VariabilityConfig(0.5, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        variability=st.floats(0.0, 1.0),
        tenants=st.integers(1, 5000),
    )
    def test_even_distribution_property(self, variability, tenants):
        config = VariabilityConfig(variability, tenants)
        counts = config.tenants_per_instance()
        assert sum(counts) == tenants
        assert max(counts) - min(counts) <= 1  # "as evenly as possible"


class TestCardDeck:
    def test_deck_size_exact(self):
        deck = CardDeck(1000, [1, 2, 3])
        assert len(deck) == 1000

    def test_distribution_matches_figure6(self):
        deck = CardDeck(10_000, [1])
        counts = deck.class_counts()
        assert counts[ActionClass.SELECT_LIGHT] == 5000
        assert counts[ActionClass.SELECT_HEAVY] == 1500
        assert counts[ActionClass.UPDATE_LIGHT] == 1760
        assert counts[ActionClass.UPDATE_HEAVY] == 750
        assert counts[ActionClass.ADMIN] == 1  # 0.01% survives rounding

    def test_deal_exhausts(self):
        deck = CardDeck(5, [1])
        cards = [deck.deal() for _ in range(5)]
        assert all(c is not None for c in cards)
        assert deck.deal() is None

    def test_shuffle_is_seeded(self):
        a = [c.action for c in (CardDeck(50, [1], seed=3)._cards)]
        b = [c.action for c in (CardDeck(50, [1], seed=3)._cards)]
        assert a == b

    def test_tenants_assigned_uniformly(self):
        deck = CardDeck(5000, list(range(1, 11)), seed=1)
        tenants = [c.tenant_id for c in deck._cards]
        for tenant in range(1, 11):
            share = tenants.count(tenant) / len(tenants)
            assert 0.05 < share < 0.15


class TestGenerator:
    def test_deterministic(self):
        table = crm_tables()[1]  # account
        g1 = DataGenerator(1).row(5, table, 3, None)
        g2 = DataGenerator(1).row(5, table, 3, None)
        assert g1 == g2

    def test_seed_changes_data(self):
        table = crm_tables()[1]
        assert DataGenerator(1).row(5, table, 3, None) != DataGenerator(2).row(
            5, table, 3, None
        )

    def test_ids_are_sequential(self):
        table = crm_tables()[0]
        rows = [DataGenerator(1).row(1, table, i, None) for i in range(5)]
        assert [r["id"] for r in rows] == [1, 2, 3, 4, 5]

    def test_parent_within_bounds(self):
        table = [t for t in crm_tables() if t.name == "lead"][0]
        for i in range(50):
            row = DataGenerator(1).row(1, table, i, parent_count=7)
            assert 1 <= row["parent"] <= 7

    def test_values_satisfy_logical_types(self):
        for table in crm_tables():
            row = DataGenerator(1).row(1, table, 0, parent_count=3)
            for column in table.columns:
                column.type.check(row[column.lname])

    def test_profile_overrides(self):
        profile = TenantDataProfile(default_rows=5, rows_per_table={"account": 9})
        assert profile.rows_for("account") == 9
        assert profile.rows_for("account_i3") == 9  # instance-suffix aware
        assert profile.rows_for("lead") == 5


class TestResults:
    def make_results(self, times, action=ActionClass.SELECT_LIGHT):
        rs = ResultSet()
        clock = 0.0
        for t in times:
            rs.record(ActionResult(action, 1, 0, clock, t))
            clock += t
        return rs

    def test_quantile_nearest_rank(self):
        assert quantile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.95) == 10
        assert quantile(list(range(1, 101)), 0.95) == 95
        assert quantile([], 0.95) == 0.0

    def test_baseline_compliance(self):
        rs = self.make_results([1, 2, 3, 4, 100])
        compliance = rs.baseline_compliance({ActionClass.SELECT_LIGHT: 4})
        assert compliance == 80.0

    def test_strip_ramp_up(self):
        rs = self.make_results(list(range(10)))
        assert len(rs.strip_ramp_up(0.2)) == 8

    def test_throughput(self):
        rs = self.make_results([60_000.0])  # one action taking a minute
        assert rs.throughput_per_minute(sessions=1) == pytest.approx(1.0)

    def test_by_class_partition(self):
        rs = ResultSet()
        rs.record(ActionResult(ActionClass.SELECT_LIGHT, 1, 0, 0, 1))
        rs.record(ActionResult(ActionClass.INSERT_LIGHT, 1, 0, 1, 2))
        assert set(rs.by_class()) == {
            ActionClass.SELECT_LIGHT,
            ActionClass.INSERT_LIGHT,
        }


class TestCostModel:
    def test_physical_reads_dominate(self):
        model = CostModel()
        cheap = model.response_ms(
            PoolStats(logical_data=10), ExecStats(statements=1)
        )
        expensive = model.response_ms(
            PoolStats(logical_data=10, physical_data=10),
            ExecStats(statements=1),
        )
        assert expensive > cheap * 5

    def test_lock_conflicts_charged(self):
        model = CostModel()
        base = model.response_ms(PoolStats(), ExecStats())
        contended = model.response_ms(PoolStats(), ExecStats(), lock_conflicts=2)
        assert contended == pytest.approx(base + 2 * model.lock_conflict_ms)

    def test_ddl_charged(self):
        model = CostModel()
        base = model.response_ms(PoolStats(), ExecStats())
        with_ddl = model.response_ms(PoolStats(), ExecStats(), ddl_statements=10)
        assert with_ddl == pytest.approx(base + 10 * model.ddl_ms)


class TestLockOverlap:
    def test_conflicting_exclusive_locks(self):
        overlap = LockOverlap()
        overlap.hold(0, [("t", True)], until_ms=100)
        assert overlap.conflicts(1, [("t", True)], now_ms=50) == 1

    def test_shared_locks_do_not_conflict(self):
        overlap = LockOverlap()
        overlap.hold(0, [("t", False)], until_ms=100)
        assert overlap.conflicts(1, [("t", False)], now_ms=50) == 0

    def test_shared_vs_exclusive_conflicts(self):
        overlap = LockOverlap()
        overlap.hold(0, [("t", False)], until_ms=100)
        assert overlap.conflicts(1, [("t", True)], now_ms=50) == 1

    def test_expired_locks_ignored(self):
        overlap = LockOverlap()
        overlap.hold(0, [("t", True)], until_ms=100)
        assert overlap.conflicts(1, [("t", True)], now_ms=150) == 0

    def test_own_locks_ignored(self):
        overlap = LockOverlap()
        overlap.hold(0, [("t", True)], until_ms=100)
        assert overlap.conflicts(0, [("t", True)], now_ms=50) == 0

    def test_action_resources(self):
        assert action_resources(ActionClass.SELECT_HEAVY, 1, "account") == [
            (("table", "account"), False)
        ]
        assert action_resources(ActionClass.INSERT_LIGHT, 1, "account")[0][1]
        assert action_resources(ActionClass.ADMIN, 1, None) == []
