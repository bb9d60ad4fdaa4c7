"""The isolation corpus holds the statements the testbed runs.

A seeded :class:`ActionExecutor` deals a deck holding every Figure 6
action class, on each of the seven layouts.  Every logical statement it
issues, and every row its Insert classes hand to ``mtd.insert``, must be
one the isolation gate proves for that tenant: an entry of
``tenant_corpus`` for the tenant's schema instance and extensions.
"""

import pytest

from repro.analysis.corpus import tenant_corpus
from repro.analysis.runner import ALL_LAYOUTS, AnalysisConfig, build_testbed
from repro.testbed.actions import ActionExecutor
from repro.testbed.crm import ACTION_DISTRIBUTION, CardDeck
from repro.testbed.generator import DataGenerator, TenantDataProfile


def issued_statements(mtd, run) -> set[tuple[int, str | None, str]]:
    """``(tenant, sql, table)`` of every logical statement ``run()``
    issues through ``mtd`` (``sql`` None for ``mtd.insert``)."""
    issued: set[tuple[int, str | None, str]] = set()
    prepare, execute, insert = mtd.prepare, mtd.execute, mtd.insert

    class Handle:
        def __init__(self, sql):
            self.sql, self.handle = sql, prepare(sql)

        def execute(self, tenant_id, params=()):
            issued.add((tenant_id, self.sql, ""))
            return self.handle.execute(tenant_id, params)

    def recording_execute(tenant_id, sql, params=()):
        issued.add((tenant_id, sql, ""))
        return execute(tenant_id, sql, params)

    def recording_insert(tenant_id, table_name, values, **options):
        issued.add((tenant_id, None, table_name))
        return insert(tenant_id, table_name, values, **options)

    mtd.prepare, mtd.execute, mtd.insert = Handle, recording_execute, recording_insert
    try:
        run()
    finally:
        del mtd.prepare, mtd.execute, mtd.insert
    return issued


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_corpus_covers_every_action_shape(layout):
    config = AnalysisConfig(tenants=4)
    mtd, instances = build_testbed(layout, config, 0.5)
    profile = TenantDataProfile(default_rows=config.rows_per_table)
    executor = ActionExecutor(mtd, profile, DataGenerator(), instances, seed=3)
    deck = CardDeck(
        70,
        sorted(instances),
        seed=5,
        distribution={action: 1.0 for action in ACTION_DISTRIBUTION},
    )
    assert set(deck.class_counts()) == set(ACTION_DISTRIBUTION)

    def run():
        while (card := deck.deal()) is not None:
            executor.run(card.action, card.tenant_id)

    issued = issued_statements(mtd, run)
    assert {sql is None for _, sql, _ in issued} == {True, False}
    assert {instances[tenant] for tenant, _, _ in issued} == {0, 1}
    for tenant, sql, table in issued:
        corpus = tenant_corpus(
            instances[tenant],
            mtd.schema.tenant(tenant).extensions,
            config.rows_per_table,
        )
        if sql is None:
            assert table in {s.table for s in corpus if s.sql is None}, table
        else:
            assert sql in {s.sql for s in corpus}, sql
