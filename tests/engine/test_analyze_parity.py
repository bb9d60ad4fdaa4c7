"""EXPLAIN ANALYZE parity with the reference interpreter over the
shared corpus.

The database's executor and the reference run the *same* physical plan,
so an analyzed run must report identical per-operator actual row counts
— on the raw engine schema and through every schema-mapping layout.
This is what lets the optimizer-quality harness learn cardinalities
from its reference run and have them hold for the executor that serves.
"""

import pytest

from repro.quality.corpus import (
    build_engine_database,
    build_multitenant,
    generate_query,
)
from repro.quality.harness import all_layouts

from ..conftest import assert_matches_reference, reference_run

SEEDS = range(15)
TENANT = 1


@pytest.fixture(scope="module", params=all_layouts())
def layout_db(request):
    """(engine database, logical→physical SQL transform) per layout."""
    layout = request.param
    if layout == "conventional":
        return build_engine_database(), (lambda sql: sql)
    mtd = build_multitenant(layout, primary_tenant=TENANT)
    return mtd.db, (lambda sql: mtd.transform_sql(TENANT, sql))


@pytest.mark.parametrize("seed", SEEDS)
def test_per_operator_rows_identical_across_engines(layout_db, seed):
    db, transform = layout_db
    assert_matches_reference(db, transform(generate_query(seed)))


def test_analyzed_plans_cover_every_operator(layout_db):
    """Sanity: the collector reports a stat for every plan node (nodes
    never opened still appear, with zero counts)."""
    db, transform = layout_db
    root = db.plan(transform(generate_query(0)))

    def count(node):
        return 1 + sum(count(child) for child in node.children())

    assert len(reference_run(db, root)[3]) == count(root)
