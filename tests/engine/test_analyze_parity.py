"""EXPLAIN ANALYZE over the shared corpus, held to pinned work: every
corpus query's analyzed run, on the raw engine schema and through every
schema-mapping layout, reports the per-operator rows, row counters and
page reads pinned for it (``tests/engine/executor_work.txt``).
"""

import pytest

from repro.quality.corpus import generate_query
from repro.quality.harness import all_layouts

from ..conftest import assert_pinned_work, corpus_db

SEEDS = range(15)


@pytest.fixture(scope="module", params=all_layouts())
def layout_db(request):
    """(layout, engine database, logical→physical SQL transform)."""
    return request.param, *corpus_db(request.param)


@pytest.mark.parametrize("seed", SEEDS)
def test_per_operator_rows_identical_across_engines(layout_db, seed):
    layout, db, transform = layout_db
    assert_pinned_work(db, layout, transform(generate_query(seed)))


def test_analyzed_plans_cover_every_operator(layout_db):
    """Sanity: the collector reports a stat for every plan node (nodes
    never opened still appear, with zero counts)."""
    _, db, transform = layout_db
    sql = transform(generate_query(0))

    def count(node):
        return 1 + sum(count(child) for child in node.children())

    assert len(db.trace(sql).operators) == count(db.plan(sql))
