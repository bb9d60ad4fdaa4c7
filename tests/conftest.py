"""Shared fixtures for the test suite.

``replay_rng`` gives randomized tests (stress, crash-matrix, property
suites) a deterministic per-test RNG with a replayable seed: derived
from the test's node id by default, so every test draws a distinct but
stable stream, and overridable for replaying a failure::

    REPRO_TEST_SEED=123456 pytest tests/engine/test_lock_stress.py

The seed is printed to captured stdout, so a failing test's report
always shows the exact seed to replay it with.

``reference_run`` runs a plan on the tuple-at-a-time reference
interpreter (``repro.engine.executor``, which no database runs);
``assert_matches_reference`` holds the database's executor to it.
"""

import os
import random
import zlib

import pytest

from repro.engine.executor import Executor
from repro.engine.observability import AnalyzeCollector, CounterWindow


@pytest.fixture
def replay_rng(request):
    override = os.environ.get("REPRO_TEST_SEED")
    if override is not None:
        seed = int(override)
    else:
        seed = zlib.crc32(request.node.nodeid.encode("utf-8"))
    print(f"[replay] REPRO_TEST_SEED={seed} ({request.node.nodeid})")
    return random.Random(seed)


def reference_run(db, sql_or_plan, params=()):
    """One SELECT (SQL text, or a plan ``db`` built) on a reference
    interpreter built here: ``(rows in order, ExecStats row counters,
    buffer-pool logical reads, [(operator, rows)] in plan order)``.
    It counts into ``db.exec_stats`` so that the one window also sees an
    uncorrelated ``IN (SELECT ...)``, which the plan's compiled
    expressions run through ``db`` itself."""
    root = db.plan(sql_or_plan) if isinstance(sql_or_plan, str) else sql_or_plan
    collector = AnalyzeCollector()
    db._subquery_results.clear()
    window = CounterWindow(pool=db.pool_stats, exec=db.exec_stats)
    rows = Executor(db.catalog, db.exec_stats).run(
        root, list(params), collector=collector
    )
    deltas = window.deltas()
    operators = [(op.op_name, op.rows) for op in collector.operators(root)]
    return rows, deltas["exec"].row_counters(), deltas["pool"].logical_total, operators


def assert_matches_reference(db, sql, params=()):
    """The database's executor and the reference agree on all four
    measures — under LIMIT on rows only: the batched executor may scan
    up to one batch past the cutoff.  Returns the rows."""
    trace = db.trace(sql, list(params))
    operators = [(op.op_name, op.rows) for op in trace.operators]
    ours = trace.rows, trace.exec.row_counters(), trace.pool.logical_total, operators
    width = 1 if "LIMIT" in sql else len(ours)
    assert ours[:width] == reference_run(db, sql, params)[:width], sql
    return trace.rows
