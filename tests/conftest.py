"""Shared fixtures for the test suite.

``replay_rng`` gives randomized tests (stress, crash-matrix, property
suites) a deterministic per-test RNG with a replayable seed: derived
from the test's node id by default, so every test draws a distinct but
stable stream, and overridable for replaying a failure::

    REPRO_TEST_SEED=123456 pytest tests/engine/test_interleaved_transactions.py

The seed is printed to captured stdout, so a failing test's report
always shows the exact seed to replay it with.

``assert_pinned_work`` holds a SELECT to its line in
``tests/engine/executor_work.txt`` (rows digest, ``ExecStats`` row
counters, logical reads, heap fetches, per-operator rows), keyed by
dataset (a layout, or a name for what a test builds), SQL and params.
A missing line is written and fails its test: to regenerate, delete
stale lines, rerun until green and review the diff.

``FORMER_STORAGES`` and ``FORMER_STORAGE_SUFFIXES`` are the case ids of
tests that once ran on each of two page formats (a row-major heap page
and a column page).  There is one format now: such a test keeps both
cases so each keeps the name it has always been reported under, and
both build the same table.
"""

import hashlib
import json
import os
import pathlib
import random
import zlib

import pytest

from repro.engine.heap import HeapStats
from repro.quality.corpus import build_engine_database, build_multitenant

FORMER_STORAGES = ("heap", "columnar")
FORMER_STORAGE_SUFFIXES = ("", " USING columnar")

WORK_FILE = pathlib.Path(__file__).parent / "engine" / "executor_work.txt"
PINNED = {
    json.dumps(entry[:3]): entry[3]
    for entry in map(json.loads, WORK_FILE.read_text().splitlines())
}


@pytest.fixture
def replay_rng(request):
    override = os.environ.get("REPRO_TEST_SEED")
    if override is not None:
        seed = int(override)
    else:
        seed = zlib.crc32(request.node.nodeid.encode("utf-8"))
    print(f"[replay] REPRO_TEST_SEED={seed} ({request.node.nodeid})")
    return random.Random(seed)


def corpus_db(layout):
    """The shared corpus on ``layout``, tenant 1's: ``(database, logical
    -> physical SQL)``; ``conventional`` is the plain engine schema."""
    if layout == "conventional":
        return build_engine_database(), (lambda sql: sql)
    mtd = build_multitenant(layout, primary_tenant=1)
    return mtd.db, (lambda sql: mtd.transform_sql(1, sql))


def normalize(rows):
    """Rows comparable with SQLite's (which keeps True as 1 and a group's
    1 or 1.0 as it likes), order-free: numbers as floats."""
    return sorted(
        (tuple(v if v is None or isinstance(v, str) else float(v) for v in row)
         for row in rows),
        key=repr,
    )


def rows_digest(rows) -> str:
    """``count:digest`` of rows in order (``repr`` tells 1, 1.0, True apart)."""
    return f"{len(rows)}:{hashlib.sha256(repr(rows).encode()).hexdigest()[:16]}"


def traced_work(db, sql, params=()):
    """``(rows, work)`` of one traced SELECT, planned first so that the
    work is execution's (a first plan may gather statistics).  Under
    LIMIT the work depends on where batches end: only rows are kept."""
    db.plan(sql)
    heap = db.metrics.counter_set(HeapStats)
    fetches = heap.fetches
    trace = db.trace(sql, list(params))
    work = {"rows": rows_digest(trace.rows)}
    if "LIMIT" not in sql:
        work.update(
            counters=trace.exec.row_counters(),
            logical=trace.pool.logical_total,
            fetches=heap.fetches - fetches,
            operators=[[op.op_name, op.rows] for op in trace.operators],
        )
    return trace.rows, work


def pinned_work(db, dataset, sql, params=()):
    """The work pinned for ``sql`` over ``dataset`` (measured on ``db``
    and written if missing)."""
    key = json.dumps([dataset, sql, list(params)])
    if key not in PINNED:
        PINNED[key] = traced_work(db, sql, params)[1]
        lines = (json.dumps([*json.loads(k), PINNED[k]], sort_keys=True)
                 for k in sorted(PINNED))
        WORK_FILE.write_text("".join(line + "\n" for line in lines))
        pytest.fail(f"pinned new work in {WORK_FILE.name}: {key}")
    return PINNED[key]


def assert_pinned_work(db, dataset, sql, params=()):
    """Hold a traced run of ``sql`` to its pinned work; returns the rows."""
    expected = pinned_work(db, dataset, sql, params)
    rows, work = traced_work(db, sql, params)
    assert work == expected, (dataset, sql, params)
    return rows
