"""Crashpoint coverage: every crashpoint in ``src/`` must be reachable.

A crashpoint no workload hits is dead instrumentation — the crash
matrix silently stops sampling that instant, and recovery bugs hiding
behind it go unexposed.  This is the dynamic half of the LNT003 lint
rule: the census workload (an unarmed :class:`FaultInjector` under the
full admin-operation surface) must exercise every crashpoint name
referenced anywhere in the source tree.
"""

import pytest

from repro.analysis.lint import run_crashpoint_census, static_crashpoints


@pytest.fixture(scope="module")
def census():
    return run_crashpoint_census()


def test_census_hits_every_static_crashpoint(census):
    refs = static_crashpoints()
    assert refs, "no crashpoints found in src/ — the scanner broke"
    hit_names = [name for name, count in census.items() if count > 0]
    unexercised = [
        ref.pattern
        for ref in refs
        if not any(ref.matches(name) for name in hit_names)
    ]
    assert unexercised == []


def test_census_covers_known_protocol_points(census):
    """The load-bearing instants must each be hit at least once (an
    empty census matching zero static refs would also 'pass' above)."""
    for name in (
        "txn.commit",
        "pager.writeback",
        "checkpoint.begin",
        "checkpoint.compact",
        "checkpoint.end",
        "wal.flush",
        "wal.checkpoint_reset",
        "migrate.after_purge",
        "drop_tenant.table",
    ):
        assert census.get(name, 0) >= 1, name


def test_admin_brackets_are_balanced(census):
    """Every admin.<op>.begin seen by the census has a matching end —
    an unbalanced bracket means an operation path skips its marker."""
    begins = {
        name[len("admin."):-len(".begin")]: count
        for name, count in census.items()
        if name.startswith("admin.") and name.endswith(".begin")
    }
    ends = {
        name[len("admin."):-len(".end")]: count
        for name, count in census.items()
        if name.startswith("admin.") and name.endswith(".end")
    }
    assert begins and begins == ends
