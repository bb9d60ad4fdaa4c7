"""One binder, one verdict: ``prepare`` and ``execute`` agree.

Names and types are resolved once, by :mod:`repro.engine.plan.bind`,
for ``prepare`` and for the planner that ``execute`` runs.  On fresh
databases, with ``prepare`` before ``execute`` and after it:

* a statement ``prepare`` accepts raises no :class:`UnknownObjectError`
  or :class:`PlanError` from ``execute``;
* a statement ``execute`` refuses with one of those, ``prepare`` refuses
  with a :class:`SemanticError` carrying the same rule id.

``prepare`` may refuse more (type findings are prepare-only).  Inputs
are the shared corpus generator's statements plus generated alias,
GROUP BY, correlated-subquery, ``IN``-width and unknown-name shapes, on
both optimizer profiles.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, OptimizerProfile
from repro.engine.errors import (
    EngineError,
    PlanError,
    SemanticError,
    UnknownObjectError,
)
from repro.quality.corpus import ENGINE_DDL, ENGINE_INDEXES, generate_query

#: What ``execute`` raises for a statement the binder refuses.
REFUSALS = (UnknownObjectError, PlanError)


def fresh(profile: OptimizerProfile) -> Database:
    """The corpus schema with a few rows: every shape below touches
    data, so a refusal cannot hide behind an empty scan."""
    db = Database(profile=profile)
    for sql in ENGINE_DDL + ENGINE_INDEXES:
        db.execute(sql)
    for i in range(1, 7):
        db.execute("INSERT INTO p VALUES (?, ?, ?, ?)", [i, i % 3, i * 7, f"n{i}"])
        db.execute("INSERT INTO c VALUES (?, ?, ?, ?)", [i * 10, i, i % 4, "t"])
    return db


def verdicts(sql: str, profile: OptimizerProfile, prepare_first: bool):
    """``(prepare's SemanticError or None, execute's error or None)``."""
    db = fresh(profile)
    refused = failed = None

    def prepare():
        nonlocal refused
        try:
            db.prepare(sql)
        except SemanticError as exc:
            refused = exc

    def execute():
        nonlocal failed
        try:
            db.execute(sql)
        except EngineError as exc:
            failed = exc

    for step in (prepare, execute) if prepare_first else (execute, prepare):
        step()
    return refused, failed


def assert_agree(sql: str, profile: OptimizerProfile) -> None:
    for prepare_first in (True, False):
        refused, failed = verdicts(sql, profile, prepare_first)
        if refused is None:
            assert not isinstance(failed, REFUSALS), (sql, failed)
        if isinstance(failed, REFUSALS):
            assert refused is not None, (sql, failed)
            assert failed.rule_id in {f.rule_id for f in refused.findings}, (
                sql,
                failed,
                refused,
            )


# -- generated shapes -----------------------------------------------------------


@st.composite
def alias_shapes(draw):
    """Select-list aliases named in ORDER BY, GROUP BY and HAVING, some
    shadowing a source column."""
    column = draw(st.sampled_from(["id", "grp", "amount"]))
    alias = draw(st.sampled_from(["k", "grp", "id", "total"]))
    order = draw(
        st.sampled_from(
            [alias, f"{alias} + 1", f"p.{column}", "nope", "n", "COUNT(*)"]
        )
    )
    if draw(st.booleans()):
        clause = draw(
            st.sampled_from(
                [
                    f"GROUP BY {alias}",
                    f"GROUP BY {column}",
                    f"GROUP BY p.{column} HAVING {alias} > 1",
                    f"GROUP BY {column} HAVING COUNT(*) > 1",
                ]
            )
        )
        return (
            f"SELECT {column} AS {alias}, COUNT(*) AS n FROM p {clause} "
            f"ORDER BY {order}"
        )
    other = draw(st.sampled_from(["amount", "name", f"{column} AS {alias}"]))
    return f"SELECT {column} AS {alias}, {other} FROM p ORDER BY {order}"


@st.composite
def group_shapes(draw):
    """Columns inside and outside GROUP BY expressions and aggregates,
    aggregates where none may stand."""
    item = draw(
        st.sampled_from(["grp", "id", "p.grp + 1", "amount", "SUM(amount)"])
    )
    aggregate = draw(st.sampled_from(["", ", COUNT(*)", ", MAX(amount)"]))
    where = draw(st.sampled_from(["", " WHERE grp > 0", " WHERE SUM(amount) > 1"]))
    group = draw(
        st.sampled_from(["", " GROUP BY grp", " GROUP BY p.grp + 1", " GROUP BY id"])
    )
    having = draw(
        st.sampled_from(
            ["", " HAVING grp > 0", " HAVING COUNT(*) > 1", " HAVING amount > 1"]
        )
        if group
        else st.just("")
    )
    order = draw(
        st.sampled_from(["", " ORDER BY grp", " ORDER BY COUNT(*)", " ORDER BY amount"])
    )
    return f"SELECT {item}{aggregate} FROM p{where}{group}{having}{order}"


@st.composite
def subquery_shapes(draw):
    """``IN`` subqueries: correlated or not, one column or several."""
    outer = draw(st.sampled_from(["p", "p AS x"]))
    binding = "x" if "x" in outer else "p"
    width = draw(
        st.sampled_from(["c.parent", "c.parent, c.val", "*", "COUNT(*)", "parent AS y"])
    )
    where = draw(
        st.sampled_from(
            [
                "",
                " WHERE c.val = 3",
                f" WHERE c.val = {binding}.grp",
                f" WHERE c.parent = {binding}.id",
                " WHERE val = grp",
            ]
        )
    )
    negated = draw(st.sampled_from(["IN", "NOT IN"]))
    return (
        f"SELECT {binding}.id FROM {outer} WHERE {binding}.id {negated} "
        f"(SELECT {width} FROM c{where})"
    )


@st.composite
def name_shapes(draw):
    """Unknown, ambiguous and duplicated names, in reads and writes."""
    if draw(st.booleans()):
        column = draw(
            st.sampled_from(
                ["id", "p.id", "nope", "p.nope", "z.id", "c.val", "*", "z.*"]
            )
        )
        source = draw(
            st.sampled_from(
                ["p", "p, c", "p AS z", "nosuch", "p, p", "nosuch AS z",
                 "(SELECT id, grp AS id FROM p) AS z", "(SELECT id AS x FROM p) AS z"]
            )
        )
        where = draw(st.sampled_from(["", " WHERE grp = 1", " WHERE nope = 1"]))
        return f"SELECT {column} FROM {source}{where}"
    return draw(
        st.sampled_from(
            [
                "UPDATE p SET nope = 1",
                "UPDATE p SET amount = nope",
                "UPDATE p SET amount = amount + 1 WHERE grp = 1",
                "UPDATE p SET amount = COUNT(*)",
                "UPDATE nosuch SET x = 1",
                "DELETE FROM p WHERE nope = 1",
                "DELETE FROM p WHERE id IN (SELECT parent, val FROM c)",
                "INSERT INTO p (id, nope) VALUES (1, 2)",
                "INSERT INTO p VALUES (1, 2)",
                "INSERT INTO p (id) VALUES (nope)",
                "INSERT INTO p (id) VALUES (FROO(1))",
                "INSERT INTO p (id, grp) VALUES (1, 2)",
            ]
        )
    )


SHAPES = st.one_of(alias_shapes(), group_shapes(), subquery_shapes(), name_shapes())
PROFILES = [OptimizerProfile.ADVANCED, OptimizerProfile.SIMPLE]


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.value)
@settings(max_examples=120, deadline=None)
@given(sql=SHAPES)
def test_generated_shapes_agree(profile, sql):
    assert_agree(sql, profile)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.value)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_corpus_statements_agree(profile, seed):
    assert_agree(generate_query(seed), profile)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT aid AS k, COUNT(*) FROM p GROUP BY k",
        "SELECT grp AS k, COUNT(*) FROM p GROUP BY k",
        "SELECT id, COUNT(*) FROM p",
        "SELECT x.id FROM p x WHERE grp IN (SELECT y.grp FROM p y WHERE y.id = x.id)",
        "SELECT id FROM p WHERE grp IN (SELECT grp, id FROM p)",
    ],
)
def test_the_old_disagreements_are_refused_by_both(sql):
    """Each was accepted by ``prepare`` and refused by ``execute``."""
    for prepare_first in (True, False):
        refused, failed = verdicts(sql, OptimizerProfile.ADVANCED, prepare_first)
        assert refused is not None and isinstance(failed, REFUSALS), sql
