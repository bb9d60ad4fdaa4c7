"""Differential testing: the engine vs. SQLite on the same statements.

SQLite serves as the reference implementation for the SQL subset's
semantics.  Hand-picked cases cover the constructs the transformation
layer relies on; a hypothesis-driven case generates random conjunctive
point/range queries over a shared dataset; and the shared corpus
generator (:func:`repro.quality.corpus.generate_query` — the same
queries the optimizer-quality harness replays) composes whole SELECTs —
projections, predicates incl. IN/BETWEEN, two- and three-way joins,
GROUP BY/HAVING, ORDER BY expressions — that must match SQLite row for
row.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from ..conftest import assert_matches_reference, reference_run
from repro.engine.errors import UnsupportedSyntaxError
from repro.quality.corpus import (
    ENGINE_DDL,
    ENGINE_INDEXES,
    build_engine_database,
    corpus_rows,
    generate_query,
)


def normalize(rows):
    """SQLite returns lists of tuples too; normalize value types:
    booleans come back as 0/1 from SQLite."""
    out = []
    for row in rows:
        out.append(
            tuple(int(v) if isinstance(v, bool) else v for v in row)
        )
    return sorted(out, key=repr)


@pytest.fixture(scope="module")
def pair():
    """Identically-populated engine and SQLite databases, built from the
    shared corpus so harness findings replay here verbatim."""
    engine = build_engine_database()
    lite = sqlite3.connect(":memory:")
    for sql in ENGINE_DDL:
        lite.execute(
            sql.replace("VARCHAR(30)", "TEXT").replace("VARCHAR(10)", "TEXT")
        )
    for sql in ENGINE_INDEXES:
        lite.execute(sql)
    rows_p, rows_c = corpus_rows()
    for row in rows_p:
        lite.execute("INSERT INTO p VALUES (?, ?, ?, ?)", row)
    for row in rows_c:
        lite.execute("INSERT INTO c VALUES (?, ?, ?, ?)", row)
    return engine, lite


def compare(pair, sql, params=()):
    engine, lite = pair
    ours = engine.execute(sql, list(params)).rows
    theirs = lite.execute(sql, tuple(params)).fetchall()
    assert normalize(ours) == normalize(theirs), sql


CASES = [
    "SELECT id, name FROM p WHERE grp = 3",
    "SELECT p.id, c.val FROM p, c WHERE p.id = c.parent AND p.id = 17",
    "SELECT grp, COUNT(*), SUM(amount) FROM p GROUP BY grp",
    "SELECT grp, COUNT(*) AS n FROM p GROUP BY grp HAVING COUNT(*) > 8",
    "SELECT DISTINCT tag FROM c",
    "SELECT name FROM p WHERE amount BETWEEN 20 AND 40 ORDER BY name, id",
    "SELECT id FROM p WHERE name LIKE 'name1%' ORDER BY id",
    "SELECT id FROM p WHERE grp IN (1, 2) AND amount > 50 ORDER BY id",
    "SELECT p.grp, MAX(c.val) FROM p, c WHERE p.id = c.parent GROUP BY p.grp",
    "SELECT id FROM p WHERE id IN (SELECT parent FROM c WHERE val = 16)",
    "SELECT COUNT(*) FROM p WHERE grp = 99",
    "SELECT amount + grp FROM p WHERE id = 7",
    "SELECT id FROM p ORDER BY amount DESC, id LIMIT 5",
    "SELECT MIN(amount), MAX(amount), COUNT(DISTINCT grp) FROM p",
    "SELECT c.tag, AVG(c.val) FROM c GROUP BY c.tag ORDER BY c.tag",
    "SELECT p.name, c.tag FROM p, c WHERE p.id = c.parent AND c.val = 0 "
    "AND p.grp = 1 ORDER BY p.name, c.tag LIMIT 10",
    "SELECT grp, COUNT(*) FROM p GROUP BY grp ORDER BY COUNT(*) DESC, grp",
    "SELECT grp FROM p GROUP BY grp ORDER BY SUM(amount) DESC, grp",
    "SELECT id FROM p WHERE id > 40 AND id <= 45 ORDER BY id",
    "SELECT id FROM p WHERE amount >= 90 ORDER BY id",
    "SELECT grp, COUNT(*) FROM p GROUP BY grp HAVING grp IN (1, 3, 5)",
    "SELECT tag, SUM(val) FROM c GROUP BY tag HAVING COUNT(*) NOT IN (1, 2)",
    "SELECT grp FROM p GROUP BY grp ORDER BY MAX(amount) IN (98, 99), grp",
]


class TestHandPickedCases:
    @pytest.mark.parametrize("sql", CASES)
    def test_same_answers(self, pair, sql):
        compare(pair, sql)

    @pytest.mark.parametrize(
        "sql,params",
        [
            ("SELECT name FROM p WHERE id = ?", [13]),
            ("SELECT id FROM p WHERE grp = ? AND amount < ?", [2, 60]),
            (
                "SELECT p.id, c.id FROM p, c WHERE p.id = c.parent "
                "AND c.val = ? ORDER BY p.id, c.id",
                [4],
            ),
        ],
    )
    def test_parameterized(self, pair, sql, params):
        compare(pair, sql, params)


class TestDmlAgreement:
    def test_update_then_select(self, pair):
        engine, lite = pair
        engine.execute("UPDATE p SET amount = amount + 5 WHERE grp = 4")
        lite.execute("UPDATE p SET amount = amount + 5 WHERE grp = 4")
        compare(pair, "SELECT id, amount FROM p WHERE grp = 4")

    def test_delete_then_count(self, pair):
        engine, lite = pair
        engine.execute("DELETE FROM c WHERE val = 16")
        lite.execute("DELETE FROM c WHERE val = 16")
        compare(pair, "SELECT COUNT(*) FROM c")


# -- shared corpus generator ---------------------------------------------------


class TestGeneratedQueries:
    """Row-for-row agreement on corpus-generator output.  The seeds are
    fixed, so the suite always runs the same 45 queries — the first 15
    of which are exactly the optimizer-quality harness's corpus."""

    @pytest.mark.parametrize("seed", range(45))
    def test_generated_query_matches_sqlite(self, pair, seed):
        compare(pair, generate_query(seed))

    def test_generator_is_deterministic(self):
        assert [generate_query(s) for s in range(10)] == [
            generate_query(s) for s in range(10)
        ]

    def test_generator_covers_shapes(self):
        queries = [generate_query(s) for s in range(45)]
        assert any("GROUP BY" in q for q in queries)
        assert any("p, c" in q and "AS d" not in q for q in queries)
        assert any("p, c, c AS d" in q for q in queries)
        assert any(" IN (" in q for q in queries)
        assert any(" BETWEEN " in q for q in queries)
        assert any(" HAVING " in q for q in queries)
        assert any(
            "ORDER BY" in q and " + " in q.split("ORDER BY")[-1]
            for q in queries
        )
        assert any("WHERE" in q and "GROUP BY" not in q for q in queries)


def left_join_query(seed: int) -> str | None:
    """The corpus generator's join query for ``seed`` with its joins
    written ``LEFT [OUTER] JOIN ... ON`` (``None`` for single-table
    seeds)."""
    sql = generate_query(seed)
    joins = {
        "FROM p, c WHERE p.id = c.parent": "p.id = c.parent",
        "FROM p, c, c AS d WHERE p.id = c.parent AND d.parent = p.id": (
            "p.id = c.parent",
            "d.parent = p.id",
        ),
    }
    for head, conditions in sorted(joins.items(), key=lambda kv: -len(kv[0])):
        if head in sql:
            break
    else:
        return None
    keyword = "LEFT OUTER JOIN" if seed % 2 else "LEFT JOIN"
    if isinstance(conditions, str):
        joined = f"FROM p {keyword} c ON {conditions}"
    else:
        joined = (
            f"FROM p {keyword} c ON {conditions[0]} "
            f"{keyword} c AS d ON {conditions[1]}"
        )
    before, after = sql.split(head, 1)
    if after.startswith(" AND "):
        after = " WHERE" + after[len(" AND") :]
    return before + joined + after


LEFT_JOIN_SEEDS = [s for s in range(45) if left_join_query(s) is not None]


class TestLeftJoinRefused:
    """Outer joins are not implemented.  Running one as an inner join
    would drop the unmatched rows without an error, so the engine must
    refuse every LEFT JOIN shape the generator emits, naming it."""

    @pytest.mark.parametrize("seed", LEFT_JOIN_SEEDS)
    def test_left_join_shape_is_refused(self, pair, seed):
        engine, lite = pair
        sql = left_join_query(seed)
        lite.execute(sql).fetchall()  # valid SQL: SQLite answers it
        with pytest.raises(UnsupportedSyntaxError, match="LEFT"):
            engine.execute(sql)

    def test_refusal_guards_real_answers(self, pair):
        """No child has val 1000, so LEFT and inner
        answers differ: an inner-join approximation loses rows."""
        _, lite = pair
        on = "ON p.id = c.parent AND c.val = 1000"
        left = lite.execute(
            f"SELECT COUNT(*) FROM p LEFT JOIN c {on}"
        ).fetchone()[0]
        inner = lite.execute(f"SELECT COUNT(*) FROM p JOIN c {on}").fetchone()[0]
        assert left > inner
        assert len(LEFT_JOIN_SEEDS) >= 10
        assert any("LEFT OUTER JOIN" in left_join_query(s) for s in LEFT_JOIN_SEEDS)
        assert any(" AS d ON " in left_join_query(s) for s in LEFT_JOIN_SEEDS)


class TestCrossEngine:
    """The database's executor against the tuple-at-a-time reference:
    identical rows (in identical order — both are order-preserving),
    ExecStats row counters, buffer-pool logical reads and per-operator
    rows.  Under LIMIT only the rows must agree: the batched executor
    may scan up to one batch past the cutoff."""

    @pytest.mark.parametrize("seed", range(45))
    def test_generated_query_same_rows_and_stats(self, pair, seed):
        sql = generate_query(seed)
        assert "LIMIT" not in sql
        assert_matches_reference(pair[0], sql)

    @pytest.mark.parametrize("sql", CASES)
    def test_hand_picked_same_rows(self, pair, sql):
        assert_matches_reference(pair[0], sql)

    def test_only_vectorized_counts_batches(self, pair):
        engine, _ = pair
        sql = "SELECT grp, COUNT(*) FROM p GROUP BY grp"
        before = engine.exec_stats.batches
        reference_run(engine, sql)
        assert engine.exec_stats.batches == before
        assert engine.trace(sql).exec.batches > 0


class TestRandomizedQueries:
    @settings(max_examples=60, deadline=None)
    @given(
        column=st.sampled_from(["id", "grp", "amount"]),
        op=st.sampled_from(["=", "<", ">", "<=", ">=", "<>"]),
        value=st.integers(-5, 110),
        order=st.sampled_from(["id", "amount", "name"]),
        limit=st.integers(1, 30),
    )
    def test_single_table_predicates(self, pair, column, op, value, order, limit):
        sql = (
            f"SELECT id, {column} FROM p WHERE {column} {op} ? "
            f"ORDER BY {order}, id LIMIT {limit}"
        )
        engine, lite = pair
        ours = engine.execute(sql, [value]).rows
        theirs = lite.execute(sql, (value,)).fetchall()
        # LIMIT with ties is nondeterministic across engines, so compare
        # without LIMIT when the cutoff could differ.
        if len(ours) < limit and len(theirs) < limit:
            assert normalize(ours) == normalize(theirs)
        else:
            base = sql.rsplit(" LIMIT", 1)[0]
            assert normalize(engine.execute(base, [value]).rows) == normalize(
                lite.execute(base, (value,)).fetchall()
            )

    @settings(max_examples=40, deadline=None)
    @given(
        grp=st.integers(0, 8),
        threshold=st.integers(0, 20),
    )
    def test_join_aggregates(self, pair, grp, threshold):
        sql = (
            "SELECT p.id, COUNT(*), SUM(c.val) FROM p, c "
            "WHERE p.id = c.parent AND p.grp = ? AND c.val >= ? "
            "GROUP BY p.id"
        )
        compare(pair, sql, [grp, threshold])
