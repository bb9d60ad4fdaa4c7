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

import datetime
import functools
import operator
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from ..conftest import assert_pinned_work, normalize
from repro import LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.engine import Database
from repro.engine.errors import PlanError, SemanticError, UnsupportedSyntaxError
from repro.engine.explain import plan_shape, render_plan
from repro.engine.optimizer import OptimizerProfile, PlanDirectives
from repro.engine.plan import physical as phys
from repro.engine.sql.parser import parse_statement
from repro.core import LAYOUTS
from repro.engine.values import DATE, INTEGER, varchar
from repro.quality.corpus import (
    ENGINE_DDL,
    ENGINE_INDEXES,
    build_engine_database,
    corpus_rows,
    generate_query,
)


def make_pair():
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


@pytest.fixture(scope="module")
def pair():
    """Read only: its engine is the pinned work's ``conventional``."""
    return make_pair()


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


#: ORDER BY keys naming output aliases, compared in order: plain and
#: grouped, inside an expression, an alias shadowing a source column
#: (a bare key names the alias; inside an expression the source column
#: wins), and an alias key beside a key that is no output column.
ALIAS_ORDER_CASES = [
    "SELECT grp, COUNT(*) AS n FROM p GROUP BY grp ORDER BY n DESC, grp",
    "SELECT id AS k, amount FROM p WHERE grp = 3 ORDER BY k DESC",
    "SELECT id AS k, name FROM p ORDER BY k + 1 DESC",
    "SELECT amount AS a, id FROM p ORDER BY a + 1, id",
    "SELECT grp AS g, SUM(amount) AS total FROM p GROUP BY grp "
    "ORDER BY total + 1 DESC",
    "SELECT id AS grp, grp AS id FROM p ORDER BY grp",
    "SELECT id AS grp, grp AS id FROM p ORDER BY id, grp",
    "SELECT id AS grp, name, amount FROM p ORDER BY grp + 0 DESC, id",
    "SELECT id AS grp, name FROM p ORDER BY grp DESC, amount",
    "SELECT id AS grp, name FROM p ORDER BY amount, grp DESC",
    "SELECT p.id AS grp, c.val FROM p, c WHERE p.id = c.parent "
    "ORDER BY grp DESC, c.id",
]


class TestOrderByOutputAlias:
    @pytest.mark.parametrize("sql", ALIAS_ORDER_CASES)
    def test_same_rows_in_the_same_order(self, pair, sql):
        engine, lite = pair
        ours = engine.execute(sql).rows
        assert ours == lite.execute(sql).fetchall(), sql
        assert ours == assert_pinned_work(engine, "conventional", sql)


def _profile_pair(profile: OptimizerProfile):
    """``p(a, b)`` = (1, 30), (2, 20), (3, 10) in the engine and in
    SQLite: ``a`` and ``b`` sort in opposite orders."""
    engine, lite = Database(profile=profile), sqlite3.connect(":memory:")
    for db in (engine, lite):
        db.execute("CREATE TABLE p (a INTEGER, b INTEGER)")
        for row in ((1, 30), (2, 20), (3, 10)):
            db.execute("INSERT INTO p VALUES (?, ?)", row)
    return engine, lite


@pytest.mark.parametrize("profile", list(OptimizerProfile))
class TestOrderByAliasInsideAnExpression:
    """An alias inside an ORDER BY expression names the select item even
    where flattening brings a source column of that name into scope:
    the derived table's ``p.a`` under ADVANCED, a generic layout's
    physical ``col1`` through the schema-mapping layer (flattened by the
    layer itself under SIMPLE)."""

    SQL = "SELECT d.x AS a FROM (SELECT b AS x FROM p) AS d ORDER BY a + 1"

    def test_engine_sorts_on_the_select_item(self, profile):
        engine, lite = _profile_pair(profile)
        assert engine.execute(self.SQL).rows == lite.execute(self.SQL).fetchall()

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT b AS col1 FROM p ORDER BY col1 + 1",
            "SELECT d.x AS col1 FROM (SELECT b AS x FROM p) AS d "
            "ORDER BY col1 + 1",
            "SELECT b AS col1, COUNT(*) AS n FROM p GROUP BY b ORDER BY col1 + 1",
        ],
    )
    def test_generic_layout_alias_named_like_a_physical_column(self, profile, sql):
        mtd = MultiTenantDatabase(layout="universal")
        mtd.db.profile = profile
        mtd.define_table(
            LogicalTable(
                "p", (LogicalColumn("a", INTEGER), LogicalColumn("b", INTEGER))
            )
        )
        mtd.create_tenant(1)
        for a, b in ((1, 30), (2, 20), (3, 10)):
            mtd.insert(1, "p", {"a": a, "b": b})
        assert mtd.db.catalog.table("universal").has_column("col1")
        _, lite = _profile_pair(profile)
        assert mtd.execute(1, sql).rows == lite.execute(sql).fetchall()


class TestSubqueryPlanKept:
    """An ``IN (SELECT ...)`` is planned with the statement that holds it
    (``db.plan_cache.adhoc`` counts the planning), and again only after
    the catalog moves; its value set is still one per execution."""

    SQL = "SELECT id FROM p WHERE id IN (SELECT parent FROM c WHERE val = ?)"

    def test_planned_once_per_compiled_statement(self):
        engine, _ = pair = make_pair()  # not the shared, read-only one
        planned = functools.partial(engine.metrics.value, "db.plan_cache.adhoc")
        before = planned()
        for val in (16, 3, 16, 7):
            compare(pair, self.SQL, [val])
        assert planned() == before + 1
        engine.execute("CREATE INDEX c_val ON c (val)")
        compare(pair, self.SQL, [3])
        assert planned() == before + 2


class TestInSubqueryWidth:
    """An ``IN`` subquery must return one column.  Comparing against its
    first column only would answer where SQLite refuses; the binder
    refuses it at ``prepare`` (SEM005) and at ``execute``."""

    SQL = "SELECT id FROM p WHERE grp IN (SELECT val, parent FROM c)"

    def test_refused_like_sqlite(self, pair):
        engine, lite = pair
        with pytest.raises(sqlite3.OperationalError, match="2 columns"):
            lite.execute(self.SQL).fetchall()
        with pytest.raises(SemanticError, match="SEM005"):
            engine.prepare(self.SQL)
        with pytest.raises(PlanError) as raised:
            engine.execute(self.SQL)
        assert raised.value.rule_id == "SEM005"


class TestDmlAgreement:
    def test_update_then_select(self):
        engine, lite = pair = make_pair()  # not the shared, read-only one
        engine.execute("UPDATE p SET amount = amount + 5 WHERE grp = 4")
        lite.execute("UPDATE p SET amount = amount + 5 WHERE grp = 4")
        compare(pair, "SELECT id, amount FROM p WHERE grp = 4")

    def test_delete_then_count(self):
        engine, lite = pair = make_pair()  # not the shared, read-only one
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
    """The executor's work on the corpus against the pinned lines:
    rows in order, ExecStats row counters, buffer-pool logical reads,
    heap fetches and per-operator rows (under LIMIT the rows only)."""

    @pytest.mark.parametrize("seed", range(45))
    def test_generated_query_same_rows_and_stats(self, pair, seed):
        sql = generate_query(seed)
        assert "LIMIT" not in sql
        assert_pinned_work(pair[0], "conventional", sql)

    @pytest.mark.parametrize("sql", CASES)
    def test_hand_picked_same_rows(self, pair, sql):
        assert_pinned_work(pair[0], "conventional", sql)


#: Added left to right, the 1.0 is absorbed by 1e16 and the sum is 0.0;
#: compensated (Python's ``sum`` from 3.12 gives 2.0; SQLite's from
#: 3.43) it is not.
CANCELLING = [0.1] * 10 + [1e16, 1.0, -1e16]


class TestFloatSummation:
    """SUM and AVG over DOUBLEs add left to right on every Python
    version, as SQLite before 3.43 does, so an answer does not depend on
    the interpreter running it."""

    @pytest.fixture(scope="class")
    def floats(self):
        engine = Database()
        lite = sqlite3.connect(":memory:")
        for db in (engine, lite):
            db.execute("CREATE TABLE f (g INTEGER, x DOUBLE)")
            for x in CANCELLING:
                db.execute("INSERT INTO f VALUES (1, ?)", [x])
        return engine, lite

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT g, SUM(x), AVG(x) FROM f GROUP BY g",
            "SELECT SUM(x), AVG(x) FROM f",
        ],
    )
    def test_doubles_add_left_to_right(self, floats, sql):
        engine, lite = floats
        rows = assert_pinned_work(engine, "floats", sql)
        total = functools.reduce(operator.add, CANCELLING)
        assert total == 0.0
        assert rows[0][-2:] == (total, total / len(CANCELLING))
        if sqlite3.sqlite_version_info < (3, 43):
            assert rows == lite.execute(sql).fetchall()


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


# -- NULL index keys -------------------------------------------------------------

#: ``(table, columns, index)``: one- and two-column keys, unique and
#: not, each holding NULL in some rows.
NULL_KEY_TABLES = [
    ("a", "id INTEGER NOT NULL, x INTEGER, z INTEGER",
     "CREATE UNIQUE INDEX a_x ON a (x)"),
    ("b", "id INTEGER NOT NULL, y INTEGER, w INTEGER",
     "CREATE INDEX b_y ON b (y)"),
    ("u2", "id INTEGER NOT NULL, p INTEGER, q INTEGER",
     "CREATE UNIQUE INDEX u2_pq ON u2 (p, q)"),
    ("n2", "id INTEGER NOT NULL, p INTEGER, q INTEGER",
     "CREATE INDEX n2_pq ON n2 (p, q)"),
]

NULL_KEY_ROWS = {
    "a": [(1, 1, 1), (2, 2, 2), (3, None, 3), (4, 4, None)],
    "b": [(1, 1, 1), (2, None, 2), (3, None, 3), (4, 2, None), (5, 2, 5)],
    "u2": [(1, 1, 1), (2, 1, None), (3, None, 2), (4, 2, 2), (5, None, None)],
    "n2": [(1, 1, 1), (2, 1, None), (3, 1, None), (4, None, 2), (5, None, 2),
           (6, None, None), (7, 2, 2)],
}


@pytest.fixture(scope="module")
def null_pair():
    engine, lite = Database(), sqlite3.connect(":memory:")
    for table, columns, index in NULL_KEY_TABLES:
        for db in (engine, lite):
            db.execute(f"CREATE TABLE {table} ({columns})")
            db.execute(index)
            for row in NULL_KEY_ROWS[table]:
                db.execute(f"INSERT INTO {table} VALUES (?, ?, ?)", row)
    return engine, lite


NULL_KEY_CASES = [
    ("SELECT id FROM a WHERE x = NULL", ()),
    ("SELECT id FROM a WHERE x = ?", (None,)),
    ("SELECT COUNT(*) FROM a WHERE x = ?", (None,)),
    ("SELECT id FROM b WHERE y = NULL", ()),
    ("SELECT id FROM b WHERE y = ?", (None,)),
    ("SELECT id FROM u2 WHERE p = ? AND q = ?", (1, None)),
    ("SELECT id FROM u2 WHERE p = ? AND q = ?", (None, 2)),
    ("SELECT id FROM u2 WHERE p = NULL AND q = NULL", ()),
    ("SELECT id FROM u2 WHERE p = ?", (None,)),
    ("SELECT id FROM n2 WHERE p = ? AND q = ?", (1, None)),
    ("SELECT id FROM n2 WHERE p = ? AND q = ?", (None, 2)),
    ("SELECT id FROM n2 WHERE p = NULL", ()),
    ("SELECT id FROM n2 WHERE p = ? AND q > ?", (None, 0)),
]

#: Index-probe NLJOINs whose outer side holds NULL keys: through a
#: non-unique index, a unique one (the fused probe) and a two-column
#: unique one.
NULL_KEY_JOINS = [
    "SELECT a.id, b.id FROM a, b WHERE a.x = b.y",
    "SELECT b.id, a.id FROM b, a WHERE b.y = a.x",
    "SELECT n2.id, u2.id FROM n2, u2 WHERE n2.p = u2.p AND n2.q = u2.q",
    "SELECT u2.id, n2.id FROM u2, n2 WHERE u2.p = n2.p AND u2.q = n2.q",
]


class TestNullIndexKeys:
    """``col = NULL`` is never true, so an index key holding NULL
    matches nothing — in an IXSCAN and in an NLJOIN's probe, as in
    SQLite, with the IXSCAN's work pinned."""

    @pytest.mark.parametrize("sql, params", NULL_KEY_CASES)
    def test_equality_on_null_matches_nothing(self, null_pair, sql, params):
        engine, lite = null_pair
        assert "IXSCAN" in engine.explain(sql)
        ours = engine.execute(sql, list(params)).rows
        assert normalize(ours) == normalize(lite.execute(sql, params).fetchall())
        assert ours == assert_pinned_work(engine, "null_keys", sql, params)

    @pytest.mark.parametrize("sql", NULL_KEY_JOINS)
    def test_probe_with_a_null_outer_key_finds_nothing(self, null_pair, sql):
        engine, lite = null_pair
        root = engine.plan_ast(
            parse_statement(sql),
            PlanDirectives(join_order=(0, 1), join_methods=(None, "nl")),
        )
        assert "NLJOIN(" in plan_shape(root) and "IXSCAN" in plan_shape(root)
        ours = engine.execute_plan(root).rows
        assert normalize(ours) == normalize(lite.execute(sql).fetchall())


# -- UPDATE/DELETE find their rows as SELECT does ---------------------------------

WRITE_DDL = [
    "CREATE TABLE w (id INTEGER NOT NULL, g INTEGER, k INTEGER, v INTEGER, "
    "s VARCHAR(10))",
    "CREATE TABLE picks (id INTEGER)",
]
WRITE_INDEXES = [
    "CREATE UNIQUE INDEX w_id ON w (id)",
    "CREATE INDEX w_gk ON w (g, k)",
]
WRITE_ROWS = [
    (i, None if i % 13 == 0 else i % 4, i % 7, i % 5, "x") for i in range(60)
]

#: ``(shape, WHERE, params)``: one per access path the planner picks.
WRITE_SHAPES = [
    ("unique full key", "id = ?", (17,)),
    ("non-unique prefix", "g = ?", (2,)),
    ("prefix and range", "g = ? AND k > ?", (1, 3)),
    ("range only", "id > ?", (50,)),
    ("in list", "id IN (3, 5, 7, 99)", ()),
    ("or", "id = 4 OR g = 3", ()),
    ("no usable index", "v = ?", (3,)),
    ("null key", "g = ?", (None,)),
    ("binds no column, true", "? = 1 AND g = ?", (1, 0)),
    ("binds no column, false", "? = 1 AND g = ?", (0, 0)),
    ("in subquery", "id IN (SELECT id FROM picks)", ()),
]


def _index_of(node) -> str | None:
    """The index an access path reads, or ``None`` for a scan."""
    if isinstance(node, phys.PIndexScan):
        return node.index_name
    for child in node.children():
        found = _index_of(child)
        if found is not None:
            return found
    return None


class TestWritesFindRowsLikeSelect:
    """UPDATE and DELETE find their rows through the access path the
    planner picks for ``SELECT * FROM w WHERE <same WHERE>``: they
    change the rows SQLite changes and read through the index (or none)
    that the SELECT's plan names."""

    @staticmethod
    def _pair():
        engine, lite = Database(), sqlite3.connect(":memory:")
        for db in (engine, lite):
            for sql in WRITE_DDL + WRITE_INDEXES:
                db.execute(sql)
            for row in WRITE_ROWS:
                db.execute("INSERT INTO w VALUES (?, ?, ?, ?, ?)", row)
            for pick in (2, 8, 40):
                db.execute("INSERT INTO picks VALUES (?)", (pick,))
        return engine, lite

    @pytest.mark.parametrize(
        "verb", ["UPDATE w SET s = 'hit', v = v + 10", "DELETE FROM w"]
    )
    @pytest.mark.parametrize(
        "where, params",
        [shape[1:] for shape in WRITE_SHAPES],
        ids=[shape[0] for shape in WRITE_SHAPES],
    )
    def test_same_rows_through_the_same_index(self, verb, where, params):
        engine, lite = self._pair()
        sql = f"{verb} WHERE {where}"
        write = engine.prepare(sql)
        count = write.execute(list(params)).rowcount
        assert count == lite.execute(sql, params).rowcount
        everything = "SELECT * FROM w"
        assert normalize(engine.execute(everything).rows) == normalize(
            lite.execute(everything).fetchall()
        )
        select = engine.plan(f"SELECT * FROM w WHERE {where}")
        assert _index_of(write.program.access) == _index_of(select)

    def test_the_shapes_cover_scans_and_both_indexes(self):
        engine, _ = self._pair()
        chosen = {
            _index_of(engine.plan(f"SELECT * FROM w WHERE {where}"))
            for _, where, _ in WRITE_SHAPES
        }
        assert chosen == {None, "w_id", "w_gk"}


# -- an IN list after an equality prefix probes its items ---------------------

IN_DDL = [
    "CREATE TABLE t (tenant INTEGER, row INTEGER, id INTEGER, v INTEGER)",
    "CREATE INDEX t_tr ON t (tenant, row)",
    "CREATE INDEX t_id ON t (tenant, id)",
    "CREATE TABLE o (tenant INTEGER, k INTEGER)",
]
#: Three tenants; ids repeat within a tenant, and some are NULL.
IN_ROWS = [(i % 3, i, None if i % 17 == 0 else i // 2 % 40, i) for i in range(150)]


def _in_keyed(node) -> bool:
    """Whether an index scan of the plan probes IN-list keys."""
    if isinstance(node, phys.PIndexScan) and node.in_keys is not None:
        return True
    return any(_in_keyed(child) for child in node.children())


@pytest.mark.parametrize("profile", list(OptimizerProfile))
class TestInListProbe:
    """``tenant = ? AND id IN (...)`` probes ``(tenant, id)`` for each
    listed id; the IN list stays the filter, so duplicates, a NULL item,
    absent ids and ``2``/``2.0`` answer as in SQLite.  ``NOT IN`` and an
    IN list with no equality prefix before it probe nothing."""

    WHERE = "tenant = ? AND id IN (5, 2, 5, NULL, 2.0, 999, ?)"
    PARAMS = (1, 11)

    @staticmethod
    def _pair(profile):
        engine, lite = Database(profile=profile), sqlite3.connect(":memory:")
        for db in (engine, lite):
            for sql in IN_DDL:
                db.execute(sql)
            for row in IN_ROWS:
                db.execute("INSERT INTO t VALUES (?, ?, ?, ?)", row)
            for row in ((1, 10), (2, 20), (1, 30)):
                db.execute("INSERT INTO o VALUES (?, ?)", row)
        return engine, lite

    def test_select(self, profile):
        engine, lite = self._pair(profile)
        sql = f"SELECT row, id, v FROM t WHERE {self.WHERE}"
        assert (
            "via t_id(t.tenant = ?, t.id IN (5, 2, 5, NULL, 2.0, 999, ?))"
            in engine.explain(sql)
        )
        ours = engine.execute(sql, list(self.PARAMS)).rows
        assert len(ours) > 3
        assert normalize(ours) == normalize(lite.execute(sql, self.PARAMS).fetchall())

    @pytest.mark.parametrize("verb", ["UPDATE t SET v = v + 1000", "DELETE FROM t"])
    def test_write(self, profile, verb):
        engine, lite = self._pair(profile)
        sql = f"{verb} WHERE {self.WHERE}"
        write = engine.prepare(sql)
        count = write.execute(list(self.PARAMS)).rowcount
        assert count > 3 and count == lite.execute(sql, self.PARAMS).rowcount
        assert _in_keyed(write.program.access)
        everything = "SELECT * FROM t"
        assert normalize(engine.execute(everything).rows) == normalize(
            lite.execute(everything).fetchall()
        )

    def test_nljoin_inner_with_the_prefix_bound_by_the_outer_row(self, profile):
        engine, lite = self._pair(profile)
        sql = (
            "SELECT o.k, t.row, t.id FROM o, t "
            "WHERE t.tenant = o.tenant AND t.id IN (3, 4, 4, 38, 77)"
        )
        root = engine.plan_ast(
            parse_statement(sql),
            PlanDirectives(join_order=(0, 1), join_methods=(None, "nl")),
        )
        assert plan_shape(root) == "RETURN(PROJECT(NLJOIN(TBSCAN,FETCH(IXSCAN))))"
        assert "via t_id(t.tenant = o.tenant, t.id IN (3, 4, 4, 38, 77))" in (
            render_plan(root)
        )
        ours = engine.execute_plan(root).rows
        assert normalize(ours) == normalize(lite.execute(sql).fetchall())

    @pytest.mark.parametrize(
        "where", ["tenant = 1 AND id NOT IN (5, 2)", "id IN (5, 2)", "tenant IN (1, 2)"]
    )
    def test_not_in_and_no_prefix_keep_their_plans(self, profile, where):
        engine, lite = self._pair(profile)
        sql = f"SELECT row, v FROM t WHERE {where}"
        assert not _in_keyed(engine.plan(sql))
        assert " IN (" not in engine.explain(sql)
        compare((engine, lite), sql)


# -- the binder converts every DATE/string pair, whatever the access path ------

#: ``(id, tenant, s, d)``: ``s`` holds ISO text, a string that is no
#: date (in tenant 2, which no ``TO_DATE(s)`` case reads) and a NULL.
DATE_ROWS = [
    (1, 1, "2008-01-01", "2008-01-01"), (2, 1, "2008-01-01", "2008-01-02"),
    (3, 2, "later", "2008-01-01"), (4, 1, None, None),
    (5, 1, "2007-12-31", "2007-12-31"),
]
DATE_INDEXES = {
    "t_d": "CREATE INDEX t_d ON t (tenant, d)",
    "t_s": "CREATE INDEX t_s ON t (tenant, s)",
}
JAN_1 = datetime.date(2008, 1, 1)


@pytest.mark.parametrize("profile", list(OptimizerProfile))
@pytest.mark.parametrize(
    "indexes",
    [(), ("t_d",), ("t_s",), ("t_d", "t_s")],
    ids=["scan", "index", "s-index", "both-indexes"],
)
class TestDateConstants:
    """Where a DATE meets a string, the engine answers as SQLite's text
    comparison does under every index set (none, each alone, both):
    whether the row is found by a scan or by an index probe, whether the
    string is a literal, an ``IN`` item, a parameter or a VARCHAR
    column, and whether the DATE is a column or an expression.  A date
    parameter met by a VARCHAR reads as its ISO text; a string that is
    no date is compared as it is, the same way on every path."""

    @staticmethod
    def _pair(profile, indexes):
        engine, lite = Database(profile=profile), sqlite3.connect(":memory:")
        engine.execute(
            "CREATE TABLE t (id INTEGER, tenant INTEGER, s VARCHAR(20), d DATE)"
        )
        lite.execute("CREATE TABLE t (id INTEGER, tenant INTEGER, s TEXT, d TEXT)")
        # A DATE is ISO text in SQLite, so TO_DATE reads it as it is.
        lite.create_function("TO_DATE", 1, lambda v: v, deterministic=True)
        for db in (engine, lite):
            for name in indexes:
                db.execute(DATE_INDEXES[name])
            for row in DATE_ROWS:
                db.execute("INSERT INTO t VALUES (?, ?, ?, ?)", row)
        return engine, lite

    @pytest.mark.parametrize(
        "where, params, probe",
        [
            ("tenant = 1 AND d = '2008-01-01'", (), "t_d"),
            ("tenant = 1 AND d IN ('2008-01-01', '2007-12-31')", (), "t_d"),
            ("d IN ('2008-01-01')", (), None),
            ("tenant = 1 AND d = ?", ("2008-01-01",), "t_d"),
            ("tenant = ? AND d IN (?, '2008-01-02')", (1, "2008-01-01"), "t_d"),
            ("tenant = 1 AND d >= ?", ("2008-01-01",), "t_d"),
            ("tenant = 1 AND d = 'soon'", (), "t_d"),
            ("tenant = 1 AND d < ?", ("soon",), "t_d"),
            ("tenant = 1 AND d < '2008-01-01'", (), None),
            ("tenant = 1 AND s > '2008'", (), "t_s"),
            ("tenant = 1 AND TO_DATE(s) = ?", ("2008-01-01",), None),
            ("tenant = 1 AND TO_DATE(s) = ?", (JAN_1,), None),
            ("tenant = 1 AND TO_DATE(s) = '2008-01-01'", (), None),
            ("COALESCE(d, d) = ?", ("2008-01-01",), None),
            ("s = d", (), None),
            ("s < d", (), None),
            ("tenant = 1 AND s = ?", (JAN_1,), "t_s"),
            ("tenant = 1 AND s IN (?)", (JAN_1,), "t_s"),
            ("tenant = 2 AND s > ?", (JAN_1,), "t_s"),
        ],
        ids=["eq", "in", "in-no-prefix", "param", "in-param", "range-param",
             "no-date", "no-date-param", "range-literal", "text-literal",
             "to-date-param", "to-date-date-param", "to-date-literal",
             "coalesce-param", "text-eq-date", "text-lt-date",
             "text-date-param", "text-in-date-param", "no-date-text"],
    )
    def test_select(self, profile, indexes, where, params, probe):
        engine, lite = self._pair(profile, indexes)
        sql = f"SELECT id FROM t WHERE {where}"
        read = _index_of(engine.plan(sql))
        if not where.startswith("tenant"):
            assert read is None
        elif indexes == (probe,):
            assert read == probe
        ours = engine.execute(sql, list(params)).rows
        iso = tuple(p.isoformat() if isinstance(p, datetime.date) else p
                    for p in params)
        theirs = lite.execute(sql, iso).fetchall()
        assert normalize(ours) == normalize(theirs), sql

    @pytest.mark.parametrize("verb", ["UPDATE t SET tenant = 9", "DELETE FROM t"])
    def test_write(self, profile, indexes, verb):
        engine, lite = self._pair(profile, indexes)
        sql = f"{verb} WHERE tenant = 1 AND d = ?"
        count = engine.execute(sql, ["2008-01-01"]).rowcount
        assert count == 1 == lite.execute(sql, ("2008-01-01",)).rowcount
        compare((engine, lite), "SELECT id, tenant FROM t")

    def test_join(self, profile, indexes):
        """A VARCHAR joined to a DATE: no join method changes the answer
        (a hash join on the raw values would match nothing)."""
        engine, lite = self._pair(profile, indexes)
        for where in ("x.s = y.d", "x.tenant = y.tenant AND x.s = y.d"):
            compare((engine, lite), f"SELECT x.id, y.id FROM t x, t y WHERE {where}")


def _date_tenants(layout: str):
    """Each tenant's ``DATE_ROWS`` in a logical ``t(id, s, d)``, indexed,
    on ``layout``; and SQLite holding them with their tenant ids."""
    mtd = MultiTenantDatabase(layout=layout)
    mtd.define_table(
        LogicalTable(
            "t",
            (
                LogicalColumn("id", INTEGER, indexed=True),
                LogicalColumn("s", varchar(20), indexed=True),
                LogicalColumn("d", DATE, indexed=True),
            ),
        )
    )
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (id INTEGER, tenant INTEGER, s TEXT, d TEXT)")
    for tenant in (1, 2):
        mtd.create_tenant(tenant)
    for row_id, tenant, text, date in DATE_ROWS:
        mtd.insert(tenant, "t", {"id": row_id, "s": text, "d": date})
        lite.execute("INSERT INTO t VALUES (?, ?, ?, ?)", (row_id, tenant, text, date))
    return mtd, lite


def _iso(params) -> tuple:
    """``params`` as SQLite takes them: a date as its ISO text."""
    return tuple(p.isoformat() if isinstance(p, datetime.date) else p
                 for p in params)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_date_and_string_agree_with_sqlite_on_every_layout(layout):
    """The same pairs through the schema-mapping layer: each tenant
    answers as SQLite does for its rows."""
    mtd, lite = _date_tenants(layout)
    for where, params in [
        ("s = d", ()),
        ("s < d", ()),
        ("s = ?", (JAN_1,)),
        ("s IN (?)", (JAN_1,)),
        ("s > ?", (JAN_1,)),
        ("d = ?", ("2008-01-01",)),
        ("d IN ('2008-01-01', '2007-12-31')", ()),
        ("COALESCE(d, d) = ?", ("2008-01-01",)),
        ("d < 'soon'", ()),
    ]:
        for tenant in (1, 2):
            ours = mtd.execute(tenant, f"SELECT id FROM t WHERE {where}", params)
            theirs = lite.execute(
                f"SELECT id FROM t WHERE tenant = {tenant} AND {where}",
                _iso(params),
            )
            assert sorted(ours.rows) == sorted(theirs.fetchall()), (where, tenant)


@pytest.mark.parametrize("param", ["2008-01-01", JAN_1], ids=["text", "date"])
@pytest.mark.parametrize("layout", ["private", "chunk"])
def test_cross_tenant_having_reads_parameters_like_sqlite(layout, param):
    """A ``FOR TENANTS`` aggregate compares a parameter with a DATE or a
    VARCHAR aggregate as the engine does: on Private Tables each tenant
    is its own structure group, so HAVING and ORDER BY run in the merge
    of the group results; on a shared layout, inside the engine."""
    mtd, lite = _date_tenants(layout)
    for having in ("MAX(d) >= ?", "MAX(s) = ?"):
        sql = f"SELECT s, COUNT(*) FROM t GROUP BY s HAVING {having} ORDER BY s"
        cross = f"{sql} FOR TENANTS IN (1, 2)"
        assert len(mtd.transform_cross_sql(cross)) == (layout == "private") + 1
        ours = mtd.execute_cross(cross, (param,)).rows
        theirs = lite.execute(
            sql.replace("GROUP BY", "WHERE tenant IN (1, 2) GROUP BY"), _iso([param])
        ).fetchall()
        assert ours and ours == theirs, (having, ours, theirs)
