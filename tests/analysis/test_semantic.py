"""Semantic analyzer: the table-driven bad-SQL suite plus the
"clean statements execute unchanged" property.

Every rejected statement must carry the documented rule id (see
docs/analysis_rules.md), and gating ``Database.prepare()`` on the
analyzer must not change the result of any statement it accepts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.findings import RULES, Severity
from repro.analysis.semantic import CatalogProvider, SemanticAnalyzer
from repro.engine.database import Database
from repro.engine.errors import SemanticError, UnsupportedSyntaxError
from repro.engine.sql.parser import parse_statement


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE account ("
        "aid INTEGER NOT NULL, tenant INTEGER NOT NULL, "
        "name VARCHAR(50), beds INTEGER, opened DATE)"
    )
    database.execute("CREATE UNIQUE INDEX account_pk ON account (tenant, aid)")
    rows = [
        (1, 17, "Acme", 135, "2001-05-04"),
        (2, 17, "Gump", 1042, "2003-07-12"),
        (1, 35, "Ball", None, "2006-01-30"),
        (1, 42, "Big", 65, "2007-11-11"),
    ]
    for row in rows:
        database.execute(
            "INSERT INTO account VALUES (?, ?, ?, ?, ?)", list(row)
        )
    return database


def analyze(db, sql):
    analyzer = SemanticAnalyzer(CatalogProvider(db.catalog))
    return analyzer.analyze(parse_statement(sql), locus=sql)


BAD_SQL = [
    ("SELECT aid FROM nosuch", "SEM001"),
    ("SELECT nope FROM account", "SEM002"),
    ("SELECT account.nope FROM account", "SEM002"),
    ("SELECT x.aid FROM account a", "SEM002"),
    ("SELECT a.aid FROM account a, account b", None),  # fine: qualified
    ("SELECT aid FROM account a, account b", "SEM003"),
    ("SELECT a.aid FROM account a, account a", "SEM004"),
    ("INSERT INTO account (aid, tenant, name) VALUES (1, 17)", "SEM005"),
    ("INSERT INTO account (aid, aid, tenant) VALUES (1, 1, 17)", "SEM005"),
    ("INSERT INTO account (aid) VALUES (3)", "SEM008"),  # NOT NULL tenant
    ("SELECT FROO(name) FROM account", "SEM006"),
    ("SELECT LENGTH(name, aid) FROM account", "SEM006"),
    ("SELECT aid FROM account WHERE name > 3", "SEM007"),
    ("SELECT aid FROM account WHERE aid + name > 1", "SEM007"),
    ("UPDATE account SET aid = 'x' WHERE aid = 1", "SEM008"),
    ("INSERT INTO account (aid, tenant, beds) VALUES (4, 17, 'many')", "SEM008"),
    ("SELECT aid FROM account WHERE SUM(aid) > 1", "SEM009"),
    ("SELECT SUM(COUNT(*)) FROM account", "SEM009"),
    ("DELETE FROM account WHERE nope = 1", "SEM002"),
    ("UPDATE account SET nope = 1", "SEM002"),
]


@pytest.mark.parametrize("sql,rule_id", BAD_SQL)
def test_bad_sql_rule_ids(db, sql, rule_id):
    report = analyze(db, sql)
    if rule_id is None:
        assert report.ok, [f.message for f in report.findings]
    else:
        assert rule_id in {f.rule_id for f in report.errors}, (
            f"{sql!r}: expected {rule_id}, got "
            f"{[(f.rule_id, f.message) for f in report.findings]}"
        )


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a.aid FROM account a LEFT JOIN account b ON a.aid = b.beds",
        "SELECT a.aid FROM account a LEFT OUTER JOIN account b ON a.aid = b.aid",
    ],
)
def test_outer_join_is_flagged_and_refused(db, sql):
    """An outer join would run as an inner one and lose the unmatched
    rows: the analyzer reports SEM011 and prepare refuses the text."""
    report = SemanticAnalyzer(CatalogProvider(db.catalog)).analyze_sql(sql)
    assert [f.rule_id for f in report.errors] == ["SEM011"]
    assert "LEFT [OUTER] JOIN" in report.errors[0].message
    with pytest.raises(UnsupportedSyntaxError, match="SEM011"):
        db.prepare(sql)


def test_analyze_sql_matches_analyze(db):
    sql = "SELECT nope FROM account"
    analyzer = SemanticAnalyzer(CatalogProvider(db.catalog))
    assert analyzer.analyze_sql(sql).errors == analyze(db, sql).errors


def test_unknown_table_does_not_cascade(db):
    # An opaque source suppresses SEM002 noise for its columns.
    report = analyze(db, "SELECT n.anything FROM nosuch n")
    assert {f.rule_id for f in report.errors} == {"SEM001"}


def test_prepare_rejects_with_rule_id(db):
    with pytest.raises(SemanticError) as excinfo:
        db.prepare("SELECT nope FROM account")
    assert "SEM002" in str(excinfo.value)
    assert excinfo.value.findings
    assert db.metrics.counter("analysis.semantic.rejections").value >= 1


def test_prepare_accepts_clean_sql(db):
    prepared = db.prepare("SELECT aid, name FROM account WHERE tenant = ?")
    assert prepared.execute((17,)).rows == [(1, "Acme"), (2, "Gump")]


def test_correlated_subquery_is_clean(db):
    report = analyze(
        db,
        "SELECT aid FROM account a WHERE beds IN "
        "(SELECT b.beds FROM account b WHERE b.tenant = a.tenant)",
    )
    assert report.ok, [f.message for f in report.findings]


def test_rule_catalog_is_consistent():
    for rule_id, rule in RULES.items():
        assert rule.rule_id == rule_id
        assert isinstance(rule.severity, Severity)
        assert rule.title


# -- property: analyzer-clean statements execute identically -------------

COLUMNS = {
    "aid": "int",
    "tenant": "int",
    "beds": "int",
    "name": "str",
    "opened": "date",
}
LITERALS = {
    "int": st.integers(min_value=-5, max_value=2000).map(str),
    "str": st.sampled_from(["'Acme'", "'Ball'", "'Z%'"]),
    "date": st.sampled_from(["'2001-05-04'", "'2010-01-01'"]),
}


@st.composite
def clean_selects(draw):
    column = draw(st.sampled_from(sorted(COLUMNS)))
    literal = draw(LITERALS[COLUMNS[column]])
    op = draw(st.sampled_from(["=", "<>", "<", ">=", ">"]))
    order = draw(st.sampled_from(["", " ORDER BY aid"]))
    projection = draw(
        st.sampled_from(["aid, name", "COUNT(*)", "aid, tenant, beds"])
    )
    if projection == "COUNT(*)":
        order = ""
    return (
        f"SELECT {projection} FROM account "
        f"WHERE {column} {op} {literal}{order}"
    )


@settings(max_examples=60, deadline=None)
@given(sql=clean_selects())
def test_clean_statements_execute_identically(sql):
    db = Database()
    db.execute(
        "CREATE TABLE account ("
        "aid INTEGER NOT NULL, tenant INTEGER NOT NULL, "
        "name VARCHAR(50), beds INTEGER, opened DATE)"
    )
    for row in [
        (1, 17, "Acme", 135, "2001-05-04"),
        (1, 35, "Ball", None, "2006-01-30"),
    ]:
        db.execute("INSERT INTO account VALUES (?, ?, ?, ?, ?)", list(row))
    report = analyze(db, sql)
    assert report.ok, (sql, [f.message for f in report.findings])
    # The analyzer gate on prepare() must not change the answer the
    # ungated text path produces.
    assert db.prepare(sql).execute().rows == db.execute(sql).rows
