"""Tests for the SQL lexer/parser and SQL rendering round-trips."""

import pytest

from repro.engine.errors import ParseError, UnsupportedSyntaxError
from repro.engine.sql import ast
from repro.engine.sql.lexer import TokenKind, tokenize
from repro.engine.sql.parser import parse_statement


class TestLexer:
    def test_keywords_upcased(self):
        tokens = tokenize("select From")
        assert tokens[0].text == "SELECT"
        assert tokens[1].text == "FROM"

    def test_string_escapes(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].text == "it's"

    def test_params(self):
        tokens = tokenize("? ?")
        assert [t.kind for t in tokens[:2]] == [TokenKind.PARAM, TokenKind.PARAM]

    def test_operators(self):
        tokens = tokenize("<> <= >= ||")
        assert [t.text for t in tokens[:4]] == ["<>", "<=", ">=", "||"]

    def test_garbage_raises_with_position(self):
        with pytest.raises(ParseError) as info:
            tokenize("SELECT @")
        assert info.value.position == 7


class TestSelectParsing:
    def test_simple(self):
        stmt = parse_statement("SELECT a FROM t")
        assert isinstance(stmt, ast.Select)
        assert stmt.sources[0].name == "t"

    def test_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_qualified_star(self):
        stmt = parse_statement("SELECT t.* FROM t")
        assert stmt.items[0].expr == ast.Star("t")

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t AS u")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.sources[0].alias == "u"

    def test_comma_join_and_where(self):
        stmt = parse_statement(
            "SELECT p.id FROM parent p, child c WHERE p.id = c.parent AND p.id = ?"
        )
        assert len(stmt.sources) == 2
        assert isinstance(stmt.where, ast.BinaryOp)

    def test_explicit_join_becomes_where(self):
        stmt = parse_statement(
            "SELECT p.id FROM parent p JOIN child c ON p.id = c.parent"
        )
        assert len(stmt.sources) == 2
        assert stmt.where is not None

    def test_inner_keyword_is_accepted(self):
        stmt = parse_statement(
            "SELECT p.id FROM parent p INNER JOIN child c ON p.id = c.parent"
        )
        assert len(stmt.sources) == 2

    @pytest.mark.parametrize("join", ["LEFT JOIN", "LEFT OUTER JOIN", "OUTER JOIN"])
    def test_outer_join_is_refused_by_name(self, join):
        with pytest.raises(UnsupportedSyntaxError) as excinfo:
            parse_statement(
                f"SELECT p.id FROM parent p {join} child c ON p.id = c.parent"
            )
        assert excinfo.value.construct == "LEFT [OUTER] JOIN"
        assert "SEM011" in str(excinfo.value)
        assert isinstance(excinfo.value, ParseError)

    def test_nested_subquery_in_from(self):
        stmt = parse_statement(
            "SELECT a.x FROM (SELECT b.y AS x FROM b WHERE b.y > 1) AS a"
        )
        assert isinstance(stmt.sources[0], ast.SubquerySource)
        assert stmt.sources[0].alias == "a"

    def test_group_by_having(self):
        stmt = parse_statement(
            "SELECT t.a, COUNT(*) FROM t GROUP BY t.a HAVING COUNT(*) > 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_limit(self):
        stmt = parse_statement("SELECT a FROM t ORDER BY a DESC, b LIMIT 10")
        assert stmt.order_by[0].descending is True
        assert stmt.order_by[1].descending is False
        assert stmt.limit == 10

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_in_list(self):
        stmt = parse_statement("SELECT a FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(stmt.where, ast.InList)

    def test_in_subquery(self):
        stmt = parse_statement("SELECT a FROM t WHERE a IN (SELECT b FROM u)")
        assert isinstance(stmt.where, ast.InSubquery)

    def test_not_in(self):
        stmt = parse_statement("SELECT a FROM t WHERE a NOT IN (1)")
        assert stmt.where.negated

    def test_between(self):
        stmt = parse_statement("SELECT a FROM t WHERE a BETWEEN 1 AND 5")
        assert isinstance(stmt.where, ast.BinaryOp)
        assert stmt.where.op == "AND"

    def test_is_null(self):
        stmt = parse_statement("SELECT a FROM t WHERE a IS NOT NULL")
        assert stmt.where == ast.IsNull(ast.ColumnRef(None, "a"), negated=True)

    def test_like(self):
        stmt = parse_statement("SELECT a FROM t WHERE a LIKE 'x%'")
        assert stmt.where.op == "LIKE"

    def test_param_indexes_in_order(self):
        stmt = parse_statement("SELECT a FROM t WHERE a = ? AND b = ?")
        left, right = stmt.where.left, stmt.where.right
        assert left.right.index == 0
        assert right.right.index == 1

    def test_count_star(self):
        stmt = parse_statement("SELECT COUNT(*) FROM t")
        assert stmt.items[0].expr.star

    def test_count_distinct(self):
        stmt = parse_statement("SELECT COUNT(DISTINCT a) FROM t")
        assert stmt.items[0].expr.distinct

    def test_arithmetic_precedence(self):
        stmt = parse_statement("SELECT a + b * 2 FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_negative_literal(self):
        stmt = parse_statement("SELECT a FROM t WHERE a > -5")
        assert isinstance(stmt.where.right, ast.UnaryOp)


class TestDmlParsing:
    def test_insert_positional(self):
        stmt = parse_statement("INSERT INTO t VALUES (1, 'x', NULL)")
        assert isinstance(stmt, ast.Insert)
        assert stmt.columns == ()
        assert len(stmt.rows[0]) == 3

    def test_insert_with_columns(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (?, ?)")
        assert stmt.columns == ("a", "b")

    def test_insert_multi_row(self):
        stmt = parse_statement("INSERT INTO t VALUES (1), (2), (3)")
        assert len(stmt.rows) == 3

    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE id = ?")
        assert isinstance(stmt, ast.Update)
        assert len(stmt.assignments) == 2

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE id = 1")
        assert isinstance(stmt, ast.Delete)


class TestDdlParsing:
    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE t (id INTEGER NOT NULL, name VARCHAR(100), d DATE)"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.columns[0].not_null
        assert stmt.columns[1].type_text == "VARCHAR(100)"

    def test_create_index(self):
        stmt = parse_statement("CREATE UNIQUE INDEX i ON t (a, b)")
        assert isinstance(stmt, ast.CreateIndex)
        assert stmt.unique
        assert stmt.columns == ("a", "b")

    def test_drop_table(self):
        assert isinstance(parse_statement("DROP TABLE t"), ast.DropTable)

    def test_drop_index(self):
        stmt = parse_statement("DROP INDEX i ON t")
        assert isinstance(stmt, ast.DropIndex)


class TestErrors:
    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM t extra garbage here")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM (SELECT b FROM t AS x")

    def test_empty_statement(self):
        with pytest.raises(ParseError):
            parse_statement("")

    def test_dangling_not(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM t WHERE a NOT 5")


class TestSqlRoundTrip:
    """Every statement's .sql() must re-parse to an equivalent AST —
    the query-transformation layer relies on this."""

    CASES = [
        "SELECT a FROM t",
        "SELECT DISTINCT t.a AS x FROM t WHERE t.a > 5",
        "SELECT p.id, c.col1 FROM parent AS p, child AS c "
        "WHERE p.id = c.parent AND p.id = ?",
        "SELECT a.x FROM (SELECT b.y AS x FROM b WHERE b.y = ?) AS a",
        "SELECT t.a, COUNT(*) AS n FROM t GROUP BY t.a HAVING COUNT(*) > 2 "
        "ORDER BY n DESC LIMIT 5",
        "SELECT a FROM t WHERE a IN (1, 2) AND b IS NULL",
        "INSERT INTO t (a, b) VALUES (1, 'it''s')",
        "UPDATE t SET a = a + 1 WHERE b = ?",
        "DELETE FROM t WHERE a IN (SELECT b FROM u WHERE u.c = ?)",
        "CREATE TABLE t (id INTEGER NOT NULL, name VARCHAR(10))",
        "CREATE UNIQUE INDEX i ON t (a, b)",
    ]

    @pytest.mark.parametrize("sql", CASES)
    def test_roundtrip(self, sql):
        first = parse_statement(sql)
        second = parse_statement(first.sql())
        assert first == second


class TestExprTraversal:
    """``ast.children`` / ``ast.map_children`` are the only code that
    knows which fields of a node hold sub-expressions; every traversal
    in the engine and the transformation layer stands on them."""

    A, B, C = ast.ColumnRef("t", "a"), ast.Literal(1), ast.Param(0)
    SUBQUERY = ast.Select(
        (ast.SelectItem(ast.ColumnRef("u", "x")),), (ast.TableSource("u"),)
    )
    #: One sample per node kind with its exact sub-expressions.
    SAMPLES = {
        ast.Literal: (B, ()),
        ast.Param: (C, ()),
        ast.ColumnRef: (A, ()),
        ast.BinaryOp: (ast.BinaryOp("+", A, B), (A, B)),
        ast.UnaryOp: (ast.UnaryOp("-", A), (A,)),
        ast.IsNull: (ast.IsNull(A, negated=True), (A,)),
        ast.FuncCall: (ast.FuncCall("COALESCE", (A, B, C)), (A, B, C)),
        ast.InList: (ast.InList(A, (B, C), negated=True), (A, B, C)),
        ast.InSubquery: (ast.InSubquery(A, SUBQUERY, negated=True), (A,)),
    }

    def test_every_node_kind_is_covered(self):
        """A node kind added to ``ast.Expr`` without a sample here (and
        so without a decision in the two helpers) fails."""
        import typing

        assert set(typing.get_args(ast.Expr)) == set(self.SAMPLES)

    @pytest.mark.parametrize("kind", list(SAMPLES), ids=lambda k: k.__name__)
    def test_children_and_identity_map(self, kind):
        node, expected = self.SAMPLES[kind]
        assert tuple(ast.children(node)) == expected
        seen = []
        rebuilt = ast.map_children(node, lambda c: seen.append(c) or c)
        assert rebuilt == node
        assert tuple(seen) == expected

    def test_map_children_replaces_every_child(self):
        marker = ast.Literal("x")
        for node, expected in self.SAMPLES.values():
            mapped = ast.map_children(node, lambda _: marker)
            assert tuple(ast.children(mapped)) == (marker,) * len(expected)

    def test_nested_select_is_left_alone(self):
        node, _ = self.SAMPLES[ast.InSubquery]
        mapped = ast.map_children(node, lambda _: ast.Literal("x"))
        assert mapped.subquery is self.SUBQUERY
        assert self.SUBQUERY.items[0].expr not in ast.walk(node)

    def test_non_expressions_are_rejected(self):
        for helper in (ast.children, lambda e: ast.map_children(e, id)):
            with pytest.raises(TypeError):
                helper(ast.Star())

    def test_walk_is_preorder(self):
        a, b = self.A, self.B
        expr = ast.BinaryOp("AND", ast.IsNull(a), ast.InList(a, (b,)))
        assert list(ast.walk(expr)) == [expr, expr.left, a, expr.right, a, b]
