"""Recursive-descent parser for the SQL subset.

Supports everything the paper's experiments need: SELECT with comma
joins and explicit ``JOIN ... ON``, nested FROM subqueries (the §6.1
transformation output), conjunctive and general WHERE predicates,
GROUP BY / HAVING / ORDER BY / LIMIT, aggregates, ``?`` parameters,
``IN`` (lists and subqueries), INSERT / UPDATE / DELETE, and DDL.
Outer joins are refused with :class:`UnsupportedSyntaxError`.
"""

from __future__ import annotations

from ..errors import ParseError, UnsupportedSyntaxError
from . import ast
from .lexer import Token, TokenKind, tokenize


class _Parser:
    def __init__(self, sql: str) -> None:
        self._tokens = tokenize(sql)
        self._pos = 0
        self._param_count = 0

    # -- token plumbing -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        self._pos += 1
        return token

    def _accept_keyword(self, *keywords: str) -> Token | None:
        if self._current.matches(*keywords):
            return self._advance()
        return None

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._accept_keyword(keyword)
        if token is None:
            raise ParseError(
                f"expected {keyword}, found {self._current.text or 'end of input'}",
                self._current.position,
            )
        return token

    def _accept_punct(self, text: str) -> bool:
        if self._current.kind is TokenKind.PUNCT and self._current.text == text:
            self._advance()
            return True
        return False

    def _expect_punct(self, text: str) -> None:
        if not self._accept_punct(text):
            raise ParseError(
                f"expected {text!r}, found {self._current.text or 'end of input'}",
                self._current.position,
            )

    def _expect_ident(self) -> str:
        if self._current.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected identifier, found {self._current.text or 'end of input'}",
                self._current.position,
            )
        return self._advance().text

    def _accept_word(self, word: str) -> bool:
        """Accept a non-reserved keyword (lexed as IDENT), like USING/FOR."""
        if (
            self._current.kind is TokenKind.IDENT
            and self._current.text.upper() == word
        ):
            self._advance()
            return True
        return False

    def _expect_word(self, word: str) -> None:
        if not self._accept_word(word):
            raise ParseError(
                f"expected {word}, found {self._current.text or 'end of input'}",
                self._current.position,
            )

    # -- entry point ------------------------------------------------------------

    def parse(self) -> ast.Statement:
        token = self._current
        if token.matches("SELECT"):
            stmt: ast.Statement = self._parse_select()
        elif token.matches("INSERT"):
            stmt = self._parse_insert()
        elif token.matches("UPDATE"):
            stmt = self._parse_update()
        elif token.matches("DELETE"):
            stmt = self._parse_delete()
        elif token.matches("CREATE"):
            stmt = self._parse_create()
        elif token.matches("DROP"):
            stmt = self._parse_drop()
        else:
            raise ParseError(
                f"unsupported statement starting with {token.text!r}", token.position
            )
        self._accept_punct(";")
        if self._current.kind is not TokenKind.EOF:
            raise ParseError(
                f"trailing input {self._current.text!r}", self._current.position
            )
        return stmt

    # -- SELECT -------------------------------------------------------------------

    def _parse_select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT") is not None
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        sources: list[ast.Source] = []
        where: ast.Expr | None = None
        if self._accept_keyword("FROM"):
            sources.append(self._parse_source())
            join_conditions: list[ast.Expr] = []
            while True:
                if self._accept_punct(","):
                    sources.append(self._parse_source())
                    continue
                if self._current.matches("LEFT", "OUTER"):
                    # Inner joins only: an outer join run as an inner
                    # one would silently drop the unmatched rows.
                    raise UnsupportedSyntaxError(
                        "LEFT [OUTER] JOIN", self._current.position
                    )
                if self._current.matches("JOIN", "INNER"):
                    self._accept_keyword("INNER")
                    self._expect_keyword("JOIN")
                    sources.append(self._parse_source())
                    self._expect_keyword("ON")
                    join_conditions.append(self._parse_expr())
                    continue
                break
            for condition in join_conditions:
                where = (
                    condition
                    if where is None
                    else ast.BinaryOp("AND", where, condition)
                )
        if self._accept_keyword("WHERE"):
            predicate = self._parse_expr()
            where = (
                predicate if where is None else ast.BinaryOp("AND", where, predicate)
            )
        group_by: list[ast.Expr] = []
        having: ast.Expr | None = None
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expr())
            while self._accept_punct(","):
                group_by.append(self._parse_expr())
            if self._accept_keyword("HAVING"):
                having = self._parse_expr()
        order_by: list[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())
        limit: int | None = None
        if self._accept_keyword("LIMIT"):
            if self._current.kind is not TokenKind.NUMBER:
                raise ParseError("LIMIT expects a number", self._current.position)
            limit = int(self._advance().text)
        tenants = self._parse_tenant_clause()
        return ast.Select(
            items=tuple(items),
            sources=tuple(sources),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
            tenants=tenants,
        )

    def _parse_tenant_clause(self) -> ast.TenantClause | None:
        # MTSQL tenant scope: FOR ALL TENANTS | FOR TENANTS IN (n, ...).
        # FOR/ALL/TENANTS are not reserved words; FOR is matched as an
        # identifier here and blocked from alias positions above.
        if not self._accept_word("FOR"):
            return None
        if self._accept_word("ALL"):
            self._expect_word("TENANTS")
            return ast.TenantClause(all_tenants=True)
        self._expect_word("TENANTS")
        self._expect_keyword("IN")
        self._expect_punct("(")
        ids: list[int] = []
        while True:
            if self._current.kind is not TokenKind.NUMBER:
                raise ParseError(
                    "FOR TENANTS IN expects integer tenant ids",
                    self._current.position,
                )
            text = self._advance().text
            if "." in text:
                raise ParseError("tenant ids must be integers", self._current.position)
            ids.append(int(text))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return ast.TenantClause(ids=tuple(ids))

    def _parse_select_item(self) -> ast.SelectItem:
        if self._current.kind is TokenKind.OP and self._current.text == "*":
            self._advance()
            return ast.SelectItem(ast.Star())
        # alias.* needs lookahead: IDENT '.' '*'
        if (
            self._current.kind is TokenKind.IDENT
            and self._peek(1, TokenKind.PUNCT, ".")
            and self._peek(2, TokenKind.OP, "*")
        ):
            table = self._advance().text
            self._advance()  # .
            self._advance()  # *
            return ast.SelectItem(ast.Star(table))
        expr = self._parse_expr()
        alias: str | None = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif (
            self._current.kind is TokenKind.IDENT
            and self._current.text.upper() != "FOR"
        ):
            # FOR introduces the tenant clause, never an implicit alias.
            alias = self._advance().text
        return ast.SelectItem(expr, alias)

    def _peek(self, offset: int, kind: TokenKind, text: str) -> bool:
        idx = self._pos + offset
        if idx >= len(self._tokens):
            return False
        token = self._tokens[idx]
        return token.kind is kind and token.text == text

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, descending)

    def _parse_source(self) -> ast.Source:
        if self._accept_punct("("):
            select = self._parse_select()
            self._expect_punct(")")
            self._accept_keyword("AS")
            alias = self._expect_ident()
            return ast.SubquerySource(select, alias)
        name = self._expect_ident()
        alias: str | None = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif (
            self._current.kind is TokenKind.IDENT
            and self._current.text.upper() != "FOR"
        ):
            # FOR introduces the tenant clause, never an implicit alias.
            alias = self._advance().text
        return ast.TableSource(name, alias)

    # -- expressions ----------------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        if self._current.kind is TokenKind.OP and self._current.text in {
            "=", "<>", "<", "<=", ">", ">=",
        }:
            op = self._advance().text
            return ast.BinaryOp(op, left, self._parse_additive())
        if self._current.matches("IS"):
            self._advance()
            negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = False
        if self._current.matches("NOT"):
            # NOT IN / NOT BETWEEN / NOT LIKE
            self._advance()
            negated = True
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            if self._current.matches("SELECT"):
                subquery = self._parse_select()
                self._expect_punct(")")
                return ast.InSubquery(left, subquery, negated)
            items = [self._parse_expr()]
            while self._accept_punct(","):
                items.append(self._parse_expr())
            self._expect_punct(")")
            return ast.InList(left, tuple(items), negated)
        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            between = ast.BinaryOp(
                "AND",
                ast.BinaryOp(">=", left, low),
                ast.BinaryOp("<=", left, high),
            )
            return ast.UnaryOp("NOT", between) if negated else between
        if self._accept_keyword("LIKE"):
            pattern = self._parse_additive()
            like = ast.BinaryOp("LIKE", left, pattern)
            return ast.UnaryOp("NOT", like) if negated else like
        if negated:
            raise ParseError("dangling NOT", self._current.position)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._current.kind is TokenKind.OP and self._current.text in {
            "+", "-", "||",
        }:
            op = self._advance().text
            left = ast.BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_primary()
        while self._current.kind is TokenKind.OP and self._current.text in {"*", "/"}:
            op = self._advance().text
            left = ast.BinaryOp(op, left, self._parse_primary())
        return left

    def _parse_primary(self) -> ast.Expr:
        token = self._current
        if token.kind is TokenKind.NUMBER:
            self._advance()
            if "." in token.text:
                return ast.Literal(float(token.text))
            return ast.Literal(int(token.text))
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.Literal(token.text)
        if token.kind is TokenKind.PARAM:
            self._advance()
            param = ast.Param(self._param_count)
            self._param_count += 1
            return param
        if token.matches("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.matches("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.matches("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.kind is TokenKind.OP and token.text == "-":
            self._advance()
            return ast.UnaryOp("-", self._parse_primary())
        if self._accept_punct("("):
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        if token.kind is TokenKind.IDENT:
            name = self._advance().text
            if self._accept_punct("("):
                return self._finish_function(name)
            if self._accept_punct("."):
                column = self._expect_ident()
                return ast.ColumnRef(name, column)
            return ast.ColumnRef(None, name)
        raise ParseError(
            f"unexpected token {token.text or 'end of input'!r} in expression",
            token.position,
        )

    def _finish_function(self, name: str) -> ast.Expr:
        if self._current.kind is TokenKind.OP and self._current.text == "*":
            self._advance()
            self._expect_punct(")")
            return ast.FuncCall(name.upper(), star=True)
        distinct = self._accept_keyword("DISTINCT") is not None
        args: list[ast.Expr] = []
        if not self._accept_punct(")"):
            args.append(self._parse_expr())
            while self._accept_punct(","):
                args.append(self._parse_expr())
            self._expect_punct(")")
        return ast.FuncCall(name.upper(), tuple(args), distinct=distinct)

    # -- DML ----------------------------------------------------------------------

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        columns: list[str] = []
        if self._accept_punct("("):
            columns.append(self._expect_ident())
            while self._accept_punct(","):
                columns.append(self._expect_ident())
            self._expect_punct(")")
        self._expect_keyword("VALUES")
        rows: list[tuple[ast.Expr, ...]] = []
        while True:
            self._expect_punct("(")
            row = [self._parse_expr()]
            while self._accept_punct(","):
                row.append(self._parse_expr())
            self._expect_punct(")")
            rows.append(tuple(row))
            if not self._accept_punct(","):
                break
        return ast.Insert(table, tuple(columns), tuple(rows))

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_ident()
        self._expect_keyword("SET")
        assignments: list[tuple[str, ast.Expr]] = []
        while True:
            column = self._expect_ident()
            if not (self._current.kind is TokenKind.OP and self._current.text == "="):
                raise ParseError("expected = in SET", self._current.position)
            self._advance()
            assignments.append((column, self._parse_expr()))
            if not self._accept_punct(","):
                break
        where: ast.Expr | None = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expr()
        return ast.Update(table, tuple(assignments), where)

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where: ast.Expr | None = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expr()
        return ast.Delete(table, where)

    # -- DDL ----------------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        unique = self._accept_keyword("UNIQUE") is not None
        if self._accept_keyword("INDEX"):
            index = self._expect_ident()
            self._expect_keyword("ON")
            table = self._expect_ident()
            self._expect_punct("(")
            columns = [self._expect_ident()]
            while self._accept_punct(","):
                columns.append(self._expect_ident())
            self._expect_punct(")")
            return ast.CreateIndex(index, table, tuple(columns), unique)
        if unique:
            raise ParseError("UNIQUE only applies to indexes", self._current.position)
        self._expect_keyword("TABLE")
        table = self._expect_ident()
        self._expect_punct("(")
        columns: list[ast.ColumnDef] = []
        while True:
            name = self._expect_ident()
            type_text = self._expect_ident()
            if self._accept_punct("("):
                if self._current.kind is not TokenKind.NUMBER:
                    raise ParseError("expected length", self._current.position)
                length = self._advance().text
                self._expect_punct(")")
                type_text = f"{type_text}({length})"
            not_null = False
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                not_null = True
            columns.append(ast.ColumnDef(name, type_text, not_null))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        # Optional storage clause: CREATE TABLE t (...) USING columnar.
        # USING is not a reserved word, so match it as an identifier.
        storage: str | None = None
        if (
            self._current.kind is TokenKind.IDENT
            and self._current.text.upper() == "USING"
        ):
            self._advance()
            storage = self._expect_ident().lower()
        return ast.CreateTable(table, tuple(columns), storage)

    def _parse_drop(self) -> ast.Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            return ast.DropTable(self._expect_ident())
        self._expect_keyword("INDEX")
        index = self._expect_ident()
        self._expect_keyword("ON")
        table = self._expect_ident()
        return ast.DropIndex(index, table)


def parse_statement(sql: str) -> ast.Statement:
    """Parse one SQL statement into its AST."""
    return _Parser(sql).parse()
