"""Unit tests for logical query blocks: conjunct splitting,
qualification, star expansion, and Fegaras–Maier flattening."""

import pytest

from repro.engine.errors import PlanError, UnknownObjectError
from repro.engine.plan.logical import (
    block_to_select,
    build_block,
    can_flatten,
    conjoin,
    flatten_block,
    output_name,
    qualify_block,
    split_conjuncts,
)
from repro.engine.sql import ast
from repro.engine.sql.parser import parse_statement

TABLES = {
    "p": ["id", "a", "b"],
    "c": ["id", "parent", "v"],
}


def lookup(name: str):
    return TABLES[name.lower()]


def block_of(sql: str):
    return build_block(parse_statement(sql))


def qualified(sql: str):
    return qualify_block(block_of(sql), lookup)


class TestConjuncts:
    def test_split_flattens_nested_ands(self):
        stmt = parse_statement(
            "SELECT a FROM p WHERE a = 1 AND (b = 2 AND id = 3)"
        )
        assert len(split_conjuncts(stmt.where)) == 3

    def test_split_preserves_textual_order(self):
        stmt = parse_statement("SELECT a FROM p WHERE a = 1 AND b = 2")
        conjuncts = split_conjuncts(stmt.where)
        assert conjuncts[0].left.column == "a"
        assert conjuncts[1].left.column == "b"

    def test_or_is_not_split(self):
        stmt = parse_statement("SELECT a FROM p WHERE a = 1 OR b = 2")
        assert len(split_conjuncts(stmt.where)) == 1

    def test_conjoin_inverts_split(self):
        stmt = parse_statement("SELECT a FROM p WHERE a = 1 AND b = 2 AND id = 3")
        rebuilt = conjoin(split_conjuncts(stmt.where))
        assert split_conjuncts(rebuilt) == split_conjuncts(stmt.where)

    def test_none_roundtrip(self):
        assert split_conjuncts(None) == []
        assert conjoin([]) is None


class TestQualification:
    def test_unqualified_refs_get_bindings(self):
        block = qualified("SELECT a FROM p WHERE b = 1")
        assert block.items[0].expr == ast.ColumnRef("p", "a")
        assert block.conjuncts[0].left == ast.ColumnRef("p", "b")

    def test_ambiguous_ref_rejected(self):
        with pytest.raises(PlanError):
            qualified("SELECT id FROM p, c")

    def test_unknown_column_rejected(self):
        with pytest.raises(UnknownObjectError):
            qualified("SELECT nope FROM p")

    def test_unknown_binding_rejected(self):
        with pytest.raises(UnknownObjectError):
            qualified("SELECT z.a FROM p")

    def test_star_expands_all_sources(self):
        block = qualified("SELECT * FROM p, c")
        names = [output_name(i, n) for n, i in enumerate(block.items)]
        assert names == ["id", "a", "b", "id", "parent", "v"]

    def test_qualified_star(self):
        block = qualified("SELECT c.* FROM p, c")
        assert len(block.items) == 3
        assert all(i.expr.table == "c" for i in block.items)

    def test_alias_binding_used(self):
        block = qualified("SELECT x.a FROM p AS x")
        assert block.items[0].expr == ast.ColumnRef("x", "a")

    def test_duplicate_bindings_rejected(self):
        with pytest.raises(PlanError):
            qualified("SELECT 1 FROM p, p")

    def test_order_by_alias_left_alone(self):
        block = qualified("SELECT a AS total FROM p ORDER BY total")
        assert block.order_by[0].expr == ast.ColumnRef(None, "total")

    def test_nested_subquery_qualified_recursively(self):
        block = qualified(
            "SELECT d.x FROM (SELECT a AS x FROM p) AS d WHERE d.x > 1"
        )
        inner = block.sources[0].select
        assert inner.items[0].expr == ast.ColumnRef("p", "a")


class TestFlattening:
    def test_can_flatten_spj(self):
        stmt = parse_statement("SELECT p.a AS x FROM p WHERE p.b = 1")
        assert can_flatten(stmt)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) AS n FROM p",
            "SELECT p.a AS x FROM p GROUP BY p.a",
            "SELECT p.a AS x FROM p LIMIT 3",
            "SELECT DISTINCT p.a AS x FROM p",
        ],
    )
    def test_cannot_flatten_aggregating_blocks(self, sql):
        assert not can_flatten(parse_statement(sql))

    def test_flatten_merges_sources_and_conjuncts(self):
        block = qualified(
            "SELECT d.x FROM (SELECT p.a AS x FROM p WHERE p.b = 1) AS d "
            "WHERE d.x > 2"
        )
        flat = flatten_block(block)
        assert len(flat.sources) == 1
        assert isinstance(flat.sources[0], ast.TableSource)
        assert len(flat.conjuncts) == 2

    def test_flatten_substitutes_output_exprs(self):
        block = qualified(
            "SELECT d.x FROM (SELECT p.a AS x FROM p) AS d WHERE d.x = 5"
        )
        flat = flatten_block(block)
        assert flat.conjuncts[0].left == ast.ColumnRef("p", "a")

    def test_flatten_preserves_output_names(self):
        block = qualified("SELECT d.x FROM (SELECT p.a AS x FROM p) AS d")
        flat = flatten_block(block)
        assert [output_name(i, n) for n, i in enumerate(flat.items)] == ["x"]

    def test_flatten_renames_colliding_bindings(self):
        block = qualified(
            "SELECT a.x, b.x FROM (SELECT p.a AS x FROM p) AS a, "
            "(SELECT p.b AS x FROM p) AS b"
        )
        flat = flatten_block(block)
        bindings = [s.binding for s in flat.sources]
        assert len(set(bindings)) == 2  # the second p was renamed

    def test_replanning_renders_the_same_plan(self):
        """Renames are numbered per statement, not per process: the
        plan text — what plan signatures and fig8_plan.txt compare — is
        a function of the statement alone."""
        from repro.engine import Database
        from repro.engine.explain import render_plan

        db = Database()
        db.execute("CREATE TABLE p (id INTEGER, a INTEGER, b INTEGER)")
        sql = (
            "SELECT a.x, b.x FROM (SELECT p.a AS x FROM p) AS a, "
            "(SELECT p.b AS x FROM p WHERE p.id = 1) AS b"
        )
        first = render_plan(db.plan(sql))
        assert "p_u1" in first
        assert render_plan(db.plan(sql)) == first

    def test_rename_skips_names_already_in_use(self):
        block = qualified(
            "SELECT a.x, b.x FROM (SELECT p_u1.a AS x FROM p AS p_u1) AS a, "
            "(SELECT p.b AS x FROM p) AS b, (SELECT p.a AS x FROM p) AS c"
        )
        bindings = [s.binding for s in flatten_block(block).sources]
        assert len(set(bindings)) == 3, bindings

    def test_flatten_is_recursive(self):
        block = qualified(
            "SELECT o.y FROM (SELECT d.x AS y FROM "
            "(SELECT p.a AS x FROM p WHERE p.b = 1) AS d WHERE d.x > 0) AS o"
        )
        flat = flatten_block(block)
        assert all(isinstance(s, ast.TableSource) for s in flat.sources)
        assert len(flat.conjuncts) == 2

    def test_aggregating_subquery_left_nested(self):
        block = qualified(
            "SELECT d.n FROM (SELECT COUNT(*) AS n FROM p) AS d"
        )
        flat = flatten_block(block)
        assert isinstance(flat.sources[0], ast.SubquerySource)

    def test_block_to_select_roundtrip(self):
        block = qualified("SELECT a FROM p WHERE b = 1 ORDER BY a LIMIT 2")
        select = block_to_select(block)
        assert build_block(select).limit == 2
        assert len(build_block(select).conjuncts) == 1
