"""Tests for the §6.1 query transformation: reconstruction shape,
flattening, and predicate ordering."""

import pytest

from repro import PredicateOrder
from repro.core.transform.flatten import (
    flatten_transformed,
    is_metadata_predicate,
    order_predicates,
)
from repro.core.transform.query import build_reconstruction
from repro.core.layouts.base import ColumnLoc, Fragment
from repro.engine.errors import UnknownObjectError
from repro.engine.sql import ast
from repro.engine.sql.parser import parse_statement
from repro.engine.plan.logical import split_conjuncts

from .conftest import build_running_example


def pivot_fragments():
    """Hand-built Pivot fragments mirroring Figure 4(d) for tenant 17."""

    def fragment(table, col_id, logical, physical="val"):
        return Fragment(
            table=table,
            meta=(("tenant", 17), ("tbl", 0), ("col", col_id)),
            columns=((logical, ColumnLoc(physical)),),
            row_column="row",
        )

    return [
        fragment("pivot_int", 0, "aid"),
        fragment("pivot_str", 1, "name"),
        fragment("pivot_str", 2, "hospital"),
        fragment("pivot_int", 3, "beds"),
    ]


class TestBuildReconstruction:
    def test_only_used_fragments_join(self):
        """Query Q1 uses Hospital and Beds: exactly two fragments, one
        aligning join (the paper's Q1_Account17)."""
        source = build_reconstruction(
            pivot_fragments(), ["hospital", "beds"], "account17"
        )
        select = source.select
        assert len(select.sources) == 2
        conjuncts = split_conjuncts(select.where)
        # 3 meta predicates per fragment + 1 row-aligning join.
        assert len(conjuncts) == 7
        row_joins = [
            c
            for c in conjuncts
            if isinstance(c.left, ast.ColumnRef)
            and isinstance(c.right, ast.ColumnRef)
        ]
        assert len(row_joins) == 1

    def test_all_columns_needs_n_minus_1_joins(self):
        """Reconstructing an n-column table takes (n-1) aligning joins."""
        source = build_reconstruction(
            pivot_fragments(), ["aid", "name", "hospital", "beds"], "a"
        )
        conjuncts = split_conjuncts(source.select.where)
        row_joins = [
            c
            for c in conjuncts
            if isinstance(c.left, ast.ColumnRef)
            and isinstance(c.right, ast.ColumnRef)
        ]
        assert len(row_joins) == 3

    def test_no_used_columns_anchors_single_fragment(self):
        source = build_reconstruction(pivot_fragments(), [], "a")
        assert len(source.select.sources) == 1

    def test_unknown_column_raises(self):
        with pytest.raises(UnknownObjectError):
            build_reconstruction(pivot_fragments(), ["missing"], "a")

    def test_include_row_exposes_row_alias(self):
        source = build_reconstruction(
            pivot_fragments(), ["beds"], "a", include_row=True
        )
        names = [item.alias for item in source.select.items]
        assert "__row" in names

    def test_output_is_flat_and_conjunctive(self):
        """Step 3 guarantee: 'resulting queries are all flat and consist
        of conjunctive predicates only' — so rule N8 applies."""
        source = build_reconstruction(
            pivot_fragments(), ["aid", "beds"], "a"
        )
        select = source.select
        assert all(isinstance(s, ast.TableSource) for s in select.sources)
        for conjunct in split_conjuncts(select.where):
            assert isinstance(conjunct, ast.BinaryOp)
            assert conjunct.op == "="

    def test_sql_text_reparses(self):
        source = build_reconstruction(
            pivot_fragments(), ["hospital", "beds"], "a"
        )
        reparsed = parse_statement(source.select.sql())
        assert isinstance(reparsed, ast.Select)


class TestTransformedSql:
    def test_paper_example_chunk(self):
        """The Q1^Chunk example: both requested columns reside in the
        same chunk, so the FROM clause is a single chunk table."""
        mtd = build_running_example("chunk_folding")
        sql = mtd.transform_sql(
            17, "SELECT beds FROM account WHERE hospital = 'State'"
        )
        assert sql.count("FROM chunk_") == 1
        assert "tenant = 17" in sql
        assert "AS beds" in sql.lower() or "as beds" in sql.lower()

    def test_private_rename_only(self):
        """Private layout: 'the query-transformation layer needs only to
        rename tables'."""
        mtd = build_running_example("private")
        sql = mtd.transform_sql(17, "SELECT beds FROM account")
        assert "account_t17" in sql

    def test_unknown_tenant_rejected(self):
        mtd = build_running_example("chunk")
        with pytest.raises(UnknownObjectError):
            mtd.execute(99, "SELECT 1 FROM account")

    def test_subquery_in_where_is_transformed(self):
        mtd = build_running_example("chunk_folding")
        result = mtd.execute(
            17,
            "SELECT name FROM account WHERE aid IN "
            "(SELECT a.aid FROM account a WHERE a.beds > 1000)",
        )
        assert result.rows == [("Gump",)]

    def test_logical_from_subquery(self):
        mtd = build_running_example("chunk_folding")
        result = mtd.execute(
            17,
            "SELECT d.n FROM (SELECT COUNT(*) AS n FROM account) AS d",
        )
        assert result.rows == [(2,)]


class TestFlattening:
    def test_flatten_produces_single_block(self):
        mtd = build_running_example("pivot")
        nested_sql = mtd.transform_sql(
            17, "SELECT beds FROM account WHERE hospital = 'State'"
        )
        stmt = parse_statement(nested_sql)
        flat = flatten_transformed(stmt)
        assert all(isinstance(s, ast.TableSource) for s in flat.sources)

    def test_flattened_query_same_answer(self):
        mtd = build_running_example("pivot")
        stmt = parse_statement(
            mtd.transform_sql(17, "SELECT beds FROM account WHERE hospital = 'State'")
        )
        flat = flatten_transformed(stmt)
        assert mtd.db.execute(flat.sql()).rows == [(1042,)]

    def test_metadata_predicate_detection(self):
        meta = parse_statement(
            "SELECT x FROM t WHERE t.tenant = 17 AND t.chunk = 1"
        ).where
        for conjunct in split_conjuncts(meta):
            assert is_metadata_predicate(conjunct)
        user = parse_statement("SELECT x FROM t WHERE t.str1 = 'State'").where
        assert not is_metadata_predicate(user)

    def test_order_predicates_metadata_first(self):
        stmt = parse_statement(
            "SELECT a.x FROM t a WHERE a.str1 = 'v' AND a.tenant = 17"
        )
        ordered = order_predicates(stmt, PredicateOrder.METADATA_FIRST)
        conjuncts = split_conjuncts(ordered.where)
        assert is_metadata_predicate(conjuncts[0])
        assert not is_metadata_predicate(conjuncts[1])

    def test_order_predicates_original_first(self):
        stmt = parse_statement(
            "SELECT a.x FROM t a WHERE a.tenant = 17 AND a.str1 = 'v'"
        )
        ordered = order_predicates(stmt, PredicateOrder.ORIGINAL_FIRST)
        conjuncts = split_conjuncts(ordered.where)
        assert not is_metadata_predicate(conjuncts[0])

    def test_as_generated_is_identity(self):
        """Only the SIMPLE profile flattens and reorders: under ADVANCED
        the transformed statement reaches the engine as generated — the
        nested form Test 1 then plans under SIMPLE."""
        mtd = build_running_example("pivot")
        stmt = parse_statement(mtd.transform_sql(17, "SELECT beds FROM account"))
        assert mtd._for_engine(stmt) is stmt
        assert stmt.sql().upper().count("SELECT") == 2
