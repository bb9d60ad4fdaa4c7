"""Unit tests for expression compilation: three-valued logic, schema
resolution, coercions, and the Universal layout's conversion functions."""

import datetime
import sqlite3

import pytest
from hypothesis import given, strategies as st

from repro.engine.columnstore import ColumnBatch
from repro.engine.database import Database
from repro.engine.errors import PlanError, UnknownObjectError
from repro.engine.expr import (
    ExprCompiler,
    Schema,
    Slot,
    _coerce_pair,
    referenced_bindings,
)
from repro.engine.expr_batch import compile_filter
from repro.engine.sql.parser import parse_statement


def compile_predicate(sql_predicate, slots, subquery_executor=None):
    stmt = parse_statement(f"SELECT a FROM t WHERE {sql_predicate}")
    compiler = ExprCompiler(Schema(slots), subquery_executor)
    return compiler.compile(stmt.where)


SLOTS = [Slot("t", "a"), Slot("t", "b"), Slot("t", "s")]


def evaluate(sql_predicate, row, params=()):
    return compile_predicate(sql_predicate, SLOTS)(row, params)


class TestThreeValuedLogic:
    """SQL's NULL semantics, which filters rely on (only True passes)."""

    def test_comparison_with_null_is_unknown(self):
        assert evaluate("a = 1", (None, 0, "")) is None
        assert evaluate("a < 1", (None, 0, "")) is None

    def test_and_truth_table(self):
        assert evaluate("a = 1 AND b = 2", (1, 2, "")) is True
        assert evaluate("a = 1 AND b = 2", (1, 3, "")) is False
        assert evaluate("a = 1 AND b = 2", (1, None, "")) is None
        # False AND unknown = False (short-circuit must not change it).
        assert evaluate("a = 2 AND b = 2", (1, None, "")) is False

    def test_or_truth_table(self):
        assert evaluate("a = 1 OR b = 2", (0, 2, "")) is True
        assert evaluate("a = 1 OR b = 2", (0, 3, "")) is False
        assert evaluate("a = 1 OR b = 2", (0, None, "")) is None
        # True OR unknown = True.
        assert evaluate("a = 1 OR b = 2", (1, None, "")) is True

    def test_not_unknown_is_unknown(self):
        assert evaluate("NOT a = 1", (None, 0, "")) is None
        assert evaluate("NOT a = 1", (2, 0, "")) is True

    def test_arithmetic_propagates_null(self):
        assert evaluate("a + b = 3", (None, 2, "")) is None

    def test_is_null_is_two_valued(self):
        assert evaluate("a IS NULL", (None, 0, "")) is True
        assert evaluate("a IS NOT NULL", (None, 0, "")) is False

    def test_in_list_with_null_operand(self):
        assert evaluate("a IN (1, 2)", (None, 0, "")) is None


class TestResolution:
    def test_qualified_and_unqualified(self):
        schema = Schema([Slot("x", "a"), Slot("y", "b")])
        compiler = ExprCompiler(schema)
        stmt = parse_statement("SELECT 1 FROM t WHERE x.a = b")
        fn = compiler.compile(stmt.where)
        assert fn((5, 5), ()) is True

    def test_ambiguity_rejected(self):
        schema = Schema([Slot("x", "a"), Slot("y", "a")])
        compiler = ExprCompiler(schema)
        stmt = parse_statement("SELECT 1 FROM t WHERE a = 1")
        with pytest.raises(PlanError):
            compiler.compile(stmt.where)

    def test_unknown_column_rejected(self):
        with pytest.raises(UnknownObjectError):
            evaluate("zz = 1", (0, 0, ""))

    def test_qualified_fallback_to_output_slots(self):
        """Qualified refs resolve against unbinding (output) slots when
        no bound slot matches — ORDER BY c.name after projection."""
        schema = Schema([Slot(None, "name")])
        compiler = ExprCompiler(schema)
        stmt = parse_statement("SELECT 1 FROM t WHERE c.name = 'x'")
        assert compiler.compile(stmt.where)(("x",), ()) is True


class TestParams:
    def test_param_positions(self):
        fn = compile_predicate("a = ? AND b = ?", SLOTS)
        assert fn((1, 2, ""), [1, 2]) is True
        assert fn((1, 2, ""), [2, 1]) is False

    def test_missing_param_raises(self):
        from repro.engine.errors import ExecutionError

        fn = compile_predicate("a = ?", SLOTS)
        with pytest.raises(ExecutionError):
            fn((1, 2, ""), [])


class TestScalarFunctions:
    def test_conversions(self):
        schema = Schema([Slot("t", "v")])
        compiler = ExprCompiler(schema)

        def call(fn_sql, value):
            stmt = parse_statement(f"SELECT {fn_sql} FROM t")
            return compiler.compile(stmt.items[0].expr)((value,), ())

        assert call("TO_INT(v)", "42") == 42
        assert call("TO_DOUBLE(v)", "2.5") == 2.5
        assert call("TO_DATE(v)", "2008-06-09") == datetime.date(2008, 6, 9)
        assert call("TO_BOOL(v)", "1") is True
        assert call("TO_BOOL(v)", 0) is False
        assert call("TO_STR(v)", 7) == "7"
        assert call("TO_INT(v)", None) is None
        assert call("LENGTH(v)", "abc") == 3
        assert call("UPPER(v)", "ab") == "AB"
        assert call("LOWER(v)", "AB") == "ab"
        assert call("ABS(v)", -3) == 3
        assert call("COALESCE(v, 9)", None) == 9

    def test_unknown_function_rejected(self):
        with pytest.raises(PlanError):
            compile_predicate("FROBNICATE(a) = 1", SLOTS)

    def test_aggregate_outside_group_rejected(self):
        with pytest.raises(PlanError):
            compile_predicate("SUM(a) = 1", SLOTS)


class TestLike:
    @pytest.mark.parametrize(
        "pattern,value,expected",
        [
            ("a%", "abc", True),
            ("a%", "ba", False),
            ("%c", "abc", True),
            ("a_c", "abc", True),
            ("a_c", "abbc", False),
            ("%", "", True),
        ],
    )
    def test_patterns(self, pattern, value, expected):
        assert evaluate(f"s LIKE '{pattern}'", (0, 0, value)) is expected

    def test_like_escapes_regex_metachars(self):
        assert evaluate("s LIKE 'a.c'", (0, 0, "abc")) is False
        assert evaluate("s LIKE 'a.c'", (0, 0, "a.c")) is True


class TestCoercion:
    def test_date_vs_iso_string(self):
        schema = Schema([Slot("t", "d")])
        compiler = ExprCompiler(schema)
        stmt = parse_statement("SELECT 1 FROM t WHERE d < '2005-01-01'")
        fn = compiler.compile(stmt.where)
        assert fn((datetime.date(2004, 1, 1),), ()) is True
        assert fn((datetime.date(2006, 1, 1),), ()) is False

    def test_incompatible_types_fall_back_to_total_order(self):
        # Comparing a string column against a number must not crash.
        assert evaluate("s = 5", (0, 0, "five")) is False


class TestReferencedBindings:
    def test_collects_qualified(self):
        stmt = parse_statement("SELECT 1 FROM t WHERE x.a = y.b AND x.c > 1")
        assert referenced_bindings(stmt.where) == {"x", "y"}

    def test_unqualified_marker(self):
        stmt = parse_statement("SELECT 1 FROM t WHERE a = 1")
        assert referenced_bindings(stmt.where) == {"?"}

    def test_constants_have_none(self):
        stmt = parse_statement("SELECT 1 FROM t WHERE 1 = 1")
        assert referenced_bindings(stmt.where) == set()


class TestPropertyBasedLogic:
    @given(
        a=st.one_of(st.none(), st.integers(-5, 5)),
        b=st.one_of(st.none(), st.integers(-5, 5)),
    )
    def test_de_morgan(self, a, b):
        """NOT (p AND q) == (NOT p) OR (NOT q) under 3VL."""
        left = evaluate("NOT (a = 1 AND b = 1)", (a, b, ""))
        right = evaluate("NOT a = 1 OR NOT b = 1", (a, b, ""))
        assert left == right

    @given(value=st.one_of(st.none(), st.integers(-5, 5)))
    def test_excluded_middle_fails_only_for_null(self, value):
        result = evaluate("a = 1 OR a <> 1", (value, 0, ""))
        assert result is (None if value is None else True)


# -- batch programs agree with the row closures -------------------------------

BATCH_SLOTS = [Slot("t", "d"), Slot("t", "i")]


def three_ways(predicate_sql, values, params=()):
    """Positions kept by the row closure, by the batch program over a
    row list, and by the batch program over a ColumnBatch (which must
    take its columnar route)."""
    predicate = compile_predicate(predicate_sql, BATCH_SLOTS)
    assert any(
        hasattr(predicate, tag) for tag in ("cmp", "inset", "inlist")
    ), predicate_sql
    rows = [(v, i) for i, v in enumerate(values)]
    by_row = [i for v, i in rows if predicate((v, i), params) is True]
    program = compile_filter([predicate])
    by_rows = [i for _v, i in program(rows, params)]
    batch = ColumnBatch([list(values), list(range(len(values)))])
    by_columns = [i for _v, i in program(batch, params)]
    return by_row, by_rows, by_columns


DATES = [
    datetime.date(2004, 5, 6),
    None,
    datetime.date(2005, 1, 1),
    datetime.date(2006, 7, 8),
    datetime.date(2005, 1, 1),
]
OPS = ["=", "<>", "<", "<=", ">", ">="]


class TestBatchCoercion:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize(
        "literal", ["'2005-01-01'", "'20050101'", "'soon'", "'2005-13-45'"]
    )
    def test_date_column_vs_string_either_side(self, op, literal):
        for sql in (f"d {op} {literal}", f"{literal} {op} d"):
            by_row, by_rows, by_columns = three_ways(sql, DATES)
            assert by_row == by_rows == by_columns, sql

    @pytest.mark.parametrize("op", OPS)
    def test_string_column_vs_date_parameter(self, op):
        """The column holds the ISO strings: every value parses."""
        values = ["2004-05-06", None, "2005-01-01", "later", "2006-07-08"]
        for sql in (f"d {op} ?", f"? {op} d"):
            by_row, by_rows, by_columns = three_ways(
                sql, values, [datetime.date(2005, 1, 1)]
            )
            assert by_row == by_rows == by_columns, sql

    @pytest.mark.parametrize("op", OPS)
    def test_datetimes_against_dates_and_strings(self, op):
        moments = [
            datetime.datetime(2005, 1, 1, 12),
            datetime.datetime(2004, 1, 1),
            None,
            datetime.date(2005, 1, 1),
        ]
        for sql, params in (
            (f"d {op} '2005-01-01'", ()),
            (f"d {op} ?", [datetime.date(2005, 1, 1)]),
            (f"? {op} d", [datetime.datetime(2005, 1, 1)]),
        ):
            by_row, by_rows, by_columns = three_ways(sql, moments, params)
            assert by_row == by_rows == by_columns, sql

    @pytest.mark.parametrize("op", OPS)
    def test_bools_ints_and_nulls(self, op):
        values = [True, False, None, True]
        for sql, params in (
            (f"d {op} ?", [1]),
            (f"? {op} d", [0]),
            (f"d {op} ?", [None]),
        ):
            by_row, by_rows, by_columns = three_ways(sql, values, params)
            assert by_row == by_rows == by_columns, sql

    def test_coerce_pair_same_type_is_untouched(self):
        assert _coerce_pair("2005-01-01", "x") == ("2005-01-01", "x")
        a, b = _coerce_pair(datetime.date(2005, 1, 1), "2005-01-01")
        assert b == datetime.date(2005, 1, 1)
        assert _coerce_pair("nope", datetime.date(2005, 1, 1))[0] == "nope"


class TestBatchInList:
    @pytest.mark.parametrize("negated", ["", "NOT "])
    @pytest.mark.parametrize(
        "params",
        [(2, 5), (True, 9), (None, 3), ([1], 2), (2.0, "x")],
    )
    def test_parameter_list_matches_row_closure(self, negated, params):
        values = [1, 2, None, 3, 5, 0, 2]
        sql = f"d {negated}IN (?, 3, ?)"
        predicate = compile_predicate(sql, BATCH_SLOTS)
        assert predicate.inlist[0] == 0
        by_row, by_rows, by_columns = three_ways(sql, values, list(params))
        assert by_row == by_rows == by_columns, (sql, params)

    def test_unhashable_column_value_falls_back(self):
        values = [[1], 2, None, 3]
        by_row, by_rows, by_columns = three_ways("d IN (?, 3)", values, [[1]])
        assert by_row == by_rows == by_columns == [0, 3]

    def test_row_dependent_items_are_not_tagged(self):
        predicate = compile_predicate("d IN (i, 3)", BATCH_SLOTS)
        assert not hasattr(predicate, "inlist")

    def test_stages_keep_conjunction_order(self):
        """A predicate after the IN list sees only the rows it kept."""
        first = compile_predicate("d IN (?, 3)", BATCH_SLOTS)
        second = compile_predicate("i > 0", BATCH_SLOTS)
        program = compile_filter([first, second])
        rows = [(3, 0), (1, 1), (3, 2), (4, 3)]
        assert program(rows, [1]) == [(1, 1), (3, 2)]


class TestAgainstSqlite:
    """DATE columns against ISO literals on either side, on both storage
    formats, agree with SQLite (which compares the ISO text)."""

    @pytest.mark.parametrize("storage", ["", " USING columnar"])
    def test_date_comparisons(self, storage):
        db = Database()
        lite = sqlite3.connect(":memory:")
        db.execute(f"CREATE TABLE t (id INTEGER, d DATE){storage}")
        lite.execute("CREATE TABLE t (id INTEGER, d TEXT)")
        for i, d in enumerate(
            ["2004-05-06", None, "2005-01-01", "2006-07-08", "2005-01-01"]
        ):
            db.execute("INSERT INTO t VALUES (?, ?)", [i, d])
            lite.execute("INSERT INTO t VALUES (?, ?)", (i, d))
        for op in OPS:
            for literal in ("'2005-01-01'", "'soon'"):
                for where in (f"d {op} {literal}", f"{literal} {op} d"):
                    sql = f"SELECT id FROM t WHERE {where} ORDER BY id"
                    ours = [r[0] for r in db.execute(sql).rows]
                    theirs = [r[0] for r in lite.execute(sql).fetchall()]
                    assert ours == theirs, sql
