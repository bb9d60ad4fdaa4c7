"""Tests for SQL types, widths, and the VARCHAR funnel."""

import datetime
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import check_width_ledger
from repro.engine import Database
from repro.engine.errors import NotNullViolation, TypeMismatchError
from repro.engine.values import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    NULL_WIDTH,
    SqlType,
    TypeKind,
    parse_type,
    put_values,
    sort_key,
    take_values,
    varchar,
)

from ..conftest import FORMER_STORAGES


class TestTypeConstruction:
    def test_varchar_requires_length(self):
        with pytest.raises(TypeMismatchError):
            SqlType(TypeKind.VARCHAR)

    def test_varchar_rejects_nonpositive_length(self):
        with pytest.raises(TypeMismatchError):
            varchar(0)

    def test_fixed_types_reject_length(self):
        with pytest.raises(TypeMismatchError):
            SqlType(TypeKind.INTEGER, 4)

    def test_str(self):
        assert str(varchar(100)) == "VARCHAR(100)"
        assert str(INTEGER) == "INTEGER"


class TestWidths:
    def test_fixed_widths(self):
        assert INTEGER.max_width == 4
        assert BIGINT.max_width == 8
        assert DOUBLE.max_width == 8
        assert DATE.max_width == 4
        assert BOOLEAN.max_width == 1

    def test_varchar_max_width_includes_header(self):
        assert varchar(100).max_width == 102

    def test_null_width_is_one_byte(self):
        assert INTEGER.value_width(None) == NULL_WIDTH
        assert varchar(100).value_width(None) == NULL_WIDTH

    def test_varchar_value_width_is_actual_length(self):
        assert varchar(100).value_width("abc") == 5  # 3 + header


class TestChecking:
    def test_integer_accepts_int(self):
        assert INTEGER.check(42) == 42

    def test_integer_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            INTEGER.check(True)

    def test_integer_rejects_string(self):
        with pytest.raises(TypeMismatchError):
            INTEGER.check("42")

    def test_double_accepts_int(self):
        assert DOUBLE.check(1) == 1.0
        assert isinstance(DOUBLE.check(1), float)

    def test_varchar_length_enforced(self):
        with pytest.raises(TypeMismatchError):
            varchar(2).check("abc")

    def test_date_accepts_iso_string(self):
        assert DATE.check("2008-06-09") == datetime.date(2008, 6, 9)

    def test_date_rejects_bad_string(self):
        with pytest.raises(TypeMismatchError):
            DATE.check("not-a-date")

    def test_null_passes_all_types(self):
        for sql_type in (INTEGER, DOUBLE, DATE, BOOLEAN, varchar(5)):
            assert sql_type.check(None) is None


class MyInt(int):
    pass


class MyFloat(float):
    pass


EVERY_TYPE = [INTEGER, BIGINT, DOUBLE, DATE, BOOLEAN, varchar(1), varchar(6)]

#: What a caller may hand a checker: every Python kind a column meets,
#: the exact types beside subclasses and near misses of each.
ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70),
    st.builds(MyInt, st.integers()),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.builds(MyFloat, st.floats()),
    st.text(max_size=8),
    st.dates().map(datetime.date.isoformat),
    st.sampled_from(["2008-02-30", "2008-6-9", "June 9", ""]),
    st.dates(),
    st.datetimes(),
)


def outcome(check, value):
    """What ``check(value)`` does, comparable across NaN and -0.0: the
    value's type and repr, or the exception's type and message."""
    try:
        out = check(value)
    except Exception as exc:
        return type(exc), str(exc)
    return type(out), repr(out)


class TestChecker:
    """:attr:`SqlType.checker` is :meth:`SqlType.check`, specialised."""

    @settings(max_examples=500, deadline=None)
    @given(sql_type=st.sampled_from(EVERY_TYPE), value=ANY_VALUE)
    def test_checker_is_check(self, sql_type, value):
        assert outcome(sql_type.checker, value) == outcome(sql_type.check, value)

    def test_one_checker_per_type_and_types_still_pickle(self):
        for sql_type in EVERY_TYPE:
            assert sql_type.checker is sql_type.checker
            assert pickle.loads(pickle.dumps(sql_type)) == sql_type


ROW = st.tuples(
    st.integers(-(2**31), 2**31 - 1),
    st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)),
    st.one_of(st.none(), st.floats(allow_nan=False), st.integers(-9, 9)),
    st.one_of(st.none(), st.text(max_size=20)),
    st.one_of(st.none(), st.dates(), st.dates().map(datetime.date.isoformat)),
    st.one_of(st.none(), st.booleans()),
)


class TestOnePassWidth:
    """A table checks and sizes a row in one pass; the width is
    ``row_width`` of the stored row, so every slot's width and every
    page's ``used`` are what they were when a row was sized apart."""

    @pytest.mark.parametrize("storage", FORMER_STORAGES)
    @settings(max_examples=25, deadline=None)
    @given(rows=st.lists(ROW, min_size=1, max_size=120))
    def test_width_is_row_width(self, storage, rows):
        db = Database()
        db.execute(
            "CREATE TABLE t (a INTEGER NOT NULL, b BIGINT, c DOUBLE, "
            "d VARCHAR(20), e DATE, f BOOLEAN)"
        )
        table = db.catalog.table("t")
        for row in rows:
            checked, width = table._checked_row(row)
            assert checked == tuple(c.type.check(v) for c, v in zip(table.columns, row))
            assert width == table.row_width(checked)
            table.insert_row(row)
        assert table.row_count == len(rows)
        assert check_width_ledger([table], db.pool).findings == []

    def test_refusals_are_unchanged(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER NOT NULL, d VARCHAR(2))")
        table = db.catalog.table("t")
        with pytest.raises(NotNullViolation, match=r"^t\.a is NOT NULL$"):
            table.insert_row((None, "x"))
        with pytest.raises(NotNullViolation, match=r"^t: expected 2 values, got 1$"):
            table.insert_row((1,))
        with pytest.raises(TypeMismatchError, match="exceeds VARCHAR"):
            table.insert_row((1, "xyz"))


class TestVarcharFunnel:
    """The Universal/Pivot layouts store every type in VARCHAR columns."""

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_integer_roundtrip(self, value):
        assert BIGINT.from_varchar(BIGINT.to_varchar(value)) == value

    @given(st.dates())
    def test_date_roundtrip(self, value):
        assert DATE.from_varchar(DATE.to_varchar(value)) == value

    @given(st.booleans())
    def test_boolean_roundtrip(self, value):
        assert BOOLEAN.from_varchar(BOOLEAN.to_varchar(value)) is value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_double_roundtrip(self, value):
        assert DOUBLE.from_varchar(DOUBLE.to_varchar(value)) == value

    @given(st.text(max_size=50))
    def test_text_roundtrip(self, value):
        t = varchar(50)
        assert t.from_varchar(t.to_varchar(value)) == value

    def test_null_roundtrip(self):
        assert INTEGER.to_varchar(None) is None
        assert INTEGER.from_varchar(None) is None


class TestParseType:
    def test_parse_varchar(self):
        assert parse_type("VARCHAR(100)") == varchar(100)

    def test_parse_case_insensitive(self):
        assert parse_type("integer") == INTEGER

    def test_parse_rejects_garbage(self):
        with pytest.raises(TypeMismatchError):
            parse_type("BLOB")

    def test_parse_rejects_malformed_varchar(self):
        with pytest.raises(TypeMismatchError):
            parse_type("VARCHAR(x)")


class TestSortKey:
    def test_nulls_sort_first(self):
        values = [3, None, 1]
        assert sorted(values, key=sort_key) == [None, 1, 3]

    def test_mixed_types_are_totally_ordered(self):
        values = ["b", 2, None, datetime.date(2008, 1, 1), "a", 1]
        ordered = sorted(values, key=sort_key)
        assert ordered[0] is None
        assert sorted(ordered, key=sort_key) == ordered


#: Ints at each varint width's edges: a zigzag varint grows a byte at
#: +-2**(7k - 1), an unsigned one at 2**(7k); the INT64 ends; and ints
#: past 64 bits, which take the big-int tag.
EDGE_INTS = sorted(
    {
        sign * 2 ** (7 * k - shift) + step
        for k in range(1, 10)
        for shift in (0, 1)
        for sign in (1, -1)
        for step in (-1, 0, 1)
    }
    | {-(2**63), 2**63 - 1, 2**64, 2**70, -(2**70)}
)
EDGE_VALUES = [
    *EDGE_INTS,
    *(0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.8e308),
    *("", "\ud800", "a\udfffz", "\U0001f600", "x" * 200),
    datetime.date.min,
    datetime.date.max,
    True,
    False,
    None,
]
VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.dates(),
)


def _exact(values: list) -> list:
    """Each value with its type and repr: ``True`` is not ``1``, ``-0.0``
    not ``0.0``, and NaN equals NaN."""
    return [(type(v), repr(v)) for v in values]


class TestValueTags:
    """``put_values`` -> ``take_values`` gives every value back
    type-exact, and ends exactly where the values end."""

    def test_every_edge_value_round_trips(self):
        out = bytearray()
        put_values(out, EDGE_VALUES)
        values, end = take_values(bytes(out), 0, len(EDGE_VALUES))
        assert end == len(out)
        assert _exact(values) == _exact(EDGE_VALUES)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(VALUES, max_size=8),
        prefix=st.binary(max_size=3),
        suffix=st.binary(max_size=3),
    )
    def test_values_round_trip_between_other_bytes(self, values, prefix, suffix):
        out = bytearray(prefix)
        put_values(out, values)
        end = len(out)
        decoded, at = take_values(bytes(out + suffix), len(prefix), len(values))
        assert at == end
        assert _exact(decoded) == _exact(values)

    @pytest.mark.parametrize(
        "value, size",
        [
            (None, 1),
            (True, 1),
            (0, 2),
            (-1, 2),
            (63, 2),
            (-64, 2),
            (64, 3),
            (-65, 3),
            (2**63 - 1, 11),
            (-(2**63), 11),
            (2**63, 11),  # tag, length, nine bytes
            (1.5, 9),
            ("", 2),
            ("x" * 127, 129),
            ("x" * 128, 131),
            (datetime.date.min, 2),
            (datetime.date(2008, 1, 1), 4),
            (datetime.date.max, 5),
        ],
    )
    def test_a_value_takes_its_tag_and_its_varint(self, value, size):
        out = bytearray()
        put_values(out, [value])
        assert len(out) == size

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"\x08", "unknown value tag 8"),
            (b"\x03\xff", "runs past the record's end"),
            (b"\x03" + b"\x80" * 10 + b"\x01", "longer than 10 bytes"),
            (b"\x06\x05ab", "a value runs past the record's end"),
        ],
        ids=["unknown tag", "truncated varint", "overlong varint", "short string"],
    )
    def test_bytes_put_values_did_not_write_raise(self, data, reason):
        with pytest.raises(ValueError, match=reason):
            take_values(data, 0, 1)
