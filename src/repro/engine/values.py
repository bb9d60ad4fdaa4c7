"""SQL value types and byte-size accounting.

The engine stores Python objects, not serialized bytes, but all page
arithmetic (rows per page, index fan-out, buffer-pool pressure) is driven
by the *declared* byte width of each value.  This is what makes the
reproduction page-accurate: a ``VARCHAR(100)`` column occupies the same
fraction of an 8 KB page here as it would in the paper's DB2 setup,
independent of how Python represents the string.

Types supported: INTEGER, BIGINT, DOUBLE, VARCHAR(n), DATE, BOOLEAN.
``DATE`` values are ``datetime.date`` instances.  NULL is represented by
``None`` and occupies a null-bitmap bit plus nothing else (we charge one
byte, the common slotted-page approximation).

Where a value does reach bytes — a WAL row record, a column-page image
column that fits no typed array — it is written behind a one-byte type
tag, its integers varints (:func:`put_values`, :func:`put_uint`), so it
reads back type-exact without pickle.
"""

from __future__ import annotations

import datetime
import enum
import functools
import struct
from dataclasses import dataclass
from typing import Callable

from .errors import EngineError, TypeMismatchError


class TypeKind(enum.Enum):
    """The kinds of SQL types the engine understands."""

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    DOUBLE = "DOUBLE"
    VARCHAR = "VARCHAR"
    DATE = "DATE"
    BOOLEAN = "BOOLEAN"


# Fixed storage widths, in bytes, for the fixed-width kinds.
_FIXED_WIDTH = {
    TypeKind.INTEGER: 4,
    TypeKind.BIGINT: 8,
    TypeKind.DOUBLE: 8,
    TypeKind.DATE: 4,
    TypeKind.BOOLEAN: 1,
}

#: Bytes charged for a NULL value (null-bitmap share).
NULL_WIDTH = 1

#: Per-value VARCHAR length header.
VARCHAR_HEADER = 2


@dataclass(frozen=True)
class SqlType:
    """A concrete SQL type, e.g. ``VARCHAR(100)`` or ``INTEGER``."""

    kind: TypeKind
    length: int | None = None  # only for VARCHAR

    def __post_init__(self) -> None:
        if self.kind is TypeKind.VARCHAR:
            if self.length is None or self.length <= 0:
                raise TypeMismatchError("VARCHAR requires a positive length")
        elif self.length is not None:
            raise TypeMismatchError(f"{self.kind.value} does not take a length")

    # -- declared widths ------------------------------------------------

    @property
    def max_width(self) -> int:
        """Maximum bytes a non-null value of this type occupies on a page."""
        if self.kind is TypeKind.VARCHAR:
            assert self.length is not None
            return self.length + VARCHAR_HEADER
        return _FIXED_WIDTH[self.kind]

    def value_width(self, value: object) -> int:
        """Bytes the given value occupies on a page (NULLs are 1 byte)."""
        if value is None:
            return NULL_WIDTH
        if self.kind is TypeKind.VARCHAR:
            return len(str(value)) + VARCHAR_HEADER
        return _FIXED_WIDTH[self.kind]

    # -- checking & coercion --------------------------------------------

    def check(self, value: object) -> object:
        """Validate (and mildly coerce) a Python value for this type.

        Returns the stored representation, raising
        :class:`TypeMismatchError` when the value cannot be represented.
        Coercions mirror the lenient behaviour of the paper's databases:
        ints are accepted for DOUBLE, ISO strings for DATE.
        """
        if value is None:
            return None
        kind = self.kind
        if kind in (TypeKind.INTEGER, TypeKind.BIGINT):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatchError(f"expected {kind.value}, got {value!r}")
            return value
        if kind is TypeKind.DOUBLE:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(f"expected DOUBLE, got {value!r}")
            return float(value)
        if kind is TypeKind.VARCHAR:
            if not isinstance(value, str):
                raise TypeMismatchError(f"expected VARCHAR, got {value!r}")
            assert self.length is not None
            if len(value) > self.length:
                raise TypeMismatchError(
                    f"value of length {len(value)} exceeds VARCHAR({self.length})"
                )
            return value
        if kind is TypeKind.DATE:
            if isinstance(value, datetime.date) and not isinstance(
                value, datetime.datetime
            ):
                return value
            if isinstance(value, str):
                try:
                    return datetime.date.fromisoformat(value)
                except ValueError as exc:
                    raise TypeMismatchError(f"bad DATE literal {value!r}") from exc
            raise TypeMismatchError(f"expected DATE, got {value!r}")
        if kind is TypeKind.BOOLEAN:
            if isinstance(value, bool):
                return value
            raise TypeMismatchError(f"expected BOOLEAN, got {value!r}")
        raise TypeMismatchError(f"unsupported type {kind}")  # pragma: no cover

    @property
    def checker(self) -> Callable[[object], object]:
        """:meth:`check`, specialised once per type: NULL or a value of
        the stored Python type (an in-length ``str`` for VARCHAR) comes
        back at once, anything else goes through :meth:`check`.  Cached
        outside the instance: a type is pickled with the schema in
        admin records, and a closure does not pickle."""
        return _checker(self)

    def to_varchar(self, value: object) -> str | None:
        """Render a value into the flexible VARCHAR funnel.

        The Universal and (string-typed) Pivot layouts store every logical
        type in a VARCHAR column; this is the canonical encoding used to
        round-trip values through such columns.
        """
        if value is None:
            return None
        if self.kind is TypeKind.DATE:
            assert isinstance(value, datetime.date)
            return value.isoformat()
        if self.kind is TypeKind.BOOLEAN:
            return "1" if value else "0"
        return str(value)

    def from_varchar(self, text: str | None) -> object:
        """Invert :meth:`to_varchar`."""
        if text is None:
            return None
        kind = self.kind
        if kind in (TypeKind.INTEGER, TypeKind.BIGINT):
            return int(text)
        if kind is TypeKind.DOUBLE:
            return float(text)
        if kind is TypeKind.DATE:
            return datetime.date.fromisoformat(text)
        if kind is TypeKind.BOOLEAN:
            return text == "1"
        return text

    def __str__(self) -> str:
        if self.kind is TypeKind.VARCHAR:
            return f"VARCHAR({self.length})"
        return self.kind.value


#: The Python type each fixed-width kind stores (INTEGER, BIGINT: int).
_EXACT = {TypeKind.DOUBLE: float, TypeKind.DATE: datetime.date, TypeKind.BOOLEAN: bool}


@functools.cache
def _checker(sql_type: SqlType) -> Callable[[object], object]:
    slow, length = sql_type.check, sql_type.length
    if sql_type.kind is TypeKind.VARCHAR:
        return lambda v: (
            v if type(v) is str and len(v) <= length or v is None else slow(v)
        )
    exact = _EXACT.get(sql_type.kind, int)
    return lambda v: v if type(v) is exact or v is None else slow(v)


# Convenience singletons used across the code base.
INTEGER = SqlType(TypeKind.INTEGER)
BIGINT = SqlType(TypeKind.BIGINT)
DOUBLE = SqlType(TypeKind.DOUBLE)
DATE = SqlType(TypeKind.DATE)
BOOLEAN = SqlType(TypeKind.BOOLEAN)


def varchar(length: int) -> SqlType:
    """Build a ``VARCHAR(length)`` type."""
    return SqlType(TypeKind.VARCHAR, length)


def parse_type(text: str) -> SqlType:
    """Parse a type name as it appears in DDL, e.g. ``"VARCHAR(100)"``."""
    text = text.strip().upper()
    if text.startswith("VARCHAR"):
        rest = text[len("VARCHAR") :].strip()
        if rest.startswith("(") and rest.endswith(")"):
            try:
                return varchar(int(rest[1:-1]))
            except ValueError:
                pass
        raise TypeMismatchError(f"malformed VARCHAR type: {text!r}")
    try:
        return SqlType(TypeKind(text))
    except ValueError:
        raise TypeMismatchError(f"unknown type {text!r}") from None


def sort_key(value: object) -> tuple[int, object]:
    """Total order over nullable heterogeneous SQL values.

    NULLs sort first (the convention DB2 uses for ascending indexes is
    nulls-high, but the choice only needs to be consistent here).  Values
    of different types never meet in one column in well-typed plans, but
    the executor sorts mixed meta-data tuples, so we keep this safe.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, datetime.date):
        return (3, value.toordinal())
    return (4, str(value))


# -- type-exact value tags ----------------------------------------------------

#: Value tags.  Behind its tag an int is a zigzag varint, a date's ordinal
#: and a str's or big int's byte length a varint, a float eight bytes.
_NULL, _FALSE, _TRUE, _INT, _BIG_INT, _FLOAT, _STR, _DATE = range(8)
_TAG_FLOAT = struct.Struct("<Bd")
_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1
_VARINT_LIMIT = 1 << 70  # ten varint bytes


def put_uint(out: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint: seven bits a byte,
    lowest first, the high bit set on all but the last, so a value below
    128 is its own byte.  One outside ten bytes raises ``ValueError``."""
    if not 0 <= value < _VARINT_LIMIT:
        raise ValueError(f"{value} is no unsigned 10-byte varint")
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def take_uint(data: bytes, at: int, width: int = 10) -> tuple[int, int]:
    """The unsigned varint :func:`put_uint` wrote at offset ``at`` of
    ``data``, and the offset past it.  One longer than ``width`` bytes,
    or cut short by the end of ``data``, raises ``ValueError``."""
    value = shift = 0
    end = len(data)
    while at < end:
        byte = data[at]
        at += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, at
        shift += 7
        if shift == 7 * width:
            raise ValueError(f"a varint longer than {width} bytes")
    raise ValueError("a varint runs past the record's end")


def put_values(out: bytearray, values) -> None:
    """Append each value behind its tag.  A value of no SQL kind raises
    :class:`EngineError`."""
    for value in values:
        kind = type(value)
        if kind is int and _INT_MIN <= value <= _INT_MAX:
            out.append(_INT)
            put_uint(out, value << 1 ^ value >> 63)  # zigzag: -1 is 1
        elif kind is str:
            data = value.encode("utf-8", "surrogatepass")
            out.append(_STR)
            put_uint(out, len(data))
            out += data
        elif value is None:
            out.append(_NULL)
        elif kind is bool:
            out.append(_TRUE if value else _FALSE)
        elif kind is float:
            out += _TAG_FLOAT.pack(_FLOAT, value)
        elif kind is datetime.date:
            out.append(_DATE)
            put_uint(out, value.toordinal())
        elif kind is int:
            data = value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True)
            out.append(_BIG_INT)
            put_uint(out, len(data))
            out += data
        else:
            raise EngineError(f"no value tag for a {kind.__name__} value")


def take_values(data: bytes, at: int, count: int) -> tuple[list, int]:
    """``count`` tagged values of ``data`` from offset ``at`` on, and the
    offset past them.  Bytes that :func:`put_values` did not write raise
    ``ValueError``, ``IndexError``, ``OverflowError`` or ``struct.error``;
    the caller names the record."""
    values: list = []
    for _ in range(count):
        tag = data[at]
        if tag < _INT:
            values.append((None, False, True)[tag])
            at += 1
        elif tag == _FLOAT:
            values.append(_TAG_FLOAT.unpack_from(data, at)[1])
            at += 9
        elif tag > _DATE:
            raise ValueError(f"unknown value tag {tag}")
        else:
            value, at = take_uint(data, at + 1)
            if tag == _INT:
                value = value >> 1 ^ -(value & 1)
            elif tag == _DATE:
                value = datetime.date.fromordinal(value)
            else:  # a str's or a big int's bytes
                if at + value > len(data):
                    raise ValueError("a value runs past the record's end")
                raw = data[at : at + value]
                at += value
                if tag == _STR:
                    value = str(raw, "utf-8", "surrogatepass")
                else:
                    value = int.from_bytes(raw, "little", signed=True)
            values.append(value)
    return values, at
