"""System catalog: tables, columns, indexes, and the meta-data budget.

The catalog charges a fixed memory cost per table and per index object
(4 KB per table by default — Section 1.1 quotes this figure for DB2
V9.1) and reports the total so the database can shrink the buffer pool
accordingly.  That interaction — *meta-data eats the buffer pool* — is
the mechanism behind the paper's Experiment 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .btree import BTreeIndex
from .errors import (
    DuplicateObjectError,
    NotNullViolation,
    UniqueViolation,
    UnknownObjectError,
)
from .heap import HeapFile, InsertStrategy, RowId
from .pager import BufferPool
from .values import NULL_WIDTH, SqlType, TypeKind

#: Default meta-data memory charged per table object (DB2 V9.1 figure).
TABLE_METADATA_COST = 4096
#: Meta-data memory charged per index object.
INDEX_METADATA_COST = 1024
#: A table's column statistics are gathered again once its row count
#: has moved by more than this factor since the last gather.
REGATHER_FACTOR = 2


@dataclass(frozen=True)
class Column:
    """One column of a physical table."""

    name: str
    type: SqlType
    not_null: bool = False

    @property
    def lname(self) -> str:
        return self.name.lower()


@dataclass
class IndexInfo:
    """Catalog entry for one B-tree index."""

    name: str
    table_name: str
    column_names: tuple[str, ...]
    unique: bool
    btree: BTreeIndex
    column_positions: tuple[int, ...] = ()


@dataclass(frozen=True)
class ColumnStats:
    """One column's statistics: distinct non-NULL values, and the
    smallest and largest value (``None`` when every value is NULL)."""

    ndv: int
    low: object = None
    high: object = None


class Table:
    """A physical table: heap file + indexes + column metadata.

    All mutation goes through this class so indexes stay consistent with
    the heap.  Rows are tuples positionally aligned with ``columns``.
    """

    def __init__(
        self,
        name: str,
        columns: list[Column],
        heap: HeapFile,
    ) -> None:
        self.name = name
        self.columns = columns
        self.heap = heap
        self.indexes: dict[str, IndexInfo] = {}
        self._position: dict[str, int] = {
            c.lname: i for i, c in enumerate(columns)
        }
        if len(self._position) != len(columns):
            raise DuplicateObjectError(f"duplicate column names in {name}")
        #: Per column: its type's checker, NOT NULL, VARCHAR, and what a
        #: NULL adds to ``_width``, the width of a row of no NULLs and
        #: only empty strings (see :meth:`_checked_row`).
        self._program = [
            (
                c.type.checker,
                c.not_null,
                c.type.kind is TypeKind.VARCHAR,
                NULL_WIDTH - c.type.value_width(""),
            )
            for c in columns
        ]
        self._width = sum(c.type.value_width("") for c in columns)
        #: Per-column statistics (in memory only) and the row count
        #: they were gathered at; see :meth:`column_stats`.
        self._stats: list[ColumnStats] | None = None
        self._stats_rows = 0
        self.stats_gathers = 0

    # -- column helpers ---------------------------------------------------

    def column_position(self, name: str) -> int:
        try:
            return self._position[name.lower()]
        except KeyError:
            raise UnknownObjectError(
                f"no column {name!r} in table {self.name}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._position

    def row_width(self, row: tuple) -> int:
        return sum(
            col.type.value_width(value) for col, value in zip(self.columns, row)
        )

    def _checked_row(self, row: tuple) -> tuple[tuple, int]:
        """Type-check and coerce a full row, and size it, in one pass:
        the width is :meth:`row_width` of the row returned."""
        if len(row) != len(self.columns):
            raise NotNullViolation(
                f"{self.name}: expected {len(self.columns)} values, got {len(row)}"
            )
        out = []
        width = self._width
        for (check, not_null, varchar, null_delta), value in zip(
            self._program, row
        ):
            value = check(value)
            if value is None:
                if not_null:
                    column = self.columns[len(out)]
                    raise NotNullViolation(f"{self.name}.{column.name} is NOT NULL")
                width += null_delta
            elif varchar:
                width += len(value)
            out.append(value)
        return tuple(out), width

    # -- mutation (index-maintaining) ----------------------------------------

    # A write a unique index refuses undoes its own heap and index
    # changes before re-raising: it logs nothing, so anything it left
    # behind would be live state that recovery never rebuilds.  The
    # undo runs only on refusal; a write that succeeds reads no page a
    # uniqueness probe ahead of it would have cost.  The pages end as
    # they began, so the sanitizer forgets the write's mutations.

    def insert_row(self, row: tuple) -> RowId:
        row, width = self._checked_row(row)
        san = self.heap.sanitizer
        mark = san and san.data_dirties
        rid = self.heap.insert(row, width)
        info = None
        try:
            for info in self.indexes.values():
                info.btree.insert(self._index_key(info, row), rid)
        except UniqueViolation:
            for done in self.indexes.values():
                if done is info:
                    break
                done.btree.delete(self._index_key(done, row), rid)
            self.heap.delete(rid)
            if san:
                san.data_dirties = mark
            raise
        self._row_count_moved()
        return rid

    # A delete or update is handed the row stored at ``rid`` (the one
    # its caller matched or fetched) and reads no page to find it.

    def delete_row(self, rid: RowId, row: tuple) -> None:
        for info in self.indexes.values():
            info.btree.delete(self._index_key(info, row), rid)
        self.heap.delete(rid)
        self._row_count_moved()

    def update_row(
        self, rid: RowId, old_row: tuple, new_row: Sequence, positions: Sequence[int]
    ) -> RowId:
        """Write ``new_row``'s cells at ``positions`` (the columns the
        write assigns) into ``old_row``, the row at ``rid``: only they
        are checked, sized and rewritten, and only indexes over them
        are touched unless the row moves.  The other cells stay as
        stored."""
        columns = self.columns
        values = []
        for p in positions:
            check, not_null, _, _ = self._program[p]
            value = check(new_row[p])
            if value is None and not_null:
                raise NotNullViolation(f"{self.name}.{columns[p].name} is NOT NULL")
            values.append(value)
        row = list(old_row)
        delta = 0
        for p, value in zip(positions, values):
            value_width = columns[p].type.value_width
            delta += value_width(value) - value_width(row[p])
            row[p] = value
        new_row = tuple(row)
        san = self.heap.sanitizer
        mark = san and san.data_dirties
        new_rid = self.heap.update(rid, new_row, delta, positions)
        moved = new_rid != rid
        assigned = set(positions)
        info = None
        try:
            for info in self.indexes.values():
                if not moved and assigned.isdisjoint(info.column_positions):
                    continue
                old_key = self._index_key(info, old_row)
                new_key = self._index_key(info, new_row)
                if old_key != new_key or moved:
                    info.btree.delete(old_key, rid)
                    info.btree.insert(new_key, new_rid)
        except UniqueViolation:
            self._undo_update(rid, old_row, new_rid, new_row, info)
            if san:
                san.data_dirties = mark
            raise
        return new_rid

    def _undo_update(
        self,
        rid: RowId,
        old_row: tuple,
        new_rid: RowId,
        new_row: tuple,
        refused: IndexInfo | None,
    ) -> None:
        """Put back a row whose update ``refused`` turned down: that
        index gave up the old key and took no new one, every index
        before it moved its entry, the row may have moved pages."""
        for info in self.indexes.values():
            old_key = self._index_key(info, old_row)
            if info is refused:
                info.btree.insert(old_key, rid)
                break
            new_key = self._index_key(info, new_row)
            if old_key != new_key or new_rid != rid:
                info.btree.delete(new_key, new_rid)
                info.btree.insert(old_key, rid)
        # Moved or not, the old row goes back into its own slot.
        self.heap.delete(new_rid)
        self.heap.reinstate(rid, old_row, self.row_width(old_row))

    def _index_key(self, info: IndexInfo, row: tuple) -> tuple:
        return tuple(row[p] for p in info.column_positions)

    # -- stats ------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self.heap.row_count

    @property
    def page_count(self) -> int:
        return self.heap.page_count

    def column_stats(self, name: str) -> ColumnStats:
        """Statistics of one column.  Every column's are gathered in one
        scan of the rows (its page reads count like any other) the first
        time any is asked for, and again by the write that moves the row
        count by more than :data:`REGATHER_FACTOR` since: so when a
        gather happens depends on the data, not on when statements are
        planned or whether their plans were cached."""
        if self._stats is None:
            self._gather_stats()
        return self._stats[self.column_position(name)]

    def _gather_stats(self) -> None:
        values: list[set] = [set() for _ in self.columns]
        for _rid, row in self.heap.scan():
            for seen, value in zip(values, row):
                seen.add(value)
        stats = []
        for seen in values:
            seen.discard(None)
            low, high = min(seen, default=None), max(seen, default=None)
            stats.append(ColumnStats(len(seen), low, high))
        self._stats, self._stats_rows = stats, self.row_count
        self.stats_gathers += 1

    def _row_count_moved(self) -> None:
        if self._stats is None:
            return
        rows, kept = self.row_count, self._stats_rows
        if max(rows, kept) > REGATHER_FACTOR * max(1, min(rows, kept)):
            self._gather_stats()

    def find_index(self, leading_columns: tuple[str, ...]) -> IndexInfo | None:
        """Best index whose leading columns cover ``leading_columns``.

        Prefers the index matching the *most* leading columns; ties go to
        unique indexes, mirroring common optimizer behaviour.
        """
        wanted = [c.lower() for c in leading_columns]
        best: IndexInfo | None = None
        best_score = (-1, False)
        for info in self.indexes.values():
            cols = [c.lower() for c in info.column_names]
            matched = 0
            for col in cols:
                if col in wanted:
                    matched += 1
                else:
                    break
            if matched == 0:
                continue
            score = (matched, info.unique)
            if score > best_score:
                best, best_score = info, score
        return best


class Catalog:
    """All tables and indexes of one database, plus the meta-data budget."""

    def __init__(
        self,
        pool: BufferPool,
        *,
        table_metadata_cost: int = TABLE_METADATA_COST,
        insert_strategy: InsertStrategy = InsertStrategy.FIRST_FIT,
    ) -> None:
        self._pool = pool
        self._tables: dict[str, Table] = {}
        #: Heap segment id -> table: the name a WAL row record gives it.
        self._by_segment: dict[int, Table] = {}
        self._next_segment = 1
        self.table_metadata_cost = table_metadata_cost
        self.insert_strategy = insert_strategy
        self.metadata_bytes = 0
        self.ddl_statements = 0
        #: Monotonically increasing schema version, bumped on every
        #: CREATE/DROP TABLE/INDEX.  Cached plans are validated against
        #: it: a bump means any previously compiled plan may reference
        #: objects that changed shape or disappeared.
        self.version = 0

    # -- lookup ------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UnknownObjectError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def columns(self, name: str) -> list[Column]:
        """A table's columns: the column source the binder resolves
        physical statements against."""
        return self.table(name).columns

    def tables(self) -> list[Table]:
        return list(self._tables.values())

    def table_by_segment(self, segment: int) -> Table | None:
        """The table whose heap is ``segment``, if one is."""
        return self._by_segment.get(segment)

    @property
    def table_count(self) -> int:
        return len(self._tables)

    @property
    def index_count(self) -> int:
        return sum(len(t.indexes) for t in self._tables.values())

    @property
    def next_segment(self) -> int:
        return self._next_segment

    # -- recovery ----------------------------------------------------------

    def adopt(self, table: Table) -> None:
        """Register an externally rebuilt table (checkpoint restore) —
        no segment allocation, no meta-data charge, no version bump:
        the restored counters carry all of that."""
        if self.has_table(table.name):
            raise DuplicateObjectError(f"table {table.name!r} already exists")
        self._tables[table.name.lower()] = table
        self._by_segment[table.heap.segment_id] = table

    def restore_counters(
        self,
        *,
        next_segment: int,
        metadata_bytes: int,
        ddl_statements: int,
        version: int,
    ) -> None:
        """Restore allocator/accounting state from a checkpoint."""
        self._next_segment = next_segment
        self.metadata_bytes = metadata_bytes
        self.ddl_statements = ddl_statements
        self.version = version

    # -- DDL ---------------------------------------------------------------

    def create_table(self, name: str, columns: list[Column]) -> Table:
        if self.has_table(name):
            raise DuplicateObjectError(f"table {name!r} already exists")
        heap = HeapFile(
            self._pool,
            self._next_segment,
            self.insert_strategy,
            ncols=len(columns),
        )
        table = Table(name, columns, heap)
        self._next_segment += 1
        self._tables[name.lower()] = table
        self._by_segment[heap.segment_id] = table
        self.metadata_bytes += self.table_metadata_cost
        self.ddl_statements += 1
        self.version += 1
        return table

    def drop_table(self, name: str) -> None:
        table = self.table(name)
        for info in list(table.indexes.values()):
            info.btree.drop()
            self.metadata_bytes -= INDEX_METADATA_COST
        table.heap.drop()
        del self._tables[name.lower()]
        del self._by_segment[table.heap.segment_id]
        self.metadata_bytes -= self.table_metadata_cost
        self.ddl_statements += 1
        self.version += 1

    def create_index(
        self,
        index_name: str,
        table_name: str,
        column_names: list[str],
        *,
        unique: bool = False,
    ) -> IndexInfo:
        table = self.table(table_name)
        key = index_name.lower()
        if key in table.indexes:
            raise DuplicateObjectError(f"index {index_name!r} already exists")
        positions = tuple(table.column_position(c) for c in column_names)
        btree = BTreeIndex(self._pool, self._next_segment, unique=unique)
        info = IndexInfo(
            index_name, table.name, tuple(column_names), unique, btree, positions
        )
        # Backfill from existing rows before publishing the index.  DDL
        # that fails takes no segment id: redo hands out the same ones.
        try:
            for rid, row in table.heap.scan():
                btree.insert(tuple(row[p] for p in positions), rid)
        except BaseException:
            btree.drop()
            raise
        self._next_segment += 1
        table.indexes[key] = info
        self.metadata_bytes += INDEX_METADATA_COST
        self.ddl_statements += 1
        self.version += 1
        return info

    def drop_index(self, table_name: str, index_name: str) -> None:
        table = self.table(table_name)
        key = index_name.lower()
        if key not in table.indexes:
            raise UnknownObjectError(f"no index named {index_name!r}")
        table.indexes.pop(key).btree.drop()
        self.metadata_bytes -= INDEX_METADATA_COST
        self.ddl_statements += 1
        self.version += 1
