"""Chunk partitioning and folding algorithms.

A logical table is vertically partitioned into *chunks* — groups of
columns that travel together.  Each chunk is then *folded* into a
physical Chunk Table whose shape (slot counts per type family) matches
the chunk as closely as possible; chunks of many tables and tenants
share the same physical tables, distinguished by the (Tenant, Table,
Chunk) meta-data columns.

:func:`partition_columns` is the width-driven splitter: indexed
columns go into single-column indexed chunks (the paper's ChunkIndex),
the remaining columns fill chunks of at most ``width`` data columns
(ChunkData).  The paper's utilization-driven splitter (hot columns
conventional, cold ones chunked) is not built: no serving path measures
column utilization to feed it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..engine.errors import PlanError
from .layouts.base import SLOT_DDL, SLOT_FAMILIES, slot_family
from .schema import LogicalColumn


@dataclass(frozen=True)
class ChunkShape:
    """Slot counts per type family — determines the physical table."""

    ints: int = 0
    strs: int = 0
    dates: int = 0
    dbls: int = 0

    @property
    def width(self) -> int:
        return self.ints + self.strs + self.dates + self.dbls

    def table_name(self, *, indexed: bool) -> str:
        parts = []
        for label, count in (
            ("i", self.ints),
            ("s", self.strs),
            ("d", self.dates),
            ("f", self.dbls),
        ):
            if count:
                parts.append(f"{label}{count}")
        suffix = "_ix" if indexed else ""
        return "chunk_" + "".join(parts) + suffix

    def slot_names(self) -> list[str]:
        names = []
        for family, count in (
            ("int", self.ints),
            ("str", self.strs),
            ("date", self.dates),
            ("dbl", self.dbls),
        ):
            names.extend(f"{family}{i + 1}" for i in range(count))
        return names

    @staticmethod
    def of_columns(columns: list[LogicalColumn]) -> "ChunkShape":
        counts = {family: 0 for family in SLOT_FAMILIES}
        for column in columns:
            counts[slot_family(column.type)] += 1
        return ChunkShape(
            ints=counts["int"],
            strs=counts["str"],
            dates=counts["date"],
            dbls=counts["dbl"],
        )


@dataclass(frozen=True)
class ChunkAssignment:
    """One chunk: its id, shape, and logical-column → slot mapping."""

    chunk_id: int
    shape: ChunkShape
    indexed: bool
    slots: tuple[tuple[str, str], ...]  # (logical column, slot name)


def _assign_slots(columns: list[LogicalColumn]) -> tuple[ChunkShape, tuple]:
    shape = ChunkShape.of_columns(columns)
    counters = {family: 0 for family in SLOT_FAMILIES}
    slots = []
    for column in columns:
        family = slot_family(column.type)
        counters[family] += 1
        slots.append((column.lname, f"{family}{counters[family]}"))
    return shape, tuple(slots)


def partition_columns(
    columns: list[LogicalColumn], width: int
) -> list[ChunkAssignment]:
    """Width-driven partitioning (the Experiment 2 scheme).

    Indexed columns get single-column indexed chunks first (chunk ids
    0..k-1), then the remaining columns are grouped, in declaration
    order, into chunks of at most ``width`` data columns.  ``width=1``
    degenerates to a Pivot-like layout; width = len(columns) approaches
    a Universal-like single chunk.
    """
    if width < 1:
        raise PlanError("chunk width must be >= 1")
    assignments: list[ChunkAssignment] = []
    indexed = [c for c in columns if c.indexed]
    plain = [c for c in columns if not c.indexed]
    for column in indexed:
        shape, slots = _assign_slots([column])
        assignments.append(
            ChunkAssignment(len(assignments), shape, True, slots)
        )
    for start in range(0, len(plain), width):
        group = plain[start : start + width]
        shape, slots = _assign_slots(group)
        assignments.append(
            ChunkAssignment(len(assignments), shape, False, slots)
        )
    return assignments


def chunk_table_ddl(
    shape: ChunkShape, *, indexed: bool, soft_delete: bool = False
) -> tuple[str, list[str]]:
    """DDL for the physical Chunk Table of one shape.

    Every chunk table carries the four meta-data columns and a unique
    ``(tenant, tbl, chunk, row)`` index — a partitioned B-tree whose
    redundant leading columns prefix-compress well (Section 6.1).
    Indexed shapes also get the value-leading ``itcr`` index that mimics
    a conventional table's column index.
    """
    table = shape.table_name(indexed=indexed)
    columns = [
        "tenant INTEGER NOT NULL",
        "tbl INTEGER NOT NULL",
        "chunk INTEGER NOT NULL",
        "row INTEGER NOT NULL",
    ]
    if soft_delete:
        columns.append("alive INTEGER NOT NULL")
    for family, count in (
        ("int", shape.ints),
        ("str", shape.strs),
        ("date", shape.dates),
        ("dbl", shape.dbls),
    ):
        columns.extend(
            f"{family}{i + 1} {SLOT_DDL[family]}" for i in range(count)
        )
    ddl = f"CREATE TABLE {table} (" + ", ".join(columns) + ")"
    indexes = [
        f"CREATE UNIQUE INDEX {table}_tcr ON {table} (tenant, tbl, chunk, row)"
    ]
    if indexed and shape.ints:
        indexes.append(
            f"CREATE INDEX {table}_itcr ON {table} (int1, tenant, tbl, chunk, row)"
        )
    return ddl, indexes


# ---------------------------------------------------------------------------
# Shape covers: spending a bounded meta-data budget on Chunk Tables
# ---------------------------------------------------------------------------


def merge_shapes(a: ChunkShape, b: ChunkShape) -> ChunkShape:
    """The smallest shape that can host chunks of either input shape
    (element-wise maximum per type family)."""
    return ChunkShape(
        ints=max(a.ints, b.ints),
        strs=max(a.strs, b.strs),
        dates=max(a.dates, b.dates),
        dbls=max(a.dbls, b.dbls),
    )


def shape_fits(cover: ChunkShape, chunk: ChunkShape) -> bool:
    return (
        cover.ints >= chunk.ints
        and cover.strs >= chunk.strs
        and cover.dates >= chunk.dates
        and cover.dbls >= chunk.dbls
    )


def shape_waste(cover: ChunkShape, chunk: ChunkShape) -> int:
    """Unused slots when a chunk of one shape is stored in a cover table
    — NULL columns every row of that chunk drags along."""
    if not shape_fits(cover, chunk):
        raise PlanError(f"shape {cover} cannot host {chunk}")
    return cover.width - chunk.width


def select_cover_shapes(
    demand: dict[ChunkShape, int], budget: int
) -> list[ChunkShape]:
    """Pick at most ``budget`` Chunk Table shapes hosting all demanded
    chunk shapes with minimal total slot waste.

    ``demand`` maps each required chunk shape to how many chunk *rows*
    (or chunks — any weight) will use it.  Chunk Folding's premise is
    that the database tolerates only so many tables ("the database's
    entire meta-data budget"); when distinct shapes exceed the budget,
    shapes must share tables, padding the narrower chunks with NULLs —
    the Universal-Table trade-off creeping back in, made explicit.

    Greedy agglomeration: repeatedly merge the pair of covers whose
    union adds the least weighted waste (the minimum-weight edge of the
    complete merge graph; ties go to the first pair in insertion order).
    """
    if budget < 1:
        raise PlanError("shape budget must be >= 1")
    covers: dict[ChunkShape, int] = dict(demand)
    if not covers:
        return []

    def merge_cost(a: ChunkShape, b: ChunkShape) -> int:
        merged = merge_shapes(a, b)
        return covers[a] * shape_waste(merged, a) + covers[b] * shape_waste(
            merged, b
        )

    while len(covers) > budget:
        a, b = min(
            itertools.combinations(list(covers), 2),
            key=lambda pair: merge_cost(*pair),
        )
        merged = merge_shapes(a, b)
        weight = covers.pop(a) + covers.pop(b)
        covers[merged] = covers.get(merged, 0) + weight
    return sorted(covers, key=lambda s: (s.width, s.table_name(indexed=False)))


def assign_cover(
    covers: list[ChunkShape], chunk: ChunkShape
) -> ChunkShape:
    """Cheapest cover that fits a chunk shape."""
    candidates = [c for c in covers if shape_fits(c, chunk)]
    if not candidates:
        raise PlanError(f"no cover shape fits {chunk}")
    return min(candidates, key=lambda c: shape_waste(c, chunk))


def total_waste(demand: dict[ChunkShape, int], covers: list[ChunkShape]) -> int:
    """Weighted slot waste of hosting ``demand`` in ``covers``."""
    return sum(
        weight * shape_waste(assign_cover(covers, shape), shape)
        for shape, weight in demand.items()
    )
