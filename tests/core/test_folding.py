"""Tests for chunk partitioning, shapes and chunk-table DDL."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import LogicalColumn
from repro.core.folding import (
    ChunkShape,
    chunk_table_ddl,
    partition_columns,
)
from repro.engine.errors import PlanError
from repro.engine.values import BOOLEAN, DATE, DOUBLE, INTEGER, varchar


def make_columns(spec):
    """spec: list of (name, type, indexed)."""
    return [
        LogicalColumn(name, sql_type, indexed=indexed)
        for name, sql_type, indexed in spec
    ]


MIXED = make_columns(
    [
        ("id", INTEGER, True),
        ("name", varchar(50), False),
        ("opened", DATE, False),
        ("score", DOUBLE, False),
        ("flag", BOOLEAN, False),
        ("notes", varchar(100), False),
    ]
)


class TestChunkShape:
    def test_of_columns_counts_families(self):
        shape = ChunkShape.of_columns(MIXED)
        assert shape == ChunkShape(ints=2, strs=2, dates=1, dbls=1)

    def test_width(self):
        assert ChunkShape(ints=2, strs=1).width == 3

    def test_table_name_encodes_shape(self):
        assert ChunkShape(ints=1, strs=2).table_name(indexed=False) == "chunk_i1s2"
        assert ChunkShape(ints=1).table_name(indexed=True) == "chunk_i1_ix"

    def test_slot_names(self):
        shape = ChunkShape(ints=2, dates=1)
        assert shape.slot_names() == ["int1", "int2", "date1"]


class TestPartitionColumns:
    def test_indexed_columns_get_own_chunks_first(self):
        assignments = partition_columns(MIXED, width=3)
        assert assignments[0].indexed
        assert assignments[0].slots == (("id", "int1"),)

    def test_width_bounds_chunk_size(self):
        assignments = partition_columns(MIXED, width=2)
        for assignment in assignments:
            assert assignment.shape.width <= 2

    def test_width_one_is_pivot_like(self):
        assignments = partition_columns(MIXED, width=1)
        assert len(assignments) == len(MIXED)

    def test_full_width_is_universal_like(self):
        assignments = partition_columns(MIXED, width=len(MIXED))
        # One indexed chunk + one wide chunk.
        assert len(assignments) == 2

    def test_chunk_ids_sequential(self):
        assignments = partition_columns(MIXED, width=2)
        assert [a.chunk_id for a in assignments] == list(range(len(assignments)))

    def test_every_column_assigned_exactly_once(self):
        assignments = partition_columns(MIXED, width=3)
        seen = [name for a in assignments for name, _ in a.slots]
        assert sorted(seen) == sorted(c.lname for c in MIXED)

    def test_invalid_width_rejected(self):
        with pytest.raises(PlanError):
            partition_columns(MIXED, width=0)

    @settings(max_examples=50, deadline=None)
    @given(
        n_cols=st.integers(1, 30),
        width=st.integers(1, 12),
        seed=st.randoms(use_true_random=False),
    )
    def test_partition_invariants(self, n_cols, width, seed):
        types = [INTEGER, varchar(20), DATE, DOUBLE, BOOLEAN]
        columns = [
            LogicalColumn(
                f"c{i}",
                seed.choice(types),
                indexed=seed.random() < 0.2,
            )
            for i in range(n_cols)
        ]
        assignments = partition_columns(columns, width)
        seen = [name for a in assignments for name, _ in a.slots]
        assert sorted(seen) == sorted(c.lname for c in columns)
        for assignment in assignments:
            assert assignment.shape.width <= max(width, 1)
            if assignment.indexed:
                assert assignment.shape.width == 1
            # Slot names are valid for the shape.
            valid = set(assignment.shape.slot_names())
            for _, slot in assignment.slots:
                assert slot in valid


class TestChunkTableDdl:
    def test_ddl_contains_meta_columns(self):
        ddl, indexes = chunk_table_ddl(ChunkShape(ints=1, strs=1), indexed=False)
        assert "tenant INTEGER NOT NULL" in ddl
        assert "chunk INTEGER NOT NULL" in ddl
        assert any("tcr" in ix for ix in indexes)

    def test_indexed_shape_gets_value_index(self):
        _, indexes = chunk_table_ddl(ChunkShape(ints=1), indexed=True)
        assert any("itcr" in ix for ix in indexes)

    def test_soft_delete_adds_alive(self):
        ddl, _ = chunk_table_ddl(ChunkShape(ints=1), indexed=False, soft_delete=True)
        assert "alive INTEGER NOT NULL" in ddl
