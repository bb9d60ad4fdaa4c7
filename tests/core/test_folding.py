"""Tests for chunk partitioning, shapes, and the utilization-driven
folding planner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import FoldingPlanner, LogicalColumn
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


class TestFoldingPlanner:
    def test_hot_columns_stay_conventional(self):
        planner = FoldingPlanner(hot_fraction=0.34, chunk_width=2)
        for _ in range(100):
            planner.record_access("t", "name")
        planner.record_access("t", "opened")
        decision = planner.plan("t", MIXED)
        conventional = {c.lname for c in decision.conventional}
        assert "name" in conventional

    def test_indexed_columns_always_conventional(self):
        planner = FoldingPlanner(hot_fraction=0.0, chunk_width=2)
        decision = planner.plan("t", MIXED)
        assert "id" in {c.lname for c in decision.conventional}

    def test_cold_columns_are_chunked(self):
        planner = FoldingPlanner(hot_fraction=0.34, chunk_width=2)
        for _ in range(10):
            planner.record_access("t", "name")
        decision = planner.plan("t", MIXED)
        chunked_names = {
            name for a in decision.chunked for name, _ in a.slots
        }
        conventional = {c.lname for c in decision.conventional}
        assert chunked_names.isdisjoint(conventional)
        assert chunked_names | conventional == {c.lname for c in MIXED}

    def test_hot_fraction_bounds(self):
        with pytest.raises(PlanError):
            FoldingPlanner(hot_fraction=1.5)

    def test_heat_accumulates(self):
        planner = FoldingPlanner()
        planner.record_access("t", "a", weight=3)
        planner.record_access("T", "A")
        assert planner.heat("t", "a") == 4
