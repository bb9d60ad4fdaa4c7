"""Unit tests for transformation-layer meta-data: row ids, column ids,
and the budget report."""

from repro.core.metadata import (
    ColumnIdAllocator,
    MetadataReport,
    RowIdAllocator,
)


def _from_zero(_tenant_id: int, _table: str) -> int:
    return 0


class _StoredRows:
    """A seed over a dict standing in for the stored rows: the next id
    after the largest stored one, with every call recorded."""

    def __init__(self, stored: dict[tuple[int, str], list[int]]) -> None:
        self.stored = stored
        self.calls: list[tuple[int, str]] = []

    def __call__(self, tenant_id: int, table: str) -> int:
        self.calls.append((tenant_id, table))
        return max(self.stored.get((tenant_id, table), [-1])) + 1


class TestRowIdAllocator:
    def test_monotonic_per_key(self):
        rows = RowIdAllocator(_from_zero)
        assert [rows.allocate(1, "t") for _ in range(3)] == [0, 1, 2]

    def test_independent_per_tenant_and_table(self):
        rows = RowIdAllocator(_from_zero)
        rows.allocate(1, "t")
        assert rows.allocate(2, "t") == 0
        assert rows.allocate(1, "u") == 0

    def test_case_insensitive_table_names(self):
        rows = RowIdAllocator(_from_zero)
        rows.allocate(1, "Account")
        assert rows.allocate(1, "account") == 1

    def test_observe_advances_counter(self):
        rows = RowIdAllocator(_from_zero)
        rows.observe(1, "t", 41)
        assert rows.allocate(1, "t") == 42

    def test_observe_never_regresses(self):
        rows = RowIdAllocator(_from_zero)
        rows.observe(1, "t", 10)
        rows.observe(1, "t", 3)
        assert rows.allocate(1, "t") == 11

    def test_forget_tenant(self):
        rows = RowIdAllocator(_from_zero)
        rows.allocate(1, "t")
        rows.allocate(2, "t")
        rows.forget_tenant(1)
        assert rows.allocate(1, "t") == 0
        assert rows.allocate(2, "t") == 1

    def test_an_unseen_key_seeds_exactly_once(self):
        seed = _StoredRows({(1, "t"): [0, 7, 3]})
        rows = RowIdAllocator(seed)
        assert [rows.allocate(1, "T") for _ in range(3)] == [8, 9, 10]
        rows.observe(1, "t", 2)
        assert seed.calls == [(1, "t")]
        assert rows.allocate(2, "t") == 0
        assert seed.calls == [(1, "t"), (2, "t")]

    def test_observe_on_an_unseen_key_seeds_before_comparing(self):
        """An explicit id below the stored top must not pull the counter
        under it: the next allocated id would collide."""
        seed = _StoredRows({(1, "t"): [0, 1, 2, 9]})
        rows = RowIdAllocator(seed)
        rows.observe(1, "t", 4)
        assert seed.calls == [(1, "t")]
        assert rows.allocate(1, "t") == 10

    def test_a_recreated_tenant_seeds_again_from_its_empty_anchor(self):
        seed = _StoredRows({(1, "t"): [0, 1, 2]})
        rows = RowIdAllocator(seed)
        assert rows.allocate(1, "t") == 3
        rows.forget_tenant(1)
        del seed.stored[(1, "t")]  # drop_tenant purged its rows
        assert rows.allocate(1, "t") == 0
        assert seed.calls == [(1, "t"), (1, "t")]


class TestColumnIdAllocator:
    def test_base_columns_positional(self):
        columns = ColumnIdAllocator()
        columns.register_base("t", ["a", "b", "c"])
        assert columns.column_id("t", "a") == 0
        assert columns.column_id("t", "C") == 2

    def test_extension_columns_continue(self):
        columns = ColumnIdAllocator()
        columns.register_base("t", ["a", "b"])
        columns.register_extension("t", ["x", "y"])
        assert columns.column_id("t", "x") == 2
        assert columns.column_id("t", "y") == 3

    def test_two_extensions_get_disjoint_ids(self):
        columns = ColumnIdAllocator()
        columns.register_base("t", ["a"])
        columns.register_extension("t", ["x"])
        columns.register_extension("t", ["z"])
        assert columns.column_id("t", "x") == 1
        assert columns.column_id("t", "z") == 2

    def test_reregistration_keeps_ids_stable(self):
        columns = ColumnIdAllocator()
        columns.register_base("t", ["a"])
        columns.register_extension("t", ["x"])
        first = columns.column_id("t", "x")
        columns.register_extension("t", ["x"])  # idempotent for ids
        assert columns.column_id("t", "x") == first


class TestMetadataReport:
    def test_lines_render(self):
        report = MetadataReport(
            layout="chunk_folding",
            physical_tables=3,
            physical_indexes=4,
            metadata_bytes=16384,
            buffer_pool_pages=100,
        )
        text = "\n".join(report.lines())
        assert "chunk_folding" in text
        assert "16384" in text

