"""Tests for the B+-tree: correctness against a model, splits,
prefix scans, and prefix compression."""

import datetime
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.btree import BTreeIndex, _Internal, _Leaf
from repro.engine.database import Database
from repro.engine.errors import UniqueViolation
from repro.engine.heap import RowId
from repro.engine.pager import BufferPool, Page, PageKind


def make_index(unique=False, prefix_compression=True, capacity=256):
    pool = BufferPool(capacity_pages=capacity)
    return BTreeIndex(
        pool, segment_id=1, unique=unique, prefix_compression=prefix_compression
    ), pool


def rid(n) -> RowId:
    return (n, 0)


def scan_prefix(index, prefix, batch_rows=7):
    return [e for b in index.prefix_batches(prefix, batch_rows) for e in b]


def scan_range(index, low, high, batch_rows=7):
    return [e for b in index.range_batches(low, high, batch_rows) for e in b]


class TestBasics:
    def test_insert_search(self):
        index, _ = make_index()
        index.insert((5,), rid(1))
        assert index.search((5,)) == [rid(1)]

    def test_missing_key_returns_empty(self):
        index, _ = make_index()
        assert index.search((42,)) == []

    def test_duplicate_keys_accumulate_rids(self):
        index, _ = make_index()
        index.insert((5,), rid(1))
        index.insert((5,), rid(2))
        assert set(index.search((5,))) == {rid(1), rid(2)}

    def test_unique_rejects_duplicates(self):
        index, _ = make_index(unique=True)
        index.insert((5,), rid(1))
        with pytest.raises(UniqueViolation):
            index.insert((5,), rid(2))

    def test_delete(self):
        index, _ = make_index()
        index.insert((5,), rid(1))
        assert index.delete((5,), rid(1)) is True
        assert index.search((5,)) == []

    def test_delete_missing_returns_false(self):
        index, _ = make_index()
        assert index.delete((5,), rid(1)) is False

    def test_distinct_keys_counter(self):
        index, _ = make_index()
        index.insert((1,), rid(1))
        index.insert((1,), rid(2))
        index.insert((2,), rid(3))
        assert index.distinct_keys == 2
        index.delete((1,), rid(1))
        assert index.distinct_keys == 2
        index.delete((1,), rid(2))
        assert index.distinct_keys == 1


class TestSplits:
    def test_many_inserts_split_and_stay_searchable(self):
        index, _ = make_index()
        n = 3000
        for i in range(n):
            index.insert((i, f"value-{i}"), rid(i))
        assert index.height > 1
        for i in (0, 1, n // 2, n - 1):
            assert index.search((i, f"value-{i}")) == [rid(i)]

    def test_reverse_insert_order(self):
        index, _ = make_index()
        for i in reversed(range(2000)):
            index.insert((i,), rid(i))
        keys = [k for k, _ in scan_prefix(index, ())]
        assert keys == [(i,) for i in range(2000)]

    def test_descent_reads_one_page_per_level(self):
        index, pool = make_index()
        for i in range(5000):
            index.insert((i,), rid(i))
        before = pool.stats.snapshot()
        index.search((2500,))
        delta = pool.stats.delta(before)
        assert delta.logical_index == index.height


class TestPrefixScan:
    def test_prefix_scan_filters_leading_columns(self):
        index, _ = make_index()
        for tenant in (17, 35, 42):
            for row in range(10):
                index.insert((tenant, 0, row), rid(tenant * 100 + row))
        results = list(scan_prefix(index, (17,)))
        assert len(results) == 10
        assert all(k[0] == 17 for k, _ in results)

    def test_empty_prefix_scans_everything(self):
        index, _ = make_index()
        for i in range(100):
            index.insert((i % 5, i), rid(i))
        assert len(list(scan_prefix(index, ()))) == 100

    def test_prefix_scan_in_key_order(self):
        index, _ = make_index()
        for i in reversed(range(50)):
            index.insert((1, i), rid(i))
        keys = [k for k, _ in scan_prefix(index, (1,))]
        assert keys == sorted(keys, key=lambda k: k[1])

    def test_prefix_scan_across_leaf_boundaries(self):
        index, _ = make_index()
        for i in range(3000):
            index.insert((7, i), rid(i))
        index.insert((8, 0), rid(9999))
        assert len(list(scan_prefix(index, (7,)))) == 3000

    def test_range_scan(self):
        index, _ = make_index()
        for i in range(100):
            index.insert((i,), rid(i))
        results = [k[0] for k, _ in scan_range(index, (10,), (20,))]
        assert results == list(range(10, 21))


class TestBatchScans:
    """The batch API against a sorted model: every batch size, prefix
    and range scans over runs that cross leaves, non-unique keys."""

    @staticmethod
    @functools.cache
    def build():
        index, pool = make_index()
        model = []
        for i in range(3000):
            key = (i % 4, f"{i // 6:030d}")
            index.insert(key, rid(i))
            model.append((key, rid(i)))
        model.sort()
        assert index.height > 1
        return index, pool, model

    @pytest.mark.parametrize("batch_rows", [1, 3, 256])
    def test_prefix_batches_match_model(self, batch_rows):
        index, pool, model = self.build()
        for prefix in [(), (2,), (1, f"{40:030d}"), (9,)]:
            batches = list(index.prefix_batches(prefix, batch_rows))
            assert all(0 < len(b) <= batch_rows for b in batches)
            assert all(len(b) == batch_rows for b in batches[:-1])
            expected = [e for e in model if e[0][: len(prefix)] == prefix]
            assert [e for b in batches for e in b] == expected

    @pytest.mark.parametrize("batch_rows", [1, 3, 256])
    def test_range_batches_match_model(self, batch_rows):
        index, _pool, model = self.build()
        low, high = (1, f"{100:030d}"), (2, f"{20:030d}")
        got = [e for b in index.range_batches(low, high, batch_rows) for e in b]
        assert got == [e for e in model if low <= e[0][:2] <= high]
        assert [e for b in index.range_batches(None, (0,), batch_rows) for e in b] == [
            e for e in model if e[0][0] == 0
        ]

    def test_counters_once_per_scan(self):
        index, pool, _model = self.build()
        stats = index._stats
        before = (stats.prefix_scans, stats.range_scans, stats.descents)
        list(index.prefix_batches((3,), 5))
        list(index.range_batches((1,), (2,), 5))
        assert (stats.prefix_scans, stats.range_scans, stats.descents) == (
            before[0] + 1,
            before[1] + 1,
            before[2] + 2,
        )

    def test_leaf_reads_stop_with_the_run(self):
        """A scan reads the leaves from its descent to the last match,
        plus the next leaf only when the run reaches a leaf's end —
        never the rest of the chain."""
        index, pool, _model = self.build()
        chain, leaves = [], []
        page_id = index._leftmost_leaf()
        while page_id is not None:
            chain.append(page_id)
            leaves.append(pool.read(page_id).payload)
            page_id = leaves[-1].next_page
        for prefix in [(0,), (1, f"{40:030d}"), (2,), (3,)]:
            n = len(prefix)
            first = chain.index(index._descend(prefix)[0][-1])
            hits = [
                i for i, leaf in enumerate(leaves)
                if any(k[:n] == prefix for k in leaf.keys)
            ]
            last = leaves[hits[-1]]
            reads_next = last.keys[-1][:n] == prefix and last.next_page
            before = pool.stats.snapshot()
            list(index.prefix_batches(prefix, 256))
            delta = pool.stats.delta(before)
            assert delta.logical_index == (
                index.height - 1 + hits[-1] - first + 1 + bool(reads_next)
            )

    def test_bools_are_not_numbers(self):
        """``sort_key`` keeps booleans apart from numbers, so an integer
        prefix does not match a boolean key (raw ``True == 1`` would)."""
        for probe, expected in (((1,), []), ((True,), [rid(1)])):
            # A fresh tree per probe: the key-order memo is keyed by the
            # tuple, and (1,) == (True,) in Python.
            index, _ = make_index()
            index.insert((True, 1), rid(1))
            index.insert((2, 1), rid(2))
            found = [r for b in index.prefix_batches(probe, 8) for _k, r in b]
            assert found == expected


class TestPrefixCompression:
    def test_compression_reduces_index_pages(self):
        """Redundant leading columns (Tenant, Table, Chunk) compress well
        — the paper's partitioned-B-tree argument."""
        compressed, _ = make_index(prefix_compression=True)
        plain, _ = make_index(prefix_compression=False)
        for i in range(4000):
            key = ("tenant-000017", "account_table", 3, i)
            compressed.insert(key, rid(i))
            plain.insert(key, rid(i))
        assert compressed.page_count < plain.page_count


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 1000)), max_size=400
        )
    )
    def test_matches_dict_model(self, entries):
        index, _ = make_index()
        model: dict[tuple, list] = {}
        for i, (a, b) in enumerate(entries):
            key = (a, b)
            index.insert(key, rid(i))
            model.setdefault(key, []).append(rid(i))
        for key, rids in model.items():
            assert sorted(index.search(key)) == sorted(rids)
        scanned = list(scan_prefix(index, ()))
        assert len(scanned) == sum(len(v) for v in model.values())
        keys = [k for k, _ in scanned]
        assert keys == sorted(keys)

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 200), min_size=1, max_size=200),
        deletions=st.data(),
    )
    def test_insert_delete_interleaving(self, keys, deletions):
        index, _ = make_index()
        live: dict[tuple, list] = {}
        for i, k in enumerate(keys):
            index.insert((k,), rid(i))
            live.setdefault((k,), []).append(rid(i))
            if deletions.draw(st.booleans()) and live:
                victim_key = deletions.draw(st.sampled_from(sorted(live)))
                victim_rid = live[victim_key][0]
                assert index.delete(victim_key, victim_rid)
                live[victim_key].remove(victim_rid)
                if not live[victim_key]:
                    del live[victim_key]
        assert index.entry_count == sum(len(v) for v in live.values())
        for key, rids in live.items():
            assert set(index.search(key)) == set(rids)


# ---------------------------------------------------------------------------
# Incremental page accounting vs the full recompute
# ---------------------------------------------------------------------------


def recompute(tree: BTreeIndex, page: Page) -> int:
    node = page.payload
    if isinstance(node, _Leaf):
        return tree._leaf_used(node)
    return tree._internal_used(node)


class _ResummedPage(Page):
    """A page whose occupancy *is* the full recompute at every read,
    whatever the tree adds to or subtracts from it."""

    @property
    def used(self) -> int:
        tree = self.pool.tree
        if tree is None or self.payload is None:
            return 0
        return recompute(tree, self)

    @used.setter
    def used(self, value: int) -> None:
        pass


class _ResummingPool(BufferPool):
    """Drives a reference tree by the recompute: every split decision
    compares a freshly re-summed node with its capacity."""

    tree: BTreeIndex | None = None

    def allocate(self, segment_id, kind, *, pin=False):
        page = super().allocate(segment_id, kind, pin=pin)
        page.__class__ = _ResummedPage
        page.pool = self
        return page


#: Leading columns repeat (the compressible meta-data prefix) and mix
#: every key type; ``True == 1`` and ``False == 0`` compress against
#: each other while sorting apart.
_TENANTS = (None, 1, 2, 17, 2**40)
_TABLES = (True, False, 0, 1, "account", "a")
_CHUNKS = (None, datetime.date(2008, 6, 9), datetime.date(2008, 6, 10), "c", 1.5)


class TestIncrementalAccounting:
    @pytest.mark.parametrize("prefix_compression", [True, False])
    @pytest.mark.parametrize("unique", [False, True])
    def test_used_and_split_points_match_recompute(
        self, unique, prefix_compression, replay_rng
    ):
        rng = replay_rng
        # 256-byte pages: under ten entries a node, three levels by a few
        # hundred keys.
        pool = BufferPool(capacity_pages=4096, page_size=256)
        tree = BTreeIndex(
            pool, 1, unique=unique, prefix_compression=prefix_compression
        )
        ref_pool = _ResummingPool(capacity_pages=4096, page_size=256)
        reference = BTreeIndex(
            ref_pool, 1, unique=unique, prefix_compression=prefix_compression
        )
        ref_pool.tree = reference
        live: list[tuple[tuple, RowId]] = []
        for step in range(700):
            if live and rng.random() < 0.3:
                key, victim = live.pop(rng.randrange(len(live)))
                assert tree.delete(key, victim)
                assert reference.delete(key, victim)
            else:
                row = step if unique else rng.randrange(120)
                key = (
                    rng.choice(_TENANTS),
                    rng.choice(_TABLES),
                    rng.choice(_CHUNKS),
                    row,
                )
                tree.insert(key, rid(step))
                reference.insert(key, rid(step))
                live.append((key, rid(step)))
            for page in pool._disk.values():
                assert page.used == recompute(tree, page), (step, page.page_id)
            # Same pages holding the same keys: no split point moved.
            assert tree.height == reference.height
            assert {
                pid: page.payload for pid, page in pool._disk.items()
            } == {pid: page.payload for pid, page in ref_pool._disk.items()}
        assert tree.height >= 3
        assert any(
            isinstance(page.payload, _Internal) and page.page_id != tree.root_id
            for page in pool._disk.values()
        ), "no internal node ever split"

    def test_delete_writes_back_true_occupancy(self, tmp_path):
        """``delete`` used to leave ``page.used`` at its pre-delete
        value, and that is what reached the page store."""
        db = Database(path=str(tmp_path / "db"))
        db.execute("CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR(20))")
        db.execute("CREATE INDEX t_ab ON t (a, b)")
        for i in range(40):
            db.execute("INSERT INTO t VALUES (?, ?)", [i % 4, f"name-{i}"])
        db.execute("DELETE FROM t WHERE b <> 'name-7'")
        db.checkpoint()
        btree = db.catalog.table("t").indexes["t_ab"].btree
        stored = db.durability.store.read(btree.root_id)
        assert stored.payload.keys == [(3, "name-7")]
        assert stored.used == btree._leaf_used(stored.payload)
        db.close()
