"""Tests for the log-structured page store: change-proportional
compaction, selective sync, LSN truncation, and what a crash or a
flipped byte may and may not do to it."""

import os

import pytest

from repro.engine.database import Database
from repro.engine.durability.faults import FaultInjector, SimulatedCrash
from repro.engine.durability.pagestore import DiskPageStore
from repro.engine.errors import EngineError
from repro.engine.pager import Page, PageKind


def make_page(page_id: int, segment_id: int, payload, used: int = 0) -> Page:
    return Page(page_id, segment_id, PageKind.DATA, 8192, used, payload)


def appended_frame(store: DiskPageStore, page_id: int) -> bytes:
    """The bytes the last ``write`` of ``page_id`` appended."""
    segment_id, offset, length, _ = store._index[page_id]
    with open(store._segment_path(segment_id), "rb") as fh:
        fh.seek(offset)
        return fh.read(length)


def segment_path(store: DiskPageStore, segment_id: int) -> str:
    return store._segment_path(segment_id)


def file_identity(path: str) -> tuple[int, int]:
    stat = os.stat(path)
    return stat.st_ino, stat.st_mtime_ns


@pytest.fixture
def store(tmp_path):
    store = DiskPageStore(str(tmp_path / "pages"))
    yield store
    store.close()


def fill(store: DiskPageStore) -> dict[int, bytes]:
    """Segment 1: pages 1-3 written once.  Segment 2: pages 4-5, page 4
    then rewritten twice.  Returns the live frame of every page."""
    live = {}
    lsn = 10
    for page_id, segment_id in ((1, 1), (2, 1), (3, 1), (4, 2), (5, 2)):
        page = make_page(page_id, segment_id, [f"row-{page_id}"], used=page_id)
        store.write(page, lsn)
        live[page_id] = appended_frame(store, page_id)
        lsn += 10
    for version in (1, 2):
        page = make_page(4, 2, [f"row-4-v{version}"] * version, used=40)
        store.write(page, lsn)
        live[4] = appended_frame(store, 4)
        lsn += 10
    return live


class TestCompaction:
    def test_clean_segment_is_not_touched(self, store):
        fill(store)
        store.sync()
        before = file_identity(segment_path(store, 1))
        store.compact()
        assert file_identity(segment_path(store, 1)) == before

    def test_dirty_segment_becomes_exactly_its_live_frames(self, store):
        live = fill(store)
        before = file_identity(segment_path(store, 2))
        store.compact()
        assert file_identity(segment_path(store, 2))[0] != before[0]
        with open(segment_path(store, 2), "rb") as fh:
            # File order of the survivors: page 5, then page 4's last.
            assert fh.read() == live[5] + live[4]
        with open(segment_path(store, 1), "rb") as fh:
            assert fh.read() == live[1] + live[2] + live[3]

    def test_pages_read_back_with_their_lsn_and_used(self, store):
        fill(store)
        store.compact()
        page = store.read(4)
        assert (page.payload, page.used, page.lsn) == (["row-4-v2"] * 2, 40, 70)
        assert store.read(5).lsn == 50

    def test_compacting_twice_rewrites_nothing(self, store):
        fill(store)
        store.compact()
        before = file_identity(segment_path(store, 2))
        store.compact()
        assert file_identity(segment_path(store, 2)) == before

    def test_reopened_store_sees_the_same_index(self, store):
        fill(store)
        store.compact()
        reopened = DiskPageStore(store.directory)
        try:
            assert reopened._index == store._index
            assert reopened._sizes == store._sizes
            assert reopened._pages == store._pages
            assert reopened._garbage == set()
        finally:
            reopened.close()

    def test_reopen_before_compaction_still_knows_the_garbage(self, store):
        live = fill(store)
        reopened = DiskPageStore(store.directory)
        try:
            assert reopened._garbage == {2}
            reopened.compact()
            with open(segment_path(store, 2), "rb") as fh:
                assert fh.read() == live[5] + live[4]
        finally:
            reopened.close()

    def test_flipped_byte_in_a_live_frame_is_never_copied(self, store):
        live = fill(store)
        path = segment_path(store, 2)
        # Page 5's frame follows page 4's first version.
        _, offset, length, _ = store._index[5]
        with open(path, "r+b") as fh:
            fh.seek(offset + length - 1)
            byte = fh.read(1)
            fh.seek(offset + length - 1)
            fh.write(bytes([byte[0] ^ 0xFF]))
        size = os.path.getsize(path)
        with pytest.raises(EngineError, match="page 5"):
            store.compact()
        # Nothing was replaced: the damaged file is still the evidence.
        assert os.path.getsize(path) == size
        assert not os.path.exists(path + ".tmp")
        assert store.read(4).payload == ["row-4-v2"] * 2
        with open(path, "rb") as fh:
            assert live[5] not in fh.read()

    def test_flipped_byte_in_a_dead_version_is_dropped_silently(self, store):
        fill(store)
        path = segment_path(store, 2)
        with open(path, "r+b") as fh:
            fh.seek(20)  # inside page 4's first, superseded version
            fh.write(b"\xff")
        store.compact()
        assert store.read(4).payload == ["row-4-v2"] * 2


class TestCrashMidCompaction:
    def test_crashpoint_fires_between_segment_rewrites(self, tmp_path):
        faults = FaultInjector()
        store = DiskPageStore(str(tmp_path), faults=faults)
        fill(store)
        store.write(make_page(1, 1, ["row-1-v2"]), 90)  # segment 1 dirty too
        faults.crash_at = ("checkpoint.compact", 1)
        with pytest.raises(SimulatedCrash):
            store.compact()
        store.close()
        reopened = DiskPageStore(str(tmp_path))
        try:
            # Segment 1 was rewritten, segment 2 not yet; all pages live.
            assert reopened._garbage == {2}
            assert reopened.read(1).payload == ["row-1-v2"]
            assert reopened.read(4).payload == ["row-4-v2"] * 2
            reopened.compact()
            assert reopened._garbage == set()
        finally:
            reopened.close()

    def test_scan_deletes_a_stray_rewrite(self, store):
        fill(store)
        stray = segment_path(store, 2) + ".tmp"
        with open(stray, "wb") as fh:
            fh.write(b"half a rewrite")
        reopened = DiskPageStore(store.directory)
        try:
            assert not os.path.exists(stray)
            assert reopened.page_ids() == {1, 2, 3, 4, 5}
        finally:
            reopened.close()


class TestSync:
    def test_sync_fsyncs_only_written_segments(self, store):
        def fsyncs() -> int:
            return store.stats.fsyncs

        fill(store)
        store.sync()
        assert fsyncs() == 2
        store.sync()
        assert fsyncs() == 2
        store.read(1)  # an open handle is not a written segment
        store.write(make_page(5, 2, ["row-5-v2"]), 90)
        store.sync()
        assert fsyncs() == 3


class TestTruncate:
    def test_truncate_rolls_pages_back_to_the_cutoff(self, store):
        fill(store)
        store.truncate_to(60)  # page 4: versions at 40, 60, 70
        assert store.read(4).payload == ["row-4-v1"]
        assert store.read(4).lsn == 60
        assert store.page_ids() == {1, 2, 3, 4, 5}
        assert store._garbage == set()

    def test_truncate_drops_pages_born_after_the_cutoff(self, store):
        fill(store)
        store.truncate_to(45)
        assert store.page_ids() == {1, 2, 3, 4}
        assert store.read(4).payload == ["row-4"]
        with pytest.raises(EngineError):
            store.read(5)

    def test_truncate_removes_a_segment_with_nothing_left(self, store):
        fill(store)
        store.truncate_to(35)
        assert store.page_ids() == {1, 2, 3}
        assert not os.path.exists(segment_path(store, 2))
        assert set(store.segment_ids()) == {1}

    def test_truncate_skips_a_segment_already_at_the_cutoff(self, store):
        fill(store)
        before = file_identity(segment_path(store, 1))
        store.truncate_to(60)
        assert file_identity(segment_path(store, 1)) == before


class TestFreeSegment:
    def test_free_segment_forgets_dirty_and_garbage_state(self, store):
        fill(store)
        assert store._garbage == {2} and store._unsynced == {1, 2}
        assert store.free_segment(2) == 2
        assert store._garbage == set() and store._unsynced == {1}
        assert store.page_ids() == {1, 2, 3}
        assert store.pages_in_segment(2) == set()
        assert set(store.segment_ids()) == {1}
        store.sync()
        assert store.stats.fsyncs == 1

    def test_freed_file_outlives_the_drop_until_the_next_compaction(self, store):
        """The checkpoint on disk may still describe the dropped table
        (a drop inside an admin operation that never completes is rolled
        back by recovery), so only the next checkpoint unlinks it."""
        fill(store)
        store.free_segment(2)
        assert os.path.exists(segment_path(store, 2))
        store.compact()
        assert not os.path.exists(segment_path(store, 2))


class TestThroughTheEngine:
    def test_checkpoint_compacts_only_the_table_that_changed(self, tmp_path):
        """Run with ``REPRO_SANITIZE=1`` this also holds the write-ahead
        checks (CON003: page LSN vs flushed LSN at writeback) over pages
        that went through a byte-copying compaction."""
        path = str(tmp_path / "db")
        db = Database(path=path)
        for name in ("hot", "cold"):
            db.execute(f"CREATE TABLE {name} (id INTEGER NOT NULL, v VARCHAR(20))")
            for i in range(30):
                db.execute(f"INSERT INTO {name} VALUES (?, ?)", [i, f"{name}-{i}"])
        db.checkpoint()
        store = db.durability.store
        segments = {
            name: db.catalog.table(name).heap.segment_id
            for name in ("hot", "cold")
        }
        before = {
            name: file_identity(segment_path(store, segment))
            for name, segment in segments.items()
        }
        fsyncs = db.metrics.value("db.pager.fsyncs")
        db.execute("UPDATE hot SET v = 'changed' WHERE id = 7")
        db.checkpoint()
        assert db.metrics.value("db.pager.fsyncs") == fsyncs + 1
        assert file_identity(segment_path(store, segments["cold"])) == before["cold"]
        assert file_identity(segment_path(store, segments["hot"])) != before["hot"]
        assert store._garbage == set()
        assert sum(store._sizes.values()) == sum(
            length for _, _, length, _ in store._index.values()
        )
        db.pool.flush()  # every page is re-read from the compacted files
        db.execute("UPDATE hot SET v = 'again' WHERE id = 8")
        db.checkpoint()
        expected = [
            (i, {7: "changed", 8: "again"}.get(i, f"hot-{i}")) for i in range(30)
        ]
        assert sorted(db.execute("SELECT id, v FROM hot").rows) == expected
        if db.sanitizer is not None:
            assert db.sanitizer.report.ok, db.sanitizer.report.findings
        db.close()
        reopened = Database(path=path)
        assert sorted(reopened.execute("SELECT id, v FROM hot").rows) == expected
        assert reopened.execute("SELECT COUNT(*) FROM cold").scalar() == 30
        reopened.close()
