"""Tests for the log-structured page store: one file per database, one
fsync per sync, compaction once dead bytes exceed live bytes, LSN
truncation as a cut, what a crash or a flipped byte may and may not do
to it, what a page miss costs to decode, and what an open does with a
file another format wrote."""

import datetime
import io
import os
import pickle
import pickletools
import resource
import struct
import tracemalloc
import zlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import columncodec
from repro.engine.btree import _LEAF_HEAD, _Internal, _Leaf
from repro.engine.columnstore import ColumnPage
from repro.engine.database import Database
from repro.engine.durability import DurabilityOptions, codec, pagestore, wal
from repro.engine.durability.faults import FaultInjector, SimulatedCrash
from repro.engine.durability.manager import PAGES_DIRNAME, WAL_FILENAME
from repro.engine.durability.pagestore import HEAD, PAGE_FILE, DiskPageStore
from repro.engine.errors import EngineError
from repro.engine.heap import HeapFile, InsertStrategy
from repro.engine.pager import BufferPool, Page, PageKind
from repro.engine.values import put_values


def make_page(page_id: int, segment_id: int, texts: list, used: int = 0) -> Page:
    """A data page whose one column holds ``texts``."""
    payload = ColumnPage(1)
    payload.columns[0].extend(texts)
    payload.widths.extend(map(len, texts))
    payload.live = len(texts)
    return Page(page_id, segment_id, PageKind.DATA, 8192, used, payload)


def texts(page: Page) -> list:
    """What :func:`make_page` stored."""
    page.payload.decode()
    return page.payload.columns[0]


def appended_frame(store: DiskPageStore, page_id: int) -> bytes:
    """The bytes the last ``write`` of ``page_id`` appended."""
    offset, length, _, _ = store._index[page_id]
    with open(store.path, "rb") as fh:
        fh.seek(offset)
        return fh.read(length)


def stored_image(store: DiskPageStore, page_id: int) -> bytes:
    """The page image in the last frame ``write`` appended for
    ``page_id``: past the frame header and the page's fixed head."""
    frame = appended_frame(store, page_id)
    return frame[codec.frame_header(frame)[0] + pagestore._HEAD.size :]


def file_bytes(store: DiskPageStore) -> bytes:
    """The page file's frames: everything after its format head."""
    with open(store.path, "rb") as fh:
        data = fh.read()
    assert data[: len(HEAD)] == HEAD
    return data[len(HEAD) :]


def file_identity(path: str) -> tuple[int, int]:
    stat = os.stat(path)
    return stat.st_ino, stat.st_mtime_ns


@pytest.fixture
def store(tmp_path):
    store = DiskPageStore(str(tmp_path / "pages"))
    yield store
    store.close()


def fill(store: DiskPageStore, rewrites: int = 6) -> dict[int, bytes]:
    """Segment 1: pages 1-3 written once (LSN 10-30).  Segment 2: pages
    4-5 (LSN 40, 50), page 4 then rewritten ``rewrites`` times (LSN 60,
    70, ...): six dead versions against five live ones, so a compaction
    is due; with two it is not.  Returns the live frame of every page."""
    live = {}
    lsn = 10
    for page_id, segment_id in ((1, 1), (2, 1), (3, 1), (4, 2), (5, 2)):
        page = make_page(page_id, segment_id, [f"row-{page_id}"], used=page_id)
        store.write(page, lsn)
        live[page_id] = appended_frame(store, page_id)
        lsn += 10
    for version in range(1, rewrites + 1):
        page = make_page(4, 2, [f"row-4-v{version}"], used=40)
        store.write(page, lsn)
        live[4] = appended_frame(store, 4)
        lsn += 10
    return live


class TestCompaction:
    def test_store_is_not_rewritten_until_dead_exceeds_live(self, store):
        """The fixed rule: dead == live is not yet a reason."""
        for version in (1, 2):
            for page_id in (1, 2):
                store.write(make_page(page_id, 1, [f"v{version}"]), 10 * version)
        assert store.stats.dead_bytes == store.stats.live_bytes > 0
        store.sync()
        before = file_identity(store.path)
        store.compact()
        assert file_identity(store.path) == before
        assert store.stats.compactions == 0
        store.write(make_page(1, 1, ["v3"]), 30)
        assert store.stats.dead_bytes > store.stats.live_bytes
        store.compact()
        assert file_identity(store.path)[0] != before[0]
        assert store.stats.compactions == 1
        assert (store.stats.dead_bytes, store.stats.live_bytes) == (
            0, os.path.getsize(store.path) - len(HEAD)
        )

    def test_dirty_segment_becomes_exactly_its_live_frames(self, store):
        live = fill(store)
        store.compact()
        # File order of the survivors: page 5 precedes page 4's last.
        assert file_bytes(store) == (
            live[1] + live[2] + live[3] + live[5] + live[4]
        )

    def test_pages_read_back_with_their_lsn_and_used(self, store):
        fill(store)
        store.compact()
        page = store.read(4)
        assert (texts(page), page.used, page.lsn) == (["row-4-v6"], 40, 110)
        assert (page.segment_id, page.kind) == (2, PageKind.DATA)
        assert store.read(5).lsn == 50

    def test_compacting_twice_rewrites_nothing(self, store):
        fill(store)
        store.compact()
        before = file_identity(store.path)
        store.compact()
        assert file_identity(store.path) == before
        assert store.stats.compactions == 1

    def test_compaction_holds_one_frame_in_memory(self, store):
        """The copy streams: its peak allocation is a frame or two, not
        the file (reading it whole cost 11 % of the benchmark's RSS)."""
        payload = ["x" * 8000]
        for version in range(3):
            for page_id in range(1, 101):
                store.write(make_page(page_id, 1, payload), 10 + version)
        assert store.stats.live_bytes > 800_000
        tracemalloc.start()
        try:
            store.compact()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.stats.compactions == 1
        assert peak < 100_000

    def test_reopened_store_sees_the_same_index(self, store):
        fill(store)
        store.compact()
        reopened = DiskPageStore(store.directory)
        try:
            assert reopened._index == store._index
            assert reopened._pages == store._pages
            assert reopened._size == store._size == os.path.getsize(store.path)
            assert (reopened.stats.live_bytes, reopened.stats.dead_bytes) == (
                store.stats.live_bytes, 0
            )
        finally:
            reopened.close()

    def test_reopen_before_compaction_still_knows_the_garbage(self, store):
        live = fill(store)
        reopened = DiskPageStore(store.directory)
        try:
            assert reopened.stats.dead_bytes == store.stats.dead_bytes > 0
            assert reopened.stats.live_bytes == store.stats.live_bytes
            reopened.compact()
            assert file_bytes(store) == (
                live[1] + live[2] + live[3] + live[5] + live[4]
            )
        finally:
            reopened.close()

    def test_flipped_byte_in_a_live_frame_is_never_copied(self, store):
        live = fill(store)
        # Page 5's frame follows page 4's first version.
        offset, length, _, _ = store._index[5]
        with open(store.path, "r+b") as fh:
            fh.seek(offset + length - 1)
            byte = fh.read(1)
            fh.seek(offset + length - 1)
            fh.write(bytes([byte[0] ^ 0xFF]))
        size = os.path.getsize(store.path)
        with pytest.raises(EngineError, match="page 5"):
            store.compact()
        # Nothing was replaced: the damaged file is still the evidence.
        assert os.path.getsize(store.path) == size
        assert not os.path.exists(store.path + ".tmp")
        assert texts(store.read(4)) == ["row-4-v6"]
        assert live[5] not in file_bytes(store)

    def test_flipped_byte_in_a_dead_version_is_dropped_silently(self, store):
        fill(store)
        offset, _, _, _ = store._index[5]
        with open(store.path, "r+b") as fh:
            fh.seek(offset - 1)  # page 4's first, superseded version
            fh.write(b"\xff")
        store.compact()
        assert texts(store.read(4)) == ["row-4-v6"]
        assert store.page_ids() == {1, 2, 3, 4, 5}


class TestCrashMidCompaction:
    def test_crash_before_rename_leaves_old_file_whole(self, tmp_path):
        """``checkpoint.compact`` sits between the copy's fsync and its
        rename over the file."""
        faults = FaultInjector()
        store = DiskPageStore(str(tmp_path), faults=faults)
        live = fill(store)
        before = file_bytes(store)
        faults.crash_at = ("checkpoint.compact", 1)
        with pytest.raises(SimulatedCrash):
            store.compact()
        store.close()
        assert file_bytes(store) == before
        assert sorted(os.listdir(tmp_path)) == [PAGE_FILE, PAGE_FILE + ".tmp"]
        reopened = DiskPageStore(str(tmp_path))
        try:
            assert os.listdir(tmp_path) == [PAGE_FILE]
            assert texts(reopened.read(4)) == ["row-4-v6"]
            reopened.compact()
            assert file_bytes(store) == (
                live[1] + live[2] + live[3] + live[5] + live[4]
            )
        finally:
            reopened.close()

    def test_scan_deletes_a_stray_rewrite(self, store):
        fill(store)
        stray = store.path + ".tmp"
        with open(stray, "wb") as fh:
            fh.write(b"half a rewrite")
        reopened = DiskPageStore(store.directory)
        try:
            assert not os.path.exists(stray)
            assert reopened.page_ids() == {1, 2, 3, 4, 5}
        finally:
            reopened.close()

    def test_scan_truncates_a_torn_tail(self, tmp_path):
        faults = FaultInjector()
        store = DiskPageStore(str(tmp_path), faults=faults)
        fill(store)
        whole = os.path.getsize(store.path)
        faults.torn_page_write = 1
        with pytest.raises(SimulatedCrash):
            store.write(make_page(6, 2, ["never whole"]), 200)
        store.close()
        assert os.path.getsize(store.path) > whole
        reopened = DiskPageStore(str(tmp_path))
        try:
            assert os.path.getsize(store.path) == whole
            assert reopened.page_ids() == {1, 2, 3, 4, 5}
            reopened.write(make_page(6, 2, ["whole"]), 210)
            assert texts(reopened.read(6)) == ["whole"]
        finally:
            reopened.close()


class TestSync:
    def test_sync_fsyncs_only_written_segments(self, store):
        """One fsync for however many segments were written, none when
        none was."""
        def fsyncs() -> int:
            return store.stats.fsyncs

        fill(store)
        store.sync()
        assert fsyncs() == 1
        store.sync()
        assert fsyncs() == 1
        store.read(1)  # a read is not a write
        store.sync()
        assert fsyncs() == 1
        store.write(make_page(5, 2, ["row-5-v2"]), 200)
        store.sync()
        assert fsyncs() == 2

    def test_compaction_fsync_is_counted(self, store):
        fill(store)
        store.sync()
        store.compact()
        assert store.stats.fsyncs == 2
        store.sync()  # the compacted copy was fsynced before the rename
        assert store.stats.fsyncs == 2


class TestTruncate:
    def test_truncate_rolls_pages_back_to_the_cutoff(self, store):
        fill(store)
        store.truncate_to(70)  # page 4: versions at 40, 60, 70, 80, ...
        assert texts(store.read(4)) == ["row-4-v2"]
        assert store.read(4).lsn == 70
        assert store.page_ids() == {1, 2, 3, 4, 5}
        offset, length, _, _ = store._index[4]
        assert os.path.getsize(store.path) == offset + length == store._size

    def test_truncate_drops_pages_born_after_the_cutoff(self, store):
        fill(store)
        store.truncate_to(45)
        assert store.page_ids() == {1, 2, 3, 4}
        assert texts(store.read(4)) == ["row-4"]
        with pytest.raises(EngineError):
            store.read(5)

    def test_truncate_removes_a_segment_with_nothing_left(self, store):
        live = fill(store)
        store.truncate_to(35)
        assert store.page_ids() == {1, 2, 3}
        assert store.pages_in_segment(2) == set()
        assert file_bytes(store) == live[1] + live[2] + live[3]
        assert store.stats.dead_bytes == 0

    def test_truncate_skips_a_segment_already_at_the_cutoff(self, store):
        """A cut moves no byte below it: same inode, same prefix."""
        live = fill(store)
        inode = os.stat(store.path).st_ino
        store.truncate_to(60)
        assert os.stat(store.path).st_ino == inode
        assert file_bytes(store).startswith(live[1] + live[2] + live[3])

    def test_truncate_is_a_no_op_when_nothing_is_above_the_cutoff(self, store):
        fill(store)
        store.sync()
        before = file_identity(store.path)
        index = dict(store._index)
        store.truncate_to(110)
        assert file_identity(store.path) == before
        assert store._index == index

    def test_truncate_raises_on_a_version_out_of_lsn_order(self, store):
        """Versions above a checkpoint's LSN are a suffix of the file; a
        file where they are not was not written by this protocol."""
        fill(store, rewrites=2)
        store.write(make_page(5, 2, ["planted below the cutoff"]), 45)
        size = os.path.getsize(store.path)
        with pytest.raises(EngineError, match="page 5"):
            store.truncate_to(55)
        assert os.path.getsize(store.path) == size

    def test_neither_scan_nor_truncate_unpickles(self, store, monkeypatch):
        """Nor does a read: nothing in the page file is a pickle."""
        fill(store)

        def unpickled(*args, **kwargs):
            raise AssertionError("a walk of the file unpickled a page")

        monkeypatch.setattr(codec.pickle, "loads", unpickled)
        reopened = DiskPageStore(store.directory)
        try:
            assert reopened.page_ids() == {1, 2, 3, 4, 5}
            reopened.truncate_to(70)
            assert reopened._index[4][3] == 70
            reopened.write(make_page(4, 2, ["again"]), 200)
            reopened.write(make_page(4, 2, ["and again"]), 210)
            reopened.compact()
            assert reopened.stats.compactions == 0  # 3 dead, 5 live
            assert texts(reopened.read(4)) == ["and again"]
        finally:
            reopened.close()


class TestFreeSegment:
    def test_free_segment_forgets_dirty_and_garbage_state(self, store):
        live = fill(store)
        size = os.path.getsize(store.path)
        assert store.free_segment(2) == 2
        assert store.page_ids() == {1, 2, 3}
        assert store.pages_in_segment(2) == set()
        # Its live versions and its superseded ones are all dead now.
        assert store.stats.live_bytes == sum(len(live[p]) for p in (1, 2, 3))
        assert store.stats.dead_bytes == size - len(HEAD) - store.stats.live_bytes
        assert store.free_segment(2) == 0
        store.sync()
        assert store.stats.fsyncs == 1

    def test_freed_frames_outlive_the_drop_until_a_compaction(self, store):
        """The checkpoint on disk may still describe the dropped table
        (a drop inside an admin operation that never completes is rolled
        back by recovery), so the frames stay until a compaction — and an
        open indexes them until recovery names the segments it kept."""
        live = fill(store)
        store.free_segment(2)
        resurrected = DiskPageStore(store.directory)
        try:
            assert resurrected.page_ids() == {1, 2, 3, 4, 5}
            assert texts(resurrected.read(4)) == ["row-4-v6"]
            resurrected.retain_segments({1})
            assert resurrected.page_ids() == {1, 2, 3}
            assert resurrected.stats.dead_bytes == store.stats.dead_bytes
        finally:
            resurrected.close()
        store.compact()
        assert file_bytes(store) == live[1] + live[2] + live[3]
        reopened = DiskPageStore(store.directory)
        try:
            assert reopened.page_ids() == {1, 2, 3}
        finally:
            reopened.close()


def create_tables(db: Database, count: int) -> None:
    """``t0`` .. ``t<count-1>``, one row each, one WAL fsync for all."""
    with db.admin_operation("create_tables", None):
        for i in range(count):
            db.execute(f"CREATE TABLE t{i} (id INTEGER NOT NULL, v VARCHAR(20))")
    with db.atomic():
        for i in range(count):
            db.execute(f"INSERT INTO t{i} VALUES (?, ?)", [i, "loaded"])


def owned_pages(db: Database) -> set[int]:
    """The pages the catalog's heaps say they have (no indexes here)."""
    return {
        page_id
        for table in db.catalog.tables()
        for page_id in table.heap.page_ids()
    }


def churn_until_compaction_is_due(db: Database, table: str) -> None:
    """Checkpoint after each rewrite of ``table``'s rows until the next
    checkpoint's compaction has work: dead bytes exceed live bytes."""
    stats = db.durability.store.stats
    for round_number in range(50):
        db.execute(f"UPDATE {table} SET v = ?", [f"round-{round_number}"])
        db.pool.write_back_all()
        if stats.dead_bytes > stats.live_bytes:
            return
        db.checkpoint()
    raise AssertionError("dead bytes never exceeded live bytes")


class TestThroughTheEngine:
    def test_checkpoint_fsyncs_are_flat_in_tables_touched(self, tmp_path):
        """Experiment 1's per-table fixed cost, one layer down: a
        checkpoint after one changed row in each of N tables fsyncs the
        page store as often for N = 100 as for N = 10."""
        fsyncs = {}
        for tables in (10, 100):
            db = Database(path=str(tmp_path / f"db{tables}"))
            create_tables(db, tables)
            db.checkpoint()
            for i in range(tables):
                db.execute(f"UPDATE t{i} SET v = 'changed' WHERE id = ?", [i])
            before = db.metrics.value("db.pager.fsyncs")
            db.checkpoint()
            fsyncs[tables] = db.metrics.value("db.pager.fsyncs") - before
            assert os.listdir(db.durability.store.directory) == [PAGE_FILE]
            db.close()
        assert fsyncs[10] == fsyncs[100] <= 2

    def test_checkpoint_compacts_once_dead_exceeds_live(self, tmp_path):
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
        assert db.metrics.value("db.pager.dead_bytes") == 0
        fsyncs = db.metrics.value("db.pager.fsyncs")
        db.execute("UPDATE hot SET v = 'changed' WHERE id = 7")
        db.checkpoint()
        # One page superseded: nothing to compact yet, one fsync.
        assert db.metrics.value("db.pager.fsyncs") == fsyncs + 1
        assert db.metrics.value("db.pager.compactions") == 0
        assert 0 < db.metrics.value("db.pager.dead_bytes") < (
            db.metrics.value("db.pager.live_bytes")
        )
        churn_until_compaction_is_due(db, "hot")
        inode = os.stat(store.path).st_ino
        fsyncs = db.metrics.value("db.pager.fsyncs")
        db.checkpoint()
        assert db.metrics.value("db.pager.compactions") == 1
        assert db.metrics.value("db.pager.fsyncs") == fsyncs + 2
        assert os.stat(store.path).st_ino != inode
        assert db.metrics.value("db.pager.dead_bytes") == 0
        assert db.metrics.value("db.pager.live_bytes") == (
            os.path.getsize(store.path) - len(HEAD)
        )
        db.pool.flush()  # every page is re-read from the compacted file
        db.execute("UPDATE hot SET v = 'again' WHERE id = 8")
        db.checkpoint()
        last = db.execute("SELECT v FROM hot WHERE id = 7").scalar()
        expected = [(i, "again" if i == 8 else last) for i in range(30)]
        assert sorted(db.execute("SELECT id, v FROM hot").rows) == expected
        if db.sanitizer is not None:
            assert db.sanitizer.report.ok, db.sanitizer.report.findings
        db.close()
        reopened = Database(path=path)
        assert sorted(reopened.execute("SELECT id, v FROM hot").rows) == expected
        assert reopened.execute("SELECT COUNT(*) FROM cold").scalar() == 30
        reopened.close()

    @pytest.mark.parametrize(
        "crashpoint",
        [
            pytest.param("checkpoint.begin", id="begin"),
            pytest.param("wal.checkpoint_reset", id="wal_swap"),
            pytest.param("checkpoint.compact", id="compact"),
            pytest.param("checkpoint.end", id="end"),
        ],
    )
    def test_checkpoint_crash_leaves_one_file(self, tmp_path, crashpoint):
        """Wherever a checkpoint that has to compact dies, the reopened
        directory holds the one data file, no half-written copy of it
        and every committed row."""
        path = str(tmp_path / "db")
        faults = FaultInjector()
        db = Database(path=path, durability=DurabilityOptions(faults=faults))
        create_tables(db, 3)
        db.checkpoint()
        churn_until_compaction_is_due(db, "t1")
        expected = db.execute("SELECT id, v FROM t1").rows
        faults.crash_at = (crashpoint, faults.counts.get(crashpoint, 0) + 1)
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
        del db
        reopened = Database(path=path)
        try:
            assert os.listdir(reopened.durability.store.directory) == [PAGE_FILE]
            assert reopened.execute("SELECT id, v FROM t1").rows == expected
            assert reopened.durability.store.page_ids() == owned_pages(reopened)
        finally:
            reopened.close()

    def test_dropped_table_is_not_resurrected_by_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path=path)
        create_tables(db, 4)
        db.checkpoint()
        dropped = set(db.catalog.table("t2").heap.page_ids())
        db.execute("DROP TABLE t2")
        db.checkpoint()
        # Too little is dead for the checkpoint to have compacted: the
        # dropped table's frames are still in the file.
        assert db.metrics.value("db.pager.compactions") == 0
        assert db.durability.store.page_ids() == owned_pages(db)
        db.close()
        reopened = Database(path=path)
        try:
            store = reopened.durability.store
            assert store.page_ids() == owned_pages(reopened)
            assert not dropped & store.page_ids()
            assert reopened.metrics.value("db.pager.dead_bytes") > 0
        finally:
            reopened.close()

    def test_1200_tables_fit_under_1024_file_descriptors(self, tmp_path):
        """A table is not a file: with a handle per segment the
        checkpoint died of EMFILE at about a thousand tables."""
        limits = resource.getrlimit(resource.RLIMIT_NOFILE)
        if not 0 <= limits[0] <= 1024:  # higher, or RLIM_INFINITY
            resource.setrlimit(resource.RLIMIT_NOFILE, (1024, limits[1]))
        try:
            path = str(tmp_path / "db")
            db = Database(path=path)
            descriptors = len(os.listdir("/proc/self/fd"))
            create_tables(db, 1200)
            db.checkpoint()
            # (Fewer if the collector closed an earlier test's files.)
            assert len(os.listdir("/proc/self/fd")) <= descriptors
            db.close()
            reopened = Database(path=path)
            assert reopened.execute("SELECT v FROM t1199").scalar() == "loaded"
            assert len(reopened.durability.store.page_ids()) == 1200
            reopened.close()
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, limits)


class TestRead:
    @pytest.mark.parametrize("damage", ["flipped byte", "torn tail"])
    def test_a_damaged_live_frame_fails_its_read(self, store, damage):
        """A page miss checks the frame's length and checksum before
        unpickling anything."""
        fill(store)
        offset, length, _, _ = store._index[4]
        with open(store.path, "r+b") as fh:
            if damage == "flipped byte":
                fh.seek(offset + length - 1)
                byte = fh.read(1)
                fh.seek(offset + length - 1)
                fh.write(bytes([byte[0] ^ 0xFF]))
            else:
                fh.truncate(offset + length - 1)
        with pytest.raises(EngineError, match="page 4: corrupt frame"):
            store.read(4)
        assert texts(store.read(3)) == ["row-3"]

    @settings(max_examples=40, deadline=None)
    @given(cells=st.lists(st.text(max_size=30), min_size=1, max_size=40))
    def test_a_frame_cut_anywhere_is_no_frame(self, cells):
        """A page frame, its length a varint, cut at any byte — a torn
        page write — is ``None`` from ``read_frame``; whole, it is read
        to its last byte and no further."""
        head = pagestore._HEAD.pack(7, 2, 10, 0, 8192, 0)
        frame = codec.frame_payload(head + make_page(7, 2, cells).payload.to_image())
        for cut in range(len(frame)):
            assert codec.read_frame(io.BytesIO(frame[:cut]), cut) is None, cut
            assert not codec.frame_intact(frame[:cut])
        fh = io.BytesIO(frame + b"next")
        assert codec.read_frame(fh, len(frame) + 4) == frame
        assert fh.tell() == len(frame)


class TestDecodeCost:
    """A page miss costs what the read needs.  A column page and a
    B-tree node are images, not pickles, and a point fetch or probe
    decodes only what it returns."""

    @pytest.fixture
    def index_db(self, tmp_path):
        """A unique index and a 3-RIDs-a-key index, two levels each,
        checkpointed, their pages out of the pool."""
        db = Database(path=str(tmp_path))
        db.execute("CREATE TABLE u (id INTEGER NOT NULL, v VARCHAR(10))")
        db.execute("CREATE UNIQUE INDEX u_id ON u (id)")
        db.execute("CREATE TABLE m (k INTEGER NOT NULL)")
        db.execute("CREATE INDEX m_k ON m (k)")
        with db.atomic():
            for i in range(1500):
                db.execute("INSERT INTO u VALUES (?, ?)", [i, f"v{i}"])
                db.execute("INSERT INTO m VALUES (?)", [i // 3])
        db.checkpoint()
        db.pool.flush()
        yield db
        db.close()

    def test_stored_nodes_hold_no_pickle(self, index_db, monkeypatch):
        """Every stored leaf and internal node starts with its kind byte,
        which no pickle opcode has, and reads without the unpickler."""
        store = index_db.durability.store

        def unpickled(*args, **kwargs):
            raise AssertionError("a B-tree node was unpickled")

        monkeypatch.setattr(codec.pickle, "loads", unpickled)
        kinds = Counter()
        for name, index in (("u", "u_id"), ("m", "m_k")):
            btree = index_db.catalog.table(name).indexes[index].btree
            assert btree.height == 2
            for page_id in store.pages_in_segment(btree.segment_id):
                payload = stored_image(store, page_id)
                with pytest.raises(ValueError, match="at position 0"):
                    next(pickletools.genops(payload))
                node = store.read(page_id).payload
                kinds[type(node).__name__] += 1
                if type(node) is _Leaf:
                    assert node.image is not None
                    node.decode()
                    assert node.to_image() == payload
        assert kinds["_Internal"] == 2 and kinds["_Leaf"] >= 4

    def test_no_b_tree_page_is_unpickled(self, index_db, tmp_path, monkeypatch):
        """A cold probe, a leaf-chain scan, and a reopen whose recovery
        redoes inserts into stored leaves unpickle no node (the log's
        checkpoint and DDL records are the only pickles left)."""
        loads = codec.pickle.loads

        def refusing_nodes(*args, **kwargs):
            value = loads(*args, **kwargs)
            assert type(value) not in (_Leaf, _Internal), "a node was unpickled"
            return value

        monkeypatch.setattr(codec.pickle, "loads", refusing_nodes)
        db = index_db
        assert db.execute("SELECT v FROM u WHERE id = ?", [5]).rows == [("v5",)]
        m_k = db.catalog.table("m").indexes["m_k"].btree
        scanned = [key for batch in m_k.range_batches((10,), (400,), 64) for key, _ in batch]
        assert scanned == [(k,) for k in range(10, 401) for _ in range(3)]
        with db.atomic():
            for i in range(1500, 1600):
                db.execute("INSERT INTO u VALUES (?, ?)", [i, f"v{i}"])
                db.execute("INSERT INTO m VALUES (?)", [i // 3])
        db.close()  # no checkpoint: the reopen redoes the inserts
        reopened = Database(path=str(tmp_path))
        try:
            assert reopened.execute(
                "SELECT v FROM u WHERE id = ?", [1599]
            ).rows == [("v1599",)]
            assert reopened.execute("SELECT COUNT(*) FROM m WHERE k = ?", [520]).scalar() == 3
        finally:
            reopened.close()

    def test_point_probe_after_a_leaf_miss_leaves_the_leaf_undecoded(
        self, index_db, monkeypatch
    ):
        """A probe that misses on a leaf decodes the RIDs it returns and
        nothing else: no RID list of another key is built, and once the
        tree holds the leaf's decorated keys, no key either."""
        calls = []
        for method in ("rows", "row"):
            original = getattr(columncodec.Columns, method)

            def spy(block, *args, _original=original, _method=method):
                calls.append((_method, block, args))
                return _original(block, *args)

            monkeypatch.setattr(columncodec.Columns, method, spy)

        def leaf_decodes(btree, key) -> list[tuple[str, str, tuple]]:
            """What a probe for ``key`` after a pool flush decodes of
            its leaf: (method, "keys" or "rids", arguments)."""
            leaf_id = btree._descend(key)[0][-1]
            index_db.pool.flush()
            del calls[:]
            rids = btree.search(key)
            leaf = index_db.pool.read(leaf_id).payload
            assert leaf.image is not None
            blocks = {id(leaf.image.keys): "keys", id(leaf.image.rids): "rids"}
            decodes = [
                (method, blocks[id(block)], args)
                for method, block, args in calls
                if id(block) in blocks
            ]
            return rids, leaf.image, decodes

        u_id = index_db.catalog.table("u").indexes["u_id"].btree
        u_id._node_dec.clear()
        rids, image, decodes = leaf_decodes(u_id, (700,))
        (slot,) = [i for i in range(image.keys.n) if image.keys.row(i) == (700,)]
        assert rids == [image.rids.row(slot)]
        # Without decorated keys the probe decodes the keys, not the RIDs.
        assert decodes == [("rows", "keys", ()), ("row", "rids", (slot,))]
        rids, image, decodes = leaf_decodes(u_id, (701,))
        assert decodes == [("row", "rids", (slot + 1,))]
        assert leaf_decodes(u_id, (700.5,))[::2] == ([], [])

        m_k = index_db.catalog.table("m").indexes["m_k"].btree
        m_k.search((101,))  # the leaf's decorated keys
        rids, image, decodes = leaf_decodes(m_k, (101,))
        assert len(rids) == 3
        assert [(method, block) for method, block, _ in decodes] == [("row", "rids")] * 3
        assert sorted(rids) == sorted(image.rids.row(i) for (_, _, (i,)) in decodes)
        # A scan of more than one entry decodes the leaf whole, once.
        leaf_id = m_k._descend((101,))[0][-1]
        scanned = [key for batch in m_k.range_batches((101,), (103,), 8) for key, _ in batch]
        assert scanned == [(k,) for k in (101, 102, 103) for _ in range(3)]
        leaf = index_db.pool.read(leaf_id).payload
        assert leaf.image is None

    def test_a_probe_then_an_insert_decode_the_leaf_keys_once(
        self, index_db, monkeypatch
    ):
        """A probe decorates an undecoded leaf's keys and an insert into
        that leaf reuses them: the key block is decoded once, and the
        decoded leaf holds the very key tuples the ``_order`` memo
        keeps alive."""
        m_k = index_db.catalog.table("m").indexes["m_k"].btree
        path = m_k._descend((101,))[0]
        index_db.pool.flush()
        m_k._node_dec.clear()
        m_k._order_cache.clear()  # as a reopened index starts
        decoded = []
        rows = columncodec.Columns.rows

        def spy(block):
            decoded.append(block)
            return rows(block)

        monkeypatch.setattr(columncodec.Columns, "rows", spy)
        probe = (101,)
        assert len(m_k.search(probe)) == 3
        image = index_db.pool.read(path[-1]).payload.image
        assert image is not None
        index_db.execute("INSERT INTO m VALUES (?)", [101])
        leaf = index_db.pool.read(path[-1]).payload
        assert leaf.image is None
        assert [block for block in decoded if block is image.keys] == [image.keys]
        # Keys the memo met before the leaf's (the probe, the
        # separators on the way down) are held as those objects.
        met_before = {probe}
        for page_id in path[:-1]:
            met_before.update(index_db.pool.read(page_id).payload.separators)
        memo = {key: key for key in m_k._order_cache}
        fresh = [key for key in leaf.keys if key not in met_before]
        assert len(fresh) > 1
        assert all(memo[key] is key for key in fresh)
        assert index_db.execute("SELECT COUNT(*) FROM m WHERE k = 101").scalar() == 4

    @pytest.fixture
    def column_db(self, tmp_path):
        """A table of 200 rows, checkpointed, its pages out of the
        pool."""
        db = Database(path=str(tmp_path))
        db.execute("CREATE TABLE c (id INTEGER NOT NULL, v VARCHAR(10), d DATE)")
        db.execute("CREATE UNIQUE INDEX c_id ON c (id)")
        with db.atomic():
            for i in range(200):
                v = None if i % 7 == 0 else f"v{i}"
                d = datetime.date(2008, 1, 1 + i % 28)
                db.execute("INSERT INTO c VALUES (?, ?, ?)", [i, v, d])
        db.checkpoint()
        db.pool.flush()
        yield db
        db.close()

    def test_column_page_image_holds_no_pickle(self, column_db, monkeypatch):
        """The stored payload of a column page starts below a pickle's
        ``PROTO`` byte and holds no pickle; reading it unpickles
        nothing."""
        store = column_db.durability.store
        page_ids = column_db.catalog.table("c").heap.page_ids()
        assert page_ids

        def unpickled(*args, **kwargs):
            raise AssertionError("a column page was unpickled")

        monkeypatch.setattr(codec.pickle, "loads", unpickled)
        for page_id in page_ids:
            payload = stored_image(store, page_id)
            assert payload[0] < 0x80
            assert b"\x80\x04" not in payload  # pickle protocol 4's PROTO
            assert store.read(page_id).payload.live > 0

    def test_point_fetch_after_a_miss_leaves_the_page_undecoded(self, column_db):
        """An index probe that misses on the data page decodes the one
        row it fetches: no column list is built, and the row cache holds
        that slot alone."""
        table = column_db.catalog.table("c")
        physical = column_db.pool_stats.physical_data
        rows = column_db.execute("SELECT id, v, d FROM c WHERE id = ?", [150]).rows
        assert rows == [(150, "v150", datetime.date(2008, 1, 1 + 150 % 28))]
        assert column_db.pool_stats.physical_data == physical + 1
        (rid,) = table.indexes["c_id"].btree.search((150,))
        payload = column_db.pool.read(rid[0]).payload
        assert payload.columns is None and payload.nulls is None
        assert payload.image is not None
        assert set(payload.row_cache) == {rid[1]}
        # A scan needs the whole page: it decodes it once, and drops
        # the image.
        assert len(column_db.execute("SELECT id FROM c").rows) == 200
        assert payload.image is None and len(payload.columns) == 3


def pickled_frame(head: bytes, value) -> bytes:
    """A page frame whose payload, after ``head``, is a pickle."""
    return codec.frame_payload(head + pickle.dumps(value, protocol=4))


def previous_format_page_frame() -> bytes:
    """A frame as the page file held it before the format head: page id,
    segment id and LSN raw, then a pickled dict of the rest."""
    record = {"kind": "data", "size": 8192, "used": 18, "payload": [((1,), 10)]}
    return pickled_frame(struct.pack("<QIQ", 1, 1, 10), record)


def previous_format_wal() -> bytes:
    """A log as it began before the format head: a pickled header."""
    return codec.encode_frame({"t": "wal_header", "base_lsn": 0})


class TestFormatHead:
    """Both durable files start with magic + format version; a file
    without it, or at another version, is refused at open by name —
    before a query meets it at a page miss — and left as it was."""

    def test_page_file_of_the_previous_format_is_refused(self, tmp_path):
        pages = tmp_path / PAGES_DIRNAME
        pages.mkdir()
        (pages / PAGE_FILE).write_bytes(previous_format_page_frame())
        with pytest.raises(
            EngineError,
            match=r"data\.pages: found no format head, "
            r"expected RPPG format version 5",
        ):
            Database(path=str(tmp_path))
        assert (pages / PAGE_FILE).read_bytes() == previous_format_page_frame()
        assert os.listdir(pages) == [PAGE_FILE]

    def test_wal_of_the_previous_format_is_refused(self, tmp_path):
        db = Database(path=str(tmp_path))
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.close()
        log = tmp_path / WAL_FILENAME
        log.write_bytes(previous_format_wal())
        with pytest.raises(
            EngineError,
            match=r"wal\.log: found no format head, "
            r"expected RPWL format version 5",
        ):
            Database(path=str(tmp_path))
        assert log.read_bytes() == previous_format_wal()

    def test_wal_of_version_1_is_refused_naming_both_versions(self, tmp_path):
        """Version 1 pickled every record; its log is refused, not
        converted."""
        log = tmp_path / WAL_FILENAME
        version_1 = (
            codec.file_head(b"RPWL", 1)
            + struct.pack("<Q", 0)
            + codec.encode_frame({"t": "ddl", "op": "drop_table", "table": "t"})
            + codec.encode_frame({"t": "commit", "tx": 1})
        )
        log.write_bytes(version_1)
        with pytest.raises(
            EngineError,
            match=r"wal\.log: found format version 1, "
            r"expected RPWL format version 5",
        ):
            Database(path=str(tmp_path))
        assert log.read_bytes() == version_1

    def test_wal_of_version_2_is_refused_naming_both_versions(self, tmp_path):
        """Version 2 logged a DDL statement as per-operation fields, not
        as its SQL text; its log is refused, not converted."""
        log = tmp_path / WAL_FILENAME
        version_2 = (
            codec.file_head(b"RPWL", 2)
            + struct.pack("<Q", 0)
            + codec.encode_frame({"t": "ddl", "op": "drop_table", "table": "t"})
        )
        log.write_bytes(version_2)
        with pytest.raises(
            EngineError,
            match=r"wal\.log: found format version 2, "
            r"expected RPWL format version 5",
        ):
            Database(path=str(tmp_path))
        assert log.read_bytes() == version_2

    def test_wal_of_version_3_is_refused_naming_both_versions(self, tmp_path):
        """Version 3 named a row record's table and packed its integers
        to fixed widths; its log is refused, not converted."""
        log = tmp_path / WAL_FILENAME
        # An ``ins`` of (1,) into table "t" as version 3 wrote it: kind,
        # u32 tx, u16-prefixed name, (u32 page, u16 slot), u16 count.
        payload = bytearray(struct.pack("<BIH", 1, 1, 1) + b"t")
        payload += struct.pack("<IHH", 1, 0, 1)
        put_values(payload, [1])
        version_3 = (
            codec.file_head(b"RPWL", 3)
            + struct.pack("<Q", 0)
            + codec.frame_payload(payload)
            + codec.encode_log_frame({"t": "commit", "tx": 1})
        )
        log.write_bytes(version_3)
        with pytest.raises(
            EngineError,
            match=r"wal\.log: found format version 3, "
            r"expected RPWL format version 5",
        ):
            Database(path=str(tmp_path))
        assert log.read_bytes() == version_3

    def test_wal_of_version_4_is_refused_naming_both_versions(self, tmp_path):
        """Version 4 packed a value's integers, a string's length and a
        frame's length to fixed widths; its log is refused, not
        converted."""
        log = tmp_path / WAL_FILENAME
        # An ``ins`` of (1,) into segment 1 as version 4 wrote it: kind,
        # varint tx, segment, (page, slot) and count, an i64 behind its
        # tag, in a [len u32][crc u32] frame.
        payload = bytes((1, 1, 1, 1, 0, 1)) + struct.pack("<Bq", 3, 1)
        version_4 = (
            codec.file_head(b"RPWL", 4)
            + struct.pack("<Q", 0)
            + struct.pack("<II", len(payload), zlib.crc32(payload))
            + payload
        )
        log.write_bytes(version_4)
        with pytest.raises(
            EngineError,
            match=r"wal\.log: found format version 4, "
            r"expected RPWL format version 5",
        ):
            Database(path=str(tmp_path))
        assert log.read_bytes() == version_4

    def test_page_file_of_version_1_is_refused_naming_both_versions(
        self, tmp_path
    ):
        """Version 1 pickled column pages; its file is refused, not
        converted."""
        pages = tmp_path / PAGES_DIRNAME
        pages.mkdir()
        head = pagestore._HEAD.pack(1, 1, 10, 0, 8192, 18)
        version_1 = codec.file_head(b"RPPG", 1) + pickled_frame(head, ColumnPage(1))
        (pages / PAGE_FILE).write_bytes(version_1)
        with pytest.raises(
            EngineError,
            match=r"data\.pages: found format version 1, "
            r"expected RPPG format version 5",
        ):
            Database(path=str(tmp_path))
        assert (pages / PAGE_FILE).read_bytes() == version_1

    @pytest.mark.parametrize(
        "damage", ["truncated column", "offset past the end", "unknown tag"]
    )
    def test_a_malformed_column_image_is_refused_naming_the_page(
        self, store, monkeypatch, damage
    ):
        """A column-page frame whose checksum holds but whose image does
        not parse raises EngineError naming the page — not IndexError or
        struct.error, and never by way of the unpickler."""
        column_store = HeapFile(
            BufferPool(capacity_pages=4), 1, InsertStrategy.FIRST_FIT, ncols=2
        )
        for i in range(10):
            column_store.insert((i, f"v{i}"), width=10)
        (page_id,) = column_store.page_ids()
        image = bytearray(column_store._pool.read(page_id).payload.to_image())
        blob = "\0".join(f"v{i}" for i in range(10)).encode()
        assert image.endswith(blob)  # the text group ends the image
        if damage == "truncated column":
            del image[-3:]
        elif damage == "offset past the end":  # the text's last end offset
            struct.pack_into("<H", image, len(image) - len(blob) - 2, 0xFFF0)
        else:
            image[8] = 0x7F  # the first column's tag, after the widths' one
        head = pagestore._HEAD.pack(9, 1, 10, 0, 8192, 0)
        with open(store.path, "ab") as fh:
            fh.write(codec.frame_payload(head + bytes(image)))
        reopened = DiskPageStore(store.directory)

        def unpickled(*args, **kwargs):
            raise AssertionError("a column image fell through to pickle")

        monkeypatch.setattr(codec.pickle, "loads", unpickled)
        try:
            with pytest.raises(EngineError, match="page 9: .* does not decode"):
                reopened.read(9)
        finally:
            reopened.close()

    def test_page_file_of_version_2_is_refused_naming_both_versions(
        self, tmp_path
    ):
        """Version 2 pickled B-tree nodes; its file is refused, not
        converted."""
        pages = tmp_path / PAGES_DIRNAME
        pages.mkdir()
        head = pagestore._HEAD.pack(1, 1, 10, 1, 8192, 16)
        version_2 = codec.file_head(b"RPPG", 2) + pickled_frame(
            head, _Leaf([(1,)], [[(2, 0)]])
        )
        (pages / PAGE_FILE).write_bytes(version_2)
        with pytest.raises(
            EngineError,
            match=r"data\.pages: found format version 2, "
            r"expected RPPG format version 5",
        ):
            Database(path=str(tmp_path))
        assert (pages / PAGE_FILE).read_bytes() == version_2

    @pytest.mark.parametrize(
        "damage", ["truncated column", "RID offset past the end", "unknown tag"]
    )
    def test_a_malformed_node_image_is_refused_naming_the_page(
        self, store, monkeypatch, damage
    ):
        """A B-tree node frame whose checksum holds but whose image does
        not parse raises EngineError naming the page, never by way of
        the unpickler."""
        leaf = _Leaf(
            [(i, f"k{i}") for i in range(10)],
            [[(7, 2 * i), (7, 2 * i + 1)] if i % 2 else [(7, 2 * i)] for i in range(10)],
        )
        image = bytearray(leaf.to_image())
        assert _Leaf.from_image(bytes(image)) == leaf
        if damage == "truncated column":
            del image[-1:]  # the last RID's slot
        elif damage == "RID offset past the end":
            # The offsets follow the keys: a tag, then one byte each.
            offsets = _Leaf.from_image(bytes(image)).image.keys.end + 1
            assert image[offsets + 9] == 15
            image[offsets + 9] = 0x7F
        else:
            image[_LEAF_HEAD.size] = 0x7F  # the first key column's tag
        head = pagestore._HEAD.pack(9, 1, 10, 1, 8192, 0)
        with open(store.path, "ab") as fh:
            fh.write(codec.frame_payload(head + bytes(image)))
        reopened = DiskPageStore(store.directory)

        def unpickled(*args, **kwargs):
            raise AssertionError("a node image fell through to pickle")

        monkeypatch.setattr(codec.pickle, "loads", unpickled)
        try:
            with pytest.raises(EngineError, match="page 9: .* does not decode"):
                reopened.read(9)
        finally:
            reopened.close()

    def test_page_file_of_version_3_is_refused_naming_both_versions(
        self, tmp_path
    ):
        """Version 3 may hold pickled row-major heap pages; its file is
        refused, not converted."""
        pages = tmp_path / PAGES_DIRNAME
        pages.mkdir()
        head = pagestore._HEAD.pack(1, 1, 10, 0, 8192, 18)
        version_3 = codec.file_head(b"RPPG", 3) + pickled_frame(
            head, [((1, "a"), 10)]
        )
        (pages / PAGE_FILE).write_bytes(version_3)
        with pytest.raises(
            EngineError,
            match=r"data\.pages: found format version 3, "
            r"expected RPPG format version 5",
        ):
            Database(path=str(tmp_path))
        assert (pages / PAGE_FILE).read_bytes() == version_3

    def test_page_file_of_version_4_is_refused_naming_both_versions(
        self, tmp_path
    ):
        """Version 4 framed a page with a u32 length and packed its
        value-tag integers to fixed widths; its file is refused, not
        converted."""
        pages = tmp_path / PAGES_DIRNAME
        pages.mkdir()
        head = pagestore._HEAD.pack(1, 1, 10, 0, 8192, 18)
        payload = head + make_page(1, 1, ["a"]).payload.to_image()
        version_4 = (
            codec.file_head(b"RPPG", 4)
            + struct.pack("<II", len(payload), zlib.crc32(payload))
            + payload
        )
        (pages / PAGE_FILE).write_bytes(version_4)
        with pytest.raises(
            EngineError,
            match=r"data\.pages: found format version 4, "
            r"expected RPPG format version 5",
        ):
            Database(path=str(tmp_path))
        assert (pages / PAGE_FILE).read_bytes() == version_4

    def test_a_heap_page_that_does_not_unpickle_is_refused_naming_the_page(
        self, store
    ):
        """A pickle where a page image belongs — a stray heap page that
        would not even unpickle — is refused like an image that does not
        parse: EngineError naming the page."""
        head = pagestore._HEAD.pack(9, 1, 10, 0, 8192, 0)
        with open(store.path, "ab") as fh:
            fh.write(codec.frame_payload(head + b"\x80\x05garbage"))
        reopened = DiskPageStore(store.directory)
        try:
            with pytest.raises(
                EngineError, match="page 9: .* does not decode .*kind 0x80"
            ):
                reopened.read(9)
        finally:
            reopened.close()

    def test_a_pickle_in_a_page_frame_is_refused_and_never_executed(
        self, store, tmp_path
    ):
        """An intact frame whose payload is a pickle that would call
        ``os.system`` is refused as undecodable: the call never runs."""
        marker = tmp_path / "executed"

        class Exploit:
            def __reduce__(self):
                return (os.system, (f"touch {marker}",))

        head = pagestore._HEAD.pack(9, 1, 10, 0, 8192, 0)
        frame = pickled_frame(head, Exploit())
        assert b"system" in frame and codec.frame_intact(frame)
        with open(store.path, "ab") as fh:
            fh.write(frame)
        reopened = DiskPageStore(store.directory)
        try:
            assert reopened.page_ids() == {9}
            with pytest.raises(EngineError, match="page 9: .* does not decode"):
                reopened.read(9)
        finally:
            reopened.close()
        assert not marker.exists()

    @pytest.mark.parametrize("which", ["pages", "wal"])
    def test_another_version_is_refused_naming_both_versions(
        self, tmp_path, which
    ):
        db = Database(path=str(tmp_path))
        db.execute("CREATE TABLE t (id INTEGER)")
        db.close()
        if which == "pages":
            target, head = tmp_path / PAGES_DIRNAME / PAGE_FILE, HEAD
        else:
            target, head = tmp_path / WAL_FILENAME, wal.HEAD
        data = target.read_bytes()
        (version,) = struct.unpack_from("<I", head, 4)
        other = head[:4] + struct.pack("<I", version + 1) + data[len(head) :]
        target.write_bytes(other)
        with pytest.raises(
            EngineError,
            match=rf"found format version {version + 1}, "
            rf"expected .* version {version}",
        ):
            Database(path=str(tmp_path))
        assert target.read_bytes() == other

    def test_a_head_a_crash_cut_short_opens_as_a_new_file(self, tmp_path):
        """Creation writes the head first; a crash inside it leaves a
        prefix of the head and nothing else to lose."""
        pages = tmp_path / PAGES_DIRNAME
        pages.mkdir()
        (pages / PAGE_FILE).write_bytes(HEAD[:3])
        (tmp_path / WAL_FILENAME).write_bytes(wal.HEAD[:5])
        db = Database(path=str(tmp_path))
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (7)")
        db.close()
        reopened = Database(path=str(tmp_path))
        try:
            assert reopened.execute("SELECT id FROM t").rows == [(7,)]
            assert (pages / PAGE_FILE).read_bytes().startswith(HEAD)
        finally:
            reopened.close()
