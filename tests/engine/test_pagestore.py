"""Tests for the log-structured page store: one file per database, one
fsync per sync, compaction once dead bytes exceed live bytes, LSN
truncation as a cut, what a crash or a flipped byte may and may not do
to it, what a page miss costs to decode, and what an open does with a
file another format wrote."""

import os
import pickletools
import resource
import struct
import tracemalloc
from collections import Counter

import pytest

from repro.engine.database import Database
from repro.engine.durability import DurabilityOptions, codec, pagestore, wal
from repro.engine.durability.faults import FaultInjector, SimulatedCrash
from repro.engine.durability.manager import PAGES_DIRNAME, WAL_FILENAME
from repro.engine.durability.pagestore import HEAD, PAGE_FILE, DiskPageStore
from repro.engine.errors import EngineError
from repro.engine.pager import Page, PageKind


def make_page(page_id: int, segment_id: int, payload, used: int = 0) -> Page:
    return Page(page_id, segment_id, PageKind.DATA, 8192, used, payload)


def appended_frame(store: DiskPageStore, page_id: int) -> bytes:
    """The bytes the last ``write`` of ``page_id`` appended."""
    offset, length, _, _ = store._index[page_id]
    with open(store.path, "rb") as fh:
        fh.seek(offset)
        return fh.read(length)


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
        assert (page.payload, page.used, page.lsn) == (["row-4-v6"], 40, 110)
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
        assert store.read(4).payload == ["row-4-v6"]
        assert live[5] not in file_bytes(store)

    def test_flipped_byte_in_a_dead_version_is_dropped_silently(self, store):
        fill(store)
        offset, _, _, _ = store._index[5]
        with open(store.path, "r+b") as fh:
            fh.seek(offset - 1)  # page 4's first, superseded version
            fh.write(b"\xff")
        store.compact()
        assert store.read(4).payload == ["row-4-v6"]
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
            assert reopened.read(4).payload == ["row-4-v6"]
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
            assert reopened.read(6).payload == ["whole"]
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
        assert store.read(4).payload == ["row-4-v2"]
        assert store.read(4).lsn == 70
        assert store.page_ids() == {1, 2, 3, 4, 5}
        offset, length, _, _ = store._index[4]
        assert os.path.getsize(store.path) == offset + length == store._size

    def test_truncate_drops_pages_born_after_the_cutoff(self, store):
        fill(store)
        store.truncate_to(45)
        assert store.page_ids() == {1, 2, 3, 4}
        assert store.read(4).payload == ["row-4"]
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
            with pytest.raises(AssertionError, match="unpickled"):
                reopened.read(4)
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
            assert resurrected.read(4).payload == ["row-4-v6"]
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
        assert store.read(3).payload == ["row-3"]


#: Opcodes that make the unpickler look up a global or call Python: a
#: stored page that needs one per entry costs a Python call per entry on
#: every page miss.
PYTHON_LEVEL_OPS = (
    "GLOBAL", "STACK_GLOBAL", "REDUCE", "NEWOBJ", "NEWOBJ_EX", "BUILD",
    "INST", "OBJ",
)


def payload_ops(store: DiskPageStore, page_id: int) -> dict[str, int]:
    """The Python-level opcodes in the stored pickle of ``page_id``."""
    frame = appended_frame(store, page_id)
    start = codec.HEADER_SIZE + pagestore._HEAD.size
    ops = Counter(op.name for op, _, _ in pickletools.genops(frame[start:]))
    return {name: ops[name] for name in PYTHON_LEVEL_OPS if ops[name]}


class TestDecodeCost:
    """A page miss unpickles its payload in C: the Python-level steps of
    a stored page do not grow with the entries it holds.  (With a RID
    object per entry, a 300-entry leaf made 300 ``REDUCE`` calls.)"""

    @pytest.fixture(scope="class")
    def stored_pages(self, tmp_path_factory) -> dict[int, dict[str, dict]]:
        """entries -> page shape -> Python-level opcodes of its page."""
        out = {}
        for entries in (30, 300):
            db = Database(path=str(tmp_path_factory.mktemp(f"db{entries}")))
            db.execute("CREATE TABLE u (id INTEGER NOT NULL, v VARCHAR(10))")
            db.execute("CREATE UNIQUE INDEX u_id ON u (id)")
            db.execute("CREATE TABLE m (k INTEGER NOT NULL)")
            db.execute("CREATE INDEX m_k ON m (k)")
            db.execute(
                "CREATE TABLE c (id INTEGER, v VARCHAR(10)) USING columnar"
            )
            with db.atomic():
                for i in range(entries):
                    db.execute("INSERT INTO u VALUES (?, ?)", [i, f"v{i}"])
                    db.execute("INSERT INTO m VALUES (?)", [i // 3])
                    db.execute("INSERT INTO c VALUES (?, ?)", [i, f"v{i}"])
            db.checkpoint()
            store = db.durability.store
            pages = {
                "unique leaf": db.catalog.table("u").indexes["u_id"].btree,
                "3 RIDs per key": db.catalog.table("m").indexes["m_k"].btree,
            }
            shapes = {}
            for shape, btree in pages.items():
                assert btree.height == 1 and btree.entry_count == entries
                shapes[shape] = payload_ops(store, btree.root_id)
            (column_page,) = db.catalog.table("c").heap.page_ids()
            shapes["column page"] = payload_ops(store, column_page)
            (heap_page,) = db.catalog.table("u").heap.page_ids()
            shapes["heap page"] = payload_ops(store, heap_page)
            out[entries] = shapes
            db.close()
        return out

    @pytest.mark.parametrize(
        "shape", ["unique leaf", "3 RIDs per key", "column page", "heap page"]
    )
    def test_python_level_ops_do_not_grow_with_entries(
        self, stored_pages, shape
    ):
        assert stored_pages[300][shape] == stored_pages[30][shape]
        assert sum(stored_pages[300][shape].values()) <= 3


def previous_format_page_frame() -> bytes:
    """A frame as the page file held it before the format head: page id,
    segment id and LSN raw, then a pickled dict of the rest."""
    record = {"kind": "data", "size": 8192, "used": 18, "payload": [((1,), 10)]}
    return codec.encode_frame(record, struct.pack("<QIQ", 1, 1, 10))


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
            r"expected RPPG format version 1",
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
            r"expected RPWL format version 1",
        ):
            Database(path=str(tmp_path))
        assert log.read_bytes() == previous_format_wal()

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
        newer = head[:4] + struct.pack("<I", 2) + data[len(head) :]
        target.write_bytes(newer)
        with pytest.raises(
            EngineError, match=r"found format version 2, expected .* version 1"
        ):
            Database(path=str(tmp_path))
        assert target.read_bytes() == newer

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
