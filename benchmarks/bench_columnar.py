"""Columnar storage — wall clock of the one page format, and what a
page miss decodes.

Not a paper figure.  Every table stores column pages, and a scan copies
only the columns its query names.  Two grouping queries are gated, in
loop-normalised time (the best round divided by the best of a
pure-Python loop, ``benchmarks.e2e.clock.loop_seconds``, timed before
every round, so the bound survives the machine's changes of speed),
against what the row-major heap page — deleted since — took on the
same query:

* **chunk width 6, grouping** — a scan of a shared chunk table under
  selective meta predicates feeding GROUP BY: at most the heap's time
  divided by 1.1 (column pages were measured ~1.4-2.4x faster than the
  heap; the old gate was >= 1.1x);
* **conventional, grouping** — the same query over the 92-column
  private table, three rows a page: at most 1.25x the heap's time (the
  heap was ~8x faster while the planner pruned nothing under an
  ``ORDER BY`` alias and the scan copied every column of every page).

Both are deterministic underneath: each gated scan materialises
exactly the columns its query names, the two layouts return the same
rows, and the warm logical reads of the Figure 9 query are pinned.  The
Figure 9 warm harness (Q2 at scale 30 swept over parent ids) is
probe-bound and reported un-gated.

**Page miss** — per column page of a disk-backed chunk-folding load:
a read (``pread``, checksum, the image's shape), a read plus one row, a
read plus the whole page, an encode, and the image's bytes next to the
pickle of the same page.  The gated load is the CRM schema (Figure 5)
on chunk folding, the pages ``point_read_cold`` misses on (about 40
rows each); two orderings are gated there: a read for one row costs at
most half a read of the whole page, and the image is no larger than
the pickle.  The same numbers for the 90-column Experiment 2 load
above, whose wide rows leave three to a page (a row is then a third of
the page, so a one-row read saves less), and decoding a whole image
against unpickling the page and encoding against pickling it (aims:
within 1.25x and 1.5x), are reported only.

Timing rounds are *interleaved* across the thunks they compare so
machine noise hits each equally, and each reports its best round.

Results land in ``benchmarks/results/BENCH_columnar.json``; CI uploads
all ``BENCH_*.json`` files as artifacts, so the perf trajectory is
recorded run over run.
"""

import dataclasses
import json
import pathlib
import pickle
import tempfile
import time

import pytest

from benchmarks.e2e.clock import loop_seconds
from repro.core.api import MultiTenantDatabase
from repro.engine.btree import _Leaf, node_from_image
from repro.engine.columnstore import ColumnPage
from repro.engine.database import Database
from repro.engine.durability import DurabilityOptions
from repro.engine.heap import HeapFile
from repro.engine.sql.lexer import TokenKind, tokenize
from repro.experiments.chunkqueries import (
    ChunkQueryConfig,
    ChunkQueryExperiment,
    TENANT,
    q2_sql,
)
from repro.testbed.crm import CRM_PARENTS, crm_extensions, crm_tables
from repro.testbed.generator import DataGenerator

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_columnar.json"
)

#: Paper-faithful child cardinality (Experiment 2 loads 100 children
#: per parent); the per-query probe work then dominates fixed per-query
#: cost, which is what the Fig 9 gate measures.
CONFIG = ChunkQueryConfig(parents=30, children_per_parent=100)

#: Q2 scale factor for the warm harness (middle of the paper's sweep,
#: same as bench_vectorized).
Q2_SCALE = 30
#: Parent ids swept per harness pass.
Q2_PARENTS = 20

WARMUP = 2
ROUNDS = 5
#: The gated grouping query is short (milliseconds): more rounds, so its
#: best round and the best loop are stable.
GROUPING_WARMUP = 3
GROUPING_ROUNDS = 30

#: Same grouping query as bench_vectorized: GROUP BY the foreign key
#: with COUNT plus MAX aggregates over two data columns, so the
#: scan/accumulation loop is the measured cost.
GROUPING_SQL = (
    "SELECT c.parent, COUNT(*) AS n, MAX(c.col1) AS m1, MAX(c.col4) AS m4 "
    "FROM child c GROUP BY c.parent ORDER BY n DESC"
)

#: The gated layouts: label -> (layout, options).
LAYOUTS = {"chunk6": ("chunk", {"width": 6}), "conventional": ("private", {})}

#: The row-major heap's grouping time, in loops (the best round over
#: the best loop, by :func:`measure_layouts`'s procedure), measured on
#: the last engine that stored heap pages: the median of seven runs,
#: interleaved with runs of this engine, on a 2-vCPU container under
#: Python 3.11.
HEAP_GROUPING_LOOPS = {"chunk6": 16.703, "conventional": 1.998}
#: The gates: chunk width 6 at least 1.1x faster than the heap was, the
#: conventional table within 1.25x of it.
GROUPING_BOUND_LOOPS = {
    "chunk6": HEAP_GROUPING_LOOPS["chunk6"] / 1.1,
    "conventional": HEAP_GROUPING_LOOPS["conventional"] * 1.25,
}

#: Warm logical page reads of one Q2 execution at ``Q2_SCALE`` for
#: parent 3, as the last engine with heap pages counted them on either
#: format: the page format decides speed, never which pages are read.
Q2_LOGICAL_READS = {"chunk6": 1519, "conventional": 104}


def measure_layouts() -> dict:
    """Both gated layouts: the grouping query's best seconds and that
    over the best loop timed before its rounds, rounds interleaved
    across the layouts, and the Figure 9 harness's best seconds."""
    experiments = {}
    for label, (layout, options) in LAYOUTS.items():
        exp = ChunkQueryExperiment(layout, CONFIG, **options)
        exp.load()
        experiments[label] = exp
    result: dict = {
        label: {
            "grouping_s": float("inf"),
            "loop_s": float("inf"),
            "bound_loops": GROUPING_BOUND_LOOPS[label],
            "_experiment": exp,
        }
        for label, exp in experiments.items()
    }
    groupings = {
        label: (exp.mtd.db, exp.mtd.transform_sql(TENANT, GROUPING_SQL))
        for label, exp in experiments.items()
    }
    for round_no in range(GROUPING_WARMUP + GROUPING_ROUNDS):
        for label, (db, sql) in groupings.items():
            loop_s = loop_seconds()
            start = time.perf_counter()
            db.execute(sql)
            grouping_s = time.perf_counter() - start
            if round_no >= GROUPING_WARMUP:
                best = result[label]
                best["grouping_s"] = min(best["grouping_s"], grouping_s)
                best["loop_s"] = min(best["loop_s"], loop_s)
    for best in result.values():
        best["grouping_loops"] = best["grouping_s"] / best["loop_s"]

    def fig9(exp: ChunkQueryExperiment):
        db = exp.mtd.db
        q2 = exp.mtd.transform_sql(TENANT, q2_sql(Q2_SCALE))
        return lambda: [db.execute(q2, [p]) for p in range(1, Q2_PARENTS + 1)]

    best = best_rounds({label: fig9(exp) for label, exp in experiments.items()})
    for label, seconds in best.items():
        result[label]["fig9_s"] = seconds
    return result


#: The CRM load: tenants, and rows per table and tenant.
CRM_TENANTS = 6
CRM_ROWS = 50


def load_crm(path: str) -> Database:
    """The CRM schema and its healthcare extension on chunk folding,
    rows from the testbed's generator."""
    db = Database(path=path, durability=DurabilityOptions(group_commit=64))
    mtd = MultiTenantDatabase(layout="chunk_folding", db=db)
    tables = crm_tables()
    for table in tables:
        mtd.define_table(table)
    for extension in crm_extensions():
        mtd.define_extension(extension)
    generator = DataGenerator(2008)
    for tenant in range(1, CRM_TENANTS + 1):
        mtd.create_tenant(tenant, ("healthcare",) if tenant % 2 else ())
        for table in tables:
            view = mtd.schema.logical_table(tenant, table.name)
            parents = CRM_ROWS if table.name in CRM_PARENTS else None
            for number in range(CRM_ROWS):
                values = generator.row(tenant, view, number, parents)
                mtd.insert(tenant, table.name, values)
    return db


def load_wide(path: str) -> Database:
    exp = ChunkQueryExperiment(
        "chunk_folding", dataclasses.replace(CONFIG, db_path=path)
    )
    exp.load()
    return exp.mtd.db


def best_rounds(timed: dict) -> dict[str, float]:
    """Each thunk's best time, rounds interleaved across them."""
    best = dict.fromkeys(timed, float("inf"))
    for round_no in range(WARMUP + ROUNDS):
        for name, run in timed.items():
            start = time.perf_counter()
            run()
            if round_no >= WARMUP:
                best[name] = min(best[name], time.perf_counter() - start)
    return best


def measure_page_miss(load) -> dict:
    """Per column page of what ``load`` stores, best of interleaved
    rounds."""
    with tempfile.TemporaryDirectory() as path:
        db = load(path)
        db.checkpoint()
        store = db.durability.store
        page_ids = [
            page_id
            for table in db.catalog.tables()
            for page_id in table.heap.page_ids()
        ]
        pages = [store.read(page_id).payload for page_id in page_ids]
        slots = [  # each page's first live slot
            next(s for s, width in enumerate(page.widths) if width is not None)
            for page in pages
        ]
        images = [page.to_image() for page in pages]
        for page in pages:
            page.decode()
        pickles = [pickle.dumps(page, protocol=4) for page in pages]

        def read():
            for page_id in page_ids:
                store.read(page_id)

        def read_row():
            for page_id, slot in zip(page_ids, slots):
                store.read(page_id).payload.decode_slot(slot)

        def read_page():
            for page_id in page_ids:
                store.read(page_id).payload.decode()

        def encode():
            for page in pages:
                page.to_image()

        def dumps():
            for page in pages:
                pickle.dumps(page, protocol=4)

        def decode():
            for image in images:
                ColumnPage.from_image(image).decode()

        def unpickle():
            for data in pickles:
                pickle.loads(data)

        best = best_rounds(
            {
                "read": read,
                "read_row": read_row,
                "read_page": read_page,
                "encode": encode,
                "pickle_dumps": dumps,
                "decode": decode,
                "unpickle": unpickle,
            }
        )
        db.close()
    result = {f"{name}_us": best[name] / len(page_ids) * 1e6 for name in best}
    result.update(
        pages=len(page_ids),
        rows=sum(page.live for page in pages),
        image_bytes=sum(map(len, images)),
        pickle_bytes=sum(map(len, pickles)),
        decode_over_unpickle=best["decode"] / best["unpickle"],
        encode_over_pickle_dumps=best["encode"] / best["pickle_dumps"],
    )
    return result


def measure_index_miss(load) -> dict:
    """Per leaf of the ``(tenant, id)`` indexes ``load`` stores, best of
    interleaved rounds.  A probe after a miss finds the leaf's decorated
    keys resident and decodes the entry it bisected to."""
    with tempfile.TemporaryDirectory() as path:
        db = load(path)
        db.checkpoint()
        store = db.durability.store
        page_ids = [
            page_id
            for table in db.catalog.tables()
            for index in table.indexes.values()
            if index.column_names == ("tenant", "id")
            for page_id in sorted(store.pages_in_segment(index.btree.segment_id))
            if type(store.read(page_id).payload) is _Leaf
        ]
        leaves = [store.read(page_id).payload for page_id in page_ids]
        for leaf in leaves:
            leaf.decode()
        middles = [len(leaf.keys) // 2 for leaf in leaves]
        images = [leaf.to_image() for leaf in leaves]
        pickles = [pickle.dumps(leaf, protocol=4) for leaf in leaves]

        def read():
            for page_id in page_ids:
                store.read(page_id)

        def read_probe():  # what a one-entry prefix scan decodes
            for page_id, i in zip(page_ids, middles):
                image = store.read(page_id).payload.image
                image.keys.row(i)
                image.rid_list(i)

        def read_node():
            for page_id in page_ids:
                store.read(page_id).payload.decode()

        def encode():
            for leaf in leaves:
                leaf.to_image()

        def dumps():
            for leaf in leaves:
                pickle.dumps(leaf, protocol=4)

        def decode():
            for image in images:
                node_from_image(image).decode()

        def unpickle():
            for data in pickles:
                pickle.loads(data)

        best = best_rounds(
            {
                "read": read,
                "read_probe": read_probe,
                "read_node": read_node,
                "encode": encode,
                "pickle_dumps": dumps,
                "decode": decode,
                "unpickle": unpickle,
            }
        )
        db.close()
    result = {f"{name}_us": best[name] / len(page_ids) * 1e6 for name in best}
    result.update(
        leaves=len(page_ids),
        entries=sum(len(leaf.keys) for leaf in leaves),
        image_bytes=sum(map(len, images)),
        pickle_bytes=sum(map(len, pickles)),
        decode_over_unpickle=best["decode"] / best["unpickle"],
        encode_over_pickle_dumps=best["encode"] / best["pickle_dumps"],
    )
    return result


@pytest.fixture(scope="module")
def measurements():
    results = {
        "config": {
            "parents": CONFIG.parents,
            "children_per_parent": CONFIG.children_per_parent,
            "q2_scale": Q2_SCALE,
            "q2_parents_swept": Q2_PARENTS,
            "rounds": ROUNDS,
            "grouping_rounds": GROUPING_ROUNDS,
        },
        **measure_layouts(),
        "page_miss": measure_page_miss(load_crm),
        "page_miss_wide": measure_page_miss(load_wide),
        "page_miss_index": measure_index_miss(load_crm),
    }
    recorded = {
        label: {
            key: value
            for key, value in section.items()
            if not key.startswith("_")
        }
        if isinstance(section, dict)
        else section
        for label, section in results.items()
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(recorded, indent=2) + "\n")
    return results


def scanned_columns(exp: ChunkQueryExperiment, sql: str, monkeypatch):
    """``(columns the scans were asked for, the columns their batches
    hold, the columns the statement names)`` — each a set of positions
    — for every batch scan ``sql`` starts."""
    calls = []
    original = HeapFile.scan_batches

    def watched(self, batch_rows, columns=None):
        batches = list(original(self, batch_rows, columns))
        calls.append((self, columns, batches))
        return iter(batches)

    with monkeypatch.context() as patch:
        patch.setattr(HeapFile, "scan_batches", watched)
        exp.mtd.db.execute(sql)
    tables = {t.heap.segment_id: t for t in exp.mtd.db.catalog.tables()}
    named = {
        token.text.lower() for token in tokenize(sql) if token.kind is TokenKind.IDENT
    }
    out = []
    for heap, columns, batches in calls:
        table = tables[heap.segment_id]
        held = {
            i for batch in batches for i, col in enumerate(batch._base) if col is not None
        }
        names = {i for i, c in enumerate(table.columns) if c.lname in named}
        out.append((set(columns or ()), held, names))
    return out


class TestColumnarSpeedup:
    def test_report(self, benchmark, measurements, report):
        benchmark.pedantic(lambda: None, rounds=1)
        lines = [
            "Column pages, wall clock (grouping best of "
            f"{GROUPING_ROUNDS}, fig9 best of {ROUNDS}, interleaved), "
            f"{CONFIG.parents}x{CONFIG.children_per_parent}",
            f"{'layout':>14} {'grouping ms':>12} {'loops':>7} "
            f"{'bound':>7} {'fig9 ms':>9}",
        ]
        for label in LAYOUTS:
            cell = measurements[label]
            lines.append(
                f"{label:>14} {cell['grouping_s'] * 1000:>12.2f} "
                f"{cell['grouping_loops']:>7.2f} "
                f"{GROUPING_BOUND_LOOPS[label]:>7.2f} "
                f"{cell['fig9_s'] * 1000:>9.2f}"
            )
        for label, load in (("page_miss", "CRM"), ("page_miss_wide", "90-column")):
            miss = measurements[label]
            lines += [
                f"page miss, {load} load on chunk folding, per column page "
                f"({miss['pages']} pages, {miss['rows']} rows):",
                f"  read {miss['read_us']:.1f} us, read + one row "
                f"{miss['read_row_us']:.1f} us, read + whole page "
                f"{miss['read_page_us']:.1f} us",
                f"  decode {miss['decode_us']:.1f} us vs unpickle "
                f"{miss['unpickle_us']:.1f} us "
                f"({miss['decode_over_unpickle']:.2f}x); encode "
                f"{miss['encode_us']:.1f} us vs pickle "
                f"{miss['pickle_dumps_us']:.1f} us "
                f"({miss['encode_over_pickle_dumps']:.2f}x)",
                f"  image {miss['image_bytes']} B vs pickle "
                f"{miss['pickle_bytes']} B",
            ]
        miss = measurements["page_miss_index"]
        lines += [
            "page miss, CRM load on chunk folding, per (tenant, id) B-tree "
            f"leaf ({miss['leaves']} leaves, {miss['entries']} entries):",
            f"  read {miss['read_us']:.1f} us, read + one probe "
            f"{miss['read_probe_us']:.1f} us, read + whole node "
            f"{miss['read_node_us']:.1f} us",
            f"  decode {miss['decode_us']:.1f} us vs unpickle "
            f"{miss['unpickle_us']:.1f} us "
            f"({miss['decode_over_unpickle']:.2f}x); encode "
            f"{miss['encode_us']:.1f} us vs pickle "
            f"{miss['pickle_dumps_us']:.1f} us "
            f"({miss['encode_over_pickle_dumps']:.2f}x)",
            f"  image {miss['image_bytes']} B vs pickle "
            f"{miss['pickle_bytes']} B",
        ]
        report("BENCH_columnar", "\n".join(lines))

    def test_chunk6_grouping_beats_the_heap(self, measurements):
        """Shared chunk table, selective meta predicates: at least 1.1x
        faster than the row-major heap was."""
        loops = measurements["chunk6"]["grouping_loops"]
        assert loops <= GROUPING_BOUND_LOOPS["chunk6"]

    def test_conventional_grouping_within_the_heap(self, measurements):
        """Wide private table, three rows a page: within 1.25x of the
        row-major heap."""
        loops = measurements["conventional"]["grouping_loops"]
        assert loops <= GROUPING_BOUND_LOOPS["conventional"]

    def test_gated_scans_materialise_exactly_the_columns_they_name(
        self, measurements, monkeypatch
    ):
        """The conventional query scans its table once, copying the
        three columns it names; chunk width 6 reads its two chunks
        through their meta indexes and scans nothing."""
        counts = {}
        for label in LAYOUTS:
            exp = measurements[label]["_experiment"]
            sql = exp.mtd.transform_sql(TENANT, GROUPING_SQL)
            scans = scanned_columns(exp, sql, monkeypatch)
            for asked, held, named in scans:
                assert asked == held == named, (label, sql)
            counts[label] = [len(asked) for asked, _, _ in scans]
        assert counts == {"chunk6": [], "conventional": [3]}

    def test_a_miss_for_one_row_reads_at_most_half_the_page(self, measurements):
        """A point fetch after a miss decodes its own row, not the page."""
        miss = measurements["page_miss"]
        assert miss["read_row_us"] <= 0.5 * miss["read_page_us"]

    def test_image_is_no_larger_than_the_pickle(self, measurements):
        miss = measurements["page_miss"]
        assert miss["image_bytes"] <= miss["pickle_bytes"]

    def test_a_leaf_miss_for_one_probe_reads_at_most_half_the_node(
        self, measurements
    ):
        """A probe after a leaf miss decodes its own entry, not the
        node."""
        miss = measurements["page_miss_index"]
        assert miss["read_probe_us"] <= 0.5 * miss["read_node_us"]

    def test_leaf_image_is_no_larger_than_the_pickle(self, measurements):
        miss = measurements["page_miss_index"]
        assert miss["image_bytes"] <= miss["pickle_bytes"]

    def test_rows_equal_across_layouts(self, measurements):
        """Chunk width 6 and the private layout store the same logical
        rows: both gated queries answer alike."""
        answers = []
        for label in LAYOUTS:
            exp = measurements[label]["_experiment"]
            db = exp.mtd.db
            grouping_sql = exp.mtd.transform_sql(TENANT, GROUPING_SQL)
            q2 = exp.mtd.transform_sql(TENANT, q2_sql(Q2_SCALE))
            answers.append(
                (sorted(db.execute(grouping_sql).rows), sorted(db.execute(q2, [3]).rows))
            )
        assert answers[0] == answers[1]
        assert len(answers[0][0]) == CONFIG.parents

    @pytest.mark.parametrize("label", list(LAYOUTS))
    def test_warm_logical_reads_are_pinned(self, measurements, label):
        """The page format changes how fast pages are processed, never
        which pages are touched."""
        exp = measurements[label]["_experiment"]
        db = exp.mtd.db
        q2 = exp.mtd.transform_sql(TENANT, q2_sql(Q2_SCALE))
        db.execute(q2, [3])  # warm every page the trace will touch
        trace = db.trace(q2, [3], analyze=False)
        assert trace.logical_reads == Q2_LOGICAL_READS[label]

    def test_json_artifact(self, measurements):
        recorded = json.loads(RESULTS_PATH.read_text())
        for label in LAYOUTS:
            assert recorded[label]["grouping_loops"] > 0
            assert recorded[label]["fig9_s"] > 0
            assert "_experiment" not in recorded[label]
