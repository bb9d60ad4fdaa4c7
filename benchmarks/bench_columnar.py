"""Columnar storage — wall-clock, column pages vs row-major heap.

Not a paper figure: this benchmark isolates what the
:class:`ColumnStore` changes under the database's one executor — the
same queries over two identically loaded databases that differ in
storage format only.  Neither format wins everywhere, which is why both
stay and the layout picks (``docs/columnar_storage.md``); the gates pin
the two orderings that decision rests on, each with a wide margin:

* **chunk width 6, grouping** — a scan of a shared chunk table under
  selective meta predicates feeding GROUP BY: late-materializing column
  scans must beat the heap (measured ~1.4x, gate >= 1.1x);
* **conventional, grouping** — the same query over the wide private
  table, where column pages pay for assembling full-width rows: the
  heap must beat them (measured ~8x, gate >= 2x).

The Figure 9 warm harness (Q2 at scale 30 swept over parent ids) is
probe-bound and reported un-gated: the formats are within this
container's noise of each other on it.

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

Timing rounds are *interleaved* across the two formats so machine noise
hits both equally, and each reports its best round.  A parity test
asserts rows and warm logical reads are identical across formats — the
columnar format changes how fast pages are processed, never which pages
are touched or what comes back.

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

from repro.core.api import MultiTenantDatabase
from repro.engine.btree import _Leaf, node_from_image
from repro.engine.columnstore import ColumnPage
from repro.engine.database import Database
from repro.engine.durability import DurabilityOptions
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

#: Same grouping query as bench_vectorized: GROUP BY the foreign key
#: with COUNT plus MAX aggregates over two data columns, so the
#: scan/accumulation loop is the measured cost.
GROUPING_SQL = (
    "SELECT c.parent, COUNT(*) AS n, MAX(c.col1) AS m1, MAX(c.col4) AS m4 "
    "FROM child c GROUP BY c.parent ORDER BY n DESC"
)

STORAGES = ("heap", "columnar")


def _runners(exp: ChunkQueryExperiment):
    """(grouping, fig9) timing thunks for one storage format."""
    db = exp.mtd.db
    grouping_sql = exp.mtd.transform_sql(TENANT, GROUPING_SQL)
    q2 = exp.mtd.transform_sql(TENANT, q2_sql(Q2_SCALE))

    def run_grouping() -> float:
        start = time.perf_counter()
        db.execute(grouping_sql)
        return time.perf_counter() - start

    def run_fig9() -> float:
        start = time.perf_counter()
        for parent_id in range(1, Q2_PARENTS + 1):
            db.execute(q2, [parent_id])
        return time.perf_counter() - start

    return run_grouping, run_fig9


def measure_layout(layout: str, **options) -> dict:
    """Both storage formats, interleaved best-of timing."""
    experiments = {}
    for storage in STORAGES:
        exp = ChunkQueryExperiment(layout, CONFIG, storage=storage, **options)
        exp.load()
        experiments[storage] = exp
    runners = {storage: _runners(experiments[storage]) for storage in STORAGES}
    result: dict = {
        storage: {"grouping_s": float("inf"), "fig9_s": float("inf")}
        for storage in STORAGES
    }
    for round_no in range(WARMUP + ROUNDS):
        for storage, (run_grouping, run_fig9) in runners.items():
            grouping_s = run_grouping()
            fig9_s = run_fig9()
            if round_no >= WARMUP:
                best = result[storage]
                best["grouping_s"] = min(best["grouping_s"], grouping_s)
                best["fig9_s"] = min(best["fig9_s"], fig9_s)
    for workload in ("grouping", "fig9"):
        result[f"speedup_{workload}"] = (
            result["heap"][f"{workload}_s"]
            / result["columnar"][f"{workload}_s"]
        )
    result["_experiments"] = experiments
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
            if table.heap.storage_kind == "columnar"
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
        },
        "chunk6": measure_layout("chunk", width=6),
        "conventional": measure_layout("private"),
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


class TestColumnarSpeedup:
    def test_report(self, benchmark, measurements, report):
        benchmark.pedantic(lambda: None, rounds=1)
        lines = [
            "Columnar vs row-major storage, wall clock (best of "
            f"{ROUNDS} interleaved), "
            f"{CONFIG.parents}x{CONFIG.children_per_parent}",
            f"{'layout':>14} {'storage':>9} {'grouping ms':>12} {'fig9 ms':>9}",
        ]
        for label in ("chunk6", "conventional"):
            section = measurements[label]
            for storage in STORAGES:
                cell = section[storage]
                lines.append(
                    f"{label:>14} {storage:>9} "
                    f"{cell['grouping_s'] * 1000:>12.2f} "
                    f"{cell['fig9_s'] * 1000:>9.2f}"
                )
            lines.append(
                f"{label:>14} columnar over heap: "
                f"grouping {section['speedup_grouping']:.2f}x, "
                f"fig9 {section['speedup_fig9']:.2f}x"
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

    def test_chunk6_grouping_columnar_wins(self, measurements):
        """Shared chunk table, selective meta predicates: column pages
        win."""
        assert measurements["chunk6"]["speedup_grouping"] >= 1.1

    def test_conventional_grouping_heap_wins(self, measurements):
        """Wide private table, full-width rows: the heap wins — the
        reason ``storage`` is the layout's choice, not a global one."""
        assert measurements["conventional"]["speedup_grouping"] <= 0.5

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

    def test_rows_and_logical_read_parity(self, measurements):
        """Both formats return identical rows and touch identical warm
        page counts — the format changes speed only."""
        experiments = measurements["chunk6"]["_experiments"]
        grouping_rows: list = []
        q2_rows: list = []
        q2_logical: list = []
        for storage in STORAGES:
            exp = experiments[storage]
            db = exp.mtd.db
            grouping_sql = exp.mtd.transform_sql(TENANT, GROUPING_SQL)
            q2 = exp.mtd.transform_sql(TENANT, q2_sql(Q2_SCALE))
            grouping_rows.append(sorted(db.execute(grouping_sql).rows))
            db.execute(q2, [3])  # warm every page the trace will touch
            trace = db.trace(q2, [3], analyze=False)
            q2_rows.append(sorted(trace.rows))
            q2_logical.append(trace.logical_reads)
        assert grouping_rows[0] == grouping_rows[1]
        assert q2_rows[0] == q2_rows[1]
        assert q2_logical[0] == q2_logical[1]

    def test_json_artifact(self, measurements):
        recorded = json.loads(RESULTS_PATH.read_text())
        for label in ("chunk6", "conventional"):
            assert recorded[label]["speedup_grouping"] > 0
            assert recorded[label]["speedup_fig9"] > 0
        assert "_experiments" not in recorded["chunk6"]
