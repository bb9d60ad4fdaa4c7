"""Static lock-order / resource-acquisition analysis (the ``LCK`` rules).

The engine takes no locks today: a shard lets one thread into its
engine at a time, behind one mutex.  Once its subsystems run
concurrently, "who calls into whom" becomes "who acquires whose latch
while holding their own".  This pass extracts that acquisition graph
*statically*, before any of it can deadlock:

1. Engine classes are mapped to **resource classes** (``HeapFile`` is
   the ``heap`` resource, ``WriteAheadLog`` is ``wal``, ...).  The
   :class:`~repro.engine.database.Database` facade and the executors
   are orchestrators, not resources — they hold nothing while calling,
   so they are deliberately absent.
2. Every method body of a resource class is walked with :mod:`ast`; a
   call through a receiver that names another resource
   (``self._pool.read(...)``, ``db.pool.write_back_all(...)``,
   ``entry.table.delete_row(...)``) adds the edge *my resource → its
   resource*: code of the first would hold its latch while entering
   the second.
3. The edges are checked against :data:`HIERARCHY` — the one global
   acquisition order every future latch must follow.  A cycle in the
   graph is a potential deadlock (**LCK001**); an edge that runs
   *backwards* through the hierarchy inverts the declared order
   (**LCK002**); a resource class the hierarchy forgot is **LCK003**.

One modelled exception: ``BufferPool`` calls
``DurabilityManager.before_page_write`` on writeback, which would read
as pool → durability — backwards, and a cycle with the checkpoint path
(durability → pool).  That method only flushes the WAL (it takes no
durability-wide latch), so :data:`CALL_TARGET_OVERRIDES` narrows its
edge to the ``wal`` resource, which is forward for both callers.

The ``lock-order-inversion`` seeded mutation injects a synthetic
``wal → heap`` edge (a log hook calling back into row storage) and must
make both LCK001 and LCK002 fire — the gate's proof that the pass can
actually catch an inversion.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from .findings import AnalysisReport, Finding

#: Seeded defect for the CLI gate: a synthetic back-edge ``wal → heap``.
MUTATE_LOCK_INVERSION = "lock-order-inversion"

#: The declared global acquisition order, outermost first: code may
#: enter resources to the *right* of its own while working, never to
#: the left.  Transactions sit outermost (a statement enters everything
#: else under its transaction), the page store is a leaf (it calls
#: into no other resource).
HIERARCHY: list[str] = [
    "txn",
    "catalog",
    "heap",
    "btree",
    "durability",
    "pool",
    "wal",
    "store",
]

#: Engine class name → resource class.
CLASS_RESOURCES: dict[str, str] = {
    "TransactionManager": "txn",
    "Catalog": "catalog",
    "Table": "catalog",
    "HeapFile": "heap",
    "BTreeIndex": "btree",
    "DurabilityManager": "durability",
    "BufferPool": "pool",
    "WriteAheadLog": "wal",
    "DiskPageStore": "store",
}

#: Receiver attribute/variable name → resource class.  This is how call
#: targets are resolved without type inference: the engine's naming is
#: disciplined (``self._pool`` is always the buffer pool, a ``table``
#: is always a catalog Table, ...).
ATTR_RESOURCES: dict[str, str] = {
    "catalog": "catalog",
    "table": "catalog",
    "transactions": "txn",
    "heap": "heap",
    "_heap": "heap",
    "btree": "btree",
    "pool": "pool",
    "_pool": "pool",
    "durability": "durability",
    "_durability": "durability",
    "wal": "wal",
    "store": "store",
    "_store": "store",
}

#: Methods whose effective resource is narrower than their class (see
#: module docstring).
CALL_TARGET_OVERRIDES: dict[str, str] = {
    "before_page_write": "wal",
}

#: Default scan root: the engine package.
ENGINE_ROOT = os.path.join(os.path.dirname(__file__), "..", "engine")


@dataclass(frozen=True)
class AcquisitionEdge:
    """One *src holds its latch while entering dst* relationship."""

    src: str
    dst: str


@dataclass
class AcquisitionGraph:
    """The extracted graph: edges with the call sites that induced them."""

    edges: dict[AcquisitionEdge, list[str]] = field(default_factory=dict)
    #: Resource classes actually seen in the scanned source.
    resources: set[str] = field(default_factory=set)

    def add(self, src: str, dst: str, locus: str) -> None:
        self.edges.setdefault(AcquisitionEdge(src, dst), []).append(locus)
        self.resources.add(src)
        self.resources.add(dst)

    def successors(self, resource: str) -> list[str]:
        return sorted(
            {e.dst for e in self.edges if e.src == resource}
        )


def _receiver_name(call: ast.Call) -> str | None:
    """``self._pool.read(...)`` → ``"_pool"``; ``durability.log(...)``
    → ``"durability"``; anything unresolvable → None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name) and value.id != "self":
        return value.id
    return None


def _engine_files(root: str) -> list[str]:
    files = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                files.append(os.path.join(dirpath, filename))
    return sorted(files)


def build_graph(
    root: str = ENGINE_ROOT, *, mutate: str | None = None
) -> AcquisitionGraph:
    """Extract the resource-acquisition graph from the engine source."""
    graph = AcquisitionGraph()
    for path in _engine_files(root):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        rel = os.path.relpath(path, os.path.join(root, os.pardir))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            src = CLASS_RESOURCES.get(node.name)
            if src is None:
                continue
            graph.resources.add(src)
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                receiver = _receiver_name(call)
                if receiver is None:
                    continue
                dst = ATTR_RESOURCES.get(receiver)
                if dst is None:
                    continue
                assert isinstance(call.func, ast.Attribute)
                dst = CALL_TARGET_OVERRIDES.get(call.func.attr, dst)
                if dst == src:
                    continue
                graph.add(
                    src, dst, f"{rel}:{call.lineno} ({node.name})"
                )
    if mutate == MUTATE_LOCK_INVERSION:
        # A log hook calling back into row storage: wal → heap closes
        # the heap → pool → wal chain into a deadlock-capable cycle.
        graph.add("wal", "heap", "seeded:lock-order-inversion")
    return graph


def _find_cycles(graph: AcquisitionGraph) -> list[list[str]]:
    """Elementary cycles via DFS over the (small) resource graph; each
    cycle is reported once, rotated to start at its smallest node."""
    cycles: set[tuple[str, ...]] = set()
    adjacency = {r: graph.successors(r) for r in graph.resources}

    def walk(node: str, path: list[str], on_path: set[str]) -> None:
        for succ in adjacency.get(node, ()):
            if succ in on_path:
                cycle = path[path.index(succ):]
                smallest = min(range(len(cycle)), key=lambda i: cycle[i])
                cycles.add(tuple(cycle[smallest:] + cycle[:smallest]))
                continue
            path.append(succ)
            on_path.add(succ)
            walk(succ, path, on_path)
            on_path.discard(succ)
            path.pop()

    for start in sorted(graph.resources):
        walk(start, [start], {start})
    return [list(c) for c in sorted(cycles)]


def analyze_lock_order(
    root: str = ENGINE_ROOT, *, mutate: str | None = None
) -> AnalysisReport:
    """Run the full LCK pass; one ``checked`` tick per edge examined."""
    graph = build_graph(root, mutate=mutate)
    report = AnalysisReport()
    order = {resource: i for i, resource in enumerate(HIERARCHY)}
    for resource in sorted(graph.resources):
        if resource not in order:
            report.add(
                Finding(
                    "LCK003",
                    f"resource class {resource!r} is acquired but missing "
                    "from the declared hierarchy",
                )
            )
    for cycle in _find_cycles(graph):
        report.add(
            Finding(
                "LCK001",
                "potential deadlock: acquisition cycle "
                + " -> ".join(cycle + [cycle[0]]),
            )
        )
    for edge in sorted(graph.edges, key=lambda e: (e.src, e.dst)):
        report.checked += 1
        src_pos = order.get(edge.src)
        dst_pos = order.get(edge.dst)
        if src_pos is None or dst_pos is None:
            continue  # LCK003 already covers unranked resources
        if src_pos > dst_pos:
            loci = graph.edges[edge]
            report.add(
                Finding(
                    "LCK002",
                    f"{edge.src} acquires {edge.dst} against the declared "
                    f"order ({edge.dst} precedes {edge.src})",
                    loci[0],
                )
            )
    return report
