"""Spans at the layer boundaries, recorded from the benchmark's side.

Nothing under ``src/`` is edited: :meth:`Tracer.installed` replaces
attributes on the opened cluster's instances (and three functions of
``cluster.protocol``) with wrappers that record ``(name, start, end, id,
parent id)`` and puts every original back on exit.  The parent of a span is
the span open in the same context (a ``ContextVar``, so two connections
on one event loop do not mix); the two places where a request changes
context carry it by hand:

* client task -> server task: the load loop registers the request's root
  span under its tenant id (one request per tenant is in flight), and
  the server-side ``decode_frame`` adopts it when it sees a request;
* event loop -> shard thread: ``ShardWorker.submit`` hands the pool a
  closure that opens ``shard.job`` under the submitting span.

A layer's self time is its spans' duration minus their children's.
"""

from __future__ import annotations

import contextlib
import contextvars
import cProfile
import itertools
import pstats
import time
from collections import defaultdict

from repro.cluster import protocol
from repro.core.api import MultiTenantDatabase
from repro.engine.database import Database
from repro.engine.durability.manager import DurabilityManager
from repro.engine.durability.pagestore import DiskPageStore
from repro.engine.transactions import TransactionManager

#: span name -> layer, where they differ.  The root span ("client") has no
#: entry: its self time is what is left of the client-observed latency
#: after codec and router — the wire (asyncio streams, the server's
#: dispatch, the client's framing) over TCP, the load loop in process.
LAYER_OF_SPAN = {
    "codec.encode": "codec",
    "codec.decode": "codec",
    "codec.decode_rows": "codec",
    "router": "router",
    "shard.submit": "shard_hop",
    "shard.job": "shard",
}
SERVING_LAYERS = ("wire", "codec", "router", "shard_hop", "shard")

#: The two private seams the in-program tracing item should replace.
PRIVATE_SEAMS = (
    "MultiTenantDatabase._execute_parsed",
    "Database._execute_prepared",
)

#: layer -> (class, the methods whose calls are the layer's spans, where
#: a shard keeps the instance).  The tracer wraps them on the instances;
#: the profiler reads the cumulative time of the same functions.
SHARD_BOUNDARIES = {
    "core": (
        MultiTenantDatabase,
        ("_execute_parsed", "insert", "execute_cross"),
        lambda shard: shard.mtd,
    ),
    "engine": (
        Database,
        ("execute_ast", "_execute_prepared"),
        lambda shard: shard.mtd.db,
    ),
    "wal": (
        TransactionManager,
        ("commit",),
        lambda shard: shard.mtd.db.transactions,
    ),
    "checkpoint": (
        DurabilityManager,
        ("checkpoint",),
        lambda shard: shard.mtd.db.durability,
    ),
    "pagestore": (
        DiskPageStore,
        ("read",),
        lambda shard: shard.mtd.db.durability.store,
    ),
}
CODEC_FUNCTIONS = ("encode_frame", "decode_frame", "decode_rows")

NAME, START, END, IDENT, PARENT = range(5)
NO_PARENT = -1


class Tracer:
    """Records spans as ``(name, start, end, id, parent id)`` tuples of
    plain numbers and strings, written once when the span closes: a
    million of them cost the collector nothing to keep."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.codec_bytes = 0
        self._ids = itertools.count()
        #: id of the span open in this context
        self._open: contextvars.ContextVar = contextvars.ContextVar(
            "bench_e2e_span", default=NO_PARENT
        )
        #: tenant id -> id of its request's root span
        self._roots: dict[int | None, int] = {}

    # -- recording ---------------------------------------------------------

    def begin(self, tenant: int | None) -> tuple[int, float]:
        """Open a request's root span (called by the load loop)."""
        ident = next(self._ids)
        self._open.set(ident)
        self._roots[tenant] = ident
        return ident, time.perf_counter()

    def end(self, root: tuple[int, float]) -> None:
        ident, start = root
        self.spans.append(
            ("client", start, time.perf_counter(), ident, NO_PARENT)
        )

    def _sync(self, name: str, fn, parent_of=None):
        """``fn`` with a span around each call.  ``parent_of(result)``,
        when given, may name another parent than the open span and
        leaves it open for what follows in this context."""
        ids, open_, record = self._ids, self._open, self.spans.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = open_.get()
            ident = next(ids)
            token = open_.set(ident)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                open_.reset(token)
                record((name, start, end, ident, parent))
                raise
            end = clock()
            open_.reset(token)
            if parent_of is not None:
                adopted = parent_of(result)
                if adopted is not None:
                    parent = adopted
                    open_.set(adopted)
            record((name, start, end, ident, parent))
            return result

        return traced

    def _coroutine(self, name: str, fn, wrap_args=None):
        ids, open_, record = self._ids, self._open, self.spans.append
        clock = time.perf_counter

        async def traced(*args, **kwargs):
            parent = open_.get()
            ident = next(ids)
            token = open_.set(ident)
            if wrap_args is not None:
                args = wrap_args(ident, args)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                open_.reset(token)
                record((name, start, end, ident, parent))

        return traced

    def _encode(self, fn):
        traced = self._sync("codec.encode", fn)

        def counted(message):
            frame = traced(message)
            self.codec_bytes += len(frame)
            return frame

        return counted

    def _adopt_root(self, message: dict) -> int | None:
        """A decoded *request* means this is the server's task: the root
        the load loop registered for the tenant becomes its parent."""
        if "op" in message:
            return self._roots.get(message.get("tenant_id"))
        return None

    def _job_under(self, submit_ident: int, args: tuple) -> tuple:
        """``ShardWorker.submit(job, ...)``: run ``job`` on the shard
        thread as a ``shard.job`` span under the submitting span."""
        job, *rest = args
        ids, open_, record = self._ids, self._open, self.spans.append
        clock = time.perf_counter

        def on_thread(*a, **kw):
            ident = next(ids)
            token = open_.set(ident)
            start = clock()
            try:
                return job(*a, **kw)
            finally:
                end = clock()
                open_.reset(token)
                record(("shard.job", start, end, ident, submit_ident))

        return (on_thread, *rest)

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, cluster):
        """Wrap the layer boundaries of ``cluster`` for the duration."""
        undo: list[tuple[object, str, object, bool]] = []

        def patch(owner, attr: str, wrap) -> None:
            # An instance attribute shadows the class's method; a module
            # attribute is the function itself and must be put back.
            own = attr in vars(owner)
            undo.append((owner, attr, vars(owner).get(attr), own))
            setattr(owner, attr, wrap(getattr(owner, attr)))

        try:
            patch(protocol, "encode_frame", self._encode)
            patch(
                protocol,
                "decode_frame",
                lambda fn: self._sync("codec.decode", fn, self._adopt_root),
            )
            patch(
                protocol,
                "decode_rows",
                lambda fn: self._sync("codec.decode_rows", fn),
            )
            for attr in ("execute", "insert"):
                patch(
                    cluster.router,
                    attr,
                    lambda fn: self._coroutine("router", fn),
                )
            for shard in cluster.shards.values():
                patch(
                    shard,
                    "submit",
                    lambda fn: self._coroutine(
                        "shard.submit", fn, self._job_under
                    ),
                )
                for layer, (_, attrs, instance) in SHARD_BOUNDARIES.items():
                    for attr in attrs:
                        patch(
                            instance(shard),
                            attr,
                            lambda fn, layer=layer: self._sync(layer, fn),
                        )
            yield self
        finally:
            for owner, attr, original, own in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # -- aggregation -------------------------------------------------------

    def summary(self, *, tcp: bool) -> dict:
        """Per-layer self time (seconds) and what else the per-layer
        metrics take from the spans."""
        root_layer = "wire" if tcp else "client"
        children: dict[int, float] = defaultdict(float)
        names: dict[int, str] = {}
        for name, start, end, ident, parent in self.spans:
            children[parent] += end - start
            names[ident] = name
        self_s: dict[str, float] = defaultdict(float)
        checkpoints: list[float] = []
        statements = 0
        for name, start, end, ident, parent in self.spans:
            layer = (
                root_layer if name == "client" else LAYER_OF_SPAN.get(name, name)
            )
            self_s[layer] += end - start - children.get(ident, 0.0)
            if name == "checkpoint":
                checkpoints.append(end - start)
            elif name == "engine" and names.get(parent) != "engine":
                statements += 1
        return {
            "self_s": dict(self_s),
            "checkpoints": checkpoints,
            "engine_statements": statements,
        }

    def export(self) -> list[dict]:
        """Spans as ``{id, name, start, end, request, parent}``;
        ``request`` is the id of the request's root span."""
        parents = {span[IDENT]: span[PARENT] for span in self.spans}

        def root_of(ident: int) -> int:
            while parents.get(ident, NO_PARENT) != NO_PARENT:
                ident = parents[ident]
            return ident

        return [
            {
                "id": ident,
                "name": name,
                "start": start,
                "end": end,
                "request": root_of(ident),
                "parent": None if parent == NO_PARENT else parent,
            }
            for name, start, end, ident, parent in self.spans
        ]


# -- cProfile cross-check ----------------------------------------------------
#
# The same ops under cProfile.  Its cumulative time for a function is
# wall time between call and return, which is what a span is, so the
# cumulative times of the functions the tracer wraps give the same
# per-layer budget through a second instrument.  Coroutines are the
# exception (cProfile stops their clock while they are suspended), so
# wire, router and the shard hop are compared as one remainder.

COMPARED_LAYERS = (
    "serving_rest", "codec", "core", "engine", "pagestore", "wal", "checkpoint",
)


def _code_key(function) -> tuple[str, int, str]:
    code = function.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


class Profiler:
    """One ``cProfile.Profile`` per thread that runs the program: the
    caller's and each shard's worker."""

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self._main = cProfile.Profile()
        self._workers = {
            name: cProfile.Profile() for name in cluster.shards
        }

    def __enter__(self) -> "Profiler":
        for name, shard in self._cluster.shards.items():
            shard.pool.submit(self._workers[name].enable).result()
        self._main.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._main.disable()
        for name, shard in self._cluster.shards.items():
            shard.pool.submit(self._workers[name].disable).result()

    def layer_seconds(self, client_s: float) -> dict[str, float]:
        """Self time of each compared layer out of ``client_s`` seconds
        of client-observed latency.  The nesting subtracted here is the
        one the spans show: engine and the commit run inside core,
        page reads and checkpoints inside engine."""
        stats = pstats.Stats(self._main)
        for profile in self._workers.values():
            stats.add(profile)

        def cumulative(functions) -> float:
            return sum(
                stats.stats.get(_code_key(function), (0, 0, 0.0, 0.0))[3]
                for function in functions
            )

        cum = {
            layer: cumulative(getattr(cls, attr) for attr in attrs)
            for layer, (cls, attrs, _) in SHARD_BOUNDARIES.items()
        }
        cum["codec"] = cumulative(
            getattr(protocol, name) for name in CODEC_FUNCTIONS
        )
        return {
            "serving_rest": client_s - cum["core"] - cum["codec"],
            "codec": cum["codec"],
            "core": cum["core"] - cum["engine"] - cum["wal"],
            "engine": cum["engine"] - cum["pagestore"] - cum["checkpoint"],
            "pagestore": cum["pagestore"],
            "wal": cum["wal"],
            "checkpoint": cum["checkpoint"],
        }


def compared_shares(layer_seconds: dict[str, float]) -> dict[str, float]:
    """Shares over COMPARED_LAYERS; span layers outside it (wire, router,
    shard hop, shard, the load loop) fold into ``serving_rest``."""
    folded = {layer: 0.0 for layer in COMPARED_LAYERS}
    for layer, seconds in layer_seconds.items():
        folded[layer if layer in folded else "serving_rest"] += seconds
    total = sum(folded.values())
    return {layer: seconds / total for layer, seconds in folded.items()}
