"""Repo-specific protocol lint (the ``LNT`` rules).

Generic linters can't know this engine's protocols; these rules encode
them over the :mod:`ast` of the source tree:

* **LNT001** — ``BufferPool.mark_dirty`` may only be called from the
  storage helpers that pair every page mutation with WAL bookkeeping
  (heap, column store, B-tree, and the pool itself).  A ``mark_dirty``
  anywhere else is a page mutation the durability layer never hears
  about.
* **LNT002** — a bare ``except:`` or ``except BaseException:`` without
  a re-``raise`` would swallow :class:`SimulatedCrash`, which
  deliberately subclasses ``BaseException`` so that ``except
  Exception`` *can't* catch it (see ``durability/faults.py``).  A
  handler that catches it and keeps running breaks every crash test
  that relies on the process actually "dying".
* **LNT003** — a crashpoint that no workload ever reaches is worse
  than none: the crash matrix silently stops sampling that instant.
  Every crashpoint name referenced in ``src/`` must appear in a
  dynamic hit census (:func:`run_crashpoint_census` drives the full
  admin-operation surface under an unarmed injector).  Names built
  with f-strings become regex patterns (``admin.{op}.begin`` matches
  any hit named ``admin.<something>.begin``).
* **LNT004** — a metrics-registry lookup (``metrics.counter(...)`` and
  friends) re-hashes the metric name per call.  Under ``engine/`` and
  in ``core/statement_cache.py`` an instrument whose name is written
  out (a string or f-string) is bound once, in ``__init__`` or a
  ``_bind_*`` method; a lookup by any name inside a ``for``/``while``
  body is flagged wherever it sits.
* **LNT005** — the layers above the engine (``core/``, ``cluster/``,
  ``testbed/``, ``experiments/``) may not import an underscore-private
  name from ``repro.engine.*``.  A private import is how a second copy
  of engine semantics starts (the cross-tenant merge once rebuilt SQL
  comparison and arithmetic from the compiler's operator tables, and
  drifted from it); the engine's public surface is the contract.

Like the other passes, findings land in an :class:`AnalysisReport`;
``python -m repro.analysis --lint`` gates on it.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass

from .findings import AnalysisReport, Finding

#: Source roots scanned by the static rules (relative to ``src/``).
SRC_ROOT = os.path.join(os.path.dirname(__file__), "..")

#: Modules allowed to call ``mark_dirty`` (repo-relative suffixes):
#: the WAL-coupled storage layer itself.
MARK_DIRTY_ALLOWED: tuple[str, ...] = (
    os.path.join("engine", "heap.py"),
    os.path.join("engine", "columnstore.py"),
    os.path.join("engine", "btree.py"),
    os.path.join("engine", "pager.py"),
)

#: Receiver names that mean "the metrics registry" for LNT004.
METRIC_RECEIVERS = frozenset({"metrics", "_metrics", "registry"})
METRIC_LOOKUPS = frozenset({"counter", "histogram", "gauge"})

#: The module LNT004 covers besides ``engine/``.
METRIC_LINTED = os.path.join("core", "statement_cache.py")


@dataclass(frozen=True)
class _Module:
    path: str  #: absolute path
    rel: str  #: path relative to the package root (for loci)
    tree: ast.Module


def _modules(root: str) -> list[_Module]:
    modules = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            modules.append(_Module(path, os.path.relpath(path, root), tree))
    return sorted(modules, key=lambda m: m.rel)


# -- LNT001: mark_dirty outside the storage layer ---------------------------


def _check_mark_dirty(module: _Module, report: AnalysisReport) -> None:
    allowed = module.rel.endswith(MARK_DIRTY_ALLOWED)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "mark_dirty":
            report.checked += 1
            if not allowed:
                report.add(
                    Finding(
                        "LNT001",
                        "page mutation (mark_dirty) outside the WAL-logged "
                        "storage helpers",
                        f"{module.rel}:{node.lineno}",
                    )
                )


# -- LNT002: handlers that would swallow SimulatedCrash ---------------------


def _catches_base_exception(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except:
    nodes = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(
        isinstance(n, ast.Name) and n.id == "BaseException" for n in nodes
    )


def _reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


def _check_crash_swallowing(module: _Module, report: AnalysisReport) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _catches_base_exception(node):
            continue
        report.checked += 1
        if not _reraises(node):
            report.add(
                Finding(
                    "LNT002",
                    "handler catches BaseException without re-raising — "
                    "it would swallow SimulatedCrash",
                    f"{module.rel}:{node.lineno}",
                )
            )


# -- LNT003: dead crashpoints ------------------------------------------------


@dataclass(frozen=True)
class CrashpointRef:
    """One static ``crashpoint(...)`` reference: a literal name or, for
    f-strings, a regex the dynamic census is matched against."""

    pattern: str
    literal: bool
    locus: str

    def matches(self, name: str) -> bool:
        if self.literal:
            return name == self.pattern
        return re.fullmatch(self.pattern, name) is not None


def static_crashpoints(root: str = SRC_ROOT) -> list[CrashpointRef]:
    """Every crashpoint name referenced anywhere under ``root``
    (definitions of the ``crashpoint`` methods themselves excluded)."""
    refs = []
    for module in _modules(root):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr == "crashpoint"
            ):
                continue
            if not node.args:
                continue
            arg = node.args[0]
            locus = f"{module.rel}:{node.lineno}"
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                refs.append(CrashpointRef(arg.value, True, locus))
            elif isinstance(arg, ast.JoinedStr):
                parts = []
                for piece in arg.values:
                    if isinstance(piece, ast.Constant):
                        parts.append(re.escape(str(piece.value)))
                    else:
                        parts.append("[^.]+")
                refs.append(CrashpointRef("".join(parts), False, locus))
            # Dynamic non-literal names (variables) can't be checked
            # statically; none exist today.
    return refs


def run_crashpoint_census() -> dict[str, int]:
    """Drive the full durability surface — DML commits, checkpoints,
    extension grants, tenant migration, tenant deletion — under an
    unarmed :class:`FaultInjector` and return its hit counts.  This is
    the dynamic half of LNT003 and of the crashpoint-coverage test."""
    import shutil
    import tempfile

    from ..core import (
        Extension,
        LogicalColumn,
        LogicalTable,
        MultiTenantDatabase,
    )
    from ..engine.database import Database
    from ..engine.durability import DurabilityOptions
    from ..engine.durability.faults import FaultInjector
    from ..engine.values import INTEGER, varchar

    injector = FaultInjector()
    path = tempfile.mkdtemp(prefix="repro-census-")
    try:
        db = Database(
            path=path, durability=DurabilityOptions(faults=injector)
        )
        mtd = MultiTenantDatabase(layout="chunk_folding", db=db)
        mtd.define_table(
            LogicalTable(
                "account",
                (
                    LogicalColumn("aid", INTEGER, indexed=True, not_null=True),
                    LogicalColumn("name", varchar(20)),
                ),
            )
        )
        mtd.define_extension(
            Extension(
                "healthcare",
                "account",
                (LogicalColumn("beds", INTEGER),),
            )
        )
        mtd.create_tenant(1, extensions=("healthcare",))
        mtd.create_tenant(2)
        for tenant, aid in ((1, 1), (1, 2), (2, 1)):
            row = {"aid": aid, "name": f"n{aid}"}
            if tenant == 1:
                row["beds"] = aid * 10
            mtd.insert(tenant, "account", row)
        db.checkpoint()
        mtd.grant_extension(2, "healthcare")
        mtd.migrate_tenant(1, "private")
        mtd.drop_tenant(2)
        db.checkpoint()
        # A checkpoint compacts only once dead bytes exceed live ones:
        # rewrite the surviving rows until one does.
        for round_number in range(8):
            if db.metrics.value("db.pager.compactions"):
                break
            mtd.execute(
                1, "UPDATE account SET name = ?", (f"r{round_number}",)
            )
            db.checkpoint()
        db.close()
    finally:
        shutil.rmtree(path, ignore_errors=True)
    return dict(injector.counts)


def _check_dead_crashpoints(
    report: AnalysisReport, census: dict[str, int] | None
) -> None:
    if census is None:
        census = run_crashpoint_census()
    hit_names = [name for name, count in census.items() if count > 0]
    for ref in static_crashpoints():
        report.checked += 1
        if not any(ref.matches(name) for name in hit_names):
            report.add(
                Finding(
                    "LNT003",
                    f"crashpoint {ref.pattern!r} is never exercised by "
                    "the fault census",
                    ref.locus,
                )
            )


# -- LNT004: metrics lookups on statement paths -----------------------------


def _check_metric_lookups(module: _Module, report: AnalysisReport) -> None:
    if not module.rel.startswith(("engine" + os.sep, METRIC_LINTED)):
        return

    def visit(node: ast.AST, binding: bool, looping: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A helper nested in a constructor still runs once.
            binding = binding or node.name.startswith(("__init__", "_bind_"))
            looping = False
        elif isinstance(node, (ast.For, ast.While)):
            looping = True
        elif isinstance(node, ast.Call):
            check(node, binding, looping)
        for child in ast.iter_child_nodes(node):
            visit(child, binding, looping)

    def check(call: ast.Call, binding: bool, looping: bool) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in METRIC_LOOKUPS):
            return
        receiver = func.value
        name = (
            receiver.attr
            if isinstance(receiver, ast.Attribute)
            else receiver.id if isinstance(receiver, ast.Name) else ""
        )
        if name not in METRIC_RECEIVERS:
            return
        report.checked += 1
        written_out = bool(call.args) and isinstance(
            call.args[0], (ast.Constant, ast.JoinedStr)
        )
        if looping:
            where = "inside a loop"
        elif written_out and not binding:
            where = "outside __init__ / a _bind_* method"
        else:
            return
        report.add(
            Finding(
                "LNT004",
                f"metrics registry lookup .{func.attr}(...) {where} — "
                "bind the instrument once",
                f"{module.rel}:{call.lineno}",
            )
        )

    visit(module.tree, False, False)


# -- LNT005: private engine names above the engine ---------------------------

#: Top-level packages that sit above the engine.
ENGINE_CLIENTS = frozenset({"core", "cluster", "testbed", "experiments"})


def _check_private_engine_imports(
    module: _Module, report: AnalysisReport
) -> None:
    package = module.rel.split(os.sep)[:-1]
    if not package or package[0] not in ENGINE_CLIENTS:
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        target = (node.module or "").split(".")
        if node.level:  # relative: climb from this module's package
            target = package[: len(package) - node.level + 1] + target
        elif target[0] == "repro":
            target = target[1:]
        if target[:1] != ["engine"]:
            continue
        report.checked += 1
        for alias in node.names:
            if alias.name.startswith("_"):
                report.add(
                    Finding(
                        "LNT005",
                        f"private engine name {alias.name!r} imported from "
                        f"{'.'.join(target)} above the engine",
                        f"{module.rel}:{node.lineno}",
                    )
                )


# -- entry point -------------------------------------------------------------


def analyze_lint(
    root: str = SRC_ROOT, *, census: dict[str, int] | None = None
) -> AnalysisReport:
    """Run every LNT rule over the source tree.  ``census`` supplies
    pre-collected crashpoint hit counts (tests reuse one run); when
    omitted the census workload runs here."""
    report = AnalysisReport()
    for module in _modules(root):
        _check_mark_dirty(module, report)
        _check_crash_swallowing(module, report)
        _check_metric_lookups(module, report)
        _check_private_engine_imports(module, report)
    _check_dead_crashpoints(report, census)
    return report
