"""Pass 3 — layout invariants over fragments, catalog, and meta rows.

The fragment model (:mod:`repro.core.layouts.base`) makes every layout's
correctness conditions checkable:

* **Coverage** (LAY001/LAY002): the fragments of a (tenant, table) pair
  exactly cover the logical columns — chunk partitions with a gap lose
  data, overlaps write twice and read ambiguously.
* **Type consistency** (LAY003): each fragment column's physical slot
  type and read-side cast must reproduce the logical type — the
  Pivot/Universal/Chunk funnels depend on it.
* **Meta-row agreement** (LAY004): every (Tenant, Table, Chunk, Col)
  combination physically present in a shared table must correspond to a
  fragment of a live tenant — orphans are leaked or stranded data (the
  chunk-layout grant bug fixed in this PR stranded rows exactly here).
* **Row alignment** (LAY006): reconstruction inner-joins fragments on
  Row, so every fragment of a multi-fragment table must hold the same
  Row-id set per tenant; a gap silently drops rows from query results.
* **Migration plans** (LAY005): source and target fragment column sets
  must both equal the logical column set before data moves.
* **Width ledger** (LAY007): stored slot widths, page fill and the
  free-space map agree with the rows the pages hold.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..engine.columnstore import ColumnPage
from ..engine.heap import ROW_OVERHEAD
from ..engine.values import TypeKind
from .findings import AnalysisReport, Finding

#: Read-side cast -> the TypeKinds it can reproduce.
_CAST_PRODUCES = {
    "TO_INT": {TypeKind.INTEGER, TypeKind.BIGINT},
    "TO_DOUBLE": {TypeKind.DOUBLE},
    "TO_DATE": {TypeKind.DATE},
    "TO_BOOL": {TypeKind.BOOLEAN},
    "TO_STR": {TypeKind.VARCHAR},
}

_INT_FAMILY = {TypeKind.INTEGER, TypeKind.BIGINT}


def _storage_error(
    logical_type: Any, physical_type: Any, cast: str | None
) -> str | None:
    """Why this (physical slot, cast) cannot reproduce the logical type."""
    lk = logical_type.kind
    if cast is not None:
        produced = _CAST_PRODUCES.get(cast.upper())
        if produced is None:
            return f"unknown read cast {cast!r}"
        if lk not in produced:
            return f"cast {cast} cannot produce {lk.value}"
        return None
    pk = physical_type.kind
    if lk == pk:
        if (
            lk is TypeKind.VARCHAR
            and physical_type.length is not None
            and logical_type.length is not None
            and physical_type.length < logical_type.length
        ):
            return (
                f"VARCHAR({physical_type.length}) slot narrower than "
                f"logical VARCHAR({logical_type.length})"
            )
        return None
    if lk in _INT_FAMILY and pk in _INT_FAMILY:
        return None
    return f"{lk.value} stored in {pk.value} slot without a cast"


def check_fragments(mtd: Any, locus_prefix: str = "") -> AnalysisReport:
    """Coverage (LAY001/LAY002) and type consistency (LAY003)."""
    report = AnalysisReport()
    catalog = mtd.db.catalog
    for config in mtd.schema.tenants():
        tenant_id = config.tenant_id
        layout = mtd.layout_for(tenant_id)
        for table in mtd.schema.tables():
            logical = mtd.schema.logical_table(tenant_id, table.name)
            logical_types = {c.lname: c.type for c in logical.columns}
            fragments = layout.fragments(tenant_id, table.name)
            locus = f"{locus_prefix}tenant={tenant_id} table={table.name}"
            report.checked += 1
            provided: dict[str, int] = {}
            for fragment in fragments:
                for name, loc in fragment.columns:
                    provided[name] = provided.get(name, 0) + 1
                    if name not in logical_types:
                        report.add(
                            Finding(
                                "LAY001",
                                f"fragment {fragment.table} stores "
                                f"{name!r}, not a logical column",
                                locus,
                            )
                        )
                        continue
                    physical = catalog.table(fragment.table)
                    if not physical.has_column(loc.physical):
                        report.add(
                            Finding(
                                "LAY003",
                                f"fragment {fragment.table} maps {name!r} "
                                f"to missing column {loc.physical!r}",
                                locus,
                            )
                        )
                        continue
                    column = physical.columns[
                        physical.column_position(loc.physical)
                    ]
                    error = _storage_error(
                        logical_types[name], column.type, loc.cast
                    )
                    if error is not None:
                        report.add(
                            Finding(
                                "LAY003",
                                f"{fragment.table}.{loc.physical} storing "
                                f"{table.name}.{name}: {error}",
                                locus,
                            )
                        )
            missing = [c for c in logical_types if c not in provided]
            if missing:
                report.add(
                    Finding(
                        "LAY001",
                        f"columns {missing} not stored by any fragment",
                        locus,
                    )
                )
            duplicated = [c for c, n in provided.items() if n > 1]
            if duplicated:
                report.add(
                    Finding(
                        "LAY002",
                        f"columns {duplicated} stored by multiple fragments",
                        locus,
                    )
                )
    return report


def _meta_where(meta: tuple[tuple[str, object], ...]) -> str:
    return " AND ".join(f"{col} = {value!r}" for col, value in meta) or "1 = 1"


def check_meta_rows(mtd: Any, locus_prefix: str = "") -> AnalysisReport:
    """Meta-row agreement (LAY004): physically present meta combinations
    must correspond to a fragment of a live tenant with that grant."""
    report = AnalysisReport()
    valid: dict[str, tuple[tuple[str, ...], set[tuple]]] = {}
    for config in mtd.schema.tenants():
        layout = mtd.layout_for(config.tenant_id)
        for table in mtd.schema.tables():
            for fragment in layout.fragments(config.tenant_id, table.name):
                if not fragment.meta:
                    continue
                key = fragment.table.lower()
                columns = tuple(sorted(name for name, _ in fragment.meta))
                entry = valid.setdefault(key, (columns, set()))
                if entry[0] != columns:
                    continue  # inconsistent meta schema; LAY003 territory
                values = dict(fragment.meta)
                entry[1].add(tuple(values[c] for c in columns))
    for table_name, (columns, tuples) in sorted(valid.items()):
        report.checked += 1
        rows = mtd.db.execute(
            f"SELECT DISTINCT {', '.join(columns)} FROM {table_name}"
        ).rows
        for row in rows:
            if tuple(row) not in tuples:
                pairs = ", ".join(
                    f"{c}={v!r}" for c, v in zip(columns, row)
                )
                report.add(
                    Finding(
                        "LAY004",
                        f"{table_name} holds rows for ({pairs}) matching "
                        "no live tenant fragment",
                        f"{locus_prefix}table={table_name}",
                    )
                )
    return report


def check_row_alignment(mtd: Any, locus_prefix: str = "") -> AnalysisReport:
    """Row alignment (LAY006): all fragments of one (tenant, table) pair
    must agree on the Row-id set, or inner joins drop rows."""
    report = AnalysisReport()
    for config in mtd.schema.tenants():
        tenant_id = config.tenant_id
        layout = mtd.layout_for(tenant_id)
        for table in mtd.schema.tables():
            fragments = [
                f
                for f in layout.fragments(tenant_id, table.name)
                if f.row_column is not None
            ]
            if len(fragments) < 2:
                continue
            report.checked += 1
            locus = f"{locus_prefix}tenant={tenant_id} table={table.name}"
            row_sets = []
            for fragment in fragments:
                rows = mtd.db.execute(
                    f"SELECT {fragment.row_column} FROM {fragment.table} "
                    f"WHERE {_meta_where(fragment.meta)}"
                ).rows
                row_sets.append((fragment, {r[0] for r in rows}))
            anchor_fragment, anchor_rows = row_sets[0]
            for fragment, rows in row_sets[1:]:
                missing = anchor_rows - rows
                extra = rows - anchor_rows
                if missing:
                    report.add(
                        Finding(
                            "LAY006",
                            f"{fragment.table} misses {len(missing)} row "
                            f"id(s) present in anchor {anchor_fragment.table} "
                            f"(e.g. {sorted(missing)[:3]})",
                            locus,
                        )
                    )
                if extra:
                    report.add(
                        Finding(
                            "LAY006",
                            f"{fragment.table} holds {len(extra)} row id(s) "
                            f"absent from anchor {anchor_fragment.table}",
                            locus,
                        )
                    )
    return report


def check_migration_plan(
    logical_columns: Any,
    source_fragments: Any,
    target_fragments: Any,
    locus: str = "",
) -> AnalysisReport:
    """Migration preservation (LAY005): both sides store the full
    logical column set, so no column is dropped or invented in flight."""
    report = AnalysisReport(checked=1)
    wanted = {c.lname for c in logical_columns}
    for side, fragments in (
        ("source", source_fragments),
        ("target", target_fragments),
    ):
        stored = {name for f in fragments for name, _ in f.columns}
        missing = sorted(wanted - stored)
        extra = sorted(stored - wanted)
        if missing:
            report.add(
                Finding(
                    "LAY005",
                    f"{side} fragments do not store columns {missing}",
                    locus,
                )
            )
        if extra:
            report.add(
                Finding(
                    "LAY005",
                    f"{side} fragments store extra columns {extra}",
                    locus,
                )
            )
    return report


def check_width_ledger(
    tables: Iterable[Any], pool: Any, locus_prefix: str = ""
) -> AnalysisReport:
    """Width ledger (LAY007): an UPDATE sizes only the cells it assigns,
    so every live slot's stored width must still equal its row's
    ``row_width``, each page's ``used`` the sum of its slots' widths
    plus ``ROW_OVERHEAD``, and the free-space map the pages' free bytes."""
    report = AnalysisReport()
    for table in tables:
        report.checked += 1
        problems, free = [], {}
        for page_id in table.heap.page_ids():
            page = pool.read(page_id)
            slots = page.payload
            if isinstance(slots, ColumnPage):
                columns = slots.columns
                slots = [
                    None if w is None else (tuple(c[s] for c in columns), w)
                    for s, w in enumerate(slots.widths)
                ]
            entries = [entry for entry in slots if entry is not None]
            problems += [
                f"page {page_id} stores width {width} for {row!r}"
                for row, width in entries
                if width != table.row_width(row)
            ]
            if page.used != sum(width + ROW_OVERHEAD for _, width in entries):
                problems.append(f"page {page_id} used={page.used} != its slots")
            free[page_id] = page.free
        if table.heap.free_map() != free:
            problems.append("free-space map disagrees with the pages")
        for message in problems:
            report.add(Finding("LAY007", message, f"{locus_prefix}table={table.name}"))
    return report


def check_all(mtd: Any, locus_prefix: str = "") -> AnalysisReport:
    """All data-at-rest invariants for one multi-tenant database."""
    report = check_fragments(mtd, locus_prefix)
    report.extend(check_meta_rows(mtd, locus_prefix))
    report.extend(check_row_alignment(mtd, locus_prefix))
    report.extend(
        check_width_ledger(mtd.db.catalog.tables(), mtd.db.pool, locus_prefix)
    )
    return report
