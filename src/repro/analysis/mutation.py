"""Seeded transformer/layout mutations for verifying the verifier.

Each mutation breaks the schema-mapping layer in a way that must not
survive the analysis gate: the CLI's ``--mutate`` flag applies one and
``--strict`` is then expected to exit non-zero.  The mutation tests use
these to prove the passes actually catch the bug classes they claim to.
"""

from __future__ import annotations

from typing import Any

from ..core.layouts.base import ColumnLoc, Fragment, TENANT_META


def drop_tenant_guard(mtd: Any) -> None:
    """Strip the Tenant meta pair from every fragment the layouts emit.

    Downstream, ``build_reconstruction`` and the DML transformer then
    emit physical statements without ``tenant = ...`` conjuncts — the
    exact cross-tenant leak the isolation verifier exists to catch.
    """
    for layout in mtd._all_layouts():
        original = layout.fragments

        def mutated(
            tenant_id: int, table_name: str, original=original
        ) -> list[Fragment]:
            return [
                Fragment(
                    table=f.table,
                    meta=tuple(m for m in f.meta if m[0] != TENANT_META),
                    columns=f.columns,
                    row_column=f.row_column,
                )
                for f in original(tenant_id, table_name)
            ]

        layout.fragments = mutated


def drop_read_casts(mtd: Any) -> None:
    """Strip read-side casts from fragment columns (breaks the
    Universal/generic type funnel; LAY003 territory)."""
    for layout in mtd._all_layouts():
        original = layout.fragments

        def mutated(
            tenant_id: int, table_name: str, original=original
        ) -> list[Fragment]:
            return [
                Fragment(
                    table=f.table,
                    meta=f.meta,
                    columns=tuple(
                        (name, ColumnLoc(loc.physical, cast=None, store=loc.store))
                        for name, loc in f.columns
                    ),
                    row_column=f.row_column,
                )
                for f in original(tenant_id, table_name)
            ]

        layout.fragments = mutated


def widen_crosstenant(mtd: Any) -> None:
    """Widen every fused cross-tenant statement beyond its declared set.

    Wraps tenant-set resolution to sneak one extra existing tenant into
    ``FOR TENANTS IN (...)`` statements — the fused scan then reads a
    tenant the clause never named.  The isolation verifier must refuse
    the statement (ISO006: literal domination by the declared set).
    """
    original = mtd._resolve_tenant_set

    def mutated(clause: Any) -> tuple[int, ...]:
        ids = original(clause)
        extra = [t for t in mtd.tenant_ids() if t not in ids]
        if extra and not clause.all_tenants:
            ids = tuple(sorted(ids + (extra[0],)))
        return ids

    mtd._resolve_tenant_set = mutated


def drop_dml_guard(mtd: Any) -> None:
    """Strip the Tenant conjunct from the DML transformer's write
    templates (per-fragment UPDATE/DELETE, and the direct path) while
    fragments, SELECTs and phase (a) stay intact: one logical write
    then hits every tenant's row of that Row id.  Only the recorder on
    the engine's statement path sees these statements at all."""
    original = mtd._transformer_for

    def mutated(layout: Any) -> tuple:
        queries, dml = original(layout)
        if "_meta_conjuncts" not in vars(dml):
            guards = dml._meta_conjuncts
            dml._meta_conjuncts = lambda fragment, tenant: [
                guard
                for guard in guards(fragment, tenant)
                if guard.left.column != TENANT_META
            ]
        return queries, dml

    mtd._transformer_for = mutated


#: CLI-facing mutation registry.
MUTATIONS = {
    "drop-tenant-guard": drop_tenant_guard,
    "drop-dml-guard": drop_dml_guard,
    "drop-read-casts": drop_read_casts,
    "widen-crosstenant": widen_crosstenant,
}


def apply_mutation(mtd: Any, name: str) -> None:
    MUTATIONS[name](mtd)
    mtd._invalidate_statements()
