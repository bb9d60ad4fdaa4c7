"""Shared fixtures: the paper's running example (Figure 4).

Three tenants with Account tables: tenant 17 extends for health care,
tenant 42 for automotive, tenant 35 uses the plain base table.
"""

import pytest

from repro import (
    Extension,
    LogicalColumn,
    LogicalTable,
    MultiTenantDatabase,
)
from repro.engine.values import DATE, INTEGER, varchar

ALL_LAYOUTS = [
    "private",
    "extension",
    "universal",
    "pivot",
    "chunk",
    "chunk_folding",
]

#: Layouts that can represent the running example (basic cannot: no
#: extensibility).
EXTENSIBLE_LAYOUTS = ALL_LAYOUTS


def account_table() -> LogicalTable:
    return LogicalTable(
        "account",
        (
            LogicalColumn("aid", INTEGER, indexed=True, not_null=True),
            LogicalColumn("name", varchar(50)),
            LogicalColumn("opened", DATE),
        ),
    )


def healthcare_extension() -> Extension:
    return Extension(
        "healthcare",
        "account",
        (
            LogicalColumn("hospital", varchar(50)),
            LogicalColumn("beds", INTEGER),
        ),
    )


def automotive_extension() -> Extension:
    return Extension(
        "automotive",
        "account",
        (LogicalColumn("dealers", INTEGER),),
    )


def build_running_example(layout: str, **options) -> MultiTenantDatabase:
    mtd = MultiTenantDatabase(layout=layout, **options)
    mtd.define_table(account_table())
    mtd.define_extension(healthcare_extension())
    mtd.define_extension(automotive_extension())
    mtd.create_tenant(17, extensions=("healthcare",))
    mtd.create_tenant(35)
    mtd.create_tenant(42, extensions=("automotive",))
    mtd.insert(
        17,
        "account",
        {
            "aid": 1,
            "name": "Acme",
            "opened": "2001-02-03",
            "hospital": "St. Mary",
            "beds": 135,
        },
    )
    mtd.insert(
        17,
        "account",
        {
            "aid": 2,
            "name": "Gump",
            "opened": "2004-05-06",
            "hospital": "State",
            "beds": 1042,
        },
    )
    mtd.insert(35, "account", {"aid": 1, "name": "Ball", "opened": "2006-07-08"})
    mtd.insert(
        42,
        "account",
        {"aid": 1, "name": "Big", "opened": "2007-09-10", "dealers": 65},
    )
    return mtd


@pytest.fixture(params=ALL_LAYOUTS)
def any_layout_mtd(request):
    return build_running_example(request.param)


def observable_behaviour(mtd: MultiTenantDatabase) -> dict:
    """What a schema-mapping instance *does*: logical schema, which
    layout serves each tenant, where every column lives, which cached
    statements tenants share, and the rows.  A recovered instance must
    equal the live one here — not in raw ``bookkeeping()``: the Pivot
    layout creates its tables lazily."""
    seen: dict = {"schema": mtd.schema.snapshot(), "default": mtd.layout.name}
    for tenant_id in mtd.tenant_ids():
        layout = mtd.layout_for(tenant_id)
        seen[tenant_id] = {
            "layout": layout.name,
            "override": layout is not mtd.layout,
            "shape": layout.statement_shape(tenant_id),
        }
        for table in mtd.schema.tables():
            seen[tenant_id][table.name] = (
                # ColumnLoc.store is a per-call closure on the slot
                # layouts: compare where a column lives, not that.
                [
                    (
                        f.table,
                        f.meta,
                        f.row_column,
                        [(name, loc.physical, loc.cast) for name, loc in f.columns],
                    )
                    for f in layout.fragments(tenant_id, table.name)
                ],
                mtd.export_rows(tenant_id, table.name),
            )
    return seen
