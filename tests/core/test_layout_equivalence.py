"""Property-based cross-layout equivalence.

The central correctness contract of schema mapping: *every* layout is
an implementation detail — any sequence of logical operations must
produce identical logical states under all of them.  Hypothesis drives
random operation sequences against every layout in parallel and
compares full logical dumps after every step.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Extension, LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.engine.values import DATE, INTEGER, varchar

LAYOUTS = ["extension", "universal", "pivot", "chunk", "chunk_folding"]


def build(layout: str) -> MultiTenantDatabase:
    options = {"width": 2} if layout in ("chunk", "chunk_folding") else {}
    mtd = MultiTenantDatabase(layout=layout, **options)
    mtd.define_table(
        LogicalTable(
            "item",
            (
                LogicalColumn("id", INTEGER, indexed=True, not_null=True),
                LogicalColumn("label", varchar(20)),
                LogicalColumn("qty", INTEGER),
                LogicalColumn("added", DATE),
            ),
        )
    )
    mtd.define_extension(
        Extension(
            "extra",
            "item",
            (
                LogicalColumn("color", varchar(10)),
                LogicalColumn("weight", INTEGER),
            ),
        )
    )
    mtd.create_tenant(1, extensions=("extra",))
    mtd.create_tenant(2)
    return mtd


def dump(mtd: MultiTenantDatabase, tenant: int):
    return sorted(
        mtd.execute(tenant, "SELECT * FROM item").rows, key=repr
    )


# -- operation strategies -----------------------------------------------------

_ids = st.integers(1, 8)
_tenants = st.sampled_from([1, 2])

_insert = st.tuples(
    st.just("insert"),
    _tenants,
    _ids,
    st.text(alphabet="abcxyz", min_size=1, max_size=6),
    st.integers(0, 50) | st.none(),
)
_update = st.tuples(
    st.just("update"),
    _tenants,
    _ids,
    st.integers(0, 99),
)
_delete = st.tuples(st.just("delete"), _tenants, _ids)
_bump = st.tuples(st.just("bump"), _tenants, st.integers(0, 30))

_operations = st.lists(
    st.one_of(_insert, _update, _delete, _bump), min_size=1, max_size=14
)


def apply_operation(mtd: MultiTenantDatabase, op: tuple, counters: dict) -> None:
    kind = op[0]
    if kind == "insert":
        _, tenant, item_id, label, qty = op
        key = (id(mtd), tenant, item_id)
        # Entity ids must stay unique per tenant: suffix a counter.
        seq = counters.get(key, 0)
        counters[key] = seq + 1
        values = {
            "id": item_id * 100 + seq,
            "label": label,
            "qty": qty,
            "added": "2008-06-09",
        }
        if tenant == 1:
            values["color"] = "red" if (item_id % 2) else None
            values["weight"] = item_id * 3
        mtd.insert(tenant, "item", values)
    elif kind == "update":
        _, tenant, item_id, qty = op
        mtd.execute(
            tenant, "UPDATE item SET qty = ? WHERE id = ?", [qty, item_id * 100]
        )
    elif kind == "delete":
        _, tenant, item_id = op
        mtd.execute(tenant, "DELETE FROM item WHERE id = ?", [item_id * 100])
    elif kind == "bump":
        _, tenant, threshold = op
        mtd.execute(
            tenant,
            "UPDATE item SET qty = qty + 1 WHERE qty >= ?",
            [threshold],
        )


class TestLayoutEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(operations=_operations)
    def test_all_layouts_reach_identical_states(self, operations):
        databases = {layout: build(layout) for layout in LAYOUTS}
        counters: dict = {}
        for op in operations:
            for mtd in databases.values():
                apply_operation(mtd, op, counters)
        reference_layout = LAYOUTS[0]
        for tenant in (1, 2):
            reference = dump(databases[reference_layout], tenant)
            for layout, mtd in databases.items():
                assert dump(mtd, tenant) == reference, (
                    f"layout {layout} diverged for tenant {tenant} "
                    f"after {operations}"
                )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(operations=_operations)
    def test_migration_preserves_random_states(self, operations):
        """After any operation sequence, migrating tenant 1 to another
        layout must not change its logical state."""
        mtd = build("chunk_folding")
        counters: dict = {}
        for op in operations:
            apply_operation(mtd, op, counters)
        before = {t: dump(mtd, t) for t in (1, 2)}
        mtd.migrate_tenant(1, "universal")
        assert dump(mtd, 1) == before[1]
        assert dump(mtd, 2) == before[2]
