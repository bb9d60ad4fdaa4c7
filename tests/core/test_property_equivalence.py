"""Property-based equivalence across ALL Figure-4 layouts.

Stronger sibling of ``test_layout_equivalence``: here the *schema* is
random too — random column sets, optional random extension, random
per-tenant subscriptions — and the workload mixes inserts, updates,
deletes, and a variety of SELECT shapes (projections, predicates,
aggregates).  The writes include ``IN (?, ...)`` lists, SETs reading
the column they assign over NULLs, and WHEREs on extension columns, so
every layout whose fragments allow both runs some writes as one
statement on one fragment and others in two phases (Universal always
takes two phases, Private and Basic always one statement).  Every
layout in the registry must return identical logical results for every
query; scenarios without an extension additionally include the Basic
layout (which the paper notes cannot represent extensions at all).

The suite is deterministic: ``derandomize=True`` makes hypothesis derive
all examples from the strategies alone, so every run executes the same
cases in the same order.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Extension, LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.core.layouts import LAYOUTS
from repro.engine.errors import EngineError
from repro.engine.values import DATE, INTEGER, varchar

EXTENSIBLE_LAYOUTS = [name for name in sorted(LAYOUTS) if name != "basic"]

#: Column-type pool for random schemas.  DATE is exercised via the fixed
#: ``added`` column; the random data columns stay INTEGER/VARCHAR so
#: values are easy to generate and compare.
_COLUMN_NAMES = ("alpha", "beta", "gamma", "delta", "epsilon")
_EXT_COLUMN_NAMES = ("xray", "yankee", "zulu")


# -- schema strategy ----------------------------------------------------------


@st.composite
def scenarios(draw):
    """A random (schema, extension, workload) triple."""
    n_columns = draw(st.integers(1, len(_COLUMN_NAMES)))
    column_kinds = [
        draw(st.sampled_from(["int", "str"])) for _ in range(n_columns)
    ]
    has_extension = draw(st.booleans())
    ext_columns = (
        draw(st.integers(1, len(_EXT_COLUMN_NAMES))) if has_extension else 0
    )
    # Tenant 2 subscribes to the extension only sometimes, so layouts
    # must agree on rows where extension columns read NULL.
    tenant2_subscribes = draw(st.booleans()) if has_extension else False
    operations = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"),
                    st.sampled_from([1, 2]),
                    st.integers(1, 8),
                    st.integers(0, 99),
                    st.text(alphabet="mtdbexz", min_size=1, max_size=5),
                ),
                st.tuples(
                    st.just("update"),
                    st.sampled_from([1, 2]),
                    st.integers(1, 8),
                    st.integers(0, 99),
                ),
                st.tuples(
                    st.just("delete"), st.sampled_from([1, 2]), st.integers(1, 8)
                ),
                st.tuples(
                    st.just("bump"), st.sampled_from([1, 2]), st.integers(0, 60)
                ),
                st.tuples(
                    st.just("update_in"),
                    st.sampled_from([1, 2]),
                    st.lists(st.integers(1, 8), min_size=1, max_size=4),
                    st.integers(0, 99),
                ),
                st.tuples(
                    st.just("bump_in"),
                    st.sampled_from([1, 2]),
                    st.lists(st.integers(1, 8), min_size=1, max_size=4),
                ),
                st.tuples(
                    st.just("redate"), st.sampled_from([1, 2]), st.integers(1, 28)
                ),
                st.tuples(
                    st.just("by_extension"),
                    st.sampled_from([1, 2]),
                    st.integers(0, 60),
                    st.booleans(),
                ),
            ),
            min_size=1,
            max_size=10,
        )
    )
    queries = draw(
        st.lists(st.integers(0, 4), min_size=1, max_size=3)
    )
    return {
        "column_kinds": column_kinds,
        "ext_columns": ext_columns,
        "tenant2_subscribes": tenant2_subscribes,
        "operations": operations,
        "queries": queries,
    }


# -- scenario execution -------------------------------------------------------


def build(layout: str, scenario: dict) -> MultiTenantDatabase:
    options = {"width": 2} if layout in ("chunk", "chunk_folding") else {}
    mtd = MultiTenantDatabase(layout=layout, **options)
    columns = [
        LogicalColumn("id", INTEGER, indexed=True, not_null=True),
        LogicalColumn("added", DATE),
    ]
    for name, kind in zip(_COLUMN_NAMES, scenario["column_kinds"]):
        columns.append(
            LogicalColumn(name, INTEGER if kind == "int" else varchar(20))
        )
    mtd.define_table(LogicalTable("item", tuple(columns)))
    if scenario["ext_columns"]:
        mtd.define_extension(
            Extension(
                "extra",
                "item",
                tuple(
                    LogicalColumn(name, INTEGER)
                    for name in _EXT_COLUMN_NAMES[: scenario["ext_columns"]]
                ),
            )
        )
        mtd.create_tenant(1, extensions=("extra",))
        mtd.create_tenant(
            2, extensions=("extra",) if scenario["tenant2_subscribes"] else ()
        )
    else:
        mtd.create_tenant(1)
        mtd.create_tenant(2)
    return mtd


def _subscribed(scenario: dict, tenant: int) -> bool:
    """Whether ``tenant`` sees the extension's columns."""
    return bool(scenario["ext_columns"]) and (
        tenant == 1 or scenario["tenant2_subscribes"]
    )


def apply_operation(mtd, scenario: dict, op: tuple, counters: dict) -> None:
    kind = op[0]
    if kind == "insert":
        _, tenant, item_id, number, text = op
        key = (id(mtd), tenant, item_id)
        seq = counters.get(key, 0)
        counters[key] = seq + 1
        values = {"id": item_id * 100 + seq, "added": "2008-06-09"}
        for name, col_kind in zip(_COLUMN_NAMES, scenario["column_kinds"]):
            values[name] = number if col_kind == "int" else text
            if col_kind == "int" and number % 5 == 0:
                values[name] = None
        if _subscribed(scenario, tenant):
            for i, name in enumerate(
                _EXT_COLUMN_NAMES[: scenario["ext_columns"]]
            ):
                values[name] = None if (item_id + i) % 3 == 0 else number + i
        mtd.insert(tenant, "item", values)
    elif kind == "update":
        _, tenant, item_id, number = op
        target = _COLUMN_NAMES[0] if scenario["column_kinds"] else "added"
        if scenario["column_kinds"]:
            value = (
                number
                if scenario["column_kinds"][0] == "int"
                else f"u{number}"
            )
            mtd.execute(
                tenant,
                f"UPDATE item SET {target} = ? WHERE id = ?",
                [value, item_id * 100],
            )
    elif kind == "delete":
        _, tenant, item_id = op
        mtd.execute(tenant, "DELETE FROM item WHERE id = ?", [item_id * 100])
    elif kind == "update_in":
        _, tenant, item_ids, number = op
        if scenario["column_kinds"]:
            int_first = scenario["column_kinds"][0] == "int"
            marks = ", ".join("?" * len(item_ids))
            mtd.execute(
                tenant,
                f"UPDATE item SET {_COLUMN_NAMES[0]} = ? WHERE id IN ({marks})",
                [number if int_first else f"u{number}"]
                + [i * 100 for i in item_ids],
            )
    elif kind == "bump_in":
        # A SET reading the column it assigns, over NULLs: an extension
        # column where the tenant has one, else a base INTEGER column.
        _, tenant, item_ids = op
        columns = [
            name
            for name, col_kind in zip(_COLUMN_NAMES, scenario["column_kinds"])
            if col_kind == "int"
        ]
        if _subscribed(scenario, tenant):
            columns = [_EXT_COLUMN_NAMES[0]]
        if columns:
            col = columns[0]
            marks = ", ".join("?" * len(item_ids))
            mtd.execute(
                tenant,
                f"UPDATE item SET {col} = {col} + 1 WHERE id IN ({marks})",
                [i * 100 for i in item_ids],
            )
    elif kind == "redate":
        # A DATE is stored as declared in every slot family, so on the
        # Chunk and Pivot layouts too this write changes one fragment.
        _, tenant, day = op
        mtd.execute(
            tenant,
            "UPDATE item SET added = ? WHERE added <= ?",
            [f"2008-07-{day:02d}", f"2008-07-{day:02d}"],
        )
    elif kind == "by_extension":
        # A WHERE on the last extension column, under a DELETE or an
        # UPDATE bumping the first one.
        _, tenant, threshold, delete = op
        if _subscribed(scenario, tenant):
            names = _EXT_COLUMN_NAMES[: scenario["ext_columns"]]
            where = f"{names[-1]} >= ?"
            if delete:
                sql = f"DELETE FROM item WHERE {where}"
            else:
                sql = f"UPDATE item SET {names[0]} = {names[0]} + 1 WHERE {where}"
            mtd.execute(tenant, sql, [threshold])
    elif kind == "bump":
        _, tenant, threshold = op
        int_columns = [
            name
            for name, col_kind in zip(_COLUMN_NAMES, scenario["column_kinds"])
            if col_kind == "int"
        ]
        if int_columns:
            col = int_columns[-1]
            mtd.execute(
                tenant,
                f"UPDATE item SET {col} = {col} + 1 WHERE {col} >= ?",
                [threshold],
            )


def run_query(mtd, scenario: dict, tenant: int, shape: int):
    """One of five SELECT shapes; results sorted for comparison."""
    int_columns = [
        name
        for name, kind in zip(_COLUMN_NAMES, scenario["column_kinds"])
        if kind == "int"
    ]
    if shape == 1:
        sql, params = "SELECT id FROM item WHERE id >= ?", [300]
    elif shape == 2 and int_columns:
        sql, params = (
            f"SELECT id, {int_columns[0]} FROM item "
            f"WHERE {int_columns[0]} >= ?",
            [50],
        )
    elif shape == 3:
        sql, params = "SELECT COUNT(*) FROM item", []
    elif shape == 4 and int_columns:
        sql, params = (
            f"SELECT MIN({int_columns[0]}), MAX({int_columns[0]}) FROM item",
            [],
        )
    else:
        sql, params = "SELECT * FROM item", []
    rows = sorted(mtd.execute(tenant, sql, params).rows, key=repr)
    prepared = sorted(
        mtd.prepare(sql).execute(tenant, params).rows, key=repr
    )
    assert prepared == rows, f"prepared != ad-hoc for {sql!r}"
    return rows


def layouts_for(scenario: dict) -> list[str]:
    if scenario["ext_columns"]:
        return EXTENSIBLE_LAYOUTS
    return sorted(LAYOUTS)


class TestPropertyEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=scenarios())
    def test_random_schema_and_workload_agree_across_layouts(self, scenario):
        names = layouts_for(scenario)
        databases = {name: build(name, scenario) for name in names}
        counters: dict = {}
        for op in scenario["operations"]:
            for mtd in databases.values():
                apply_operation(mtd, scenario, op, counters)
        reference_name = names[0]
        for tenant in (1, 2):
            for shape in scenario["queries"]:
                reference = run_query(
                    databases[reference_name], scenario, tenant, shape
                )
                for name, mtd in databases.items():
                    assert (
                        run_query(mtd, scenario, tenant, shape) == reference
                    ), (
                        f"layout {name} diverged from {reference_name} on "
                        f"tenant {tenant} query shape {shape}: {scenario}"
                    )

    def test_basic_layout_rejects_extensions(self):
        """The seventh layout's documented limitation: 'very good
        consolidation but no extensibility'."""
        mtd = MultiTenantDatabase(layout="basic")
        mtd.define_table(
            LogicalTable(
                "item",
                (LogicalColumn("id", INTEGER, indexed=True, not_null=True),),
            )
        )
        with pytest.raises(EngineError):
            mtd.define_extension(
                Extension("extra", "item", (LogicalColumn("x", INTEGER),))
            )

    def test_suite_covers_every_registered_layout(self):
        """Guard: the registry holds exactly the seven Figure-4 layouts
        this suite claims to cover."""
        assert sorted(LAYOUTS) == [
            "basic",
            "chunk",
            "chunk_folding",
            "extension",
            "pivot",
            "private",
            "universal",
        ]
