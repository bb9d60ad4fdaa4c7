"""The shared query corpus: one schema, one dataset, one generator.

Everything that replays queries — the vs-SQLite differential suite, the
reference-interpreter parity suite, and the optimizer-quality harness — builds
the same two-table parent/child schema with the same deterministic data
and draws queries from the same seeded generator, so a plan regression
found by the harness reproduces directly in the differential tests.

The generator covers projections, conjunctive predicates (comparison,
``IN`` lists, ``BETWEEN``), two- and three-way joins, ``GROUP BY`` with
aggregates and ``HAVING``, and ``ORDER BY`` over columns or expressions.
Queries are literal-only (no parameters) so they can be replayed through
:meth:`MultiTenantDatabase.transform_sql
<repro.core.api.MultiTenantDatabase.transform_sql>` unchanged.
"""

from __future__ import annotations

import random

from ..engine import Database
from ..engine.values import INTEGER, varchar

#: (column, is_numeric) pools per table.
P_COLUMNS = [("id", True), ("grp", True), ("amount", True), ("name", False)]
C_COLUMNS = [("id", True), ("parent", True), ("val", True), ("tag", False)]

#: Raw-engine ("conventional" layout) DDL.
ENGINE_DDL = [
    "CREATE TABLE p (id INTEGER NOT NULL, grp INTEGER, amount INTEGER, "
    "name VARCHAR(30))",
    "CREATE TABLE c (id INTEGER NOT NULL, parent INTEGER, val INTEGER, "
    "tag VARCHAR(10))",
]
ENGINE_INDEXES = [
    "CREATE UNIQUE INDEX p_pk ON p (id)",
    "CREATE INDEX c_fk ON c (parent, id)",
]


def corpus_rows() -> tuple[list[tuple], list[tuple]]:
    """The deterministic dataset: 60 parents, 3 children each."""
    rows_p, rows_c = [], []
    for i in range(1, 61):
        rows_p.append((i, i % 7, i * 13 % 101, f"name{i % 9}"))
        for j in range(3):
            rows_c.append((i * 10 + j, i, (i * j) % 17, f"t{j}"))
    return rows_p, rows_c


def build_engine_database(db: Database | None = None) -> Database:
    """A raw engine database (no schema mapping) with the corpus data —
    the harness's "conventional" layout."""
    db = db if db is not None else Database()
    for sql in ENGINE_DDL:
        db.execute(sql)
    for sql in ENGINE_INDEXES:
        db.execute(sql)
    rows_p, rows_c = corpus_rows()
    for row in rows_p:
        db.execute("INSERT INTO p VALUES (?, ?, ?, ?)", list(row))
    for row in rows_c:
        db.execute("INSERT INTO c VALUES (?, ?, ?, ?)", list(row))
    return db


def build_multitenant(layout: str, *, primary_tenant: int = 1):
    """A :class:`MultiTenantDatabase` on ``layout`` holding the corpus.

    The primary tenant gets the full dataset; a second tenant gets a
    one-third slice so shared layouts (universal/pivot/chunk) carry
    genuinely multi-tenant physical tables — exactly the situation where
    tenant-predicate selectivity misleads a static cost model.
    """
    from ..core import LogicalColumn, LogicalTable, MultiTenantDatabase

    options = {"width": 2} if layout in ("chunk", "chunk_folding") else {}
    mtd = MultiTenantDatabase(layout=layout, **options)
    mtd.define_table(
        LogicalTable(
            "p",
            (
                LogicalColumn("id", INTEGER, indexed=True, not_null=True),
                LogicalColumn("grp", INTEGER),
                LogicalColumn("amount", INTEGER),
                LogicalColumn("name", varchar(30)),
            ),
        )
    )
    mtd.define_table(
        LogicalTable(
            "c",
            (
                LogicalColumn("id", INTEGER, indexed=True, not_null=True),
                LogicalColumn("parent", INTEGER, indexed=True),
                LogicalColumn("val", INTEGER),
                LogicalColumn("tag", varchar(10)),
            ),
        )
    )
    other = primary_tenant + 1
    mtd.create_tenant(primary_tenant)
    mtd.create_tenant(other)
    rows_p, rows_c = corpus_rows()
    for i, (pid, grp, amount, name) in enumerate(rows_p):
        mtd.insert(
            primary_tenant,
            "p",
            {"id": pid, "grp": grp, "amount": amount, "name": name},
        )
        if i % 3 == 0:
            mtd.insert(
                other,
                "p",
                {"id": pid, "grp": grp, "amount": amount, "name": name},
            )
    for i, (cid, parent, val, tag) in enumerate(rows_c):
        mtd.insert(
            primary_tenant,
            "c",
            {"id": cid, "parent": parent, "val": val, "tag": tag},
        )
        if i % 3 == 0:
            mtd.insert(
                other,
                "c",
                {"id": cid, "parent": parent, "val": val, "tag": tag},
            )
    return mtd


# -- seeded whole-query generator ---------------------------------------------

_OPS = ["=", "<", ">", "<=", ">=", "<>"]
_AGGS = ["COUNT(*)", "SUM", "MIN", "MAX"]


def _value_pool(column: str) -> list[str]:
    if column == "name":
        return [f"'name{i}'" for i in range(9)]
    return [f"'t{i}'" for i in range(3)]


def _predicate(rng: random.Random, alias: str, columns) -> str:
    """One restriction: plain comparison, IN list, or BETWEEN."""
    column, numeric = rng.choice(columns)
    kind = rng.random()
    if numeric and kind < 0.18:
        values = sorted(rng.sample(range(-5, 120), rng.randrange(2, 5)))
        items = ", ".join(str(v) for v in values)
        return f"{alias}.{column} IN ({items})"
    if not numeric and kind < 0.18:
        pool = _value_pool(column)
        picked = rng.sample(pool, min(2, len(pool)))
        return f"{alias}.{column} IN ({', '.join(picked)})"
    if numeric and kind < 0.36:
        low = rng.randrange(-5, 100)
        return f"{alias}.{column} BETWEEN {low} AND {low + rng.randrange(5, 40)}"
    op = rng.choice(_OPS)
    if numeric:
        return f"{alias}.{column} {op} {rng.randrange(-5, 120)}"
    return f"{alias}.{column} {op} {rng.choice(_value_pool(column))}"


def generate_query(seed: int) -> str:
    """One deterministic random SELECT.

    Shapes: single table, two-way join (``p, c``), or three-way join
    (``p, c, c AS d`` — two child streams under one parent); optional
    GROUP BY with aggregates and HAVING; optional ORDER BY over columns
    or an arithmetic expression; 0-2 extra conjuncts per query.
    """
    rng = random.Random(seed)
    shape = rng.random()
    grouped = rng.random() < 0.35

    if shape < 0.40:
        alias = rng.choice(["p", "c"])
        tables = alias
        conjuncts = []
        scope = [
            (alias, c, n)
            for c, n in (P_COLUMNS if alias == "p" else C_COLUMNS)
        ]
    elif shape < 0.75:
        tables = "p, c"
        conjuncts = ["p.id = c.parent"]
        scope = [("p", c, n) for c, n in P_COLUMNS] + [
            ("c", c, n) for c, n in C_COLUMNS
        ]
    else:
        tables = "p, c, c AS d"
        conjuncts = ["p.id = c.parent", "d.parent = p.id"]
        scope = (
            [("p", c, n) for c, n in P_COLUMNS]
            + [("c", c, n) for c, n in C_COLUMNS]
            + [("d", c, n) for c, n in C_COLUMNS]
        )
    for _ in range(rng.randrange(3)):
        alias = rng.choice(sorted({a for a, _, _ in scope}))
        columns = P_COLUMNS if alias == "p" else C_COLUMNS
        conjuncts.append(_predicate(rng, alias, columns))

    order_tail = ""
    if grouped:
        g_alias, g_column, _ = rng.choice(scope)
        group_expr = f"{g_alias}.{g_column}"
        numeric = [
            f"{a}.{c}" for a, c, n in scope if n and f"{a}.{c}" != group_expr
        ]
        selects = [group_expr]
        agg_exprs = []
        for _ in range(rng.randrange(1, 3)):
            agg = rng.choice(_AGGS)
            expr = (
                "COUNT(*)"
                if agg == "COUNT(*)"
                else f"{agg}({rng.choice(numeric)})"
            )
            selects.append(expr)
            agg_exprs.append(expr)
        tail = f" GROUP BY {group_expr}"
        if rng.random() < 0.45:
            if rng.random() < 0.5:
                tail += f" HAVING COUNT(*) > {rng.randrange(1, 4)}"
            else:
                having = rng.choice(agg_exprs)
                if having == "COUNT(*)":
                    tail += f" HAVING COUNT(*) >= {rng.randrange(1, 4)}"
                else:
                    tail += f" HAVING {having} >= {rng.randrange(0, 60)}"
        if rng.random() < 0.4:
            order_tail = f" ORDER BY {group_expr}"
    else:
        count = rng.randrange(1, min(4, len(scope)) + 1)
        selects = [f"{a}.{c}" for a, c, _ in rng.sample(scope, count)]
        tail = ""
        if rng.random() < 0.5:
            numeric = [f"{a}.{c}" for a, c, n in scope if n]
            if rng.random() < 0.45 and len(numeric) >= 2:
                left, right = rng.sample(numeric, 2)
                order_tail = f" ORDER BY {left} + {right}"
            else:
                order_tail = f" ORDER BY {rng.choice(numeric)}"

    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    return f"SELECT {', '.join(selects)} FROM {tables}{where}{tail}{order_tail}"
