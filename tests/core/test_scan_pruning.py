"""A scan copies only the columns its query names.

Every SELECT of the analysis corpus over the CRM schema (Figure 5) —
the testbed's action shapes, Select Light's ``SELECT *`` among them,
and the isolation-specific ones — transformed on each of the seven
layouts and executed, is watched at
the one place a table scan starts (``HeapFile.scan_batches``).  The
physical statements that ran name a set of columns (every identifier in
their text: an over-approximation of what the plan reads); whenever a
scanned table stores more columns than that, the planner must have
passed ``columns`` — pruning may not stand down.  Grouped and plain
``ORDER BY`` an output alias (``ORDER BY n``) are in the set: the
planner once stood down on any unqualified name.
"""

import pytest

from repro.analysis.corpus import PROBED_TABLES, cross_tenant_corpus, tenant_corpus
from repro.analysis.runner import (
    ALL_LAYOUTS,
    AnalysisConfig,
    build_testbed,
    record_statements,
)
from repro.engine.heap import HeapFile
from repro.engine.sql.lexer import TokenKind, tokenize
from repro.testbed.crm import instance_table_name


def alias_order_shapes() -> list[str]:
    """``ORDER BY`` keys that are output aliases, grouped and plain."""
    shapes = []
    for base in PROBED_TABLES:
        table = instance_table_name(base, 0)
        shapes += [
            f"SELECT status, COUNT(*) AS n, MAX(score) AS m FROM {table} "
            "GROUP BY status ORDER BY n DESC",
            f"SELECT id AS k, name FROM {table} ORDER BY k",
        ]
    return shapes


def named_columns(recorded) -> set[str] | None:
    """Every identifier the recorded statements' text holds, lowered.
    A select-list ``*`` (after ``SELECT``, ``,`` or ``.``) reads columns
    no identifier spells, so it gives None, which the test refuses
    rather than demand pruning the statement does not allow.  The
    transformers spell out a logical ``SELECT *`` column by column, so
    Select Light's physical statements name exactly what they read."""
    names = set()
    for stmt, _params in recorded:
        before = None
        for token in tokenize(stmt.sql()):
            if token.text == "*" and before in ("select", ",", "."):
                return None
            if token.kind is TokenKind.IDENT:
                names.add(token.text.lower())
            before = token.text.lower()
    return names


@pytest.fixture
def scans(monkeypatch):
    """``(segment id, columns)`` of every batch scan started."""
    started: list[tuple[int, list[int] | None]] = []
    original = HeapFile.scan_batches

    def watched(self, batch_rows, columns=None):
        started.append((self.segment_id, columns))
        return original(self, batch_rows, columns)

    monkeypatch.setattr(HeapFile, "scan_batches", watched)
    return started


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_every_corpus_scan_prunes_what_its_query_does_not_name(layout, scans):
    mtd, _ = build_testbed(
        layout, AnalysisConfig(tenants=4), 0.0
    )
    tables = {t.heap.segment_id: t for t in mtd.db.catalog.tables()}
    tenants = sorted(c.tenant_id for c in mtd.schema.tenants())
    runs = []
    for tenant in tenants:
        corpus = tenant_corpus(
            0, mtd.schema.tenant(tenant).extensions, 2
        )
        statements = [(s.sql, s.params) for s in corpus if not s.is_dml]
        statements += [(sql, ()) for sql in alias_order_shapes()]
        for sql, params in statements:
            runs.append((sql, lambda t=tenant, q=sql, p=params: mtd.execute(t, q, list(p))))
    for sql in cross_tenant_corpus(tenants[:2], 0):
        runs.append((sql, lambda q=sql: mtd.execute_cross(q)))
    checked = 0
    for sql, run in runs:
        scans.clear()
        with record_statements(mtd.db) as recorded:
            run()
        named = named_columns(recorded)
        assert named is not None, (layout, sql)
        for segment, columns in scans:
            table = tables[segment]
            stored = {c.lname for c in table.columns}
            if len(stored & named) < len(stored):
                checked += 1
                assert columns is not None, (layout, sql, table.name)
                assert len(columns) <= len(stored & named), (layout, sql)
    assert checked > 0
