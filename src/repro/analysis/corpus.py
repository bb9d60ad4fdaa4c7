"""The isolation corpus: the logical statements the verifier proves.

The isolation verifier proves guard discipline on the *emitted physical
statements*, so the corpus is first the statements the testbed runs:
every shape of every Figure 6 action class, taken from the CRM model
(:func:`repro.testbed.crm.action_statements`) with parameters drawn the
way the testbed draws them — Select Light's point select, the five
Select Heavy reports, the Insert classes' generated row through
``mtd.insert``, Update Light and Update Heavy.  Beside them it keeps the
shapes no action class issues (``action`` None): LIKE/UPPER, BETWEEN +
ORDER BY, HAVING and IN-subqueries, the columns of granted extensions,
and DML probes (a SQL INSERT, UPDATEs by key and by filter, a DELETE);
:func:`cross_tenant_corpus` holds the MTSQL cross-tenant statements.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Collection

from ..testbed.crm import (
    CRM_PARENTS,
    Statement,
    action_statements,
    draw_params,
    instance_table_name,
)

#: The tables the isolation-specific SELECTs cover.
PROBED_TABLES = ("account", "contact", "opportunity")

#: SELECTs over each probed table: range + ORDER BY, HAVING, LIKE/UPPER.
TABLE_PROBES = (
    "SELECT id, created FROM {table} "
    "WHERE created BETWEEN '2000-01-01' AND '2030-01-01' ORDER BY created DESC",
    "SELECT status, COUNT(*), MAX(score) FROM {table} "
    "GROUP BY status HAVING COUNT(*) >= 1",
    "SELECT UPPER(name) FROM {table} WHERE name LIKE 'A%'",
)

#: And over a probed child table: an IN-subquery into its parent.
CHILD_PROBE = (
    "SELECT id FROM {table} WHERE parent IN "
    "(SELECT id FROM {parent} WHERE name LIKE '%')"
)

#: A statement over each extension's columns, which other tenants
#: cannot even name.
EXTENSION_PROBES: dict[str, tuple[str, tuple]] = {
    "healthcare": ("SELECT id, hospital, beds FROM {account} WHERE beds > ?", (0,)),
    "automotive": ("SELECT id, dealers FROM {account} WHERE dealers >= ?", (0,)),
    "gdpr": ("SELECT COUNT(*) FROM {contact} WHERE consent = ?", (True,)),
}

#: Single-row DML over the account table (phase a/b machinery).
DML_PROBES: tuple[tuple[str, tuple], ...] = (
    (
        "INSERT INTO {account} (id, name, status, quantity, created) "
        "VALUES (?, ?, 'new', 1, '2008-06-09')",
        (9001, "Analysis Probe"),
    ),
    ("UPDATE {account} SET status = ?, score = 10 WHERE id = ?", ("checked", 9001)),
    ("UPDATE {account} SET quantity = quantity + 1 WHERE status = 'checked'", ()),
    ("DELETE FROM {account} WHERE id = ?", (9001,)),
)


def tenant_corpus(
    instance: int, extensions: Collection[str], rows: int
) -> list[Statement]:
    """Everything proved for one tenant of schema ``instance``: every
    action class's shapes, parameters drawn from a seeded RNG with
    ``rows`` loaded per table; then the isolation-specific SELECTs over
    the probed tables, the granted extensions' columns and the DML
    probes."""
    rng = random.Random(instance)
    corpus = [
        dataclasses.replace(s, params=draw_params(s.action, rng, rows))
        for s in action_statements(instance)
    ]
    for base in PROBED_TABLES:
        table = instance_table_name(base, instance)
        corpus += [Statement(sql.format(table=table)) for sql in TABLE_PROBES]
        if base in CRM_PARENTS:
            parent = instance_table_name(CRM_PARENTS[base], instance)
            corpus.append(Statement(CHILD_PROBE.format(table=table, parent=parent)))
    names = _account_contact(instance)
    corpus += [
        Statement(sql.format(**names), params)
        for name, (sql, params) in EXTENSION_PROBES.items()
        if name in extensions
    ]
    return corpus + dml_corpus(instance)


def dml_corpus(instance: int = 0) -> list[Statement]:
    """The DML probes over schema ``instance``'s account table."""
    names = _account_contact(instance)
    return [Statement(sql.format(**names), params) for sql, params in DML_PROBES]


def cross_tenant_corpus(tenant_ids: Collection[int], instance: int = 0) -> list[str]:
    """MTSQL cross-tenant shapes: fused scans, grouped-by-tenant
    rollups, and explicit tenant-set restriction — the statement class
    rule ISO006 governs.  Only base columns appear (extension columns
    are not shared across the declared set)."""
    account = instance_table_name("account", instance)
    shapes = [
        f"SELECT TENANT_ID(), COUNT(*), SUM(quantity) FROM {account} "
        f"GROUP BY TENANT_ID() ORDER BY TENANT_ID() FOR ALL TENANTS",
        f"SELECT TENANT_ID() AS t, name FROM {account} "
        f"WHERE status = 'open' ORDER BY t, name FOR ALL TENANTS",
        f"SELECT status, COUNT(*) FROM {account} GROUP BY status "
        f"ORDER BY status FOR ALL TENANTS",
    ]
    if tenant_ids:
        ids = ", ".join(str(t) for t in sorted(tenant_ids))
        shapes.append(
            f"SELECT TENANT_ID(), MAX(score) FROM {account} "
            f"GROUP BY TENANT_ID() FOR TENANTS IN ({ids})"
        )
    return shapes


def _account_contact(instance: int) -> dict[str, str]:
    return {
        base: instance_table_name(base, instance) for base in ("account", "contact")
    }
