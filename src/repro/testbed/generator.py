"""Deterministic synthetic data for the testbed.

"All data for the testbed is synthetically generated."  Every value is
a pure function of (tenant, table, row, column) through a seeded RNG, so
runs are reproducible and workers can regenerate values without shared
state.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field

from ..core.schema import LogicalTable
from ..engine.values import TypeKind

_WORDS = (
    "acme", "globex", "initech", "umbrella", "stark", "wayne", "hooli",
    "vandelay", "wonka", "tyrell", "cyberdyne", "gringotts", "oceanic",
    "sirius", "aperture", "monarch", "duff", "oscorp", "buynlarge", "zorg",
)

_STATUSES = ("new", "open", "working", "closed", "won", "lost", "pending")
_INDUSTRIES = ("health", "auto", "retail", "finance", "energy", "telco")

_EPOCH = datetime.date(2000, 1, 1)


@dataclass
class TenantDataProfile:
    """How much data each tenant carries.

    The paper fixes ~1.4 MB per tenant across the 10 tables; the default
    here is a documented 1/100 scale (DESIGN.md §2).  ``rows_per_table``
    may be overridden per table name.
    """

    default_rows: int = 7
    rows_per_table: dict[str, int] = field(default_factory=dict)

    def rows_for(self, table_name: str) -> int:
        base = table_name.split("_i")[0]
        return self.rows_per_table.get(base, self.default_rows)


class DataGenerator:
    """Generates rows for one tenant's copy of the CRM schema."""

    def __init__(self, seed: int = 2008) -> None:
        self.seed = seed

    def _rng(self, tenant_id: int, table_name: str, row: int) -> random.Random:
        return random.Random(f"{self.seed}/{tenant_id}/{table_name}/{row}")

    def row(
        self,
        tenant_id: int,
        table: LogicalTable,
        row_number: int,
        parent_count: int | None = None,
    ) -> dict[str, object]:
        """One synthetic row: {column: value}.  ``parent_count`` bounds
        the foreign key so child rows reference existing parents."""
        rng = self._rng(tenant_id, table.name, row_number)
        values: dict[str, object] = {}
        for column in table.columns:
            name = column.lname
            if name == "id":
                values[name] = row_number + 1
                continue
            if name == "parent":
                if parent_count:
                    values[name] = rng.randrange(parent_count) + 1
                else:
                    values[name] = None
                continue
            values[name] = self._value(rng, name, column.type.kind, column)
        return values

    def _value(self, rng, name, kind, column):
        # One in eight payload values is NULL — sparse-ish but dense
        # enough that reconstruction joins stay meaningful.
        if rng.random() < 0.125:
            return None
        if kind in (TypeKind.INTEGER, TypeKind.BIGINT):
            return rng.randrange(10_000)
        if kind is TypeKind.DOUBLE:
            return round(rng.uniform(0, 100_000), 2)
        if kind is TypeKind.BOOLEAN:
            return rng.random() < 0.5
        if kind is TypeKind.DATE:
            return _EPOCH + datetime.timedelta(days=rng.randrange(3650))
        # VARCHAR: pick vocabulary by column name for plausible data.
        if name == "status" or name == "stage":
            return rng.choice(_STATUSES)
        if name == "industry" or name == "family":
            return rng.choice(_INDUSTRIES)
        length = column.type.length or 20
        words = [rng.choice(_WORDS) for _ in range(1 + length // 24)]
        return ("-".join(words) + f"-{rng.randrange(1000)}")[:length]
