"""Worker action classes (Figure 6).

Each action simulates one user request: the timing of an action starts
when a Worker sends the first request and ends when it receives the last
response.  The classes, their mix and their statements are the model's
(:mod:`.crm`); this module runs them.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict

from .crm import (
    FIRST_INSERTED_ID,
    HEAVY_BATCH,
    ActionClass,
    crm_tables,
    draw_statement,
    insert_entity,
    load_tenant,
)
from .crm import _reporting_queries  # noqa: F401  (the e2e benchmark reads it here)
from .generator import DataGenerator, TenantDataProfile


class ActionExecutor:
    """Runs one action of a class against the MultiTenantDatabase."""

    def __init__(
        self,
        mtd,
        profile: TenantDataProfile,
        generator: DataGenerator,
        tenant_instance: dict[int, int],
        seed: int = 42,
    ) -> None:
        self.mtd = mtd
        self.profile = profile
        self.generator = generator
        self.tenant_instance = tenant_instance
        self.rng = random.Random(seed)
        #: The next entity id per (tenant, table) the Insert classes take.
        self._next_ids: defaultdict = defaultdict(
            lambda: itertools.count(FIRST_INSERTED_ID)
        )
        self._admin_instances = 0
        #: Prepared handles for the deck's recurring statements, one per
        #: SQL text (tenant-agnostic — the tenant binds per execution).
        self._prepared: dict[str, object] = {}
        #: Tenants created by TENANT_ADD actions (deleted LIFO by
        #: TENANT_DELETE so the deck's pre-assigned tenants stay valid).
        self._churn_tenants: list[int] = []
        self._next_churn_tenant = 50_000

    def _statement(self, sql: str):
        """The action deck replays a small fixed set of statements
        millions of times: keep one prepared handle per SQL text."""
        handle = self._prepared.get(sql)
        if handle is None:
            handle = self.mtd.prepare(sql)
            self._prepared[sql] = handle
        return handle

    def run(self, action: ActionClass, tenant_id: int) -> str | None:
        """Execute one action; returns the (logical) table it touched,
        used by the worker layer for lock accounting."""
        administrative = {
            ActionClass.ADMIN: self.admin,
            ActionClass.TENANT_ADD: self.tenant_add,
            ActionClass.TENANT_DELETE: self.tenant_delete,
        }.get(action)
        if administrative is not None:
            return administrative(tenant_id)
        statement = draw_statement(
            action, self.rng, self.tenant_instance[tenant_id], self.profile
        )
        if statement.sql is not None:
            self._statement(statement.sql).execute(tenant_id, statement.params)
            return statement.table
        # Insert Light is one entity, as if manually entered in the
        # browser; Insert Heavy a batch import via the Web Service
        # interface.
        table = statement.table
        batch = HEAVY_BATCH if action is ActionClass.INSERT_HEAVY else 1
        for _ in range(batch):
            entity_id = next(self._next_ids[tenant_id, table])
            insert_entity(
                self.mtd, self.generator, tenant_id, table, entity_id, self.profile
            )
        return table

    def admin(self, tenant_id: int) -> str | None:
        """Create a new instance of the 10-table CRM schema via DDL
        while the system is online."""
        self._admin_instances += 1
        instance = 10_000 + self._admin_instances
        for table in crm_tables(instance):
            self.mtd.define_table(table)
        return None

    def tenant_add(self, tenant_id: int) -> str | None:
        """Onboard a new tenant onto the issuing tenant's schema
        instance and load its initial data."""
        self._next_churn_tenant += 1
        new_tenant = self._next_churn_tenant
        instance = self.tenant_instance[tenant_id]
        self.tenant_instance[new_tenant] = instance
        self.mtd.create_tenant(new_tenant)
        load_tenant(self.mtd, self.generator, new_tenant, instance, self.profile)
        self._churn_tenants.append(new_tenant)
        return None

    def tenant_delete(self, tenant_id: int) -> str | None:
        """Offboard the most recently churned-in tenant (never a tenant
        the card deck may still reference)."""
        if not self._churn_tenants:
            return None
        victim = self._churn_tenants.pop()
        self.mtd.drop_tenant(victim)
        del self.tenant_instance[victim]
        return None
