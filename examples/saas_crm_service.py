"""A hosted CRM service: the paper's motivating workload end-to-end.

Builds a multi-tenant CRM (the Figure 5 schema) under Chunk Folding,
loads a fleet of tenants — some subscribed to vertical-industry
extensions — and runs a day of the Figure 6 action mix through the MTD
testbed machinery.  Prints the service-level metrics the paper's
Experiment 1 reports.

Run:  python examples/saas_crm_service.py
"""

from repro.core.api import MultiTenantDatabase
from repro.engine.database import Database
from repro.testbed.actions import ActionExecutor
from repro.testbed.controller import Controller
from repro.testbed.crm import CardDeck, crm_extensions, crm_tables, load_tenant
from repro.testbed.generator import DataGenerator, TenantDataProfile
from repro.testbed.simtime import CostModel
from repro.testbed.worker import LockOverlap, Session, Worker

TENANTS = 24
SESSIONS = 6
ACTIONS = 300


def build_service() -> MultiTenantDatabase:
    mtd = MultiTenantDatabase(
        layout="chunk_folding",
        width=6,
        db=Database(memory_bytes=8 * 1024 * 1024),
    )
    for table in crm_tables():
        mtd.define_table(table)
    for extension in crm_extensions():
        mtd.define_extension(extension)
    return mtd


def onboard_tenants(mtd: MultiTenantDatabase) -> None:
    """A third of the fleet runs the health-care vertical, a third the
    automotive one, the rest the vanilla CRM."""
    generator = DataGenerator(seed=7)
    profile = TenantDataProfile(default_rows=6)
    for tenant in range(1, TENANTS + 1):
        if tenant % 3 == 1:
            extensions: tuple = ("healthcare",)
        elif tenant % 3 == 2:
            extensions = ("automotive",)
        else:
            extensions = ()
        mtd.create_tenant(tenant, extensions=extensions)
        load_tenant(mtd, generator, tenant, 0, profile)


def run_workload(mtd: MultiTenantDatabase):
    executor = ActionExecutor(
        mtd,
        TenantDataProfile(default_rows=6),
        DataGenerator(seed=7),
        tenant_instance={t: 0 for t in range(1, TENANTS + 1)},
        seed=99,
    )
    worker = Worker(mtd, executor, CostModel(), LockOverlap())
    deck = CardDeck(ACTIONS, list(range(1, TENANTS + 1)), seed=5)
    sessions = [Session(i) for i in range(SESSIONS)]
    return Controller(worker, deck, sessions).run()


def main() -> None:
    print(f"Onboarding {TENANTS} tenants onto one Chunk-Folding database...")
    mtd = build_service()
    onboard_tenants(mtd)
    report = mtd.report()
    print(
        f"  physical tables: {report.physical_tables} "
        f"(vs {TENANTS * 10} under the Private Table Layout)"
    )
    print(f"  meta-data bytes: {report.metadata_bytes}")
    print()

    print("A health-care tenant queries its extension columns:")
    result = mtd.execute(
        1,
        "SELECT name, hospital, beds FROM account "
        "WHERE beds IS NOT NULL ORDER BY beds DESC LIMIT 3",
    )
    for row in result.rows:
        print(f"  {row}")
    print()

    print(f"Running {ACTIONS} actions of the Figure 6 mix "
          f"over {SESSIONS} sessions...")
    results = run_workload(mtd)
    print(f"  actions executed: {len(results)}")
    print(f"  throughput: {results.throughput_per_minute(SESSIONS):,.0f} "
          "actions/min (simulated)")
    print("  95% response times by class (simulated ms):")
    for action, q95 in sorted(
        results.quantiles(0.95).items(), key=lambda kv: kv[0].value
    ):
        print(f"    {action.value:<16} {q95:8.2f}")
    print()

    pool = mtd.db.pool_stats
    from repro.engine.pager import PageKind

    print("Buffer pool after the run:")
    print(f"  data hit ratio:  {100 * pool.hit_ratio(PageKind.DATA):.2f}%")
    print(f"  index hit ratio: {100 * pool.hit_ratio(PageKind.INDEX):.2f}%")
    print()

    print("Business pivot: tenant 3 adopts the GDPR contact extension "
          "online (pure bookkeeping, no DDL):")
    mtd.grant_extension(3, "gdpr")
    mtd.insert(
        3,
        "contact",
        {"id": 999, "last_name": "Doe", "consent": True,
         "consent_date": "2008-06-09"},
    )
    result = mtd.execute(
        3, "SELECT last_name, consent FROM contact WHERE id = 999"
    )
    print(f"  -> {result.rows}")


if __name__ == "__main__":
    main()
