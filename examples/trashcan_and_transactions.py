"""Data safety for tenants: the Trashcan and request-scoped transactions.

Section 6.3 transforms deletes "into updates that mark the tuples as
invisible instead of physically deleting them, in order to provide
mechanisms like a Trashcan"; Section 4.2 bounds transactions to a
single user request.  This example shows both: a tenant fat-fingers a
bulk delete and gets the rows back from the Trashcan, and a request
whose second statement fails rolls back atomically at the engine level.

Run:  python examples/trashcan_and_transactions.py
"""

from repro import LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.engine import Database
from repro.engine.errors import EngineError
from repro.engine.values import DOUBLE, INTEGER, varchar


def main() -> None:
    # -- the Trashcan (soft delete + restore) ------------------------------
    mtd = MultiTenantDatabase(layout="chunk_folding", soft_delete=True)
    mtd.define_table(
        LogicalTable(
            "invoice",
            (
                LogicalColumn("id", INTEGER, indexed=True, not_null=True),
                LogicalColumn("customer", varchar(40)),
                LogicalColumn("total", DOUBLE),
            ),
        )
    )
    mtd.create_tenant(7)
    row_ids = []
    for i in range(1, 6):
        row_ids.append(
            mtd.insert(
                7,
                "invoice",
                {"id": i, "customer": f"cust-{i}", "total": 100.0 * i},
            )
        )
    print("Invoices:", mtd.execute(7, "SELECT COUNT(*) FROM invoice").rows[0][0])

    count = mtd.execute(7, "DELETE FROM invoice WHERE total > 150").rowcount
    print(f"Oops — deleted {count} invoices with a too-broad predicate:")
    print("  remaining:", mtd.execute(7, "SELECT id FROM invoice").rows)

    # The rows were only marked invisible; Row ids 2..5 restore them.
    mtd.restore(7, "invoice", row_ids[1:])
    print("Restored from the Trashcan:",
          sorted(mtd.execute(7, "SELECT id FROM invoice").rows))
    print()

    # -- request-scoped transactions at the engine level -----------------------
    db = Database()
    db.execute("CREATE TABLE balance (acct INTEGER NOT NULL, amount INTEGER)")
    db.execute("CREATE UNIQUE INDEX balance_pk ON balance (acct)")
    db.execute("INSERT INTO balance VALUES (1, 500), (2, 100)")

    def transfer(src: int, dst: int, amount: int) -> bool:
        """One user request = one transaction (Section 4.2)."""
        db.execute("BEGIN")
        try:
            db.execute(
                "UPDATE balance SET amount = amount - ? WHERE acct = ?",
                [amount, src],
            )
            remaining = db.execute(
                "SELECT amount FROM balance WHERE acct = ?", [src]
            ).scalar()
            if remaining < 0:
                raise EngineError("insufficient funds")
            db.execute(
                "UPDATE balance SET amount = amount + ? WHERE acct = ?",
                [amount, dst],
            )
            db.execute("COMMIT")
            return True
        except EngineError as exc:
            db.execute("ROLLBACK")
            print(f"  transfer rolled back: {exc}")
            return False

    print("Transfer 200 from acct 1 to acct 2:", transfer(1, 2, 200))
    print("Transfer 9999 from acct 1 to acct 2:", transfer(1, 2, 9999))
    print("Balances:", db.execute("SELECT * FROM balance ORDER BY acct").rows)
    print(
        f"(committed={db.metrics.value('txn.committed')}, "
        f"rolled_back={db.metrics.value('txn.rolled_back')})"
    )


if __name__ == "__main__":
    main()
