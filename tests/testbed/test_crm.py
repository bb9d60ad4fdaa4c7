"""Tests for the CRM schema (Figure 5) and schema instances."""

import hashlib

from repro.core.schema import LogicalTable
from repro.testbed import actions
from repro.testbed.crm import (
    CRM_PARENTS,
    CRM_TABLE_NAMES,
    REPORTING_INDEXES,
    crm_extensions,
    crm_tables,
    instance_table_name,
)
from repro.testbed.generator import DataGenerator


class TestSchemaShape:
    def test_ten_tables(self):
        assert len(CRM_TABLE_NAMES) == 10
        assert len(crm_tables()) == 10

    def test_about_twenty_columns_each(self):
        for table in crm_tables():
            assert 19 <= len(table.columns) <= 21

    def test_every_table_has_entity_id(self):
        for table in crm_tables():
            first = table.columns[0]
            assert first.lname == "id"
            assert first.indexed and first.not_null

    def test_dag_parents_exist(self):
        names = set(CRM_TABLE_NAMES)
        for child, parent in CRM_PARENTS.items():
            assert child in names and parent in names

    def test_roots_have_no_parent_column(self):
        by_name = {t.name: t for t in crm_tables()}
        assert not by_name["campaign"].has_column("parent")
        assert not by_name["account"].has_column("parent")

    def test_children_have_parent_column(self):
        by_name = {t.name: t for t in crm_tables()}
        for child in CRM_PARENTS:
            assert by_name[child].has_column("parent")

    def test_twelve_reporting_indexes(self):
        assert len(REPORTING_INDEXES) == 12
        tables = {t.name: t for t in crm_tables()}
        for table_name, column in REPORTING_INDEXES:
            assert tables[table_name].column(column).indexed


class TestInstances:
    def test_instance_zero_uses_plain_names(self):
        assert instance_table_name("account", 0) == "account"

    def test_instances_are_disjoint(self):
        names0 = {t.name for t in crm_tables(0)}
        names1 = {t.name for t in crm_tables(1)}
        assert names0.isdisjoint(names1)

    def test_instances_same_shape(self):
        for t0, t1 in zip(crm_tables(0), crm_tables(1)):
            assert len(t0.columns) == len(t1.columns)

    def test_extensions_reference_instance_tables(self):
        for extension in crm_extensions(2):
            assert extension.base_table.endswith("_i2")


class TestPinnedOutputs:
    """What the end-to-end benchmark's dataset and workloads and Table 2
    read from the model.  An edit to the model may change them only on
    purpose, with these pins."""

    def test_generator_rows(self):
        """``DataGenerator(2008)`` rows for one tenant across all ten
        tables, each with every extension on it."""
        generator = DataGenerator(2008)
        digest = hashlib.sha256()
        for table in crm_tables():
            columns = list(table.columns)
            for extension in crm_extensions():
                if extension.base_table == table.name:
                    columns += extension.columns
            view = LogicalTable(table.name, tuple(columns))
            parents = 5 if table.name in CRM_PARENTS else None
            for number in range(5):
                row = generator.row(1, view, number, parents)
                digest.update(repr(list(row.items())).encode())
        assert digest.hexdigest() == (
            "9f99bc5b81ec468ada0ab7e5317e2f1dba464bd4f6fa8273c737439714bef943"
        )

    def test_reporting_queries(self):
        assert actions._reporting_queries("lead", "campaign") == [
            "SELECT status, COUNT(*) AS n FROM lead GROUP BY status "
            "ORDER BY n DESC",
            "SELECT p.name, COUNT(*) AS n FROM campaign p, lead c "
            "WHERE c.parent = p.id GROUP BY p.name ORDER BY n DESC LIMIT 10",
            "SELECT p.id, SUM(c.amount) AS total FROM campaign p, lead c "
            "WHERE c.parent = p.id GROUP BY p.id ORDER BY total DESC LIMIT 10",
            "SELECT COUNT(*), AVG(amount) FROM lead "
            "WHERE created > '2005-01-01'",
            "SELECT name, score FROM lead WHERE score IS NOT NULL "
            "ORDER BY score DESC LIMIT 20",
        ]
        assert actions.HEAVY_BATCH == 25
