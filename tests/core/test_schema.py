"""Tests for the logical multi-tenant schema model."""

import pytest

from repro import Extension, LogicalColumn, LogicalTable
from repro.core.schema import MultiTenantSchema
from repro.engine.errors import CatalogError, UnknownObjectError
from repro.engine.values import INTEGER

from .conftest import account_table, automotive_extension, healthcare_extension


@pytest.fixture
def schema():
    s = MultiTenantSchema()
    s.add_table(account_table())
    s.add_extension(healthcare_extension())
    s.add_extension(automotive_extension())
    s.add_tenant(17, ("healthcare",))
    s.add_tenant(35)
    s.add_tenant(42, ("automotive",))
    return s


class TestDefinitions:
    def test_duplicate_table_rejected(self, schema):
        with pytest.raises(CatalogError):
            schema.add_table(account_table())

    def test_duplicate_extension_rejected(self, schema):
        with pytest.raises(CatalogError):
            schema.add_extension(healthcare_extension())

    def test_extension_on_missing_table_rejected(self, schema):
        with pytest.raises(UnknownObjectError):
            schema.add_extension(
                Extension("x", "missing", (LogicalColumn("a", INTEGER),))
            )

    def test_extension_column_collision_rejected(self, schema):
        with pytest.raises(CatalogError):
            schema.add_extension(
                Extension("clash", "account", (LogicalColumn("name", INTEGER),))
            )

    def test_duplicate_tenant_rejected(self, schema):
        with pytest.raises(CatalogError):
            schema.add_tenant(17)

    def test_tenant_with_unknown_extension_rejected(self, schema):
        with pytest.raises(UnknownObjectError):
            schema.add_tenant(99, ("nope",))

    def test_duplicate_columns_in_table_rejected(self):
        with pytest.raises(CatalogError):
            LogicalTable(
                "t",
                (LogicalColumn("a", INTEGER), LogicalColumn("A", INTEGER)),
            )

    def test_table_ids_are_stable_and_dense(self, schema):
        assert schema.table_id("account") == 0
        schema.add_table(
            LogicalTable("contact", (LogicalColumn("cid", INTEGER),))
        )
        assert schema.table_id("contact") == 1


class TestTenantViews:
    def test_base_only_tenant_sees_base_columns(self, schema):
        logical = schema.logical_table(35, "account")
        assert [c.lname for c in logical.columns] == ["aid", "name", "opened"]

    def test_extended_tenant_sees_extension_columns(self, schema):
        logical = schema.logical_table(17, "account")
        assert [c.lname for c in logical.columns] == [
            "aid",
            "name",
            "opened",
            "hospital",
            "beds",
        ]

    def test_different_tenants_different_views(self, schema):
        t42 = schema.logical_table(42, "account")
        assert [c.lname for c in t42.columns] == ["aid", "name", "opened", "dealers"]

    def test_grant_extension_changes_view(self, schema):
        schema.grant_extension(35, "automotive")
        logical = schema.logical_table(35, "account")
        assert logical.has_column("dealers")

    def test_logical_lookup(self, schema):
        lookup = schema.logical_lookup(42)
        assert "dealers" in [c.lname for c in lookup("account")]

    def test_tenants_with_extension(self, schema):
        assert schema.tenants_with_extension("healthcare") == [17]

    def test_remove_tenant(self, schema):
        schema.remove_tenant(35)
        with pytest.raises(UnknownObjectError):
            schema.tenant(35)
