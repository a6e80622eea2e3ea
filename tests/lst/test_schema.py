"""Tests for schemas and fields."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.lst import Field, Schema


class TestField:
    def test_valid_field(self):
        field = Field("id", "long", doc="primary key")
        assert field.name == "id"
        assert field.doc == "primary key"

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            Field("", "long")

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            Field("x", "varchar")

    @pytest.mark.parametrize(
        "type_name",
        ["boolean", "int", "long", "float", "double", "decimal", "date", "timestamp", "string"],
    )
    def test_all_primitive_types(self, type_name):
        assert Field("x", type_name).type == type_name


class TestSchema:
    def test_of_builder(self):
        schema = Schema.of(Field("a", "int"), Field("b", "string"))
        assert len(schema) == 2
        assert [f.name for f in schema.fields] == ["a", "b"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            Schema.of(Field("a", "int"), Field("a", "string"))

    def test_has_field(self):
        schema = Schema.of(Field("a", "int"))
        assert schema.has_field("a")
        assert not schema.has_field("z")

    def test_find(self):
        schema = Schema.of(Field("a", "int"), Field("b", "date"))
        assert schema.find("b").type == "date"
        with pytest.raises(ValidationError):
            schema.find("missing")

    def test_empty_schema_allowed(self):
        assert len(Schema.of()) == 0
