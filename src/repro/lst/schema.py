"""Table schemas.

Schemas here are declarative metadata — the simulator never materialises
rows, but catalogs, governance policies and the TPC-H/TPC-DS workload
definitions need named, typed columns (and the partition specs reference
columns by name, which we validate against the schema at table creation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ValidationError

#: Primitive type names accepted in schemas.
PRIMITIVE_TYPES = frozenset(
    {"boolean", "int", "long", "float", "double", "decimal", "date", "timestamp", "string"}
)


@dataclass(frozen=True)
class Field:
    """A named, typed column."""

    name: str
    type: str
    doc: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("field name must be non-empty")
        if self.type not in PRIMITIVE_TYPES:
            raise ValidationError(
                f"unknown field type {self.type!r}; expected one of "
                f"{sorted(PRIMITIVE_TYPES)}"
            )


@dataclass(frozen=True)
class Schema:
    """An ordered collection of fields with unique names."""

    fields: tuple[Field, ...] = field(default=())

    @classmethod
    def of(cls, *fields: Field) -> "Schema":
        """Build a schema from fields."""
        return cls(tuple(fields))

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate field names in schema: {duplicates}")

    def __len__(self) -> int:
        return len(self.fields)

    def has_field(self, name: str) -> bool:
        """Whether a column with ``name`` exists."""
        return any(f.name == name for f in self.fields)

    def find(self, name: str) -> Field:
        """The field named ``name``.

        Raises:
            ValidationError: if absent.
        """
        for schema_field in self.fields:
            if schema_field.name == name:
                return schema_field
        raise ValidationError(f"no field named {name!r} in schema")
