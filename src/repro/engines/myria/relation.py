"""Relations, schemas and the blob column type.

"To support Python user-defined functions, Myria supports the blob data
type, which allows users to write queries that directly manipulate
NumPy arrays or other specialized data types by storing them as blobs."
(Section 2.)  Any non-scalar Python object in a column -- in practice
:class:`~repro.formats.sizing.SizedArray` volumes -- is a blob here.
"""

import numpy as np

#: Column type tags.
LONG = "LONG"
DOUBLE = "DOUBLE"
STRING = "STRING"
BLOB = "BLOB"


def infer_type(value):
    """Infer type."""
    if isinstance(value, bool):
        return LONG
    if isinstance(value, (int, np.integer)):
        return LONG
    if isinstance(value, (float, np.floating)):
        return DOUBLE
    if isinstance(value, str):
        return STRING
    return BLOB


class Schema:
    """Ordered column names with type tags."""

    def __init__(self, columns, types=None):
        self.columns = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column names in {self.columns}")
        if types is None:
            types = (None,) * len(self.columns)
        self.types = tuple(types)
        if len(self.types) != len(self.columns):
            raise ValueError("types and columns must have equal length")

    def index_of(self, column):
        """Position of a column; raises ``KeyError`` if absent."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise KeyError(
                f"no column {column!r}; schema has {self.columns}"
            ) from None

    def __len__(self):
        return len(self.columns)

    def __eq__(self, other):
        return isinstance(other, Schema) and other.columns == self.columns

    def __repr__(self):
        return f"Schema({list(self.columns)})"


class Relation:
    """An in-memory relation: a schema plus a list of row tuples."""

    def __init__(self, name, schema, rows=None):
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self.rows = list(rows or [])
        for row in self.rows:
            if len(row) != len(self.schema):
                raise ValueError(
                    f"row arity {len(row)} does not match schema"
                    f" {len(self.schema)}"
                )

    @classmethod
    def from_rows(cls, name, columns, rows):
        """Build a relation, inferring column types from row 0."""
        rows = [tuple(r) for r in rows]
        types = None
        if rows:
            types = tuple(infer_type(v) for v in rows[0])
        return cls(name, Schema(columns, types), rows)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self):
        return f"Relation({self.name!r}, {len(self.rows)} rows, {self.schema})"
