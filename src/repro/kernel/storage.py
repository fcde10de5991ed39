"""Tables and the catalog.

A relational table is a collection of head-aligned BATs, one per attribute
(MonetDB's vertical fragmentation).  The catalog tracks persistent tables
and declared stream schemas; stream *contents* live in DataCell baskets
(:mod:`repro.core.basket`), which share the same column representation so a
single query plan can mix both (paper Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import CatalogError, KernelError
from repro.kernel.atoms import Atom
from repro.kernel.bat import BAT, BATBuilder


@dataclass(frozen=True)
class Schema:
    """Ordered (name, atom) attribute list."""

    columns: tuple[tuple[str, Atom], ...]

    @staticmethod
    def of(*columns: tuple[str, Atom]) -> "Schema":
        return Schema(tuple(columns))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, __ in self.columns)

    def atom_of(self, name: str) -> Atom:
        for col, atom in self.columns:
            if col == name:
                return atom
        raise CatalogError(f"unknown column {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(col == name for col, __ in self.columns)

    def __len__(self) -> int:
        return len(self.columns)


class Table:
    """A persistent base table: one BATBuilder per attribute."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._builders = {col: BATBuilder(atom) for col, atom in schema.columns}

    def __len__(self) -> int:
        first = next(iter(self._builders.values()), None)
        return len(first) if first is not None else 0

    @property
    def count(self) -> int:
        return len(self)

    def append_rows(self, rows: Iterable[Sequence]) -> int:
        """Append tuples given in schema column order; returns rows added."""
        names = self.schema.names
        added = 0
        for row in rows:
            if len(row) != len(names):
                raise KernelError(
                    f"row arity {len(row)} != schema arity {len(names)}"
                )
            for name, value in zip(names, row):
                self._builders[name].append(value)
            added += 1
        return added

    def append_columns(self, columns: Mapping[str, Sequence | np.ndarray]) -> int:
        """Bulk append column-wise; all columns must have equal length."""
        lengths = {name: len(vals) for name, vals in columns.items()}
        if set(lengths) != set(self.schema.names):
            raise KernelError(
                f"append_columns needs exactly columns {self.schema.names}"
            )
        unique_lengths = set(lengths.values())
        if len(unique_lengths) > 1:
            raise KernelError(f"ragged column append: {lengths}")
        for name, values in columns.items():
            self._builders[name].extend(values)
        return unique_lengths.pop() if unique_lengths else 0

    def column(self, name: str) -> BAT:
        """Immutable snapshot of one attribute column."""
        if name not in self._builders:
            raise CatalogError(f"table {self.name!r} has no column {name!r}")
        return self._builders[name].snapshot()

    def columns(self) -> dict[str, BAT]:
        """Snapshots of all attribute columns (mutually head-aligned)."""
        return {name: builder.snapshot() for name, builder in self._builders.items()}


@dataclass
class StreamDecl:
    """A declared stream: schema only; tuples flow through baskets."""

    name: str
    schema: Schema


class Catalog:
    """Name → table/stream registry shared by the SQL binder and DataCell."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._streams: dict[str, StreamDecl] = {}

    # -- tables ---------------------------------------------------------
    def create_table(self, name: str, schema: Schema) -> Table:
        if name in self._tables or name in self._streams:
            raise CatalogError(f"name {name!r} already exists")
        table = Table(name, schema)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def tables(self) -> dict[str, Table]:
        """All persistent tables, in creation order."""
        return dict(self._tables)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    # -- streams --------------------------------------------------------
    def create_stream(self, name: str, schema: Schema) -> StreamDecl:
        if name in self._tables or name in self._streams:
            raise CatalogError(f"name {name!r} already exists")
        decl = StreamDecl(name, schema)
        self._streams[name] = decl
        return decl

    def drop_stream(self, name: str) -> None:
        if self._streams.pop(name, None) is None:
            raise CatalogError(f"unknown stream {name!r}")

    def stream(self, name: str) -> StreamDecl:
        try:
            return self._streams[name]
        except KeyError:
            raise CatalogError(f"unknown stream {name!r}") from None

    def has_stream(self, name: str) -> bool:
        return name in self._streams

    def schema_of(self, name: str) -> Schema:
        """Schema of either a table or a stream."""
        if name in self._tables:
            return self._tables[name].schema
        if name in self._streams:
            return self._streams[name].schema
        raise CatalogError(f"unknown relation {name!r}")

    def is_stream(self, name: str) -> bool:
        if name in self._streams:
            return True
        if name in self._tables:
            return False
        raise CatalogError(f"unknown relation {name!r}")

