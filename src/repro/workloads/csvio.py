"""CSV ingestion — the "complete software stack" path of Figure 9/10.

The paper's SystemX comparison feeds both systems from a CSV file: "data is
read from an input file in chunks.  It is parsed and then it is passed into
the system for query processing."  This module provides that loading path
so the loading-vs-processing breakdown (the paper's final figure) is
measured, not estimated:

* :func:`write_csv` materializes a workload;
* :func:`read_csv_chunks` parses it chunk-wise into columns, one numpy
  parse per chunk of a numeric schema (DataCell's bulk path);
* :func:`read_csv_rows` parses it row-by-row (SystemX's per-tuple path).
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.kernel.atoms import Atom, numpy_dtype
from repro.kernel.storage import Schema

_PARSERS = {
    Atom.INT: int,
    Atom.OID: int,
    Atom.TIMESTAMP: int,
    Atom.FLT: float,
    Atom.BIT: lambda s: s == "true",
    Atom.STR: str,
}

#: Atoms ``np.loadtxt`` parses as :data:`_PARSERS` does.
_NUMERIC = frozenset({Atom.INT, Atom.OID, Atom.TIMESTAMP, Atom.FLT})


def write_csv(
    path: str | Path,
    columns: Mapping[str, Sequence | np.ndarray],
    order: Sequence[str] | None = None,
) -> int:
    """Write columns as a headerless CSV; returns the number of rows."""
    names = list(order) if order is not None else list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    lengths = {len(a) for a in arrays}
    if len(lengths) != 1:
        raise WorkloadError("ragged columns in write_csv")
    count = lengths.pop()
    with open(path, "w") as out:
        for i in range(count):
            out.write(",".join(str(a[i]) for a in arrays))
            out.write("\n")
    return count


def read_csv_chunks(
    path: str | Path,
    schema: Schema,
    chunk_size: int,
) -> Iterator[dict[str, np.ndarray]]:
    """Parse a CSV into column chunks of ``chunk_size`` rows.

    This is DataCell's loading path, a bulk load like ``COPY INTO``: the
    file is read in chunks of lines, and a numeric schema's chunk is
    parsed by one ``np.loadtxt`` call into column arrays for a bulk basket
    append.  BIT and STR columns are split and coerced line by line, as
    is a chunk the bulk parse refuses — so a bad line raises the same
    :class:`WorkloadError` (or ``ValueError``) naming it either way.
    """
    if chunk_size <= 0:
        raise WorkloadError("chunk_size must be positive")
    names = list(schema.names)
    atoms = [schema.atom_of(name) for name in names]
    parse = _parse_lines
    if all(atom in _NUMERIC for atom in atoms):
        parse = _parse_numeric
    with open(path) as source:
        while lines := list(itertools.islice(source, chunk_size)):
            yield parse(lines, names, atoms, path)


def _parse_numeric(
    lines: list[str], names: list[str], atoms: list[Atom], path: str | Path
) -> dict[str, np.ndarray]:
    """One chunk of numeric lines in one ``np.loadtxt`` call."""
    dtype = np.dtype([(name, numpy_dtype(atom)) for name, atom in zip(names, atoms)])
    try:
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        rows = None
    if rows is None or len(rows) != len(lines):  # a blank line is skipped
        return _parse_lines(lines, names, atoms, path)
    return {name: np.ascontiguousarray(rows[name]) for name in names}


def _parse_lines(
    lines: list[str], names: list[str], atoms: list[Atom], path: str | Path
) -> dict[str, np.ndarray]:
    """One chunk, each line split and coerced."""
    parsers = [_PARSERS[atom] for atom in atoms]
    buffers: list[list] = [[] for __ in names]
    for line in lines:
        parts = line.rstrip("\n").split(",")
        if len(parts) != len(names):
            raise WorkloadError(f"bad CSV arity in {path}: {line!r}")
        for buffer, parser, part in zip(buffers, parsers, parts):
            buffer.append(parser(part))
    return {
        name: np.asarray(buffer, dtype=numpy_dtype(atom))
        for name, buffer, atom in zip(names, buffers, atoms)
    }


def read_csv_rows(path: str | Path, schema: Schema) -> Iterator[tuple]:
    """Parse a CSV row by row (the tuple-at-a-time ingestion path)."""
    parsers = [_PARSERS[atom] for __, atom in schema.columns]
    expected = len(parsers)
    with open(path) as source:
        for line in source:
            parts = line.rstrip("\n").split(",")
            if len(parts) != expected:
                raise WorkloadError(f"bad CSV arity in {path}: {line!r}")
            yield tuple(parser(part) for parser, part in zip(parsers, parts))
