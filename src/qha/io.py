"""The CSV format: one table writer and one table reader.

Function ``index,re,im`` files have CRLF rows (the ``csv``-module dialect),
result tables LF rows; a ``# comment`` line ends with LF.  Accepted number
syntax: the file as the ``csv`` module reads it, keys as ``int`` and values
as ``float`` parse them (whitespace, sign, ``_``, quotes,
``nan``/``inf``/``infinity`` in any case; no ``3.0`` key).
"""
from __future__ import annotations

import csv
import sys

import numpy as np


def write_table(path, header, row_format: str, columns, comment=None, eol="\n") -> None:
    """Write ``row_format % row`` per row under the header, as one write; row i
    takes entry i of each of the equal-length columns.  Path '-' or None is stdout."""
    nrows, ncols = len(columns[0]), len(columns)
    fields = [None] * (nrows * ncols)
    for k, col in enumerate(columns):
        fields[k::ncols] = col
    text = ("" if comment is None else f"# {comment}\n") + ",".join(header) + eol
    text += (row_format + eol) * nrows % tuple(fields)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def read_table(path, header) -> tuple[np.ndarray, ...]:
    """Integer key columns and finite complex values of a file whose header
    ends in re,im.  One ``np.loadtxt`` call reads the rows; what it fails on or
    may read differently (non-ASCII, NUL, 0x1c-0x1f) takes the csv route."""
    try:
        with open(path, newline="") as fh:
            first = next((r for r in csv.reader(fh) if r and not r[0].startswith("#")), None)
            body = fh.read()
        if (first is None or [c.strip() for c in first] != list(header) or not body.isascii()
                or any(c in body for c in "\0\x1c\x1d\x1e\x1f") or not body or body.isspace()):
            raise ValueError
        nkeys = len(header) - 2
        dtype = [(f"c{k}", np.int64 if k < nkeys else np.float64) for k in range(len(header))]
        table = np.loadtxt(body.split("\n"), dtype=dtype, delimiter=",", comments=None, ndmin=1)
        values = table[f"c{nkeys}"].astype(complex)
        values.imag = table[f"c{nkeys + 1}"]
        if np.isfinite(values).all():
            return (*(table[f"c{k}"] for k in range(nkeys)), values)
    except (ValueError, csv.Error):
        pass
    with open(path, newline="") as fh:
        try:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ValueError(f"{path}: {exc}") from None
    if not rows or [c.strip() for c in rows[0]] != list(header):
        raise ValueError(f"{path}: expected header {','.join(header)}")
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: data row {i} has {len(row)} fields, expected {len(header)}")
    if len(rows) == 1:
        raise ValueError(f"{path}: no data rows")
    keys, values = [], []
    for row in rows[1:]:
        v = complex(float(row[-2]), float(row[-1]))
        if not np.isfinite(v):
            raise ValueError(f"{path}: non-finite value at {header[0]} {row[0]}")
        keys.append([int(k) for k in row[:-2]])
        values.append(v)
    return (*np.array(keys).T, np.array(values))
