"""The CSV format: one table writer and one table reader.

Function ``index,re,im`` files have CRLF rows (the ``csv``-module dialect),
result tables LF rows; a ``# comment`` line ends with LF.

The reader takes the header from the first line that is neither empty nor
a ``#`` line.  Empty and ``#`` lines before it are opaque text: no quoting
and no length limit.  After it come plain ASCII rows (no NUL, no
0x1c-0x1f) with LF or CRLF endings, where empty lines are skipped and
nothing else is: one ``np.loadtxt`` call reads an int64 key and two
float64 values per row, each with optional whitespace and sign (no quotes,
``_``, ``#`` line or ``3.0`` key).  Every rejection is a ValueError whose
message starts with the path.
"""
from __future__ import annotations

import sys

import numpy as np

#: The layout :func:`read_table` reads: the header of every function file.
CSV_HEADER = ("index", "re", "im")


def write_table(path, header, row_format: str, columns, comment=None, eol="\n") -> None:
    """Write ``row_format % row`` per row under the header, as one write; row i
    takes entry i of each of the equal-length columns.  Path '-' is stdout."""
    nrows, ncols = len(columns[0]), len(columns)
    fields = [None] * (nrows * ncols)
    for k, col in enumerate(columns):
        fields[k::ncols] = col
    text = ("" if comment is None else f"# {comment}\n") + ",".join(header) + eol
    text += (row_format + eol) * nrows % tuple(fields)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def read_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Integer indices and finite complex values of an index,re,im file."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        head = next((line for line in fh if line.strip("\r\n") and line[0] != "#"), "")
        body = fh.read()
    if [c.strip() for c in head.split(",")] != list(CSV_HEADER):
        raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
    if not body.isascii() or any(c in body for c in "\0\x1c\x1d\x1e\x1f"):
        raise ValueError(f"{path}: rows must be ASCII without NUL or 0x1c-0x1f")
    if not body.strip():
        raise ValueError(f"{path}: no data rows")
    dtype = [("index", np.int64), ("re", np.float64), ("im", np.float64)]
    try:
        table = np.loadtxt(body.split("\n"), dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values = table["re"].astype(complex)
    values.imag = table["im"]
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{path}: non-finite value at index {table['index'][bad.argmax()]}")
    return table["index"], values
