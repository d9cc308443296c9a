"""CSV serialization with exact double-precision round-tripping.

One writer, `write_csv`, takes a table by columns.  A str cell is written as
it is, an integer in decimal and any other number with 17 significant
digits (``%.17g``, `format_number`'s text), which round-trips an IEEE double
exactly.  Each distinct value of a column is formatted once and the rows
index the formatted strings; a float column is deduplicated by its 64-bit
pattern, so 0.0 and -0.0 keep their own text.  The rows are built and
written in blocks of `_BLOCK_ROWS`, so neither the file's lines nor its text
are held whole.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

_BLOCK_ROWS = 8192


def format_number(x) -> str:
    """17 significant digits: round-trip exact for IEEE doubles."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _as_array(column) -> np.ndarray:
    """The column as an array whose dtype kind says how a cell is written:
    "i" or "u" in decimal, "f" as %.17g and any other as str.  A sequence
    takes its kind from its first cell; its integers must fit in int64
    (OverflowError otherwise)."""
    if isinstance(column, np.ndarray):
        return column
    cells = list(column)
    if cells and isinstance(cells[0], str):
        return np.array(cells, dtype=str)
    if cells and isinstance(cells[0], (int, np.integer)):
        return np.array([int(c) for c in cells], dtype=np.int64)
    return np.array(cells, dtype=np.float64)


def _distinct_strings(a: np.ndarray):
    """(strings, index): the text of each distinct cell of a, a float told
    apart by its bit pattern, and the position of each cell's text."""
    if a.dtype.kind == "f":
        bits, index = np.unique(np.asarray(a, dtype=np.float64)
                                .view(np.int64), return_inverse=True)
        strings = map("%.17g".__mod__, bits.view(np.float64).tolist())
    else:
        values, index = np.unique(a, return_inverse=True)
        strings = map(str, values.tolist())
    return np.array(list(strings), dtype=object), index.ravel()


def write_csv(path, header, columns) -> None:
    """Write a header line and one line per row of the given columns.

    Each column is an array or a sequence, one per header name and all of
    one length; anything else raises ValueError.  An integer column is
    written in decimal, a float column as %.17g and a str column as it is.
    """
    header = list(header)
    arrays = [_as_array(c) for c in columns]
    n = len(arrays[0]) if arrays else 0
    if len(arrays) != len(header) or any(len(a) != n for a in arrays):
        lengths = [len(a) for a in arrays] or [0]
        raise ValueError(f"ragged CSV table: {len(header)} names, "
                         f"{len(arrays)} columns of {min(lengths)} to "
                         f"{max(lengths)} cells")
    columns = [_distinct_strings(a) for a in arrays] if n else []
    # the cells of one block of rows go to the even slots, the separators
    # stay in the odd ones
    block = np.empty((min(n, _BLOCK_ROWS), 2 * len(columns)), dtype=object)
    block[:, 1::2] = ","
    block[:, -1:] = "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - start)
            for j, (strings, index) in enumerate(columns):
                block[:rows, 2 * j] = strings[index[start:start + rows]]
            f.write("".join(block[:rows].ravel().tolist()))


def read_csv(path) -> dict:
    """The columns of a CSV file by header name: a float array, or the list
    of its str cells when one of them is not a number.  ValueError on an
    empty file or a row of another length than the header."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError("empty file")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV row")
    columns = {}
    for name, *cells in zip(header, *rows):
        try:
            columns[name] = np.asarray(cells, dtype=float)
        except ValueError:
            columns[name] = cells
    return columns
