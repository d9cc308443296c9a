"""CSV serialization with exact double-precision round-tripping."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def format_number(x) -> str:
    """17 significant digits: round-trip exact for IEEE doubles."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _cell_format(cell) -> str:
    if isinstance(cell, str):
        return "%s"
    if isinstance(cell, (int, np.integer)):
        return "%d"
    return "%.17g"


class CsvTable:
    """A rectangular numeric table with a header row."""

    def __init__(self, header, rows):
        self.header = list(header)
        self.rows = [tuple(r) for r in rows]
        for r in self.rows:
            if len(r) != len(self.header):
                raise ValueError("ragged CSV row")

    def column(self, name: str) -> np.ndarray:
        if name not in self.header:
            raise ValueError(f"{name!r} is missing")
        i = self.header.index(name)
        return np.array([float(r[i]) for r in self.rows])


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row.

    The first row sets one ``%``-template for the table, so every cell of a
    column must have the kind of the column's first cell: a ``str`` is
    written as it is, an int as ``%d`` and any other number as ``%.17g``,
    which is ``format_number``'s text.  Rows built from ``ndarray.tolist()``
    columns format fastest.
    """
    header = list(header)
    lines = [",".join(header)]
    template = None
    for row in rows:
        row = tuple(row)
        if len(row) != len(header):
            raise ValueError("ragged CSV row")
        if template is None:
            template = ",".join(_cell_format(c) for c in row)
        lines.append(template % row)
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> CsvTable:
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError("empty file")
    header = text[0].split(",")
    rows = []
    for line in text[1:]:
        cells = []
        for c in line.split(","):
            try:
                cells.append(float(c))
            except ValueError:
                cells.append(c)
        rows.append(tuple(cells))
    return CsvTable(header, rows)
