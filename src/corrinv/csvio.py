"""CSV serialization with exact double-precision round-tripping.

One writer, `write_csv`, takes a table by columns.  A str cell is written as
it is, an integer in decimal and any other number with 17 significant
digits (``%.17g``, `format_number`'s text), which round-trips an IEEE double
exactly.  The file is UTF-8 with ``\\n`` line ends on every platform.

The text is built in numpy byte matrices, not cell by cell in Python.  Each
column becomes a ``uint8`` matrix with one NUL-padded row of text per cell
(an integer column) or per distinct value (a float column, deduplicated by
its 64-bit pattern so that 0.0 and -0.0 keep their own text, and a str
column).  Each block of `_BLOCK_ROWS` rows gathers its cells' rows side by
side, between ``,`` and ``\\n`` columns, and is written with its NULs
dropped, so neither the file's lines nor its text are held whole.

A float's 17 digits are exact integer arithmetic: with ``k`` the decimal
exponent of ``|x|``, ``D = round_half_even(|x| * 10**(16 - k))`` comes from
Dekker's error-free product (Dekker 1971) of ``|x|`` and a double-double
``10**(16 - k)``; digits come four at a time from a table, and the ``%g``
text (fixed for ``-4 <= k < 17``, else ``d.ddde+XX``, trailing zeros
dropped) is a gather from one template per layout and last nonzero digit.
The product is exact for ``0 <= 16 - k <= 22`` (``10**(16 - k)`` is a
double there); otherwise its error is below ``1e-14``, far under
`_TIE_MARGIN`.  A cell this cannot certify is formatted with ``%``: one
that is nan, infinite or subnormal, or nonzero outside ``[1e-280, 1e280)``,
or whose scaled value lies within `_TIE_MARGIN` of a rounding tie when the
product is not exact.  Tests compare the result with ``%`` on random bit
patterns, rounding ties and powers of ten.
"""

from __future__ import annotations

import functools
import types
from pathlib import Path

import numpy as np

_BLOCK_ROWS = 8192

# the decimal exponents 16 - k that the fast path scales by: |x| in
# [1e-280, 1e280) gives k in [-281, 280] before it is corrected by one
_P_LOW, _P_HIGH = -266, 299
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's split of a double
# a scaled value closer than this to a rounding tie is formatted with %
# when its product is not exact; one closer than this below 10**16 keeps
# its exponent (see _exponent_step)
_TIE_MARGIN = 2.0**-40
# A float's text is gathered from a row of 28 source bytes: a NUL, the
# sign, the point, the 17 digits, "0", "e", two NULs, then the exponent's
# sign and three digits.  Digits 1 to 16 are words 1 to 4 of the row as
# uint32.
_SIGN, _POINT, _DIGITS, _ZERO, _E, _EXP = 1, 2, 3, 20, 21, 24
_SOURCE_WIDTH = 28
# the tables by exponent cover k in [-_K, _K]
_K = 300


def format_number(x) -> str:
    """17 significant digits: round-trip exact for IEEE doubles."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


@functools.cache
def _tables():
    """The formatter's tables, built on first use:

    - ``chunk_text``: the text of 0000 to 9999, four ASCII digits packed in
      one uint32, and ``chunk_last[c + 10000 * j]``, the position among
      digits 1 to 16 of the last nonzero digit of chunk j if its value is
      c, 0 if c is 0;
    - ``half[b]``: the fractional part above which a floor of parity b
      rounds up, half to even;
    - ``int_masks[n]``: masks of five words that drop all but the last n
      of 20 digits, and ``int_powers``, 10 to 10**19;
    - ``powers[:, 16 - k - _P_LOW]``: ``10**(16 - k)`` as doubles
      ``(hi, hi_high, hi_low, lo)``, ``hi`` the correctly rounded power,
      ``hi_high + hi_low`` its split for Dekker's product and ``lo`` the
      correctly rounded rest;
    - by exponent k + _K: the ``frame``, a source row that holds the
      point, the "0", the "e" and the sign and digits of k, and
      ``layout``, the first template of k's %g layout (fixed point for k
      from -4 to 16, else exponential with two or three exponent digits);
    - ``templates[layout + last]``: the source byte of each byte of the
      text when the last nonzero digit is digit ``last`` (0 for the leading
      one), padded with the NUL at 0, and ``sizes``, their lengths."""
    n = np.arange(10000, dtype=np.int16)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10],
                      axis=1).astype(np.uint8)
    tail_zeros = np.zeros(n.size, np.int8)
    for j in range(1, 4):
        tail_zeros += np.all(digits[:, 4 - j:] == 0, axis=1)
    chunk_last = np.where(n > 0, 4 * np.arange(1, 5, dtype=np.int8)[:, None]
                          - tail_zeros, 0).astype(np.int8)
    int_masks = ((np.arange(20) >= 20 - np.arange(21)[:, None])
                 * 255).astype(np.uint8).view(np.uint32)
    powers = []
    for p in range(_P_LOW, _P_HIGH + 1):
        if p >= 0:
            hi = float(10**p)
            lo = float(10**p - int(hi))
        else:
            q = 10**-p
            hi = 1 / q
            a, b = hi.as_integer_ratio()
            lo = (b - a * q) / (b * q)
        c = _SPLIT * hi
        hi_high = c - (c - hi)
        powers.append((hi, hi_high, hi - hi_high, lo))
    k = np.arange(-_K, _K + 1)
    frame = np.zeros((k.size, _SOURCE_WIDTH), np.uint8)
    frame[:, _POINT] = ord(".")
    frame[:, _ZERO] = ord("0")
    frame[:, _E] = ord("e")
    frame[:, _EXP] = np.where(k < 0, ord("-"), ord("+"))
    frame[:, _EXP + 1:] = np.abs(k)[:, None] // [100, 10, 1] % 10 + ord("0")
    templates = []
    for e in range(-4, 17):
        for last in range(17):
            if e < 0:
                text = [_ZERO, _POINT, *[_ZERO] * (-e - 1),
                        *range(_DIGITS, _DIGITS + last + 1)]
            else:
                text = [*range(_DIGITS, _DIGITS + e + 1)]
                if last > e:
                    text += [_POINT,
                             *range(_DIGITS + e + 1, _DIGITS + last + 1)]
            templates.append([_SIGN, *text])
    for exponent_digits in (2, 3):
        for last in range(17):
            fraction = ([_POINT, *range(_DIGITS + 1, _DIGITS + last + 1)]
                        if last else [])
            templates.append([_SIGN, _DIGITS, *fraction, _E, _EXP,
                              *range(_EXP + 4 - exponent_digits, _EXP + 4)])
    sizes = np.array([len(t) for t in templates])
    padded = np.zeros((len(templates), sizes.max()), np.intp)
    for row, t in zip(padded, templates):
        row[:len(t)] = t
    layout = np.where(np.abs(k) < 100, 21, 22)
    layout[(k >= -4) & (k < 17)] = np.arange(21)
    tables = types.SimpleNamespace(
        chunk_text=(digits + ord("0")).view(np.uint32).ravel(),
        chunk_last=chunk_last.ravel(),
        chunk_offset=10000 * np.arange(4),
        half=np.array([0.5, np.nextafter(0.5, 0)]),
        int_masks=int_masks,
        int_powers=10 ** np.arange(1, 20, dtype=np.uint64),
        powers=np.array(powers).T.copy(),
        frame=frame, layout=17 * layout, templates=padded, sizes=sizes)
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _scaled(ax, k, tables):
    """``(floor, frac, exact)`` of ``|x| * 10**(16 - k)``: its floor as
    int64 (exact where it is at least 2**53), its fractional part to within
    1e-14, and where both are exact."""
    hi, hi_high, hi_low, lo = tables.powers[:, 16 - _P_LOW - k]
    c = _SPLIT * ax
    ax_high = c - (c - ax)
    ax_low = ax - ax_high
    high = ax * hi
    # Dekker's two_prod: ax * hi == high + rest exactly
    rest = ((ax_high * hi_high - high) + ax_high * hi_low
            + ax_low * hi_high) + ax_low * hi_low
    low = rest + ax * lo
    floor = np.floor(low)
    return high.astype(np.int64) + floor.astype(np.int64), low - floor, lo == 0


def _exponent_step(floor, frac):
    """How far k moves, -1, 0 or 1, for the scaled value ``floor + frac`` to
    lie in [1e16, 1e17): the exponent comes from the exact value, not the
    rounded one.  A value within _TIE_MARGIN below 1e16 stays, exact powers
    of ten among them: at k - 1 its digits round up to 10**17 and carry,
    which gives the same text."""
    return ((floor >= 10**17).astype(np.int64)
            - (floor + (frac >= 1 - _TIE_MARGIN) < 10**16))


def _chunks(n, count):
    """The nonnegative integers n below ``10**(4 * count)`` as ``count``
    rows of four decimal digits each, most significant first."""
    q = np.empty((count + 1, n.size), n.dtype)
    q[0] = 0
    for j in range(1, count):
        np.floor_divide(n, 10**(4 * (count - j)), out=q[j])
    q[count] = n
    return q[1:] - 10**4 * q[:-1]


def _float_text(values):
    """Each value's %.17g as a NUL-padded row of uint8 (see the module
    docstring)."""
    tables = _tables()
    ax = np.abs(values)
    zero = ax == 0
    fast = (ax >= 1e-280) & (ax < 1e280)
    ax = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(ax)).astype(np.int64)
    floor, frac, exact = _scaled(ax, k, tables)
    step = _exponent_step(floor, frac)
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] += step[moved]
        floor[moved], frac[moved], exact[moved] = _scaled(ax[moved], k[moved],
                                                          tables)
        fast[moved] &= _exponent_step(floor[moved], frac[moved]) == 0
    # round half to even: an odd floor rounds up at frac = 0.5
    d = floor + (frac > tables.half[floor & 1])
    fast &= exact | (np.abs(frac - 0.5) >= _TIE_MARGIN)
    # a carry to 10**17 moves the exponent up by one
    carry = d == 10**17
    d = np.where(carry, 10**16, d)
    k += carry
    # zero was scaled as 1 (k = 0): its digits are all 0, and %g writes "0"
    d[zero] = 0
    fast |= zero

    # the leading digit, then digits 1 to 16 in four chunks
    chunks = _chunks(d, 5)
    digits = chunks[1:].T
    negative = np.signbit(values)
    # the sign column goes when no value has its sign bit set
    start = 0 if negative.any() else 1
    k += _K
    source = tables.frame[k]
    if start == 0:
        source[:, _SIGN] = negative * ord("-")
    source[:, _DIGITS] = chunks[0] + ord("0")
    source.view(np.uint32)[:, 1:5] = tables.chunk_text[digits]
    # %g drops the trailing zeros after the point, and the point with them:
    # the template stops at the last nonzero digit
    template = tables.layout[k] + tables.chunk_last[
        digits + tables.chunk_offset].max(axis=1)
    slow = np.flatnonzero(~fast)
    cells = _percent_text(values[slow]) if slow.size else []
    width = max([tables.sizes[template].max() - start]
                + [len(cell) for cell in cells])
    index = tables.templates[:, start:start + width][template]
    index += np.arange(0, values.size * _SOURCE_WIDTH, _SOURCE_WIDTH)[:, None]
    text = np.take(source, index)
    for i, cell in zip(slow, cells):
        text[i] = 0
        text[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return text


def _percent_text(values):
    """The cells the fast path does not certify, formatted by %."""
    return [("%.17g" % x).encode() for x in values.tolist()]


def _int_text(a):
    """Each integer's decimal text as a NUL-padded row of uint8."""
    tables = _tables()
    if a.dtype.kind == "u":
        negative = None
        magnitude = a.astype(np.uint64)
    else:
        a = a.astype(np.int64)
        negative = a < 0
        if not negative.any():
            negative = None
        # -(-2**63) wraps to -2**63, whose uint64 view is 2**63
        magnitude = (a if negative is None else
                     np.where(negative, -a, a)).view(np.uint64)
    digits = len(str(int(magnitude.max())))
    count = -(-digits // 4)
    # leading zeros go, the last digit stays
    length = np.searchsorted(tables.int_powers[:digits - 1], magnitude,
                             side="right") + 1
    words = (tables.chunk_text[_chunks(magnitude, count).T]
             & tables.int_masks[length, 5 - count:]).view(np.uint8)
    if negative is None:
        return words[:, 4 * count - digits:]
    text = np.empty((a.size, 1 + digits), np.uint8)
    text[:, 0] = negative * ord("-")
    text[:, 1:] = words[:, 4 * count - digits:]
    return text


def _str_text(name, a):
    """(text, index): each distinct str cell's UTF-8 bytes as a NUL-padded
    row of uint8, and the row of each cell.  ValueError names the column of
    a cell that holds a comma, a newline or a NUL."""
    values, index = np.unique(a, return_inverse=True)
    strings = [str(v) for v in values.tolist()]
    for s in strings:
        if "," in s or "\n" in s or "\0" in s:
            raise ValueError(f"CSV column {name!r}: cell {s!r} holds a "
                             f"comma, a newline or a NUL")
    text = np.array([s.encode() for s in strings], dtype=bytes)
    return text.view(np.uint8).reshape(text.size, -1), index.ravel()


def _as_array(name, column):
    """The column as an array whose dtype kind says how a cell is written:
    "i" or "u" in decimal, "f" as %.17g and any other as str.  A sequence
    takes the kind all its cells share: str, integer (which must fit in
    int64, OverflowError otherwise) or float; ValueError names a column
    that mixes them."""
    if isinstance(column, np.ndarray):
        return column
    kinds = {str if isinstance(c, str) else
             int if isinstance(c, (int, np.integer)) else float
             for c in column}
    if len(kinds) > 1:
        raise ValueError(f"CSV column {name!r} mixes str, integer and "
                         f"float cells")
    if kinds == {str}:
        return np.array(column, dtype=object)
    if kinds == {int}:
        return np.array([int(c) for c in column], dtype=np.int64)
    return np.array(column, dtype=np.float64)


def _in_blocks(format_text, a):
    """format_text applied to each block of `_BLOCK_ROWS` cells of a, which
    bounds its temporaries, and the blocks' text rows NUL-padded to one
    width."""
    starts = range(0, a.size, _BLOCK_ROWS)
    parts = [format_text(a[i:i + _BLOCK_ROWS]) for i in starts]
    if len(parts) == 1:
        return parts[0]
    text = np.zeros((a.size, max(p.shape[1] for p in parts)), np.uint8)
    for i, part in zip(starts, parts):
        text[i:i + len(part), :part.shape[1]] = part
    return text


def _column_text(name, a):
    """(text, index): the column's text rows, and the row of each cell
    (None when there is one row per cell)."""
    if a.dtype.kind in "iu":
        return _in_blocks(_int_text, a), None
    if a.dtype.kind == "f":
        bits, index = np.unique(np.asarray(a, dtype=np.float64)
                                .view(np.int64), return_inverse=True)
        return _in_blocks(_float_text, bits.view(np.float64)), index.ravel()
    return _str_text(name, a)


def write_csv(path, header, columns) -> None:
    """Write a header line and one line per row of the given columns.

    Each column is an array or a sequence, one per header name and all of
    one length; anything else raises ValueError, as does a sequence that
    mixes str, integer and float cells, or a str cell holding a comma, a
    newline or a NUL.  An integer column is written in decimal, a float
    column as %.17g and a str column as it is.
    """
    header = list(header)
    columns = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != n for c in columns):
        lengths = [len(c) for c in columns] or [0]
        raise ValueError(f"ragged CSV table: {len(header)} names, "
                         f"{len(columns)} columns of {min(lengths)} to "
                         f"{max(lengths)} cells")
    texts = [_column_text(name, _as_array(name, c))
             for name, c in zip(header, columns)] if n else []
    # each column's text is followed by one separator column: a comma, a
    # newline after the last
    starts = [0]
    for text, _ in texts:
        starts.append(starts[-1] + text.shape[1] + 1)
    block = np.full((min(n, _BLOCK_ROWS), starts[-1]), ord(","), np.uint8)
    block[:, -1:] = ord("\n")
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for start in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - start)
            for (text, index), first in zip(texts, starts):
                cells = block[:rows, first:first + text.shape[1]]
                cells[:] = (text[start:start + rows] if index is None else
                            np.take(text, index[start:start + rows], axis=0))
            flat = block[:rows].ravel()
            f.write(flat[flat != 0])


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
