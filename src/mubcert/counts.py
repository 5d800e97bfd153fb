"""Detection-count tables and their CSV representation.

A counts table records, for each input setting ``(i, j, y)`` and detector
outcome, how many detections were registered.  The CSV format is
``i,j,y,outcome,count`` with 1-based indices, one row per cell; the
writer puts the rows in canonical sorted order.  On read, d is the
largest index, and the file must hold each of the 2*d^3 cells exactly
once, in any order.  Text is written with one ``%`` call into a layout
built from the array's shape (``row_layout``) and read with one
``np.loadtxt`` call that accepts a valid file; a per-line loop reads any
other file and writes every message.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CountsFormatError

CSV_HEADER = "i,j,y,outcome,count"

# The only characters of a body that the vectorized read parses: anything
# else (a '.', an 'e', a non-ASCII digit or space, a '_') goes to the
# per-line loop, so the two reads cannot differ on how to parse a field.
# So does a run of 19 digits, which numpy < 2 may parse past int64 through
# a float, and which no valid file needs: a count of a file of 16 or more
# rows is at most int64 max // 16, which has 18 digits.
_PLAIN_INTEGERS = re.compile(r"[0-9+\-, \t\n]*")
_DIGITS_AS_ZERO = str.maketrans("123456789", "000000000")


@dataclass(eq=False)
class CountsTable:
    """Detection counts indexed by (i, j, y, outcome), all 1-based outside.

    ``cells[i-1, j-1, y-1, b-1]`` holds the count for input dits ``(i, j)``,
    measurement choice ``y`` and outcome ``b``.  Provenance (seed,
    config) lives in the run manifest.
    """

    dim: int
    cells: np.ndarray  # shape (d, d, 2, d), nonnegative integers

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        expected = (self.dim, self.dim, 2, self.dim)
        if self.cells.shape != expected:
            raise CountsFormatError(
                f"expected cells of shape {expected}, got {self.cells.shape}"
            )
        if (self.cells < 0).any():
            raise CountsFormatError("negative counts are not allowed")

    @classmethod
    def zeros(cls, dim: int) -> "CountsTable":
        return cls(dim=dim, cells=np.zeros((dim, dim, 2, dim), dtype=np.int64))

    def setting_totals(self) -> np.ndarray:
        """Total detections per (i, j, y) setting, shape (d, d, 2)."""
        return self.cells.sum(axis=3)

    def total(self) -> int:
        return int(self.cells.sum())


def row_layout(shape, tail: str) -> str:
    """A ``%`` layout of one line per index of ``shape``, in C order.

    Each line is the 1-based index, comma-separated, then ``tail``
    (which holds the line's ``%`` fields) and a newline.  The layout is
    built with one join of ``str.replace`` calls per axis, so its Python
    work grows with the axis lengths and not with the number of lines.
    """
    layout = "\0" + tail + "\n"
    for n in reversed(shape):
        layout = "".join(layout.replace("\0", f"\0{k},") for k in range(1, n + 1))
    return layout.replace("\0", "")


def write_counts_csv(table: CountsTable, path) -> None:
    """Write the table in canonical row order (sorted i, j, y, outcome).

    The rows are one ``%`` call into ``row_layout`` of the cells' shape.
    """
    cells = table.cells
    layout = CSV_HEADER + "\n" + row_layout(cells.shape, "%d")
    Path(path).write_text(layout % tuple(cells.ravel().tolist()))


def read_counts_csv(source) -> CountsTable:
    """Parse a counts CSV; rejects undecodable text, bad headers, rows and incomplete grids.

    ``source`` is the file's path or its bytes.  Bytes are decoded as
    ``Path.read_text`` decodes a file, so a caller that keeps the bytes
    it read, to hash them, gets the same table and messages.
    Blank lines are skipped; a message names the offending line by its
    number in the file, blank lines included.  A vectorized test accepts
    a well-formed file at once (``_accepted_rows``); any other file is
    read line by line (``_checked_rows``), which reports the first
    offending line.  Every row is checked before the table is sized, so
    a stray large index is reported instead of allocating a (d, d, 2, d)
    table for it.
    """
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    try:
        text = io.TextIOWrapper(io.BytesIO(data)).read().splitlines()
    except UnicodeDecodeError as exc:
        raise CountsFormatError(f"cannot decode the file: {exc}") from exc
    lines = [ln for ln in text if ln.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise CountsFormatError(f"expected header {CSV_HEADER!r}")
    rows = _accepted_rows("\n".join(lines[1:]))
    if rows is None:
        rows = _checked_rows(text)
    i, j, y, b, c = rows.T
    table = CountsTable.zeros(int(max(i.max(), j.max(), b.max())))
    table.cells[i - 1, j - 1, y - 1, b - 1] = c
    return table


def _accepted_rows(body: str) -> np.ndarray | None:
    """The data rows as an (n, 5) int64 array if they form a valid file, else None.

    ``body`` is the non-blank lines after the header, joined by newlines.
    One ``np.loadtxt`` call parses it, and only when it is non-empty
    (numpy warns on an empty one), made of digits, signs, commas, spaces,
    tabs and newlines alone, and holds no run of 19 digits: the text on
    which numpy's integer parser and ``int`` agree on every numpy that
    the package supports.  Accepts only rows of five int64 fields that
    hold each of the 2*d^3 cells once, d >= 2, with no negative count
    and counts too small for their sum to pass int64.
    Writes no message: ``_checked_rows`` reads whatever this does not
    accept and finds its first offending line.
    """
    if (not body or not _PLAIN_INTEGERS.fullmatch(body)
            or "0" * 19 in body.translate(_DIGITS_AS_ZERO)):
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64,
                          comments=None, ndmin=2)
    except (ValueError, OverflowError):  # a ragged row, a non-integer or a value past int64
        return None
    if rows.shape[1] != 5:
        return None
    i, j, y, b, c = rows.T
    n, dim = len(rows), int(max(i.max(), j.max(), b.max()))
    if (dim < 2 or n != 2 * dim**3 or min(i.min(), j.min(), b.min()) < 1
            or not ((y == 1) | (y == 2)).all() or c.min() < 0
            or c.max() > np.iinfo(np.int64).max // n):  # the loop checks the sum exactly
        return None
    cell = (((i - 1) * dim + j - 1) * 2 + y - 1) * dim + b - 1
    return rows if np.bincount(cell, minlength=n).max() == 1 else None


def _checked_rows(text: list) -> np.ndarray:
    """The data rows of the file's lines as an (n, 5) int64 array, checked one line at a time.

    Each row is checked for 5 fields, integer fields, indices in range,
    a nonnegative count and a new cell, in that order, and the first
    offending line is reported; then the file is checked for data rows,
    an int64 sum of counts, d >= 2 and 2*d^3 rows.
    """
    numbered = [(n, ln) for n, ln in enumerate(text, 1) if ln.strip()][1:]  # after the header
    rows, seen = [], set()
    for n, ln in numbered:
        fields = ln.split(",")
        if len(fields) != 5:
            raise CountsFormatError(f"line {n}: expected 5 fields")
        try:
            i, j, y, b, c = map(int, fields)
        except ValueError:
            raise CountsFormatError(f"line {n}: non-integer field") from None
        if min(i, j, b) < 1 or y not in (1, 2):
            raise CountsFormatError(f"line {n}: index out of range")
        if c < 0:
            raise CountsFormatError(f"line {n}: negative count")
        if (i, j, y, b) in seen:
            raise CountsFormatError(f"line {n}: duplicate cell ({i},{j},{y},{b})")
        seen.add((i, j, y, b))
        rows.append((i, j, y, b, c))
    if not rows:
        raise CountsFormatError("no data rows")
    if sum(row[4] for row in rows) > np.iinfo(np.int64).max:
        raise CountsFormatError("counts add up past the int64 range")
    dim = max(max(i, j, b) for i, j, _, b, _ in rows)
    if dim < 2:
        raise CountsFormatError(f"largest index {dim} gives d < 2")
    if len(rows) != 2 * dim**3:
        raise CountsFormatError(
            f"largest index {dim} needs {2 * dim**3} data rows, got {len(rows)}"
        )
    return np.array(rows, dtype=np.int64)
