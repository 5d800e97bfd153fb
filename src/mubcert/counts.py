"""Detection-count tables and their CSV representation.

A counts table records, for each input setting ``(i, j, y)`` and detector
outcome, how many detections were registered.  The CSV format is
``i,j,y,outcome,count`` with 1-based indices, one row per cell; the
writer puts the rows in canonical sorted order.  On read, d is the
largest index, and the file must hold each of the 2*d^3 cells exactly
once, in any order.  One vectorized test accepts a valid file; a
per-line loop reads any other file and writes every message.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CountsFormatError

CSV_HEADER = "i,j,y,outcome,count"


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


def write_counts_csv(table: CountsTable, path) -> None:
    """Write the table in canonical row order (sorted i, j, y, outcome)."""
    cells = table.cells
    lines = [CSV_HEADER]
    lines += [f"{i + 1},{j + 1},{y + 1},{b + 1},{count}"
              for (i, j, y, b), count in zip(np.ndindex(cells.shape), cells.ravel().tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def read_counts_csv(path) -> CountsTable:
    """Parse a counts CSV; rejects undecodable text, bad headers, rows and incomplete grids.

    Blank lines are skipped; a message names the offending line by its
    number in the file, blank lines included.  A vectorized test accepts
    a well-formed file at once (``_accepted_rows``); any other file is
    read line by line (``_checked_rows``), which reports the first
    offending line.  Every row is checked before the table is sized, so
    a stray large index is reported instead of allocating a (d, d, 2, d)
    table for it.
    """
    try:
        text = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise CountsFormatError(f"cannot decode the file: {exc}") from exc
    lines = [ln for ln in text if ln.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise CountsFormatError(f"expected header {CSV_HEADER!r}")
    rows = _accepted_rows(lines[1:])
    if rows is None:
        rows = _checked_rows(text)
    i, j, y, b, c = rows.T
    table = CountsTable.zeros(int(max(i.max(), j.max(), b.max())))
    table.cells[i - 1, j - 1, y - 1, b - 1] = c
    return table


def _accepted_rows(lines: list) -> np.ndarray | None:
    """The data rows as an (n, 5) int64 array if they form a valid file, else None.

    Accepts only rows of five int64 fields that hold each of the 2*d^3
    cells once, d >= 2, with no negative count and counts too small for
    their sum to pass int64.  Writes no message: ``_checked_rows`` reads
    whatever this does not accept and finds its first offending line.
    """
    try:
        rows = np.array([ln.split(",") for ln in lines], dtype=np.int64)
    except (ValueError, OverflowError):  # a ragged row, a non-integer or a value past int64
        return None
    if rows.ndim != 2 or rows.shape[1] != 5:
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
