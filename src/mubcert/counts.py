"""Detection-count tables and their CSV representation.

A counts table records, for each input setting ``(i, j, y)`` and detector
outcome, how many detections were registered.  The CSV format is
``i,j,y,outcome,count`` with 1-based indices, one row per cell, rows in
canonical sorted order.  On read, d is the largest index, and the file
must hold each of the 2*d^3 cells exactly once.
"""

from __future__ import annotations

import itertools
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
    """Parse a counts CSV; rejects bad headers, rows and incomplete grids.

    Blank lines are skipped; a message names the offending line by its
    number in the file, blank lines included.  The fields are converted
    at once into an (n, 5) integer array, int64 unless a value lies past
    that range, and every row check runs on that array; the first
    offending line is reported.  Every row is checked before the table is
    sized, so a stray large index is reported instead of allocating a
    (d, d, 2, d) table for it.
    """
    text = Path(path).read_text().splitlines()
    lines = [ln for ln in text if ln.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise CountsFormatError(f"expected header {CSV_HEADER!r}")
    rows, stop, stop_error = _convert(lines[1:])
    i, j, y, b, c = rows.T
    failed = (
        ((i < 1) | (j < 1) | (b < 1) | ((y != 1) & (y != 2)), "index out of range"),
        (c < 0, "negative count"),
        (_repeats(rows[:, :4]), "duplicate cell ({},{},{},{})"),
    )
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in failed]))
    if bad.size:
        k = bad[0]
        error = next(error for mask, error in failed if mask[k])
        raise CountsFormatError(f"line {_file_line(text, k + 1)}: "
                                + error.format(*rows[k, :4]))
    if stop_error is not None:
        raise CountsFormatError(f"line {_file_line(text, stop + 1)}: {stop_error}")
    if not len(rows):
        raise CountsFormatError("no data rows")
    if sum(c.tolist()) > np.iinfo(np.int64).max:
        raise CountsFormatError("counts add up past the int64 range")
    dim = int(max(i.max(), j.max(), b.max()))
    if dim < 2:
        raise CountsFormatError(f"largest index {dim} gives d < 2")
    if len(rows) != 2 * dim**3:
        raise CountsFormatError(
            f"largest index {dim} needs {2 * dim**3} data rows, got {len(rows)}"
        )
    table = CountsTable.zeros(dim)
    table.cells[i - 1, j - 1, y - 1, b - 1] = c
    return table


def _file_line(text: list, k: int) -> int:
    """1-based number in the file of its k-th (0-based) non-blank line."""
    return [n for n, ln in enumerate(text, 1) if ln.strip()][k]


def _convert(rows: list) -> tuple[np.ndarray, int, str | None]:
    """Convert data rows to an (n, 5) integer array, up to the first malformed row.

    A row is malformed if it does not have 5 fields or a field is no
    integer.  Returns the array of the rows before it, the malformed
    row's index (``len(rows)`` if there is none) and why it is malformed
    (None if there is none).
    """
    fields = [ln.split(",") for ln in rows]
    stop = next((k for k, parts in enumerate(fields) if len(parts) != 5), len(fields))
    error = None if stop == len(rows) else "expected 5 fields"
    flat = list(itertools.chain.from_iterable(fields[:stop]))
    try:
        values = _integers(flat)
    except ValueError:
        # only a bad file gets here: find its first non-integer field
        k = next(k for k, text in enumerate(flat) if not _is_integer(text))
        stop, error = k // 5, "non-integer field"
        values = _integers(flat[:k - k % 5])
    return values.reshape(-1, 5), stop, error


def _integers(texts: list) -> np.ndarray:
    """The fields as int64, or as exact Python ints (object dtype) if one lies past int64."""
    try:
        return np.array(texts, dtype=np.int64)
    except OverflowError:
        return np.array([int(text) for text in texts], dtype=object)


def _is_integer(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Mask of the rows whose key row an earlier row already holds."""
    order = np.lexsort(keys.T[::-1])  # stable: equal keys keep their file order
    ordered = keys[order]
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[order[1:]] = (ordered[1:] == ordered[:-1]).all(axis=1)
    return repeat
