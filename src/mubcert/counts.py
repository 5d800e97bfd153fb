"""Detection-count tables and their CSV representation.

A counts table records, for each input setting ``(i, j, y)`` and detector
outcome, how many detections were registered.  The CSV format is
``i,j,y,outcome,count`` with 1-based indices, one row per cell, rows in
canonical sorted order.  On read, d is the largest index, and the file
must hold each of the 2*d^3 cells exactly once.
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
    d = table.dim
    lines = [CSV_HEADER]
    for i in range(d):
        for j in range(d):
            for y in range(2):
                for b in range(d):
                    lines.append(
                        f"{i + 1},{j + 1},{y + 1},{b + 1},{int(table.cells[i, j, y, b])}"
                    )
    Path(path).write_text("\n".join(lines) + "\n")


def read_counts_csv(path) -> CountsTable:
    """Parse a counts CSV; rejects bad headers, rows and incomplete grids.

    Every row is checked before the table is sized, so a stray large
    index is reported instead of allocating a (d, d, 2, d) table for it.
    """
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise CountsFormatError(f"expected header {CSV_HEADER!r}")
    rows = {}
    for ln_no, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 5:
            raise CountsFormatError(f"line {ln_no}: expected 5 fields")
        try:
            i, j, y, b, c = (int(p) for p in parts)
        except ValueError as exc:
            raise CountsFormatError(f"line {ln_no}: non-integer field") from exc
        if min(i, j, b) < 1 or y not in (1, 2):
            raise CountsFormatError(f"line {ln_no}: index out of range")
        if c < 0:
            raise CountsFormatError(f"line {ln_no}: negative count")
        if (i, j, y, b) in rows:
            raise CountsFormatError(f"line {ln_no}: duplicate cell ({i},{j},{y},{b})")
        rows[i, j, y, b] = c
    if not rows:
        raise CountsFormatError("no data rows")
    if sum(rows.values()) > np.iinfo(np.int64).max:
        raise CountsFormatError("counts add up past the int64 range")
    dim = max(max(i, j, b) for i, j, _, b in rows)
    if dim < 2:
        raise CountsFormatError(f"largest index {dim} gives d < 2")
    if len(rows) != 2 * dim**3:
        raise CountsFormatError(
            f"largest index {dim} needs {2 * dim**3} data rows, got {len(rows)}"
        )
    table = CountsTable.zeros(dim)
    for (i, j, y, b), c in rows.items():
        table.cells[i - 1, j - 1, y - 1, b - 1] = c
    return table
