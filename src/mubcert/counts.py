"""Detection-count tables, and the text of every file the package writes.

A counts table records, for each input setting ``(i, j, y)`` and detector
outcome, how many detections were registered.  The CSV format is
``i,j,y,outcome,count`` with 1-based indices, one row per cell; the
writer puts the rows in canonical sorted order.  On read, d is the
largest index, and the file must hold each of the 2*d^3 cells exactly
once, in any order.  Text is written with one ``%`` call into a layout
built from the array's shape (``row_layout``) and read with one
``np.fromstring`` call, which a byte-level structure test lets through
only for rows of five ASCII fields of 1 to 18 digits each (spaces or
tabs around a field and blank lines allowed); a per-line loop reads any
other file and writes every message.

``document_json`` writes every JSON document: the basis-pair document,
the certificate and each run manifest.  The stdlib encoder writes each
part that holds no array; ``float_texts`` prints each distinct float of
an array once.  ``write_output`` writes every file the package writes,
this module's CSV and each output of the CLI, in place: it never
truncates a file to zero first, so no close has to wait for the file
system to flush it.
"""

from __future__ import annotations

import io
import json
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CountsFormatError

CSV_HEADER = "i,j,y,outcome,count"

# The encoding of Path.write_text and Path.read_text, fixed at import.
_ENCODING = io.TextIOWrapper(io.BytesIO()).encoding
# json.dumps(value, allow_nan=False) and json.dumps(doc, indent=2,
# allow_nan=False) without building an encoder per call.
_json_value = json.JSONEncoder(allow_nan=False).encode
_json_document = json.JSONEncoder(indent=2, allow_nan=False).encode
# The types the encoder writes as JSON scalars (bool is an int), which
# both encoders above write alike.
_SCALARS = (str, int, float, type(None))
# A space or tab between two digits, which np.fromstring would read as a
# field boundary and int() refuses.
_SPLIT_DIGITS = re.compile(rb"[0-9][ \t]+[0-9]")


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


def float_texts(values) -> list:
    """The shortest-repr text of each float of ``values``, in C order.

    ``float.__repr__`` runs once per distinct value, told apart by bit
    pattern, so that -0.0 and 0.0 keep their own text; each text reads
    back as the same double.
    """
    values = np.asarray(values, dtype=float).ravel()
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)
    return texts[where].tolist()


def document_json(doc, depth: int = 0) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False)`` of a document that may hold float ndarrays.

    ``doc`` is a dict, a list or tuple, a float ndarray or a JSON scalar;
    the values and items of a container are the same, and dict keys are
    those ``json.dumps`` takes, written as it writes them.  A scalar, or
    a part that holds no array, is written by one call of a stdlib
    encoder, its newlines then padded to ``depth``: an encoded JSON
    string holds no raw newline.  Only a container that holds an array is written here,
    item by item, and an array as its ``tolist()`` would be, with one
    ``%`` call into a skeleton of nested brackets that takes one join per
    axis and the texts of ``float_texts``.
    """
    if isinstance(doc, _SCALARS):
        return _json_value(doc)
    pad = "\n" + "  " * depth
    if not _holds_array(doc):
        return _json_document(doc).replace("\n", pad) if depth else _json_document(doc)
    inner = pad + "  "
    if isinstance(doc, dict):
        return "{" + inner + ("," + inner).join(
            f"{_json_key(key)}: {document_json(value, depth + 1)}"
            for key, value in doc.items()) + pad + "}"
    if isinstance(doc, (list, tuple)):
        return "[" + inner + ("," + inner).join(
            document_json(item, depth + 1) for item in doc) + pad + "]"
    if not doc.size:
        return document_json(doc.tolist(), depth)
    if not np.isfinite(doc).all():
        raise ValueError("Out of range float values are not JSON compliant")
    skeleton = "%s"
    for axis in reversed(range(doc.ndim)):
        inner = pad + "  " * (axis + 1)
        outer = pad + "  " * axis
        skeleton = "[" + inner + ("," + inner).join([skeleton] * doc.shape[axis]) + outer + "]"
    return skeleton % tuple(float_texts(doc))


def _holds_array(doc) -> bool:
    """True if ``doc`` is an ndarray or a dict, list or tuple with one anywhere inside.

    A JSON scalar is passed over without a call, as most items are one.
    """
    if isinstance(doc, dict):
        doc = doc.values()
    elif not isinstance(doc, (list, tuple)):
        return isinstance(doc, np.ndarray)
    for item in doc:
        if not isinstance(item, _SCALARS) and _holds_array(item):
            return True
    return False


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` writes it: a str, int, float, bool or None key in quotes."""
    return _json_value(key) if isinstance(key, str) else _json_value({key: 0})[1:-4]


def write_output(path, text: str) -> None:
    """Write ``text`` over the file at ``path`` in place, encoded as ``Path.write_text`` encodes it.

    The text is encoded once, in the locale encoding that
    ``Path.write_text`` uses, with each newline written as ``\\n``.  The
    file is opened without truncation, written from its start, and
    then, if it is a regular file, cut to the bytes written; a device
    such as ``/dev/stdout`` cannot be cut and is only written.  On ext4 a
    file truncated to zero and rewritten starts writeback when it is
    closed, so a truncating write waits for the disk inside the command.
    Nothing is synced: a write cut short can leave the new bytes followed
    by the old file's tail.
    """
    data = text.encode(_ENCODING)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        left = memoryview(data)
        while left:
            left = left[os.write(fd, left):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))  # the old file may be longer
    finally:
        os.close(fd)


def write_counts_csv(table: CountsTable, path) -> None:
    """Write the table in canonical row order (sorted i, j, y, outcome).

    The rows are one ``%`` call into ``row_layout`` of the cells' shape,
    written in place by ``write_output``.
    """
    cells = table.cells
    layout = CSV_HEADER + "\n" + row_layout(cells.shape, "%d")
    write_output(path, layout % tuple(cells.ravel().tolist()))


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
        text = io.TextIOWrapper(io.BytesIO(data)).read()
    except UnicodeDecodeError as exc:
        raise CountsFormatError(f"cannot decode the file: {exc}") from exc
    # Every line boundary of str.splitlines is whitespace, so lstrip drops
    # the blank lines before the header; a header line that ends in another
    # boundary than "\n" fails the test or leaves a body the accept test refuses.
    header, _, body = text.lstrip().partition("\n")
    rows = _accepted_rows(body) if header.rstrip() == CSV_HEADER else None
    if rows is None:
        rows = _checked_rows(text.splitlines())
    i, j, y, b, c = rows.T
    table = CountsTable.zeros(int(max(i.max(), j.max(), b.max())))
    table.cells[i - 1, j - 1, y - 1, b - 1] = c
    return table


def _accepted_rows(body: str) -> np.ndarray | None:
    """The data rows as an (n, 5) int64 array if they form a valid file, else None.

    ``body`` is the file's text after its header line, as it stands.
    The structure test, on its bytes, lets through only ASCII lines of
    five comma-separated fields of 1 to 18 digits each, with spaces or
    tabs around a field and blank lines allowed: the text on which
    ``np.fromstring`` and ``int`` read every field alike.  (``fromstring``
    reads a lone ``-`` as 0 and clamps a value past int64 without a word,
    so neither a sign nor a 19th digit may reach it.)  One
    ``np.fromstring`` call then parses the fields.  Accepts only rows
    that hold each of the 2*d^3 cells once, d >= 2, with counts too small
    for their sum to pass int64.
    Writes no message: ``_checked_rows`` reads whatever this does not
    accept and finds its first offending line.
    """
    if not body.isascii():
        return None
    raw = body.encode()
    if not _plain_rows(raw):  # spaces, tabs or blank lines: never in a written file
        if _SPLIT_DIGITS.search(raw):
            return None
        raw = b"\n".join(filter(None, raw.translate(None, b" \t").split(b"\n"))) + b"\n"
        if not _plain_rows(raw):
            return None
    # the offset of every separator, the newline before the first row included:
    # a field's width is the distance to the next one
    ends = np.flatnonzero(np.frombuffer(b"\n" + raw, np.uint8) < ord("0"))
    widths = ends[1:] - ends[:-1]
    if widths.min() < 2 or widths.max() > 19:  # an empty field, or one of 19 digits or more
        return None
    n = len(widths) // 5
    rows = np.fromstring(raw.replace(b"\n", b","), dtype=np.int64, sep=",").reshape(n, 5)
    i, j, y, b, c = rows.T
    dim = int(max(i.max(), j.max(), b.max()))
    if (dim < 2 or n != 2 * dim**3 or min(i.min(), j.min(), b.min()) < 1
            or not ((y == 1) | (y == 2)).all()
            or c.max() > np.iinfo(np.int64).max // n):  # the loop checks the sum exactly
        return None
    cell = (((i - 1) * dim + j - 1) * 2 + y - 1) * dim + b - 1
    return rows if np.bincount(cell, minlength=n).max() == 1 else None


def _plain_rows(raw: bytes) -> bool:
    """True if ``raw`` is one or more lines of five comma-separated runs of digits, each ending in a newline.

    A run may be empty: ``_accepted_rows`` measures each field's width.
    """
    skeleton = raw.translate(None, b"0123456789")
    return bool(skeleton) and skeleton == b",,,,\n" * (len(skeleton) // 5)


def _checked_rows(text: list) -> np.ndarray:
    """The data rows of the file's lines as an (n, 5) int64 array, checked one line at a time.

    The first non-blank line must be the header.  Each row after it is
    checked for 5 fields, integer fields, indices in range, a
    nonnegative count and a new cell, in that order, and the first
    offending line is reported; then the file is checked for data rows,
    an int64 sum of counts, d >= 2 and 2*d^3 rows.
    """
    numbered = [(n, ln) for n, ln in enumerate(text, 1) if ln.strip()]
    if not numbered or numbered[0][1].strip() != CSV_HEADER:
        raise CountsFormatError(f"expected header {CSV_HEADER!r}")
    rows, seen = [], set()
    for n, ln in numbered[1:]:
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
